"""The recursive lift DP over Fractions, for cross-checking.

Deliberately independent of the package's `lift_distribution`: it closes
each target set with the full recursive `extend_set`, convolves Fraction
distributions branch by branch and keeps its own memo, so it shares no
arithmetic and no cache with the integer DP it checks.
"""

from fractions import Fraction

from treecut.errors import InputError
from treecut.lift import extend_set


def _convolve(dist_a, dist_b):
    out = {}
    for xa, pa in dist_a.items():
        for xb, pb in dist_b.items():
            key = xa | xb
            out[key] = out.get(key, Fraction(0)) + pa * pb
    return out


class ReferenceLift:
    """Exact lifted distributions of one context; `calls` counts every
    call of `distribution`, memo hits and recursive calls included."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.memo = {}
        self.calls = 0

    def distribution(self, T, levels=None):
        self.calls += 1
        ctx = self.ctx
        levels = ctx.levels if levels is None else levels
        T = frozenset(T)
        hit = self.memo.get((levels, T))
        if hit is not None:
            return hit
        ext = extend_set(ctx, T, levels)
        R = frozenset(v for v in ext.top if v not in ("s", "t"))
        if R:
            try:
                base_dist = ctx.base_dists[R]
            except KeyError:
                raise InputError(
                    f"base round budget too small: the lift needs the distribution "
                    f"over {len(R)} base vertices") from None
        else:
            base_dist = {frozenset(): Fraction(1)}
        half = Fraction(1, 2)
        out = {}
        for Y, p in base_dist.items():
            if p == 0:
                continue
            for flip in (False, True):
                chosen = (R - Y) if flip else Y
                x1 = chosen | {"s"}
                result = {frozenset(x1 & T): Fraction(1)}
                for ei, sub_ext in ext.per_copy.items():
                    u, v, _ = ctx.block.supply_edges[ei]
                    u_in = u == "s" or (u != "t" and u in x1)
                    v_in = v == "s" or (v != "t" and v in x1)
                    sub_T = sub_ext.original
                    if u_in and v_in:
                        part = {frozenset(("e", ei, x) for x in sub_T): Fraction(1)}
                    elif not u_in and not v_in:
                        part = {frozenset(): Fraction(1)}
                    else:
                        inner = self.distribution(sub_T, levels - 1)
                        if u_in:
                            part = {frozenset(("e", ei, x) for x in sel): q
                                    for sel, q in inner.items()}
                        else:
                            part = {frozenset(("e", ei, x) for x in (sub_T - sel)): q
                                    for sel, q in inner.items()}
                    result = _convolve(result, part)
                for sel, q in result.items():
                    out[sel] = out.get(sel, Fraction(0)) + p * half * q
        self.memo[(levels, T)] = out
        return out
