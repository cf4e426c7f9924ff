"""The recursive lift DP over Fractions, for cross-checking.

Deliberately independent of the package's `lift_distribution`: it closes
each target set with the full recursive `extend_set` below, convolves
Fraction distributions branch by branch and keeps its own memo, so it
shares no arithmetic and no cache with the integer DP it checks.
"""

from dataclasses import dataclass
from fractions import Fraction

from treecut.errors import InputError, InvariantError


@dataclass
class ExtendedSet:
    """The recursive closure of a target set.

    top: members of the closure living in the current level's base copy
    (terminals plus base vertices, local names); per_copy maps a touched
    edge index to the extension inside that copy (inner names).
    """

    original: frozenset
    top: frozenset
    per_copy: dict


def extend_set(ctx, T, levels=None) -> ExtendedSet:
    """Close T under the powering structure: pin both terminals, and pull
    in the base endpoint of every copy that T touches, recursively."""
    levels = ctx.levels if levels is None else levels
    T = frozenset(T)
    top = {v for v in T if not (isinstance(v, tuple) and v and v[0] == "e")}
    top |= {"s", "t"}
    touched: dict = {}
    for v in T:
        if isinstance(v, tuple) and v and v[0] == "e":
            touched.setdefault(v[1], set()).add(v[2])
    per_copy = {}
    for ei, inner in sorted(touched.items()):
        if levels < 2:
            raise InputError(f"copy vertex at level 1: {sorted(map(str, inner))}")
        _, base_vertex = ctx.edge_endpoint(ei)
        top.add(base_vertex)
        per_copy[ei] = extend_set(ctx, frozenset(inner), levels - 1)
    ext = ExtendedSet(T, frozenset(top), per_copy)
    # each pulled-in base vertex charges to a distinct T-member inside a copy
    if len(ext.top - {"s", "t"}) > len(T):
        raise InvariantError("extension grew beyond its charging bound")
    return ext


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
                elems, table = ctx.solution.block_table(R)
                base_dist = {frozenset(v for b, v in enumerate(elems) if m >> b & 1): x
                             for m, x in enumerate(table)}
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
