"""Lifting MaxCut LP solutions onto powered instances.

An r-round solution is the same thing as a family of marginally
consistent local distributions, one per small vertex set: D_S(T) = x(S,T).
This module reads the base MaxCut distributions off the validated
`SaSolution` its LP produced and pushes them through the powering
construction: terminals are pinned to opposite sides, the base draw is
symmetrized with a fair coin, and cut copies recurse while uncut copies
ride along with their terminals.  Distributions are computed exactly by
dynamic programming over the recursion tree, never sampled.

The DP runs in integers.  A target set is closed one level at a time:
its top set (terminals, its base vertices and the base endpoint of each
copy it touches) picks the base draw, and each touched copy's inner set
is left to the recursive call on the next level down.  A copy vertex
nested deeper than the levels allow is refused before anything is read:
the touched copies are closed level by level in edge order, down to the
first copy found at level 1.  The base draw and each cut copy's inner
distribution are read as integer numerators over one denominator, by
`relaxation.numerators`, the lcm of their nonzero entries' denominators;
a branch's selections multiply integers and its denominators multiply;
the branches are summed over the lcm of their denominators, checked to
sum to it, and only then turned into one reduced Fraction per entry, and
the memo keeps those Fraction dicts.

Each context also keeps its own read caches, which live and die with it:
each base draw in integers with its symmetrized selections, keyed by its
ground set and read from the solution's table for that set, and per
(level, copy, inner set) the copy's endpoints, its outer names and, per
orientation once a branch cuts it, the inner distribution in integers
and outer names.  So each of these reads is made at most once per
context; the recursive call on a cut copy still runs on every branch
that cuts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .errors import InputError, InvariantError
from .generators import MaxCutInstance, PoweredInstance, building_block, power
from .instance import SparsestCutInstance
from .oracle import check_maxcut_bound, exact_maxcut, sparsest_cut_by_elimination
from .relaxation import SaSolution, build_maxcut_lp, certified, numerators, subset_from_mask
from . import simplex

# powered instances up to this many vertices get phi from the oracle
ENUMERATE_BOUND = 24


# ---------------------------------------------------------------------------
# The recursive lift.
# ---------------------------------------------------------------------------

@dataclass
class LiftContext:
    """Base MaxCut solution plus the powered target it lifts onto."""

    base: MaxCutInstance
    rounds: int
    levels: int
    solution: SaSolution  # the base MaxCut LP's, validated; D_S(T) = x(S,T)
    powered: PoweredInstance
    base_value: Fraction  # total y over the base edges (c*m)
    _memo: dict = field(default_factory=dict, repr=False)
    # one shared object per distinct selection set and probability across
    # the memoised distributions and the cut copies' parts, which keeps
    # their memory down
    _share: dict = field(default_factory=dict, repr=False)
    # the DP's reads, each made once per context: R -> the base draw over R
    # (`_base_read`), and (levels, edge index, inner set) -> one copy
    # (`_copy_read`)
    _base_reads: dict = field(default_factory=dict, repr=False)
    _copy_reads: dict = field(default_factory=dict, repr=False)

    @property
    def block(self) -> SparsestCutInstance:
        return self.powered.base

    def edge_endpoint(self, ei: int):
        """(terminal, base vertex) of block supply edge ei."""
        u, v, _ = self.block.supply_edges[ei]
        if u in ("s", "t"):
            return u, v
        return v, u


def make_lift_context(H: MaxCutInstance, rounds: int, levels: int) -> LiftContext:
    """Solve the base MaxCut LP at `rounds` and power the terminal block.

    The base is solved at exactly `rounds` rounds: every set the recursive
    extension feeds to the base family stays within |T| because each added
    vertex is charged to a distinct member of T (terminals are pinned and
    never drawn).
    """
    rounds_eff = min(rounds, H.n)
    prog = build_maxcut_lp(H, rounds_eff)
    res = certified(simplex.solve(prog), "base MaxCut")
    solution = SaSolution.read(prog, res.values)
    problems = solution.validate()
    if problems:
        raise InvariantError(f"solution is infeasible: first violation {problems[0]}")
    block, block_dec = building_block(H, include_st_demand=False)
    powered = power(block, levels, block_dec)
    return LiftContext(H, rounds, levels, solution, powered, res.objective)


def _one_level(ctx: LiftContext, T: frozenset, levels: int):
    """T's closure at this level only: the top set (terminals, T's base
    vertices and the base endpoint of every copy T touches) and
    [(edge index, inner set)] per touched copy, in edge order.  Each inner
    set is closed by its own lift call.  A copy vertex nested deeper than
    the levels allow raises InputError for the first such copy in edge
    order, depth first."""
    top = {"s", "t"}
    touched: dict = {}
    deepest = 0
    for v in T:
        if isinstance(v, tuple) and v and v[0] == "e":
            touched.setdefault(v[1], set()).add(v[2])
            depth = 0
            while isinstance(v, tuple) and v and v[0] == "e":
                v, depth = v[2], depth + 1
            deepest = max(deepest, depth)
        else:
            top.add(v)
    copies = [(ei, frozenset(inner)) for ei, inner in sorted(touched.items())]
    if deepest >= levels:
        for ei, inner in copies:
            if levels < 2:
                raise InputError(f"copy vertex at level 1: {sorted(map(str, inner))}")
            _one_level(ctx, inner, levels - 1)
    for ei, _ in copies:
        top.add(ctx.edge_endpoint(ei)[1])
    # each pulled-in base vertex charges to a distinct T-member inside a copy
    if len(top) - 2 > len(T):
        raise InvariantError("extension grew beyond its charging bound")
    return frozenset(top), copies


def _base_read(ctx: LiftContext, R: frozenset):
    """(D, [(n, X)]): the base draw over R in integers, read once per
    context from the solution's table for R, as its symmetrized branches:
    each selection Y of nonzero numerator n over D, in mask order, gives
    X = Y + s and X = (R - Y) + s."""
    read = ctx._base_reads.get(R)
    if read is None:
        try:
            elems, table = ctx.solution.block_table(R)
        except KeyError:
            raise InputError(
                f"base round budget too small: the lift needs the distribution "
                f"over {len(R)} base vertices") from None
        den, nums = numerators(table)
        draws = [(n, subset_from_mask(elems, m)) for m, n in enumerate(nums) if n]
        read = ctx._base_reads[R] = den, [(n, X | {"s"}) for n, Y in draws for X in (Y, R - Y)]
    return read


def _copy_read(ctx: LiftContext, levels: int, ei: int, sub_T: frozenset):
    """(ei, sub_T, u, v, whole, parts) for copy ei with inner set sub_T, made
    once per context: the supply edge's endpoints (u carries the inner s
    role), the copy's outer names `whole`, and `parts`, which holds per
    orientation (indexed by whether u carries the s role) the cut copy's
    inner distribution in integers and outer names once it is read."""
    key = (levels, ei, sub_T)
    read = ctx._copy_reads.get(key)
    if read is None:
        u, v, _ = ctx.block.supply_edges[ei]
        whole = frozenset(("e", ei, x) for x in sub_T)
        read = ctx._copy_reads[key] = (ei, sub_T, u, v, whole, [None, None])
    return read


def _relabel(ctx: LiftContext, ei: int, sub_T: frozenset, inner: dict, u_in: bool):
    """(D, {outer selection: n}): a cut copy's inner distribution in
    integers, renamed into the outer copy ei; selection sets are interned in
    ctx._share, like the memo's."""
    den, nums = numerators(list(inner.values()))
    intern = ctx._share.setdefault
    part = {}
    for sel, q in zip(inner, nums):
        if not u_in:
            # traversed against orientation: the selection process is
            # complement-symmetric under swapping the terminals, so the
            # reversed copy contributes the complement within T
            sel = sub_T - sel
        outer = frozenset(("e", ei, x) for x in sel)
        part[intern(outer, outer)] = q
    return den, part


def _convolve(dist_a: dict, dist_b: dict) -> dict:
    out: dict = {}
    for xa, pa in dist_a.items():
        for xb, pb in dist_b.items():
            key = xa | xb
            out[key] = out.get(key, 0) + pa * pb
    return out


def lift_distribution(ctx: LiftContext, T, levels: Optional[int] = None) -> dict:
    """Exact distribution of X cap T under the recursive selection process.

    The terminal s is always selected and t never is; the base draw is
    symmetrized within its ground set with probability 1/2; copies whose
    endpoints fall on one side ride along whole, and cut copies recurse
    independently.
    """
    levels = ctx.levels if levels is None else levels
    T = frozenset(T)
    memo_key = (levels, T)
    hit = ctx._memo.get(memo_key)
    if hit is not None:
        return hit
    top, copies = _one_level(ctx, T, levels)
    R = top - {"s", "t"}
    base_den, draws = _base_read(ctx, R)
    copies = [_copy_read(ctx, levels, ei, sub_T) for ei, sub_T in copies]
    branches = []  # (base numerator, denominator, {selection: numerator})
    for n, x1 in draws:
        # x1 always holds s and never t
        key = x1 & T
        den = 1
        cut = []
        for ei, sub_T, u, v, whole, parts in copies:
            u_in = u in x1  # u carries the inner s role
            v_in = v in x1
            if u_in and v_in:
                key |= whole
            elif u_in or v_in:
                inner = lift_distribution(ctx, sub_T, levels - 1)
                part = parts[u_in]
                if part is None:
                    part = parts[u_in] = _relabel(ctx, ei, sub_T, inner, u_in)
                den *= part[0]
                cut.append(part[1])
        result = {key: 1}
        for part in cut:
            result = _convolve(result, part)
        branches.append((n, den, result))
    # each branch weighs n / (2 * base_den) and its result is over den
    common = lcm(*(den for _, den, _ in branches))
    out: dict = {}
    for n, den, result in branches:
        scale = n * (common // den)
        for sel, q in result.items():
            out[sel] = out.get(sel, 0) + scale * q
    total = 2 * base_den * common
    mass = sum(out.values())
    if mass != total:
        raise InvariantError(f"lifted distribution over {sorted(map(str, T))} sums to "
                             f"{Fraction(mass, total)}, not 1")
    # probabilities are shared by (numerator, denominator): hashing a
    # Fraction itself costs a modular inverse per call
    share = ctx._share
    intern = share.setdefault
    shared = {}
    for sel, num in out.items():
        g = gcd(num, total)
        pair = (num // g, total // g)
        p = share.get(pair)
        if p is None:
            p = share[pair] = Fraction(*pair)
        shared[intern(sel, sel)] = p
    ctx._memo[memo_key] = shared
    return shared


def lift_pair_value(ctx: LiftContext, u, v) -> Fraction:
    dist = lift_distribution(ctx, (u, v))
    return sum((p for sel, p in dist.items() if len(sel) == 1), Fraction(0))


@dataclass
class LiftedValue:
    capacity_value: Fraction
    demand_value: Fraction
    sparsity: Fraction


def lifted_value(ctx: LiftContext) -> LiftedValue:
    """Exact objective values of the lifted solution on the powered instance."""
    inst = ctx.powered.instance
    cap = Fraction(0)
    for u, v, w in inst.supply_edges:
        cap += w * lift_pair_value(ctx, u, v)
    dem = Fraction(0)
    for u, v, w in inst.demand_edges:
        dem += w * lift_pair_value(ctx, u, v)
    if dem <= 0:
        raise InvariantError("lifted solution separates no demand")
    return LiftedValue(cap, dem, cap / dem)


# ---------------------------------------------------------------------------
# Gap experiments.
# ---------------------------------------------------------------------------

@dataclass
class GapReport:
    base_name: str
    rounds: int
    levels: int
    base_lp_value: Fraction  # c*m
    base_maxcut: int  # s*m
    c: Fraction
    s: Fraction
    lifted: LiftedValue
    phi: Optional[Fraction]  # exact oracle sparsity of the powered instance
    phi_source: str  # "oracle" | "formula-bound"
    phi_bound: Fraction  # 1/(1+(levels-1)s)
    gap_via_lift: Fraction  # lifted demand value / (1+(levels-1)s)
    gap_formula: Fraction  # levels*c/(1+(levels-1)s)

    def to_dict(self) -> dict:
        return {
            "base": self.base_name,
            "rounds": self.rounds,
            "levels": self.levels,
            "base_lp_value": str(self.base_lp_value),
            "base_maxcut": self.base_maxcut,
            "c": str(self.c),
            "s": str(self.s),
            "lifted_capacity": str(self.lifted.capacity_value),
            "lifted_demand": str(self.lifted.demand_value),
            "lifted_sparsity": str(self.lifted.sparsity),
            "phi": None if self.phi is None else str(self.phi),
            "phi_source": self.phi_source,
            "phi_bound": str(self.phi_bound),
            "gap_via_lift": str(self.gap_via_lift),
            "gap_formula": str(self.gap_formula),
        }

    def csv_row(self) -> str:
        d = self.to_dict()
        return ",".join(str(d[k]) for k in sorted(d))

    @staticmethod
    def csv_header() -> str:
        keys = sorted(GapReport("", 0, 0, Fraction(0), 0, Fraction(0), Fraction(0),
                                LiftedValue(Fraction(0), Fraction(1), Fraction(0)),
                                None, "", Fraction(0), Fraction(0),
                                Fraction(0)).to_dict())
        return ",".join(keys)


def gap_experiment(H: MaxCutInstance, rounds: int, levels: int,
                   name: str = "") -> GapReport:
    """Translate a base MaxCut LP/IP gap into a powered sparsest-cut gap.

    The lifted route (exact DP demand value over the oracle soundness
    bound) and the closed-form route (levels*c over the same bound) are
    computed independently; they agree exactly when the lift's value
    bookkeeping is right.  Powered instances of at most ENUMERATE_BOUND
    vertices also get their exact optimum phi from the elimination oracle.
    """
    check_maxcut_bound(H.n)  # before the base LP is solved
    ctx = make_lift_context(H, rounds, levels)
    _, mc = exact_maxcut(H)
    m = H.m
    c = Fraction(ctx.base_value) / m
    s = Fraction(mc, m)
    lifted = lifted_value(ctx)
    phi = None
    phi_source = "formula-bound"
    bound = 1 / (1 + (levels - 1) * s)
    if len(ctx.powered.instance.vertices) <= ENUMERATE_BOUND:
        _, sp = sparsest_cut_by_elimination(ctx.powered.instance)
        phi = sp.ratio
        phi_source = "oracle"
    gap_via_lift = lifted.demand_value / (1 + (levels - 1) * s)
    gap_formula = levels * c / (1 + (levels - 1) * s)
    return GapReport(name or f"H_n{H.n}_m{H.m}", rounds, levels,
                     ctx.base_value, mc, c, s, lifted, phi, phi_source, bound,
                     gap_via_lift, gap_formula)
