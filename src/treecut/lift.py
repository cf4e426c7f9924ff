"""Lifting MaxCut LP solutions onto powered instances.

An r-round solution is the same thing as a family of marginally
consistent local distributions, one per small vertex set: D_S(T) = x(S,T).
This module reads the base MaxCut distributions off the validated
`SaSolution` its LP produced and pushes them through the powering
construction: terminals are pinned to opposite sides, the base draw is
symmetrized with a fair coin, and cut copies recurse while uncut copies
ride along with their terminals.  Distributions are computed exactly by
dynamic programming over the recursion tree, never sampled.

The DP runs in integers.  A target set T is closed one level at a time:
its members outside every copy and the copies it touches pick the base
draw over R, T's base vertices and each touched copy's base endpoint, and
each touched copy's inner set is left to the recursive call on the next
level down.  A copy vertex nested deeper than the levels allow is refused
before anything is read: the touched copies are closed level by level in
edge order, down to the first copy found at level 1.  The base draw and
each cut copy's inner distribution are read as integer numerators over
one denominator, by `relaxation.numerators`, the lcm of their nonzero
entries' denominators, and a copy's outer names are T's own members in
it.  Each branch adds its selections straight into one sum, whose
denominator grows to the lcm of the branches' denominators; only a
branch that cuts two or more copies first multiplies their parts.  The sum is checked to reach that
denominator and only then turned into one reduced Fraction per entry,
shared by (numerator, denominator), and the memo keeps those Fraction
dicts.

Each context also keeps its own caches, which live and die with it, and
caches only the reads that a later miss uses again: per (T's members
outside the copies, touched copies) its skeleton, R and the base draw
over R in integers with, per symmetrized branch, its selection among
those members and the copies it carries whole or cuts, in which
orientation; per (level, inner set) the inner distribution in integers
for both orientations, which every copy holding that set shares; and per
(level, copy, inner set) of a copy that holds part of T, the copy's
members and, per orientation once a branch cuts it, its part under outer
names.  A copy that holds all of T is read for T alone, whose
distribution is memoised, so that read is not kept.  The recursive call
on a cut copy still runs on every branch that cuts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
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
    # the caches (see the module docstring); `_share` holds one object per
    # distinct selection set and probability, which keeps the memo's memory
    # down.  No cache is an init field, so `dataclasses.replace(ctx,
    # solution=...)` starts with every one empty.
    _memo: dict = field(default_factory=dict, init=False, repr=False)
    _share: dict = field(default_factory=dict, init=False, repr=False)
    _skeletons: dict = field(default_factory=dict, init=False, repr=False)
    _copy_reads: dict = field(default_factory=dict, init=False, repr=False)
    _inner_reads: dict = field(default_factory=dict, init=False, repr=False)

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


def _closure(T: frozenset, levels: int):
    """(tops, eis, names): T's members outside every copy, the copies T
    touches in edge order, and per touched copy {inner name: T's member}.
    A copy vertex nested deeper than the levels allow raises InputError for
    the first such copy in edge order, depth first."""
    tops = []
    touched: dict = {}
    deepest = 0
    for v in T:
        if isinstance(v, tuple) and v and v[0] == "e":
            _, ei, inner = v
            if ei in touched:
                touched[ei][inner] = v
            else:
                touched[ei] = {inner: v}
            depth = 1
            while isinstance(inner, tuple) and inner and inner[0] == "e":
                inner, depth = inner[2], depth + 1
            if depth > deepest:
                deepest = depth
        else:
            tops.append(v)
    eis = tuple(sorted(touched))
    if deepest >= levels:
        for ei in eis:
            if levels < 2:
                raise InputError(f"copy vertex at level 1: {sorted(map(str, touched[ei]))}")
            _closure(frozenset(touched[ei]), levels - 1)
    return frozenset(tops), eis, [touched[ei] for ei in eis]


def _skeleton(ctx: LiftContext, tops: frozenset, eis: tuple):
    """(|R|, D, branches) for every target whose members outside the copies
    are `tops` and who touches the copies `eis`, made once per context.  R
    is the top set less the terminals: T's base vertices and each touched
    copy's base endpoint.  The base draw over R is read in integers over D
    from the solution's table for R, and each selection Y of nonzero
    numerator n, in mask order, gives the symmetrized branches X = Y + s
    and X = (R - Y) + s, each kept as (n, X & tops, positions in eis of the
    copies with both endpoints in X, [(position, whether u is in X)] for
    the copies with one endpoint in X), where u, the supply edge's first
    endpoint, carries the copy's inner s."""
    R = (tops | {ctx.edge_endpoint(ei)[1] for ei in eis}) - {"s", "t"}
    try:
        elems, table = ctx.solution.block_table(R)
    except KeyError:
        raise InputError(
            f"base round budget too small: the lift needs the distribution "
            f"over {len(R)} base vertices") from None
    edges = [ctx.block.supply_edges[ei][:2] for ei in eis]
    den, nums = numerators(table)
    branches = []
    for m, n in enumerate(nums):
        if not n:
            continue
        Y = subset_from_mask(elems, m)
        for X in (Y | {"s"}, (R - Y) | {"s"}):
            whole, cut = [], []
            for pos, (u, v) in enumerate(edges):
                if u in X and v in X:
                    whole.append(pos)
                elif u in X or v in X:
                    cut.append((pos, u in X))
            branches.append((n, X & tops, whole, cut))
    skeleton = ctx._skeletons[tops, eis] = (len(R), den, branches)
    return skeleton


def _relabel(ctx: LiftContext, levels: int, read: list, inner: dict, u_in: bool):
    """(D, [(outer selection, n)]): a cut copy's inner distribution, the
    lift of sub_T at `levels`, in integers under the copy's outer names;
    selection sets are interned in ctx._share, like the memo's.  The
    integer form of both orientations is read once per inner set, which
    every copy holding it shares."""
    sub_T, names = read[0], read[1]
    key = (levels, sub_T)
    ints = ctx._inner_reads.get(key)
    if ints is None:
        den, nums = numerators(list(inner.values()))
        # traversed against orientation, the selection process is
        # complement-symmetric under swapping the terminals, so the
        # reversed copy contributes the complement within sub_T
        ints = ctx._inner_reads[key] = (den, [(sub_T - sel, q) for sel, q in zip(inner, nums)],
                                        list(zip(inner, nums)))
    rename = names.__getitem__
    intern = ctx._share.setdefault
    part = []
    for sel, q in ints[1 + u_in]:
        outer = frozenset(map(rename, sel))
        part.append((intern(outer, outer), q))
    return ints[0], part


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
    tops, eis, names = _closure(T, levels)
    size, base_den, branches = ctx._skeletons.get((tops, eis)) or _skeleton(ctx, tops, eis)
    # each pulled-in base vertex charges to a distinct T-member inside a copy
    if size > len(T):
        raise InvariantError("extension grew beyond its charging bound")
    # per touched copy [sub_T, names, its members, part if u is out, part if
    # u is in]; a copy holding all of T is read for T alone, so not cached
    reads = []
    for ei, copy_names in zip(eis, names):
        sub_T = frozenset(copy_names)
        if len(sub_T) == len(T):
            reads.append([sub_T, copy_names, T, None, None])
            continue
        key = (levels, ei, sub_T)
        read = ctx._copy_reads.get(key)
        if read is None:
            read = ctx._copy_reads[key] = [sub_T, copy_names, frozenset(copy_names.values()),
                                           None, None]
        reads.append(read)
    # each branch weighs n / (2 * base_den) and its selections are over
    # den; out holds numerators over common, the lcm of the dens so far.
    # The copies' outer names are disjoint, so a branch's selections are
    # distinct.
    out: dict = {}
    get = out.get
    common = 1
    for n, key, whole, cut in branches:
        for pos in whole:
            members = reads[pos][2]
            key = key | members if key else members
        den, part = 1, None
        for pos, u_in in cut:
            read = reads[pos]
            inner = lift_distribution(ctx, read[0], levels - 1)
            cut_part = read[3 + u_in]
            if cut_part is None:
                cut_part = read[3 + u_in] = _relabel(ctx, levels - 1, read, inner, u_in)
            den *= cut_part[0]
            part = cut_part[1] if part is None else [
                (xa | xb, qa * qb) for xa, qa in part for xb, qb in cut_part[1]]
        if common % den:
            grow = den // gcd(common, den)
            common *= grow
            for sel in out:
                out[sel] *= grow
        scale = n * (common // den)
        if part is None:
            out[key] = get(key, 0) + scale
            continue
        for sel, q in part:
            if key:
                sel = key | sel
            out[sel] = get(sel, 0) + scale * q
    total = 2 * base_den * common
    mass = sum(out.values())
    if mass != total:
        raise InvariantError(f"lifted distribution over {sorted(map(str, T))} sums to "
                             f"{Fraction(mass, total)}, not 1")
    # probabilities are shared by (numerator, denominator), reduced or not:
    # hashing a Fraction itself costs a modular inverse per call, and a
    # pair seen before needs no gcd
    share = ctx._share
    intern = share.setdefault
    shared = {}
    for sel, num in out.items():
        p = share.get((num, total))
        if p is None:
            g = gcd(num, total)
            pair = (num // g, total // g)
            p = share.get(pair)
            if p is None:
                p = share[pair] = Fraction(*pair)
            share[num, total] = p
        shared[intern(sel, sel)] = p
    ctx._memo[memo_key] = shared
    return shared


def _cut_value(ctx: LiftContext, edges) -> Fraction:
    """sum of w * P(the lift separates u and v) over the edges (u, v, w),
    as one integer numerator over a running denominator."""
    num, den = 0, 1
    for u, v, w in edges:
        wn, wd = w.numerator, w.denominator
        for sel, p in lift_distribution(ctx, (u, v)).items():
            if len(sel) == 1:
                d = wd * p.denominator
                if den % d:
                    grow = d // gcd(den, d)
                    num, den = num * grow, den * grow
                num += wn * p.numerator * (den // d)
    return Fraction(num, den)


def lift_pair_value(ctx: LiftContext, u, v) -> Fraction:
    return _cut_value(ctx, [(u, v, 1)])


@dataclass
class LiftedValue:
    capacity_value: Fraction
    demand_value: Fraction
    sparsity: Fraction


def lifted_value(ctx: LiftContext) -> LiftedValue:
    """Exact objective values of the lifted solution on the powered instance."""
    inst = ctx.powered.instance
    cap = _cut_value(ctx, inst.supply_edges)
    dem = _cut_value(ctx, inst.demand_edges)
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
