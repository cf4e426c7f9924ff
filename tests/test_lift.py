import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from _lp_fixtures import mask_of
from _reference_lift import ReferenceLift, extend_set
from _trace_digest import lift_call_count, lift_distribution_digest, small_targets
from treecut import lift
from treecut.decomposition import balance
from treecut.errors import InputError, InvariantError
from treecut.generators import MaxCutInstance
from treecut.lift import (gap_experiment, lift_distribution, lift_pair_value, lifted_value,
                          make_lift_context)
from treecut.relaxation import (SaSolution, build_maxcut_lp, build_sparsestcut_lp,
                                full_family, subset_from_mask)
from treecut import simplex


def solved_maxcut_solution(H, r):
    prog = build_maxcut_lp(H, r)
    res = simplex.solve(prog)
    return SaSolution.read(prog, res.values)


def lifted_family_solution(ctx, family):
    """The lift evaluated on every set of a family, as an SaSolution whose
    every set is a block."""
    tables = {}
    for elems in family.sets:
        table = [Fraction(0)] * (1 << len(elems))
        for sel, p in lift_distribution(ctx, elems).items():
            table[mask_of(elems, sel)] += p
        tables[frozenset(elems)] = (elems, table)
    return SaSolution(family, tables)


def integral_solution(n, side):
    family = full_family(range(1, n + 1), n)
    tables = {}
    for elems in family.sets:
        inter = frozenset(elems) & side
        tables[frozenset(elems)] = (elems, [
            Fraction(1 if subset_from_mask(elems, m) == inter else 0)
            for m in range(1 << len(elems))])
    return SaSolution(family, tables)


def uniform_solution(n, r):
    family = full_family(range(1, n + 1), r)
    return SaSolution(family, {
        frozenset(elems): (elems, [Fraction(1, 1 << len(elems))] * (1 << len(elems)))
        for elems in family.sets})


def test_integral_solution_gives_point_masses():
    side = frozenset({1, 3})
    sol = integral_solution(3, side)
    assert sol.validate() == []
    for s in sol.family.frozensets():
        elems, table = sol.block_table(s)
        support = [subset_from_mask(elems, m) for m, p in enumerate(table) if p > 0]
        assert support == [s & side]


def test_uniform_solution_gives_uniform_distributions():
    sol = uniform_solution(4, 2)
    assert sol.validate() == []
    for s in sol.family.frozensets():
        assert set(sol.block_table(s)[1]) == {Fraction(1, 1 << len(s))}


def test_solved_maxcut_family_passes_validator():
    assert solved_maxcut_solution(MaxCutInstance.complete(3), 3).validate() == []


def test_inconsistent_family_rejected_with_witness():
    sol = uniform_solution(3, 2)
    s = frozenset({1, 2})
    elems, table = sol.blocks[s]
    table[mask_of(elems, {1})] += Fraction(1, 100)
    table[mask_of(elems, {2})] -= Fraction(1, 100)
    problems = sol.validate()
    assert problems and {kind for kind, *_ in problems} == {"consistency"}
    assert all(big == s for _, _, (big, _), _ in problems)


def test_validator_reports_each_problem_kind():
    sol = uniform_solution(3, 2)
    s = frozenset({1, 2})
    elems, table = sol.blocks[s]
    # moving mass from T = {} to T = {1, 2} drives x(S, {}) negative but
    # keeps the table's sum at 1
    table[0] -= Fraction(1, 2)
    table[mask_of(elems, {1, 2})] += Fraction(1, 2)
    problems = sol.validate()
    assert ("negative", s, frozenset(), Fraction(-1, 4)) in problems
    assert "normalization" not in {kind for kind, *_ in problems}

    sol = uniform_solution(3, 2)
    table = sol.blocks[frozenset({3})][1]
    table[1] += Fraction(1, 3)
    problems = sol.validate()
    assert ("normalization", frozenset({3}), None, Fraction(4, 3)) in problems
    assert "negative" not in {kind for kind, *_ in problems}


def p3_context(levels=2, rounds=3):
    return make_lift_context(MaxCutInstance.path(3), rounds, levels)


def test_extend_terminals():
    ctx = p3_context()
    ext = extend_set(ctx, ("s",))
    assert ext.top == frozenset({"s", "t"}) and not ext.per_copy


def test_extend_pulls_in_copy_endpoint():
    ctx = p3_context()
    interior = next(v for v in ctx.powered.instance.vertices
                    if isinstance(v, tuple) and v[0] == "e")
    ext = extend_set(ctx, (interior,))
    ei = interior[1]
    _, base_vertex = ctx.edge_endpoint(ei)
    assert base_vertex in ext.top
    assert {"s", "t"} <= ext.top
    assert ei in ext.per_copy
    # charging bound: at most |T| interior vertices at the top level
    assert len(ext.top - {"s", "t"}) <= 1


def test_lift_terminal_pair_is_deterministic():
    ctx = p3_context()
    dist = lift_distribution(ctx, ("s", "t"))
    assert dist == {frozenset({"s"}): Fraction(1)}


def test_capacity_edges_cut_with_probability_two_to_minus_level():
    for levels in (1, 2):
        ctx = p3_context(levels=levels)
        for u, v, _ in ctx.powered.instance.supply_edges:
            assert lift_pair_value(ctx, u, v) == Fraction(1, 2 ** levels)


def test_lifted_value_small_cases():
    # levels 1 on a single-edge H: base value c = 1, sparsity 1/c = 1
    ctx = make_lift_context(MaxCutInstance.complete(2), 2, 1)
    lv = lifted_value(ctx)
    assert (lv.capacity_value, lv.demand_value, lv.sparsity) == (1, 1, 1)

    ctx = make_lift_context(MaxCutInstance.complete(3), 3, 2)
    c = Fraction(ctx.base_value) / 3
    lv = lifted_value(ctx)
    assert lv.capacity_value == 1
    assert lv.demand_value == 2 * c
    assert lv.sparsity == 1 / (2 * c)


def test_master_consistency_on_sampled_sets():
    ctx = p3_context()
    rng = random.Random(4)
    verts = list(ctx.powered.instance.vertices)
    for _ in range(30):
        T = frozenset(rng.sample(verts, 3))
        dT = lift_distribution(ctx, T)
        assert sum(dT.values()) == 1
        for q in sorted(T, key=str):
            Q = T - {q}
            dQ = lift_distribution(ctx, Q)
            for a in list(dQ):
                assert dQ[a] == dT.get(a, Fraction(0)) + dT.get(a | {q}, Fraction(0))


def test_lifted_solution_feasible_for_pared_lp():
    ctx = p3_context()
    powered = ctx.powered
    dec = balance(powered.decomposition)
    lv = lifted_value(ctx)
    program = build_sparsestcut_lp(powered.instance, dec, lv.demand_value)
    family = program.family
    sol = lifted_family_solution(ctx, family)
    assert sol.validate() == []
    # block variables drawn from the lift satisfy every LP row exactly
    values = [x for i in program.blocks for x in sol.block_table(family.sets[i])[1]]
    for coeffs, sense, rhs in program.constraints:
        lhs = sum(Fraction(c) * values[j] for j, c in coeffs.items())
        if sense == "==":
            assert lhs == Fraction(rhs)
        elif sense == ">=":
            assert lhs >= Fraction(rhs)
        else:
            assert lhs <= Fraction(rhs)
    # and the capacity objective evaluates to the lifted capacity value
    scale, ints = program.objectives[0]
    cap = sum(Fraction(c, scale) * values[j] for j, c in ints.items())
    assert cap == lv.capacity_value == 1


def test_gap_experiment_p3():
    rep = gap_experiment(MaxCutInstance.path(3), 2, 2, name="p3")
    assert rep.phi_source == "oracle"
    assert rep.phi == Fraction(1, 2)
    assert rep.lifted.sparsity == Fraction(1, 2)
    assert rep.gap_via_lift == rep.gap_formula == 1


# gap_table.py's other enumerable rows (p3 r=2 is pinned above)
@pytest.mark.parametrize("name, rounds, phi", [("k3", 2, Fraction(3, 5)),
                                               ("k3", 3, Fraction(3, 5))])
def test_gap_experiment_enumerable_rows_phi(name, rounds, phi):
    rep = gap_experiment(MaxCutInstance.named(name), rounds, 2, name=name)
    assert rep.phi_source == "oracle"
    assert rep.phi == phi


def test_gap_experiment_level_one_reduces_to_base_gap():
    rep = gap_experiment(MaxCutInstance.complete(5), 2, 1, name="k5")
    # level 1: the lifted sparsity is 1/c and the star instance itself
    # has sparsest cut exactly 1 (per-H-vertex stars are self-tight)
    assert rep.lifted.sparsity == 1 / rep.c
    assert rep.phi == 1
    assert rep.gap_via_lift == rep.gap_formula == rep.c


def test_gap_csv_row_shape():
    rep = gap_experiment(MaxCutInstance.path(3), 2, 2)
    from treecut.lift import GapReport
    header = GapReport.csv_header().split(",")
    row = rep.csv_row().split(",")
    assert len(header) == len(row)


def test_pared_lp_value_bounded_by_lifted_certificate():
    # the lifted solution witnesses that the pared LP ratio on the powered
    # instance is at most the lifted sparsity
    from treecut.relaxation import ratio_search
    ctx = p3_context()
    powered = ctx.powered
    dec = balance(powered.decomposition)
    rs = ratio_search(powered.instance, dec)
    lv = lifted_value(ctx)
    assert rs.ratio <= lv.sparsity == Fraction(1, 2)


# sha256 of the sorted str form of every |T| <= 2 lifted distribution of
# G_3(P_3) at rounds 3 (8646 sets: singletons, then pairs, in vertex
# order; `_trace_digest.lift_distribution_digest`), recorded before the
# lift DP moved to integer arithmetic.
G3_P3_DISTRIBUTIONS_DIGEST = "4308049c4ed6a74a5d1c5cb33b21d0c8913e8ac0f9b3997fdfc1081ec11f183a"


def test_lift_distributions_match_recorded_digest():
    assert len(small_targets(p3_context(levels=3).powered.instance.vertices)) == 8646
    assert lift_distribution_digest() == G3_P3_DISTRIBUTIONS_DIGEST


# lift_distribution calls, the recursive ones included, for the targets of
# G3_P3_DISTRIBUTIONS_DIGEST in their order (`_trace_digest.lift_call_count`):
# one per target plus one per branch that cuts a copy.
LIFT_CALLS = 24252


def test_lift_call_count_matches_recorded_count():
    assert lift_call_count() == LIFT_CALLS


def test_lift_memo_shares_every_selection_and_probability():
    # sharing one object per distinct selection set and per probability
    # keeps the lift's caches for G_3(P_3)'s small targets near 5 MB
    # (tracemalloc), so certify's peak_rss_mb within its bound
    ctx = p3_context(levels=3)
    for T in small_targets(ctx.powered.instance.vertices):
        lift_distribution(ctx, T)
    probabilities = {}
    for dist in ctx._memo.values():
        for sel, p in dist.items():
            assert ctx._share[sel] is sel
            assert probabilities.setdefault(p, p) is p


# (context, target, levels, exception type, message), recorded before the
# lift DP moved to integer arithmetic.
INVALID_TARGETS = [
    # copy vertices nested deeper than the levels allow; the error names
    # the innermost offending set of the first such copy in edge order
    (("p3", 3, 3),
     (("e", 1, ("e", 0, 1)), ("e", 3, ("e", 2, ("e", 0, 1))),
      ("e", 2, ("e", 1, ("e", 3, 2)))),
     None, InputError, "copy vertex at level 1: ['2']"),
    (("p3", 3, 3), ("s", ("e", 0, ("e", 0, 1))), 1,
     InputError, "copy vertex at level 1: [\"('e', 0, 1)\"]"),
    # the closure pulls in the base endpoints 1 and 2 of copies 0 and 2,
    # so it needs 3 base vertices at 2 rounds
    (("k5", 2, 2), (("e", 0, 2), ("e", 2, 3), 4), None,
     InputError, "base round budget too small: the lift needs the distribution "
                 "over 3 base vertices"),
]


@pytest.mark.parametrize("config, T, levels, exc, message", INVALID_TARGETS)
def test_invalid_targets_raise_recorded_errors(config, T, levels, exc, message):
    name, rounds, lv = config
    ctx = make_lift_context(MaxCutInstance.named(name), rounds, lv)
    with pytest.raises(exc) as info:
        lift_distribution(ctx, T, levels)
    assert type(info.value) is exc and str(info.value) == message


def _differential_check(ctx, targets, monkeypatch):
    """Every distribution equals the Fraction reference's, and the package
    makes as many lift_distribution calls as the reference recursion."""
    calls = [0]
    original = lift.lift_distribution

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(lift, "lift_distribution", counted)
    ref = ReferenceLift(ctx)
    for T in targets:
        assert lift.lift_distribution(ctx, T) == ref.distribution(T), T
    assert calls[0] == ref.calls


@pytest.mark.parametrize("name, rounds", [("p3", 3), ("k3", 3), ("c5", 3), ("k4", 2)])
def test_lift_reads_smaller_base_sets_as_marginals(name, rounds):
    # a base solution that keeps only the blocks of the maximal sets, as a
    # base LP whose blocks sit on the maximal sets alone would give, reads
    # every smaller set's table as a marginal and lifts the same
    # distributions as the full context, whose every set is a block
    full = make_lift_context(MaxCutInstance.named(name), rounds, 2)
    family = full.solution.family
    kept = [frozenset(family.sets[i]) for i in family.maximal_indices()]
    assert len(kept) < len(full.solution.blocks)
    solution = SaSolution(family, {S: full.solution.blocks[S] for S in kept})
    targets = small_targets(full.powered.instance.vertices)
    expected = [lift_distribution(full, T) for T in targets]
    pared = dataclasses.replace(full, solution=solution)
    # a cache shared with full would compare full's reads with themselves
    caches = [f.name for f in dataclasses.fields(lift.LiftContext) if not f.init]
    assert caches and all(getattr(full, name) for name in caches)
    for name in caches:
        assert getattr(pared, name) == {} and getattr(pared, name) is not getattr(full, name)
    for T, dist in zip(targets, expected):
        assert lift_distribution(pared, T) == dist, T


@pytest.mark.parametrize("name", ["p3", "k3", "c5"])
def test_lift_matches_reference_on_level_two_bases(name, monkeypatch):
    ctx = make_lift_context(MaxCutInstance.named(name), 3, 2)
    _differential_check(ctx, small_targets(ctx.powered.instance.vertices), monkeypatch)


def test_lift_matches_reference_on_sampled_level_three_pairs(monkeypatch):
    ctx = p3_context(levels=3)
    pairs = list(itertools.combinations(ctx.powered.instance.vertices, 2))
    _differential_check(ctx, random.Random(12).sample(pairs, 1000), monkeypatch)


def test_lift_rejects_a_distribution_that_does_not_sum_to_one(monkeypatch):
    # reading every distribution over twice its denominator halves each
    # branch's weight, so the summed numerators fall short of the total
    integer = lift.numerators

    def halved(values):
        den, nums = integer(values)
        return 2 * den, nums

    monkeypatch.setattr(lift, "numerators", halved)
    with pytest.raises(InvariantError, match="sums to 1/2, not 1"):
        lift_distribution(p3_context(), (1,))


def test_lift_caches_are_per_context_and_independent_of_query_order():
    # two fresh G_3(P_3) contexts, one queried singletons first and the
    # other in a shuffled order, with queries on a G_3(K_3) context in
    # between: its vertex names, levels and copies are those of G_3(P_3)
    # but its base draws differ, so a cache shared across contexts, or one
    # whose entries depend on the query order, changes some distribution
    first, second = p3_context(levels=3), p3_context(levels=3)
    other = make_lift_context(MaxCutInstance.named("k3"), 3, 3)
    assert other.powered.instance.vertices == first.powered.instance.vertices
    assert other.solution.blocks != first.solution.blocks
    targets = small_targets(first.powered.instance.vertices)
    shuffled = random.Random(13).sample(targets, len(targets))
    ref, other_ref = ReferenceLift(first), ReferenceLift(other)
    got = {}
    for k, T in enumerate(targets):
        got[T] = lift_distribution(first, T)
        if k % 8 == 0:
            assert lift_distribution(other, T) == other_ref.distribution(T), T
    for k, T in enumerate(shuffled):
        assert lift_distribution(second, T) == got[T] == ref.distribution(T), T
        if k % 8 == 4:
            assert lift_distribution(other, T) == other_ref.distribution(T), T
