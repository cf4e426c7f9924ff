import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from treecut.cli import main
from treecut.decomposition import TreeDecomposition, balance, exact_decomposition
from treecut.errors import BudgetError
from treecut.generators import MaxCutInstance, building_block
from treecut.instance import SparsestCutInstance, format_instance
from treecut.oracle import exact_maxcut, exact_sparsest_cut
from treecut.relaxation import (SaSolution, SetFamily, build_maxcut_lp,
                                build_sparsestcut_lp, format_lp, marginal, ratio_search,
                                restrictions, subset_from_mask)
from treecut import relaxation, simplex

from _lp_fixtures import build_distortion_lp, parse_lp, unscaled, y_value
from _trace_digest import MAXCUT_CONFIGS, maxcut_lp_text_digest
from _reference_simplex import reference_solve
from corpus import acceptance_corpus


def constraints_satisfied(constraints, values):
    for coeffs, sense, rhs in constraints:
        lhs = sum(Fraction(c) * values[j] for j, c in coeffs.items())
        rhs = Fraction(rhs)
        if sense == "==" and lhs != rhs:
            return False
        if sense == "<=" and lhs > rhs:
            return False
        if sense == ">=" and lhs < rhs:
            return False
    return True


def full_sa(n, r):
    """The full r-round system over vertices 1..n, as the MaxCut LP of K_n
    carries it."""
    return build_maxcut_lp(MaxCutInstance.complete(n), r)


def test_full_sa_variable_count_n2_r2():
    prog = full_sa(2, 2)
    assert len(prog.variables) == 9  # x(emptyset,.) + two singletons + the pair
    assert prog.blocks == (0, 1, 2, 3)  # every set carries a block


def test_full_sa_empty_set_forced_to_one():
    prog = full_sa(2, 2)
    res = simplex.solve(prog)
    assert res.optimal
    assert res.values[0] == 1  # the empty set's block comes first
    assert SaSolution.read(prog, res.values).block_table(())[1] == [1]


def test_full_sa_uniform_point_is_feasible():
    prog = full_sa(4, 2)
    values = [Fraction(1, 1 << len(s)) for s in prog.family.sets for m in range(1 << len(s))]
    assert constraints_satisfied(prog.constraints, values)


def test_full_sa_budget_error():
    # 22,600,737 variables, refused before any set is built
    with pytest.raises(BudgetError) as exc:
        full_sa(40, 5)
    assert exc.value.requested == 22_600_737
    assert exc.value.limit == relaxation.DEFAULT_VARIABLE_BUDGET
    assert str(exc.value) == "full 5-round system needs 22600737 variables, budget is 300000"


def test_full_sa_rejects_r_over_n():
    from treecut.errors import InputError
    with pytest.raises(InputError):
        full_sa(2, 3)


def test_integral_cuts_feasible_at_full_rounds():
    # every 0/1 indicator valuation x(S,T) = [A cap S == T] satisfies the system
    for n in (2, 3, 4):
        prog = full_sa(n, n)
        for bits in range(1 << n):
            side = {v for v in range(1, n + 1) if (bits >> (v - 1)) & 1}
            values = []
            for s in prog.family.sets:
                inter = frozenset(s) & side
                for m in range(1 << len(s)):
                    t = subset_from_mask(s, m)
                    values.append(Fraction(1 if t == inter else 0))
            assert constraints_satisfied(prog.constraints, values)


def test_maxcut_lp_values():
    assert simplex.solve(build_maxcut_lp(MaxCutInstance.complete(2), 2)).objective == 1
    k3 = build_maxcut_lp(MaxCutInstance.complete(3), 2)
    mine = simplex.solve(k3)
    status, ref = reference_solve(k3.variables, k3.constraints, unscaled(k3.objectives[0]),
                                  k3.sense)
    assert mine.objective == ref  # dual-implementation agreement
    k4 = simplex.solve(build_maxcut_lp(MaxCutInstance.complete(4), 2))
    _, mc = exact_maxcut(MaxCutInstance.complete(4))
    assert k4.objective >= mc  # relaxation bound


def one_edge_instance():
    return SparsestCutInstance.build([1, 2], [(1, 2, Fraction(7, 3))], [(1, 2, 1)])


def test_pared_lp_single_edge():
    inst = one_edge_instance()
    dec = TreeDecomposition.build([{1, 2}], [])
    program = build_sparsestcut_lp(inst, dec, 1)
    res = simplex.solve(program)
    assert res.objective == Fraction(7, 3)
    sol = SaSolution.read(program, res.values)
    assert not sol.validate()
    assert y_value(sol, 1, 2) == 1


def g1prime_k3():
    inst, dec = building_block(MaxCutInstance.complete(3), include_st_demand=True)
    return inst, balance(dec)


def test_pared_lp_is_a_relaxation_on_block():
    inst, dec = g1prime_k3()
    _, phi = exact_sparsest_cut(inst)
    alpha = Fraction(5, 3)  # demand of the optimal cut
    program = build_sparsestcut_lp(inst, dec, alpha)
    res = simplex.solve(program)
    assert res.optimal
    assert res.objective <= phi.ratio * alpha


def test_solution_consistency_every_nested_pair():
    inst, dec = g1prime_k3()
    rs = ratio_search(inst, dec)
    assert rs.solution.validate() == []


def test_pared_solution_reads_every_set_from_its_blocks():
    inst = acceptance_corpus(0, 1)[0]
    sol = ratio_search(inst, balance(exact_decomposition(inst))).solution
    blocks = list(sol.blocks)
    assert 1 < len(blocks) < len(sol.family.sets)
    # each family set's table is the marginal of every block holding it
    for elems in sol.family.sets:
        holders = [p for p in blocks if set(elems) <= p]
        assert holders
        for p in holders:
            assert sol.block_table(elems) == (elems, marginal(*sol.blocks[p], elems))
    with pytest.raises(KeyError):
        sol.block_table(inst.vertices)
    # moving mass within a block that shares a set with an earlier block
    # breaks their agreement on it, and validate names the moved block
    p, elems = next((p, elems) for i, p in enumerate(blocks) for elems in sol.family.sets
                    if elems and set(elems) < p and any(set(elems) <= q for q in blocks[:i]))
    pelems, table = sol.blocks[p]
    restrict = restrictions(pelems, elems)
    m1 = next(m for m, x in enumerate(table) if x > 0)
    m2 = next(m for m in range(len(table)) if restrict[m] != restrict[m1])
    table = list(table)
    table[m1], table[m2] = 0, table[m1] + table[m2]
    problems = SaSolution(sol.family, {**sol.blocks, p: (pelems, table)}).validate()
    assert problems and {kind for kind, *_ in problems} == {"consistency"}
    assert any(big == p for _, _, (big, _), _ in problems)


def test_triangle_inequality_on_in_family_triples():
    inst, dec = g1prime_k3()
    rs = ratio_search(inst, dec)
    sol = rs.solution
    for elems in sol.family.sets:
        if len(elems) < 3:
            continue
        for a, b, c in itertools.combinations(elems, 3):
            def sep(u, v):
                q_elems, agg = sol.aggregate(elems, (u, v))
                return sum(p for m, p in enumerate(agg) if bin(m).count("1") == 1)
            assert sep(a, b) <= sep(a, c) + sep(c, b)


def test_family_monotonicity_extra_sets_never_loosen(monkeypatch):
    inst, dec = g1prime_k3()
    alpha = Fraction(1)
    base = simplex.solve(build_sparsestcut_lp(inst, dec, alpha)).objective
    extra = (("s", "t", 1, 2), ("t", 1, 2, 3))
    pared = relaxation.pared_family

    def with_extra_sets(instance, dec):
        family = pared(instance, dec)
        return SetFamily.build(family.order, family.sets + extra)

    monkeypatch.setattr(relaxation, "pared_family", with_extra_sets)
    bigger = simplex.solve(build_sparsestcut_lp(inst, dec, alpha)).objective
    assert bigger >= base


def test_pared_set_cap_guardrail():
    # one bag over a 24-vertex path: the demand pair's joint set is all of it
    n = 24
    inst = SparsestCutInstance.build(range(1, n + 1), [(i, i + 1, 1) for i in range(1, n)],
                                     [(1, n, 1)])
    dec = TreeDecomposition.build([set(range(1, n + 1))], [])
    with pytest.raises(BudgetError) as exc:
        build_sparsestcut_lp(inst, dec, 1)
    assert (exc.value.requested, exc.value.limit) == (n, relaxation.DEFAULT_SET_CAP)


def test_ratio_search_single_edge():
    inst = one_edge_instance()
    dec = TreeDecomposition.build([{1, 2}], [])
    rs = ratio_search(inst, dec)
    assert rs.ratio == Fraction(7, 3)
    assert rs.alpha == 1
    assert rs.iterations == 1


def test_ratio_search_matches_cold_solve_at_fixed_demand():
    # The warm-started Dinkelbach search against independent cold solves of
    # the demand-constrained LP.  At the returned demand alpha, and at
    # alpha/2 (mixing in the empty cut halves capacity and demand alike),
    # the minimum capacity over alpha must equal the searched ratio.
    rng = random.Random(3)
    for trial in range(20):
        n = rng.randint(3, 6)
        sup = [(rng.randint(1, v - 1), v, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
               for v in range(2, n + 1)]
        dem = []
        for _ in range(rng.randint(1, 3)):
            u, v = rng.randint(1, n), rng.randint(1, n)
            if u != v:
                dem.append((u, v, Fraction(rng.randint(1, 4), rng.randint(1, 2))))
        if not dem:
            dem = [(1, n, 1)]
        inst = SparsestCutInstance.build(range(1, n + 1), sup, dem)
        dec = balance(exact_decomposition(inst))
        rs = ratio_search(inst, dec)
        for alpha in (rs.alpha, rs.alpha / 2):
            cold = simplex.solve(build_sparsestcut_lp(inst, dec, alpha))
            assert cold.optimal and cold.duality_gap == 0
            assert cold.objective / alpha == rs.ratio, \
                f"trial {trial}, alpha {alpha}: {cold.objective / alpha} vs {rs.ratio}"


def test_lp_dump_round_trip():
    inst, dec = g1prime_k3()
    program = build_sparsestcut_lp(inst, dec, 1)
    text = format_lp(program)
    parsed = parse_lp(text)
    a = simplex.solve(program)
    b = simplex.solve(parsed)
    assert a.objective == b.objective


def test_distortion_lp_feasible_for_path_metric():
    # path metric scaled into [0,1] embeds isometrically: D = 1 feasible
    verts = [1, 2, 3, 4]
    metric = {(u, v): Fraction(abs(u - v), 6) for u, v in itertools.combinations(verts, 2)}
    prog = build_distortion_lp(verts, metric, 1, Fraction(1), r=4)
    res = simplex.solve(prog)
    assert res.status == "optimal"
    sol = SaSolution.read(prog, res.values)
    assert sol.validate() == []
    # and an impossible demand: contract by half while expanding is capped
    bad = build_distortion_lp(verts, {(1, 4): Fraction(2)}, 1, Fraction(1), r=4)
    assert simplex.solve(bad).status == "infeasible"


# sha256 of the LP text over acceptance_corpus(0, 20), instance after
# instance, recorded before the builder emitted integer coefficients:
# `format_lp` of the pared LP without the demand row (as the ratio search
# builds it) and with it at a third of the total demand, and the file that
# `solve --dump-lp` writes.
LP_TEXT_DIGESTS = {
    "without_demand_row":
        "2e869417e234b96354bfe76d8569955c718ce34de1f42059c69445ed8b894421",
    "with_demand_row":
        "cd99969b437a77aaa368cc5600d3353be62d246ee4571df579508b8fd0193288",
    "solve_dump_lp":
        "494abf7793f96b21b76099ab7879ea3b7296ea965debbee85c2ab29db738db12",
}


def test_lp_text_matches_recorded_digests(tmp_path, capsys):
    digests = {name: hashlib.sha256() for name in LP_TEXT_DIGESTS}
    for i, inst in enumerate(acceptance_corpus(0, 20)):
        dec = balance(exact_decomposition(inst))
        program = build_sparsestcut_lp(inst, dec)
        digests["without_demand_row"].update(format_lp(program).encode())
        program = build_sparsestcut_lp(inst, dec, inst.total_demand / 3)
        digests["with_demand_row"].update(format_lp(program).encode())
        path, dump = tmp_path / f"c{i}.ssc", tmp_path / f"c{i}.lp"
        path.write_text(format_instance(inst))
        assert main(["solve", str(path), "--dump-lp", str(dump)]) == 0
        capsys.readouterr()
        digests["solve_dump_lp"].update(dump.read_bytes())
    assert {name: h.hexdigest() for name, h in digests.items()} == LP_TEXT_DIGESTS


# sha256 of `format_lp(build_maxcut_lp(H, r))` over the nine gap-table
# (base, rounds) configurations (`_trace_digest.maxcut_lp_text_digest`),
# recorded while the full Sherali-Adams rows still carried Fraction
# coefficients; and the pivots their solves make in total.
MAXCUT_LP_TEXT_DIGEST = "3c5d38b103d5e49fbae03d660fee6df0b2a73732ff191315dcac9b4d038e3e45"
MAXCUT_LP_PIVOTS = 599


def test_maxcut_lp_text_matches_recorded_digest():
    assert maxcut_lp_text_digest() == MAXCUT_LP_TEXT_DIGEST
    pivots = sum(simplex.solve(build_maxcut_lp(MaxCutInstance.named(name), rounds)).pivots
                 for name, rounds in MAXCUT_CONFIGS)
    assert pivots == MAXCUT_LP_PIVOTS
