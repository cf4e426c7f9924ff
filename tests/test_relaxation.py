import itertools
import random
from fractions import Fraction

import pytest

from treecut.decomposition import TreeDecomposition, balance, exact_decomposition
from treecut.errors import BudgetError
from treecut.generators import MaxCutInstance, building_block
from treecut.instance import SparsestCutInstance
from treecut.oracle import exact_maxcut, exact_sparsest_cut
from treecut.relaxation import (LpProgram, build_full_sa, build_maxcut_lp,
                                build_sparsestcut_lp, build_distortion_lp,
                                format_lp, full_family, full_solution_from,
                                parse_lp, ratio_search, subset_from_mask, _var)
from treecut import simplex

from _reference_simplex import reference_solve


def constraints_satisfied(constraints, values):
    for coeffs, sense, rhs in constraints:
        lhs = sum(Fraction(c) * values.get(v, Fraction(0)) for v, c in coeffs.items())
        rhs = Fraction(rhs)
        if sense == "==" and lhs != rhs:
            return False
        if sense == "<=" and lhs > rhs:
            return False
        if sense == ">=" and lhs < rhs:
            return False
    return True


def test_full_sa_variable_count_n2_r2():
    family, constraints = build_full_sa(2, 2)
    assert family.variable_count() == 9  # x(emptyset,.) + two singletons + the pair


def test_full_sa_empty_set_forced_to_one():
    family, constraints = build_full_sa(2, 2)
    prog = LpProgram([_var(i, m) for i, s in enumerate(family.sets)
                      for m in range(1 << len(s))], constraints, {}, "min")
    res = simplex.solve(prog)
    assert res.optimal
    empty_idx = family.sets.index(())
    assert res.values[_var(empty_idx, 0)] == 1


def test_full_sa_uniform_point_is_feasible():
    family, constraints = build_full_sa(4, 2)
    values = {}
    for i, s in enumerate(family.sets):
        for m in range(1 << len(s)):
            values[_var(i, m)] = Fraction(1, 1 << len(s))
    assert constraints_satisfied(constraints, values)


def test_full_sa_budget_error():
    with pytest.raises(BudgetError):
        build_full_sa(12, 6, budget=1000)


def test_full_sa_rejects_r_over_n():
    from treecut.errors import InputError
    with pytest.raises(InputError):
        build_full_sa(2, 3)


def test_integral_cuts_feasible_at_full_rounds():
    # every 0/1 indicator valuation x(S,T) = [A cap S == T] satisfies the system
    for n in (2, 3, 4):
        family, constraints = build_full_sa(n, n)
        for bits in range(1 << n):
            side = {v for v in range(1, n + 1) if (bits >> (v - 1)) & 1}
            values = {}
            for i, s in enumerate(family.sets):
                inter = frozenset(s) & side
                for m in range(1 << len(s)):
                    t = subset_from_mask(s, m)
                    values[_var(i, m)] = Fraction(1 if t == inter else 0)
            assert constraints_satisfied(constraints, values)


def test_maxcut_lp_values():
    assert simplex.solve(build_maxcut_lp(MaxCutInstance.complete(2), 2)).objective == 1
    k3 = build_maxcut_lp(MaxCutInstance.complete(3), 2)
    mine = simplex.solve(k3)
    status, ref = reference_solve(k3.variables, k3.constraints, k3.objective, k3.sense)
    assert mine.objective == ref  # dual-implementation agreement
    k4 = simplex.solve(build_maxcut_lp(MaxCutInstance.complete(4), 2))
    _, mc = exact_maxcut(MaxCutInstance.complete(4))
    assert k4.objective >= mc  # relaxation bound


def one_edge_instance():
    return SparsestCutInstance.build([1, 2], [(1, 2, Fraction(7, 3))], [(1, 2, 1)])


def test_pared_lp_single_edge():
    inst = one_edge_instance()
    dec = TreeDecomposition.build([{1, 2}], [])
    built = build_sparsestcut_lp(inst, dec, 1)
    res = simplex.solve(built.program)
    assert res.objective == Fraction(7, 3)
    sol = built.solution_from(res.values)
    assert not sol.validate()
    assert sol.y_value(1, 2) == 1


def g1prime_k3():
    inst, dec = building_block(MaxCutInstance.complete(3), include_st_demand=True)
    return inst, balance(dec)


def test_pared_lp_is_a_relaxation_on_block():
    inst, dec = g1prime_k3()
    _, phi = exact_sparsest_cut(inst)
    alpha = Fraction(5, 3)  # demand of the optimal cut
    built = build_sparsestcut_lp(inst, dec, alpha)
    res = simplex.solve(built.program)
    assert res.optimal
    assert res.objective <= phi.ratio * alpha


def test_solution_consistency_every_nested_pair():
    inst, dec = g1prime_k3()
    rs = ratio_search(inst, dec)
    assert rs.solution.validate() == []


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


def test_family_monotonicity_extra_sets_never_loosen():
    inst, dec = g1prime_k3()
    alpha = Fraction(1)
    base = simplex.solve(build_sparsestcut_lp(inst, dec, alpha).program).objective
    extra = [("s", "t", 1, 2), ("t", 1, 2, 3)]
    bigger = simplex.solve(
        build_sparsestcut_lp(inst, dec, alpha, extra_sets=extra).program).objective
    assert bigger >= base


def test_pared_set_cap_guardrail():
    inst, dec = g1prime_k3()
    with pytest.raises(BudgetError):
        build_sparsestcut_lp(inst, dec, 1, set_cap=3)


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
            cold = simplex.solve(build_sparsestcut_lp(inst, dec, alpha).program)
            assert cold.optimal and cold.duality_gap == 0
            assert cold.objective / alpha == rs.ratio, \
                f"trial {trial}, alpha {alpha}: {cold.objective / alpha} vs {rs.ratio}"


def test_lp_dump_round_trip():
    inst, dec = g1prime_k3()
    built = build_sparsestcut_lp(inst, dec, 1)
    text = format_lp(built.program)
    parsed = parse_lp(text)
    a = simplex.solve(built.program)
    b = simplex.solve(parsed)
    assert a.objective == b.objective


def test_distortion_lp_feasible_for_path_metric():
    # path metric scaled into [0,1] embeds isometrically: D = 1 feasible
    verts = [1, 2, 3, 4]
    metric = {(u, v): Fraction(abs(u - v), 6) for u, v in itertools.combinations(verts, 2)}
    prog = build_distortion_lp(verts, metric, 1, Fraction(1), r=4)
    res = simplex.solve(prog)
    assert res.status == "optimal"
    family = full_family(range(1, 5), 4)
    sol = full_solution_from(family, res.values)
    assert sol.validate() == []
    # and an impossible demand: contract by half while expanding is capped
    bad = build_distortion_lp(verts, {(1, 4): Fraction(2)}, 1, Fraction(1), r=4)
    assert simplex.solve(bad).status == "infeasible"
