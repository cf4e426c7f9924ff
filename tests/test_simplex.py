from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treecut.errors import InputError
from treecut.generators import MaxCutInstance
from treecut.relaxation import LpProgram, build_maxcut_lp
from treecut.simplex import Simplex, solve

from _reference_simplex import reference_solve


def lp(variables, constraints, objective, sense="min"):
    return LpProgram(list(variables), constraints, objective, sense=sense)


def test_single_bound():
    res = solve(lp(["y"], [({"y": 1}, "<=", 1)], {"y": 1}, "max"))
    assert res.optimal and res.objective == 1


def test_infeasible():
    res = solve(lp(["x"], [({"x": 1}, "<=", 1), ({"x": 1}, ">=", 2)], {"x": 1}))
    assert res.status == "infeasible"


def test_unbounded():
    res = solve(lp(["x"], [({"x": 1}, ">=", 1)], {"x": 1}, "max"))
    assert res.status == "unbounded"


def test_equality_and_fractions():
    res = solve(lp(["a", "b"],
                   [({"a": Fraction(1, 3), "b": 1}, "==", Fraction(2, 3)),
                    ({"a": 1}, "<=", Fraction(1, 2))],
                   {"a": 1, "b": 3}, "min"))
    # minimize a + 3b with a/3 + b = 2/3: b = 2/3 - a/3, obj = a + 2 - a = 2
    assert res.objective == 2
    assert res.duality_gap == 0


def test_maxcut_sa_k2():
    res = solve(build_maxcut_lp(MaxCutInstance.complete(2), 2))
    assert res.objective == 1


def test_maxcut_sa_k5_matches_reference():
    prog = build_maxcut_lp(MaxCutInstance.complete(5), 2)
    res = solve(prog)
    status, ref = reference_solve(prog.variables, prog.constraints,
                                  prog.objective, prog.sense)
    assert status == "optimal"
    assert res.objective == ref == 10


def test_strong_duality_on_sa_programs():
    for name, r in [("k3", 2), ("k4", 2), ("p3", 3), ("c5", 2)]:
        prog = build_maxcut_lp(MaxCutInstance.named(name), r)
        res = solve(prog)
        assert res.optimal
        assert res.duality_gap == 0
        # dual feasibility, componentwise (max sense: A^T y >= c)
        colsum = {v: Fraction(0) for v in prog.variables}
        for (coeffs, sense, rhs), y in zip(prog.constraints, res.duals):
            for v, c in coeffs.items():
                colsum[v] += Fraction(c) * y
        for v in prog.variables:
            assert colsum[v] >= Fraction(prog.objective.get(v, 0))


def test_bland_rule_terminates_on_degenerate_programs():
    # classic cycling-prone structure plus the degenerate SA polytopes
    beale = lp(["x1", "x2", "x3", "x4"],
               [({"x1": Fraction(1, 4), "x2": -60, "x3": -Fraction(1, 25), "x4": 9}, "<=", 0),
                ({"x1": Fraction(1, 2), "x2": -90, "x3": -Fraction(1, 50), "x4": 3}, "<=", 0),
                ({"x3": 1}, "<=", 1)],
               {"x1": Fraction(-3, 4), "x2": 150, "x3": -Fraction(1, 50), "x4": 6},
               "min")
    res = solve(beale, pivot_rule="bland", max_iters=5000)
    status, ref = reference_solve(beale.variables, beale.constraints,
                                  beale.objective, beale.sense)
    assert res.optimal and status == "optimal" and res.objective == ref == Fraction(-1, 20)
    for name, r in [("k3", 2), ("k4", 2)]:
        prog = build_maxcut_lp(MaxCutInstance.named(name), r)
        a = solve(prog, pivot_rule="bland", max_iters=50_000)
        b = solve(prog)
        assert a.optimal and b.optimal and a.objective == b.objective


def test_reoptimize_matches_cold_solve():
    prog = build_maxcut_lp(MaxCutInstance.complete(4), 2)
    solver = Simplex(prog)
    first = solver.solve()
    new_obj = {v: -c for v, c in prog.objective.items()}
    warm = solver.reoptimize(new_obj, sense="max")
    cold = solve(lp(prog.variables, prog.constraints, new_obj, "max"))
    assert warm.objective == cold.objective
    # and back again
    again = solver.reoptimize(prog.objective, sense="max")
    assert again.objective == first.objective


def test_iteration_limit_status():
    prog = build_maxcut_lp(MaxCutInstance.complete(4), 2)
    res = solve(prog, max_iters=3)
    assert res.status == "iteration-limit"
    assert res.values is not None


def test_rejects_bad_mode():
    # the pivot rule is the solver's only mode; "dantzig" alone is not offered
    for rule in ("dantzig", "steepest"):
        with pytest.raises(InputError):
            solve(lp(["x"], [], {"x": 1}), pivot_rule=rule)


@st.composite
def random_lp(draw):
    nv = draw(st.integers(2, 5))
    variables = [f"v{i}" for i in range(nv)]
    ncons = draw(st.integers(1, 5))
    constraints = []
    for _ in range(ncons):
        coeffs = {v: Fraction(draw(st.integers(-4, 4))) for v in variables}
        coeffs = {v: c for v, c in coeffs.items() if c}
        if not coeffs:
            coeffs = {variables[0]: Fraction(1)}
        sense = draw(st.sampled_from(["<=", ">=", "=="]))
        rhs = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
        constraints.append((coeffs, sense, rhs))
    # bound the feasible region so max problems stay bounded
    for v in variables:
        constraints.append(({v: Fraction(1)}, "<=", Fraction(10)))
    objective = {v: Fraction(draw(st.integers(-3, 3))) for v in variables}
    sense = draw(st.sampled_from(["min", "max"]))
    return LpProgram(variables, constraints, objective, sense=sense)


@given(random_lp())
@settings(max_examples=60, deadline=None)
def test_agrees_with_reference_on_random_lps(prog):
    mine = solve(prog)
    status, ref = reference_solve(prog.variables, prog.constraints,
                                  prog.objective, prog.sense)
    assert mine.status == status
    if status == "optimal":
        assert mine.objective == ref
        assert mine.duality_gap == 0
        for coeffs, sense, rhs in prog.constraints:
            lhs = sum(Fraction(c) * mine.values[v] for v, c in coeffs.items())
            if sense == "<=":
                assert lhs <= Fraction(rhs)
            elif sense == ">=":
                assert lhs >= Fraction(rhs)
            else:
                assert lhs == Fraction(rhs)
