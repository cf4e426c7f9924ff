from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from treecut.decomposition import balance, exact_decomposition
from treecut.errors import InputError
from treecut.generators import MaxCutInstance
from treecut.relaxation import LpProgram, build_maxcut_lp, build_sparsestcut_lp
from treecut import simplex
from treecut.simplex import Simplex, solve

from _lp_fixtures import named_program, scaled, unscaled
from _reference_simplex import reference_solve
from _trace_digest import ratio_search_solvers
from corpus import acceptance_corpus


def lp(variables, constraints, objective, sense="min"):
    return named_program(variables, constraints, objective, sense=sense)


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
                                  unscaled(prog.objective), prog.sense)
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
        objective = unscaled(prog.objective)
        for v in prog.variables:
            assert colsum[v] >= objective.get(v, 0)


def test_bland_rule_terminates_on_degenerate_programs(monkeypatch):
    # classic cycling-prone structure plus the degenerate SA polytopes, with
    # Bland's rule taking over from the first degenerate pivot
    monkeypatch.setattr(simplex, "STALL_LIMIT", 1)
    beale = lp(["x1", "x2", "x3", "x4"],
               [({"x1": Fraction(1, 4), "x2": -60, "x3": -Fraction(1, 25), "x4": 9}, "<=", 0),
                ({"x1": Fraction(1, 2), "x2": -90, "x3": -Fraction(1, 50), "x4": 3}, "<=", 0),
                ({"x3": 1}, "<=", 1)],
               {"x1": Fraction(-3, 4), "x2": 150, "x3": -Fraction(1, 50), "x4": 6},
               "min")
    assert solve(beale).objective == Fraction(-1, 20)
    for prog in [beale] + [build_maxcut_lp(MaxCutInstance.named(name), 2)
                           for name in ("k3", "k4")]:
        res = solve(prog)
        status, ref = reference_solve(prog.variables, prog.constraints,
                                      unscaled(prog.objective), prog.sense)
        assert res.optimal and status == "optimal" and res.objective == ref
        assert res.duality_gap == 0


def test_reoptimize_matches_cold_solve():
    prog = build_maxcut_lp(MaxCutInstance.complete(4), 2)
    scale, ints = prog.objective
    new_obj = (scale, {j: -c for j, c in ints.items()})
    solver = Simplex(prog, objectives=(new_obj,))
    first = solver.solve()
    warm = solver.reoptimize((0, 1), sense="max")
    cold = solve(LpProgram(prog.variables, prog.constraints, new_obj, "max"))
    assert warm.objective == cold.objective
    # and back again, to the program's own objective
    again = solver.reoptimize((1, 0), sense="max")
    assert again.objective == first.objective


def test_reoptimize_rejects_misuse():
    prog = build_maxcut_lp(MaxCutInstance.complete(3), 2)
    solver = Simplex(prog)
    with pytest.raises(InputError):
        solver.reoptimize((1,))  # before solve()
    assert solver.solve().optimal
    for weights in ((), (1, 0)):  # one weight, for the program's objective
        with pytest.raises(InputError):
            solver.reoptimize(weights)
    with pytest.raises(InputError):  # a column the program does not have
        Simplex(prog, objectives=((1, {len(prog.variables): 1}),))


def test_iteration_limit_status(monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITERS", 3)
    prog = build_maxcut_lp(MaxCutInstance.complete(4), 2)
    res = solve(prog)
    assert res.status == "iteration-limit"
    assert res.pivots == 3
    assert res.values is not None


# Simplex pivots summed over the 100 corpus ratio searches
# (`_trace_digest.ratio_search_pivots`), and the rows their final tableaux
# hold in all.
RATIO_SEARCH_PIVOTS = 4646
RATIO_SEARCH_ROWS = 2376


def test_corpus_ratio_searches_pivot_as_recorded(monkeypatch):
    def laid_out(method):
        def checked(self, *args, **kwargs):
            res = method(self, *args, **kwargs)
            # the constraint rows, one cost row, then the program's objective
            # and each declared one
            assert len(self.T) == len(self.dens) == self.m + 1 + len(self.objectives)
            return res
        return checked

    for name in ("solve", "reoptimize"):
        monkeypatch.setattr(Simplex, name, laid_out(getattr(Simplex, name)))
    solvers = ratio_search_solvers()
    assert len(solvers) == 100
    assert sum(solver.pivots for solver in solvers) == RATIO_SEARCH_PIVOTS
    assert sum(len(solver.T) for solver in solvers) == RATIO_SEARCH_ROWS


@st.composite
def random_lp(draw):
    nv = draw(st.integers(2, 5))
    variables = range(nv)
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
    return LpProgram(variables, constraints, scaled(objective), sense=sense)


@given(random_lp())
@settings(max_examples=60, deadline=None)
def test_agrees_with_reference_on_random_lps(prog):
    mine = solve(prog)
    status, ref = reference_solve(prog.variables, prog.constraints,
                                  unscaled(prog.objective), prog.sense)
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


def dense_tableau(prog):
    """(T, basis, dual_meta, cost_scale) built the plain way, from dense
    Fraction rows: the constraint rows, the phase-1 cost row, then the
    program's objective as the first carried row."""
    nv = len(prog.variables)
    rows = []
    for coeffs, sense, rhs in prog.constraints:
        vec = [Fraction(0)] * nv
        for j, c in coeffs.items():
            vec[j] += Fraction(c)
        rhs, sign = Fraction(rhs), 1
        if rhs < 0:
            vec = [-c for c in vec]
            rhs, sign = -rhs, -1
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
        rows.append((vec, sense, rhs, sign))
    n_slack = sum(1 for _, s, _, _ in rows if s != "==")
    n_art = sum(1 for _, s, _, _ in rows if s != "<=")
    width = nv + n_slack + n_art + 1
    T, basis, meta = [], [], []
    slack_at, art_at = nv, nv + n_slack
    for orig, (vec, sense, rhs, sign) in enumerate(rows):
        scale = lcm(rhs.denominator, *(c.denominator for c in vec))
        row = [int(c * scale) for c in vec] + [0] * (n_slack + n_art) + [int(rhs * scale)]
        if sense != "==":
            row[slack_at] = 1 if sense == "<=" else -1
            unit = (slack_at, row[slack_at])
            slack_at += 1
        if sense == "<=":
            basis.append(unit[0])
        else:
            row[art_at] = 1
            basis.append(art_at)
            if sense == "==":
                unit = (art_at, 1)
            art_at += 1
        meta.append((orig, scale, sign) + unit)
        T.append(row)
    art = range(nv + n_slack, width - 1)
    phase1 = [0] * width
    for i, b in enumerate(basis):
        if b in art:
            phase1 = [p - a for p, a in zip(phase1, T[i])]
    for c in art:
        phase1[c] = 0
    T.append(phase1)
    cost = [Fraction(0)] * nv
    for j, c in unscaled(prog.objective).items():
        cost[j] += c
    cost_scale = lcm(1, *(c.denominator for c in cost))
    T.append([int(c * cost_scale) for c in cost] + [0] * (width - nv))
    return T, basis, meta, cost_scale


def assert_same_tableau(prog):
    solver = Simplex(prog)
    T, basis, meta, cost_scale = dense_tableau(prog)
    assert solver.T == T
    assert solver.basis == basis
    assert solver.dual_meta == meta
    assert solver.cost_scale == cost_scale
    assert solver.dens == [1] * len(T)


@pytest.fixture(scope="module")
def corpus_programs():
    """(program, objective to reoptimize for, its sense) over production-shaped LPs.

    The ratio search's program (no demand row) over the first 20 corpus
    instances, re-solved for maximum separated demand as the search does,
    plus the full Sherali-Adams MaxCut LP of C_5, which pivots on
    entries above 1.
    """
    out = []
    for inst in acceptance_corpus(0, 20):
        built = build_sparsestcut_lp(inst, balance(exact_decomposition(inst)))
        out.append((built.program, unscaled(built.dem_expr), "max"))
    sa = build_maxcut_lp(MaxCutInstance.named("c5"), 2)
    weighted = {j: (k % 3 + 1) * c for k, (j, c) in enumerate(unscaled(sa.objective).items())}
    out.append((sa, weighted, "max"))
    return out


def test_tableau_matches_dense_construction(corpus_programs):
    for prog, objective, _ in corpus_programs:
        assert_same_tableau(prog)
        # a declared objective only appends its row, over denominator 1
        carried = Simplex(prog, objectives=(scaled(objective),))
        assert carried.T[:-1] == Simplex(prog).T
        assert carried.dens == [1] * len(carried.T)
        assert carried.T[-1] == carried_row(Simplex(prog), scaled(objective))
    # the same instances with the demand row (a fractional ">=" right-hand side)
    for inst in acceptance_corpus(0, 20):
        built = build_sparsestcut_lp(inst, balance(exact_decomposition(inst)),
                                     inst.total_demand / 3)
        assert_same_tableau(built.program)


@given(random_lp())
@settings(max_examples=60, deadline=None)
def test_tableau_matches_dense_construction_on_random_lps(prog):
    # negative right-hand sides, fractional rows and all three senses
    assert_same_tableau(prog)


def assert_certified(solver, res, prog, objective, sense):
    """res is the reference optimum, with exact primal and dual witnesses."""
    status, ref = reference_solve(prog.variables, prog.constraints, objective, sense)
    assert res.status == status == "optimal"
    assert res.objective == ref
    values = res.values
    assert all(x >= 0 for x in values)
    assert sum(Fraction(c) * values[v] for v, c in objective.items()) == ref
    for coeffs, s, rhs in prog.constraints:
        lhs = sum(Fraction(c) * values[v] for v, c in coeffs.items())
        assert {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[s]
    # dual feasibility in the program's sense, then strong duality
    flip = 1 if sense == "max" else -1
    colsum = {v: Fraction(0) for v in prog.variables}
    for (coeffs, s, rhs), y in zip(prog.constraints, res.duals):
        assert {"<=": flip * y >= 0, ">=": flip * y <= 0, "==": True}[s]
        for v, c in coeffs.items():
            colsum[v] += Fraction(c) * y
    for v in prog.variables:
        assert flip * colsum[v] >= flip * Fraction(objective.get(v, 0))
    assert res.duality_gap == 0
    assert sum(y * Fraction(rhs) for (_, _, rhs), y in zip(prog.constraints, res.duals)) == ref
    # over the rows' positive denominators, the basic columns are the identity
    T, dens = solver.T, solver.dens
    assert len(dens) == len(T) and all(d > 0 for d in dens)
    for i, b in enumerate(solver.basis):
        assert [T[k][b] for k in range(solver.m)] == [dens[k] if k == i else 0
                                                      for k in range(solver.m)]
        # the cost row and every carried row
        assert all(row[b] == 0 for row in T[solver.m:])


def test_solve_and_reoptimize_match_reference(corpus_programs):
    for prog, objective, sense in corpus_programs:
        solver = Simplex(prog, objectives=(scaled(objective),))
        assert_certified(solver, solver.solve(), prog, unscaled(prog.objective), prog.sense)
        assert_certified(solver, solver.reoptimize((0, 1), sense=sense),
                         prog, objective, sense)


@given(random_lp(), st.lists(st.integers(-3, 3), min_size=5, max_size=5),
       st.sampled_from(["min", "max"]))
@settings(max_examples=60, deadline=None)
def test_reoptimize_agrees_with_reference_on_random_lps(prog, weights, sense):
    # fractional rows move row denominators off 1 before the swap
    objective = {v: Fraction(w) for v, w in zip(prog.variables, weights)}
    solver = Simplex(prog, objectives=(scaled(objective),))
    if not solver.solve().optimal:
        return
    # every variable is bounded, so a feasible program stays optimal
    assert_certified(solver, solver.reoptimize((0, 1), sense=sense), prog, objective, sense)


def dense_bareiss(T, dens, r, c):
    """The dense fraction-free pivot on (r, c): every row, every column.

    (rows, dens), unreduced: row r over p = T[r][c], and every other row i
    as a*p - f*b over p*dens[i], with f = T[i][c] and b = T[r][j].
    """
    prow, p = T[r], T[r][c]
    rows = [list(prow) if i == r else [a * p - row[c] * b for a, b in zip(row, prow)]
            for i, row in enumerate(T)]
    return rows, [p if i == r else p * d for i, d in enumerate(dens)]


def same_rationals(T, dens, rows, row_dens):
    """T[i][j] / dens[i] == rows[i][j] / row_dens[i] for every i and j."""
    return len(T) == len(rows) and all(
        [a * e for a in row] == [b * d for b in ref]
        for row, d, ref, e in zip(T, dens, rows, row_dens))


@contextmanager
def checked_pivots():
    """Check every Simplex._pivot against dense_bareiss on a copy.

    After each pivot every row over its positive denominator holds the
    reference's exact rationals, and each row with a zero in the pivot
    column is the same list with the same integers and the same
    denominator.  Yields a Counter of the pivots by pivot entry p:
    "p == 1" and "p > 1".
    """
    pivot = Simplex._pivot
    kinds = Counter()

    def checked(self, r, c):
        p = self.T[r][c]
        expected = dense_bareiss(self.T, self.dens, r, c)
        untouched = [(i, row, list(row), self.dens[i])
                     for i, row in enumerate(self.T) if row[c] == 0]
        kinds["p == 1" if p == 1 else "p > 1"] += 1
        pivot(self, r, c)
        assert len(self.dens) == len(self.T) and all(d > 0 for d in self.dens)
        assert same_rationals(self.T, self.dens, *expected)
        assert self.T[r][c] == self.dens[r] == p
        for i, row, ints, d in untouched:
            assert self.T[i] is row and row == ints and self.dens[i] == d

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simplex, "_pivot", checked)
        yield kinds


def test_pivots_match_dense_bareiss(corpus_programs):
    with checked_pivots() as kinds:
        for prog, objective, sense in corpus_programs:
            solver = Simplex(prog, objectives=(scaled(objective),))
            assert solver.solve().optimal
            assert solver.reoptimize((0, 1), sense=sense).optimal
    # the C_5 program pivots on entries above 1
    assert set(kinds) == {"p == 1", "p > 1"}


@given(random_lp(), st.lists(st.integers(-3, 3), min_size=5, max_size=5),
       st.sampled_from(["min", "max"]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_pivots_match_dense_bareiss_on_random_lps(prog, weights, sense):
    objective = {v: Fraction(w) for v, w in zip(prog.variables, weights)}
    with checked_pivots():
        solver = Simplex(prog, objectives=(scaled(objective),))
        if solver.solve().optimal:
            solver.reoptimize((0, 1), sense=sense)


def fraction_result(solver, objective):
    """(values, objective, duals, gap) recomputed in Fractions from the tableau."""
    T, dens = solver.T, solver.dens
    values = [Fraction(0)] * solver.nv
    for i, b in enumerate(solver.basis):
        if b < solver.nv:
            values[b] = Fraction(T[i][solver.rhs_col], dens[i])
    obj = sum((Fraction(c) * values[v] for v, c in objective.items()), Fraction(0))
    crow = T[solver.m]
    constraints = solver.program.constraints
    duals = [Fraction(0)] * len(constraints)
    dual_obj = Fraction(0)
    for orig, scale, sign, col, unit_sign in solver.dual_meta:
        y_std = -unit_sign * Fraction(crow[col], dens[solver.m] * solver.cost_scale) \
            * solver.obj_factor
        duals[orig] = y_std * scale * sign
        dual_obj += duals[orig] * Fraction(constraints[orig][2])
    return values, obj, duals, obj - dual_obj


def assert_fraction_result(solver, res, objective):
    values, obj, duals, gap = fraction_result(solver, objective)
    assert res.optimal
    assert (res.values, res.objective, res.duals, res.duality_gap) == (values, obj, duals, gap)
    assert len(res.values) == len(solver.program.variables)
    assert gap == 0


def test_integer_certificate_matches_fraction_recomputation(corpus_programs):
    # the feasibility solve, the swap to the second objective, then two
    # Dinkelbach steps on first - lambda * second, as the ratio search runs
    for prog, objective, sense in corpus_programs:
        solver = Simplex(prog, objectives=(scaled(objective),))
        assert_fraction_result(solver, solver.solve(), unscaled(prog.objective))
        res = solver.reoptimize((0, 1), sense=sense)
        assert_fraction_result(solver, res, objective)
        for _ in range(2):
            first = sum(c * res.values[v] for v, c in unscaled(prog.objective).items())
            second = sum(Fraction(c) * res.values[v] for v, c in objective.items())
            lam = first / second
            step = unscaled(prog.objective)
            for v, c in objective.items():
                step[v] = step.get(v, Fraction(0)) - lam * c
            res = solver.reoptimize((1, -lam), sense="min")
            assert_fraction_result(solver, res, step)


def carried_row(solver, objective):
    """scale * the objective's reduced costs against the current basis, as
    Fractions, recomputed densely from the tableau's constraint rows: c_j
    minus the basic costs times column j of B^-1 A, which is
    T[i][j] / dens[i]; objective is (scale, {column: int}), the
    objective's coefficients times scale."""
    T, dens = solver.T, solver.dens
    scale, ints = objective
    coeff = [Fraction(0)] * solver.width
    for j, c in ints.items():
        coeff[j] += Fraction(c, scale)
    den = lcm(1, *dens[:solver.m])
    basic = [0] * solver.width  # den * scale * sum_i c_basis(i) * T[i] / dens[i]
    for i, b in enumerate(solver.basis):
        if coeff[b]:
            cb = int(coeff[b] * scale) * (den // dens[i])
            basic = [x + cb * a for x, a in zip(basic, T[i])]
    return [scale * c - Fraction(x, den) for c, x in zip(coeff, basic)]


def dense_cost_row(solver, objective, sense):
    """(row, scale): the cost row rebuilt densely against the current basis,
    as `reoptimize` built it before the objectives rode through the pivots,
    in Fractions: scale * the reduced costs."""
    factor = -1 if sense == "max" else 1
    cost = {j: factor * Fraction(c) for j, c in objective.items() if c}
    scale = lcm(1, *(c.denominator for c in cost.values()))
    crow = [Fraction(0)] * solver.width
    for j, c in cost.items():
        crow[j] = c * scale
    for i in range(solver.m):
        cb = cost.get(solver.basis[i])
        if cb:
            crow = [a - cb * scale * Fraction(x, solver.dens[i])
                    for a, x in zip(crow, solver.T[i])]
    return crow, scale


@contextmanager
def checked_carried_rows():
    """Check the carried objective rows after every pivot, and each cost
    row that `_price` builds, for `solve()` and each `reoptimize` alike.

    Every carried row over its denominator must equal `carried_row`, and
    the priced row over its denominator and `cost_scale` must equal
    `dense_cost_row` over its scale for the same weighted objective, with
    `cost_int / cost_scale` its coefficients.  Yields a Counter of the
    checks made and of the `reoptimize` calls.
    """
    init, pivot, reoptimize, price = (Simplex.__init__, Simplex._pivot,
                                      Simplex.reoptimize, Simplex._price)
    checks = Counter()

    def assert_carried(self):
        # the program's objective is carried first, the declared ones after it
        assert len(self.T) == self.m + 1 + len(self.declared)
        for k, objective in enumerate(self.declared):
            i = self.m + 1 + k
            assert [Fraction(a, self.dens[i]) for a in self.T[i]] == \
                carried_row(self, objective)
        checks["carried rows"] += 1

    def checked_init(self, program, *args, objectives=(), **kwargs):
        self.declared = [program.objective, *objectives]
        init(self, program, *args, objectives=objectives, **kwargs)
        assert_carried(self)

    def checked_pivot(self, r, c):
        pivot(self, r, c)
        assert_carried(self)

    def counted_reoptimize(self, *args, **kwargs):
        checks["reoptimize calls"] += 1
        return reoptimize(self, *args, **kwargs)

    def checked_price(self, weights, sense):
        row, den = price(self, weights, sense)
        combined = {}
        for w, objective in zip(weights, self.declared):
            for v, c in unscaled(objective).items():
                combined[v] = combined.get(v, Fraction(0)) + Fraction(w) * Fraction(c)
        old, old_scale = dense_cost_row(self, combined, sense)
        assert self.cost_scale > 0 and den > 0
        assert [Fraction(a * old_scale, den) for a in row] == [b * self.cost_scale for b in old]
        factor = -1 if sense == "max" else 1
        assert {j: Fraction(c, self.cost_scale) for j, c in self.cost_int.items() if c} == \
            {v: factor * c for v, c in combined.items() if c}
        checks["cost rows"] += 1
        return row, den

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simplex, "__init__", checked_init)
        mp.setattr(Simplex, "_pivot", checked_pivot)
        mp.setattr(Simplex, "reoptimize", counted_reoptimize)
        mp.setattr(Simplex, "_price", checked_price)
        yield checks


def dinkelbach_steps(prog, objective, sense):
    """Solve, swap to objective, then two Dinkelbach steps on
    prog.objective - lambda * objective, as the ratio search runs."""
    solver = Simplex(prog, objectives=(scaled(objective),))
    if not solver.solve().optimal:
        return
    res = solver.reoptimize((0, 1), sense=sense)
    for _ in range(2):
        if not res.optimal:
            return
        first = sum(c * res.values[v] for v, c in unscaled(prog.objective).items())
        second = sum(Fraction(c) * res.values[v] for v, c in objective.items())
        if not second:
            return
        res = solver.reoptimize((1, -first / second), sense="min")


def test_carried_rows_match_dense_reduced_costs(corpus_programs):
    with checked_pivots() as kinds, checked_carried_rows() as checks:
        for prog, objective, sense in corpus_programs:
            dinkelbach_steps(prog, objective, sense)
    # the C_5 program pivots on entries above 1 with the rows aboard
    assert kinds["p > 1"] > 0
    # per program: the construction, the phase-2 row of solve(), the swap
    # and two Dinkelbach steps; solve() prices without calling reoptimize
    assert checks["cost rows"] == 5 * len(corpus_programs)
    assert checks["reoptimize calls"] == 3 * len(corpus_programs)


@given(random_lp(), st.lists(st.integers(-3, 3), min_size=5, max_size=5),
       st.sampled_from(["min", "max"]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_carried_rows_match_dense_reduced_costs_on_random_lps(prog, weights, sense):
    objective = {v: Fraction(w, 2) for v, w in zip(prog.variables, weights)}
    with checked_carried_rows():
        dinkelbach_steps(prog, objective, sense)
