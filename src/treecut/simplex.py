"""Bundled LP solver: an exact rational simplex.

A dense two-phase primal simplex runs on an integer tableau in which
every row has its own positive denominator: row i stands for
T[i] / dens[i], so every intermediate quantity is exact and every sign
test is an integer sign test.  Programs have no variable names: a
variable is a column, rows are {column: coefficient} dicts and results
hold values by column.  The tableau is built from those sparse rows:
only each row's coefficients are scaled and scattered into a zero
integer row, and every denominator starts at 1.
A pivot on p = T[r][c] has one update: row r keeps its integers and its
denominator becomes p, and each row with f = T[i][c] != 0 becomes
q*T[i] - (f/g)*T[r] over q*dens[i], with g = gcd(p, f) and q = p/g.
The pivot row's nonzeros are collected once and only those columns of
each such row are updated, after scaling it by q when q > 1; with p == 1
there is no gcd and no scaling.  A row with a zero in the pivot column
is never written.  Pricing, the ratio test and the degeneracy test each
read within one row, where a positive scale changes nothing.  Pricing is
most-negative (Dantzig), which keeps pivot counts low on the highly
degenerate lifted-cut polytopes; after STALL_LIMIT consecutive degenerate
pivots it falls back to Bland's rule, which guarantees termination, until
a pivot makes progress.  A solve stops with status "iteration-limit"
once the tableau has made MAX_ITERS pivots.  Every optimal result
carries exact duals and its duality gap.  The primal objective is summed
as integers over the lcm of the basic rows' denominators, the dual one
over the cost row's, and only nonzero values and duals become Fractions.

The tableau has one cost row, T[m], below its m constraint rows, and
pricing reads only that row.  Objectives, the program's own and those
declared at construction (`objectives=`), come as (scale, {column: int}):
the objective times a positive integer scale.  Each rides through the
pivots as one more integer row, objective k at T[m + 1 + k] with the
program's own first, at its own scale, updated by every pivot like the
constraint rows, so each such row over its denominator is always scale
times that objective's reduced costs against the current basis.  Phase 1
starts with the sum of the artificials' reduced costs in the cost row;
once it ends, the artificials, the last columns before the right-hand
side, are no longer priced.  Pricing then writes a weighted sum of the
carried rows into the cost row as one integer combination, over the lcm
of their denominators: `solve()` prices the program's objective, and
`reoptimize(weights, sense)` any weighted sum, resuming from the previous
optimal vertex, which is what makes exact Dinkelbach ratio searches
cheap.  The combined row is a positive multiple of the reduced costs, so
the pivots it picks are the ones a cost row rebuilt from scratch would
pick.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Optional

from .errors import InputError

STALL_LIMIT = 40  # consecutive degenerate pivots before switching to Bland
MAX_ITERS = 200_000  # pivots of one tableau, over all its solves
ZERO = Fraction(0)  # shared by every zero value and dual of a result


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded | iteration-limit
    objective: Optional[Fraction]
    values: list  # by column
    pivots: int = 0
    duals: Optional[list] = None  # one per original constraint, optimal only
    duality_gap: Optional[Fraction] = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


_FLIP = {"<=": ">=", ">=": "<=", "==": "=="}  # each sense, rows negated


def _scatter(cols: dict, scale: int, width: int) -> list:
    """An integer row of `width`: scale * cols[j] at each column j, 0 elsewhere."""
    row = [0] * width
    for j, c in cols.items():
        row[j] = c.numerator * (scale // c.denominator)
    return row


def _check_columns(cols: dict, nv: int) -> dict:
    if cols and not (0 <= min(cols) and max(cols) < nv):
        raise InputError(f"coefficients outside the program's {nv} columns")
    return cols


class Simplex:
    """Two-phase primal simplex over a program's standardized rows.

    Standardization: rows scaled to integers, right-hand sides made
    nonnegative, slack/surplus columns appended, artificials for rows
    without a natural basic column.  All variables are nonnegative.
    The program's objective and each one in `objectives` (scale,
    {column: int}) are carried as reduced-cost rows for pricing.
    """

    # Exact rationals are the only number type.  Kept as an attribute
    # because bench/tracer.py reads it before checking the duality gap.
    mode = "rational"

    def __init__(self, program, objectives=()):
        self.program = program
        self.pivots = 0
        self._feasible_basis = False  # phase 1 has ended feasible
        self.objectives = [program.objective, *objectives]  # (scale, {column: int}) each
        self._build_tableau()
        self.dens = [1] * len(self.T)  # row i stands for T[i] / dens[i]
        self._price((1,), program.sense)  # what results report before phase 2

    # -- construction -----------------------------------------------------

    def _build_tableau(self):
        nv = len(self.program.variables)
        rows = []
        for cols, sense, rhs in self.program.constraints:
            if sense not in _FLIP:
                raise InputError(f"bad constraint sense {sense!r}")
            _check_columns(cols, nv)
            sign = 1
            if rhs < 0:
                rhs, sign, sense = -rhs, -1, _FLIP[sense]
                cols = {j: -c for j, c in cols.items()}
            rows.append((cols, sense, rhs, sign))

        n_slack = sum(1 for _, s, _, _ in rows if s in ("<=", ">="))
        m = len(rows)
        width = nv + n_slack + sum(1 for _, s, _, _ in rows if s != "<=") + 1
        self.m, self.nv, self.width = m, nv, width
        self.rhs_col = width - 1

        T = []
        basis = []
        slack_at = nv
        # the artificials are the columns from here to the right-hand side
        self.first_art = art_at = nv + n_slack
        prow = [0] * width  # phase-1 cost row: minimize the sum of artificials
        # per original row, for the duals; unit columns survive row drops, so
        # this keeps every row: (constraint index, scale, sign, unit col, unit sign)
        self.dual_meta = []
        self.scaled_rhs = []  # per original row: its right-hand side, scaled to an integer
        for orig, (cols, sense, rhs, sign) in enumerate(rows):
            scale = lcm(rhs.denominator, *(c.denominator for c in cols.values()))
            irow = _scatter(cols, scale, width)
            irow[-1] = rhs.numerator * (scale // rhs.denominator)
            self.scaled_rhs.append(irow[-1])
            if sense == "<=":
                irow[slack_at] = 1
                basis.append(slack_at)
                self.dual_meta.append((orig, scale, sign, slack_at, 1))
                slack_at += 1
            else:
                if sense == ">=":
                    irow[slack_at] = -1
                    prow[slack_at] += 1
                    self.dual_meta.append((orig, scale, sign, slack_at, -1))
                    slack_at += 1
                else:
                    self.dual_meta.append((orig, scale, sign, art_at, 1))
                irow[art_at] = 1
                basis.append(art_at)
                art_at += 1
                for j in cols:
                    prow[j] -= irow[j]
                prow[-1] -= irow[-1]
            T.append(irow)

        T.append(prow)  # the cost row
        T += [_scatter(_check_columns(ints, nv), 1, width) for _, ints in self.objectives]
        self.T = T
        self.basis = basis

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, c: int):
        T, dens = self.T, self.dens
        prow = T[r]
        p = prow[c]
        nz = [(j, prow[j]) for j in compress(range(len(prow)), prow)]
        for i, row in enumerate(T):
            f = row[c]
            if f and i != r:
                # row/dens[i] - (f/dens[i]) * prow/p, over q*dens[i]
                if p != 1:
                    g = gcd(p, f)
                    q, f = p // g, f // g
                    if q != 1:
                        T[i] = row = [q * a for a in row]
                        dens[i] *= q
                for j, b in nz:
                    row[j] -= f * b
        dens[r] = p
        self.basis[r] = c
        self.pivots += 1

    def _choose_entering(self, bland: bool) -> int:
        row = self.T[self.m]
        best, best_j = 0, -1
        for j in range(self.first_art if self._feasible_basis else self.rhs_col):
            v = row[j]
            if v < best:
                if bland:
                    return j
                best, best_j = v, j
        return best_j

    def _choose_leaving(self, c: int) -> int:
        """Min-ratio row; ties go to the smallest basis index (Bland-safe)."""
        T = self.T
        rhs = self.rhs_col
        best_num = best_den = None
        best_i = -1
        for i in range(self.m):
            a = T[i][c]
            if a > 0:
                num = T[i][rhs]
                if best_i < 0:
                    take = True
                else:
                    l, r = num * best_den, best_num * a
                    take = l < r or (l == r and self.basis[i] < self.basis[best_i])
                if take:
                    best_num, best_den, best_i = num, a, i
        return best_i

    def _run(self) -> str:
        bland = False
        stall = 0
        while self.pivots < MAX_ITERS:
            c = self._choose_entering(bland)
            if c < 0:
                return "optimal"
            r = self._choose_leaving(c)
            if r < 0:
                return "unbounded"
            degenerate = self.T[r][self.rhs_col] == 0
            self._pivot(r, c)
            if degenerate:
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True
            else:
                stall, bland = 0, False
        return "iteration-limit"

    # -- solving ----------------------------------------------------------

    def solve(self) -> LpResult:
        status = self._run()  # phase 1: minimize the sum of the artificials
        if status != "optimal":
            return self._result(status)
        infeas = sum(self.T[i][self.rhs_col] for i, b in enumerate(self.basis)
                     if b >= self.first_art)
        if infeas > 0:
            return self._result("infeasible")
        self._clear_artificials()
        self._feasible_basis = True
        self.T[self.m], self.dens[self.m] = self._price((1,), self.program.sense)
        return self._result(self._run())

    def _clear_artificials(self):
        """Pivot basic artificials out; drop rows that turn out redundant."""
        drop = []
        prefix = range(self.first_art)  # structural and slack columns
        for i in range(self.m):
            if self.basis[i] < self.first_art:
                continue
            # the first positive column, else the first negative one, read
            # off the row's nonzeros only
            row = self.T[i]
            pos, neg = -1, -1
            for j in compress(prefix, row):
                if row[j] > 0:
                    pos = j
                    break
                if neg < 0:
                    neg = j
            if pos >= 0:
                self._pivot(i, pos)
            elif neg >= 0:
                self.T[i] = [-x for x in self.T[i]]
                self._pivot(i, neg)
            else:
                drop.append(i)
        for i in reversed(drop):
            del self.T[i], self.dens[i]
            del self.basis[i]
            self.m -= 1

    def reoptimize(self, weights, sense: Optional[str] = None) -> LpResult:
        """Optimize sum_k weights[k] * (objective k) and re-run from the
        previous optimal vertex; objective 0 is the program's own, and the
        declared ones follow it."""
        if not self._feasible_basis:
            raise InputError("reoptimize needs a solved feasible tableau; call solve() first")
        if len(weights) != len(self.objectives):
            raise InputError(f"reoptimize got {len(weights)} weights for "
                             f"{len(self.objectives)} objectives")
        self.T[self.m], self.dens[self.m] = self._price(weights, sense or self.program.sense)
        return self._result(self._run())

    def _price(self, weights, sense: str) -> tuple:
        """Make sum_k weights[k] * (objective k), at `sense`, the objective
        results report, and return its cost row as (integers, denominator):
        that weighted sum of the carried reduced-cost rows, at the smallest
        common scale and over the lcm of their denominators."""
        self.obj_factor = factor = -1 if sense == "max" else 1
        # weight a/b on a row at scale s needs a common scale divisible by b*s/gcd(a, s)
        terms = []
        scale = 1
        for k, (w, (s, _)) in enumerate(zip(weights, self.objectives)):
            w = Fraction(w)
            if w:
                g = gcd(w.numerator, s)
                terms.append((k, w.numerator // g, w.denominator * s // g))
                scale = lcm(scale, terms[-1][2])
        at = self.m + 1  # carried objective k is row at + k
        den = lcm(1, *(self.dens[at + k] for k, _, _ in terms))
        cost: dict = {}
        crow = [0] * self.width
        for k, num, per in terms:
            mult = factor * num * (scale // per)
            for j, c in self.objectives[k][1].items():
                cost[j] = cost.get(j, 0) + mult * c
            mult *= den // self.dens[at + k]
            crow = [a + mult * x for a, x in zip(crow, self.T[at + k])]
        self.cost_scale, self.cost_int = scale, cost
        return crow, den

    # -- results ----------------------------------------------------------

    def _result(self, status: str) -> LpResult:
        """Values of the basic structurals; the objective summed in integers.

        The objective is the current objective's integer-scaled
        coefficients applied to the basic values, not the tableau's
        objective entry, so the duality gap compares two independent sums.
        """
        T, rhs, dens, nv, cost = self.T, self.rhs_col, self.dens, self.nv, self.cost_int
        values = [ZERO] * nv
        basic = [(i, b) for i, b in enumerate(self.basis) if b < nv and T[i][rhs]]
        den = lcm(1, *(dens[i] for i, _ in basic))
        total = 0
        for i, b in basic:
            x = T[i][rhs]
            values[b] = Fraction(x, dens[i])
            total += cost.get(b, 0) * x * (den // dens[i])
        obj = None
        if status in ("optimal", "iteration-limit"):
            obj = Fraction(self.obj_factor * total, den * self.cost_scale)
        duals = gap = None
        if status == "optimal":
            duals, gap = self._certificate(obj)
        return LpResult(status=status, objective=obj, values=values,
                        pivots=self.pivots, duals=duals, duality_gap=gap)

    def _certificate(self, primal_obj: Fraction):
        """Duals per original constraint, rebuilt from unit-column reduced costs.

        Row orig's dual is -unit_sign * obj_factor * crow[col] * scale * sign
        over dens[m] * cost_scale; times the row's right-hand side that is
        -unit_sign * obj_factor * crow[col] * scaled_rhs[orig] over the same
        denominator, so the dual objective is one integer sum.
        """
        crow = self.T[self.m]
        denom = self.dens[self.m] * self.cost_scale
        duals = [ZERO] * len(self.program.constraints)
        dual_sum = 0
        for orig, scale, sign, col, unit_sign in self.dual_meta:
            y = -unit_sign * self.obj_factor * crow[col]
            if y:
                duals[orig] = Fraction(y * scale * sign, denom)
                dual_sum += y * self.scaled_rhs[orig]
        gap = primal_obj - Fraction(dual_sum, denom)
        return duals, gap


def solve(program) -> LpResult:
    """Solve an LpProgram; deterministic."""
    return Simplex(program).solve()
