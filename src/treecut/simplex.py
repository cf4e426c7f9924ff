"""Bundled LP solver: an exact rational simplex.

A dense two-phase primal simplex runs on an integer tableau with a
single running denominator (integer pivoting), so every intermediate
quantity is exact and sign tests are integer sign tests.  Bland's rule
("bland") guarantees termination; the default "auto" rule uses
most-negative (Dantzig) pricing and falls back to Bland during
degenerate stalls, which keeps pivot counts low on the highly degenerate
lifted-cut polytopes.  Every optimal result carries exact duals and its
duality gap.

Objectives can be swapped on a solved tableau (`reoptimize`), which is
what makes exact Dinkelbach ratio searches cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import InputError

STALL_LIMIT = 40  # consecutive degenerate pivots before switching to Bland


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded | iteration-limit
    objective: Optional[Fraction]
    values: dict
    pivots: int = 0
    duals: Optional[list] = None  # one per original constraint, optimal only
    duality_gap: Optional[Fraction] = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class Simplex:
    """Two-phase primal simplex over a program's standardized rows.

    Standardization: rows scaled to integers, right-hand sides made
    nonnegative, slack/surplus columns appended, artificials for rows
    without a natural basic column.  All variables are nonnegative.
    """

    # Exact rationals are the only number type.  Kept as an attribute
    # because bench/tracer.py reads it before checking the duality gap.
    mode = "rational"

    def __init__(self, program, pivot_rule: str = "auto", max_iters: int = 200_000):
        if pivot_rule not in ("auto", "bland"):
            raise InputError(f"unknown pivot rule {pivot_rule!r}")
        self.rule = pivot_rule
        self.max_iters = max_iters
        self.program = program
        self.variables = list(program.variables)
        self.var_pos = {v: j for j, v in enumerate(self.variables)}
        self.pivots = 0
        self._build_tableau()

    # -- construction -----------------------------------------------------

    def _build_tableau(self):
        nv = len(self.variables)
        rows = []
        for coeffs, sense, rhs in self.program.constraints:
            vec = [Fraction(0)] * nv
            for var, c in coeffs.items():
                if var not in self.var_pos:
                    raise InputError(f"constraint references unknown variable {var!r}")
                vec[self.var_pos[var]] += Fraction(c)
            rhs = Fraction(rhs)
            sign = 1
            if rhs < 0:
                vec = [-c for c in vec]
                rhs, sign = -rhs, -1
                sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
            rows.append((vec, sense, rhs, sign))

        self.n_slack = sum(1 for _, s, _, _ in rows if s in ("<=", ">="))
        self.n_art = sum(1 for _, s, _, _ in rows if s != "<=")
        m = len(rows)
        width = nv + self.n_slack + self.n_art + 1
        self.m, self.nv, self.width = m, nv, width
        self.rhs_col = width - 1
        self.art_cols = set()

        T = []
        basis = []
        slack_at = nv
        art_at = nv + self.n_slack
        # per remaining row: (original constraint index, scale, sign, unit col, unit sign)
        self.row_meta = []
        for orig, (vec, sense, rhs, sign) in enumerate(rows):
            scale = lcm(rhs.denominator, *(c.denominator for c in vec)) if vec else rhs.denominator
            irow = [int(c * scale) for c in vec]
            irow += [0] * (self.n_slack + self.n_art)
            irow.append(int(rhs * scale))
            if sense == "<=":
                irow[slack_at] = 1
                basis.append(slack_at)
                self.row_meta.append((orig, scale, sign, slack_at, 1))
                slack_at += 1
            elif sense == ">=":
                irow[slack_at] = -1
                unit = (slack_at, -1)
                slack_at += 1
                irow[art_at] = 1
                basis.append(art_at)
                self.art_cols.add(art_at)
                self.row_meta.append((orig, scale, sign) + unit)
                art_at += 1
            else:
                irow[art_at] = 1
                basis.append(art_at)
                self.art_cols.add(art_at)
                self.row_meta.append((orig, scale, sign, art_at, 1))
                art_at += 1
            T.append(irow)

        # real cost row, scaled to integers
        self.obj_factor = -1 if self.program.sense == "max" else 1
        cost = [Fraction(0)] * nv
        for var, c in self.program.objective.items():
            cost[self.var_pos[var]] += self.obj_factor * Fraction(c)
        self.cost_scale = lcm(1, *(c.denominator for c in cost))
        T.append([int(c * self.cost_scale) for c in cost] + [0] * (width - nv))

        # phase-1 cost row: minimize the sum of artificials
        prow = [0] * width
        for i in range(m):
            if basis[i] in self.art_cols:
                row = T[i]
                for j in range(width):
                    prow[j] -= row[j]
        for c in self.art_cols:
            prow[c] = 0
        T.append(prow)

        self.T = T
        self.den = 1
        self.basis = basis
        self.barred = set()
        # Unit columns survive row drops, so dual extraction keeps its own
        # immutable copy of the per-original-row metadata.
        self.dual_meta = list(self.row_meta)

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, c: int):
        T = self.T
        prow = T[r]
        p = prow[c]
        d = self.den
        for i in range(len(T)):
            if i == r:
                continue
            row = T[i]
            f = row[c]
            if f:
                T[i] = [(a * p - f * b) // d for a, b in zip(row, prow)]
            else:
                T[i] = [(a * p) // d for a in row]
        self.den = p
        self.basis[r] = c
        self.pivots += 1

    def _choose_entering(self, cost_row: int, bland: bool) -> int:
        row = self.T[cost_row]
        barred = self.barred
        best, best_j = 0, -1
        for j in range(self.width - 1):
            v = row[j]
            if v < best and j not in barred:
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

    def _run(self, cost_row: int) -> str:
        bland = self.rule == "bland"
        stall = 0
        while self.pivots < self.max_iters:
            c = self._choose_entering(cost_row, bland)
            if c < 0:
                return "optimal"
            r = self._choose_leaving(c)
            if r < 0:
                return "unbounded"
            degenerate = self.T[r][self.rhs_col] == 0
            self._pivot(r, c)
            if self.rule == "auto":
                if degenerate:
                    stall += 1
                    if stall >= STALL_LIMIT:
                        bland = True
                else:
                    stall, bland = 0, False
        return "iteration-limit"

    # -- solving ----------------------------------------------------------

    def solve(self) -> LpResult:
        status = self._run(self.m + 1)
        if status != "optimal":
            return self._result(status)
        infeas = sum(self.T[i][self.rhs_col] for i in range(self.m)
                     if self.basis[i] in self.art_cols)
        if infeas > 0:
            return self._result("infeasible")
        self._clear_artificials()
        self._feasible_basis = True
        return self._result(self._run(self.m))

    def _clear_artificials(self):
        """Pivot basic artificials out; drop rows that turn out redundant."""
        drop = []
        for i in range(self.m):
            if self.basis[i] not in self.art_cols:
                continue
            pos, neg = -1, -1
            for j in range(self.nv + self.n_slack):
                x = self.T[i][j]
                if x > 0:
                    pos = j
                    break
                if neg < 0 and x < 0:
                    neg = j
            if pos >= 0:
                self._pivot(i, pos)
            elif neg >= 0:
                self.T[i] = [-x for x in self.T[i]]
                self._pivot(i, neg)
            else:
                drop.append(i)
        for i in reversed(drop):
            del self.T[i]
            del self.basis[i]
            del self.row_meta[i]
            self.m -= 1
        self.barred |= self.art_cols

    def reoptimize(self, new_objective: dict, sense: Optional[str] = None) -> LpResult:
        """Swap the objective on a solved feasible tableau and re-run.

        Reduced costs are rebuilt against the current basis, so the search
        resumes from the previous optimal vertex.
        """
        if not getattr(self, "_feasible_basis", False):
            raise InputError("reoptimize needs a solved feasible tableau; call solve() first")
        self.current_objective = dict(new_objective)
        sense = sense or self.program.sense
        self.obj_factor = -1 if sense == "max" else 1
        cost = [Fraction(0)] * self.nv
        for var, c in new_objective.items():
            cost[self.var_pos[var]] += self.obj_factor * Fraction(c)
        scale = lcm(1, *(c.denominator for c in cost))
        self.cost_scale = scale
        crow = [int(c * scale) * self.den for c in cost] + [0] * (self.width - self.nv)
        for i in range(self.m):
            b = self.basis[i]
            cb = int(cost[b] * scale) if b < self.nv else 0
            if cb:
                row = self.T[i]
                crow = [a - cb * x for a, x in zip(crow, row)]
        self.T[self.m] = crow
        return self._result(self._run(self.m), objective_override=self.current_objective)

    # -- results ----------------------------------------------------------

    def _result(self, status: str, objective_override: Optional[dict] = None) -> LpResult:
        values = {v: Fraction(0) for v in self.variables}
        for i in range(self.m):
            b = self.basis[i]
            if b < self.nv:
                values[self.variables[b]] = Fraction(self.T[i][self.rhs_col], self.den)
        obj_coeffs = objective_override if objective_override is not None \
            else self.program.objective
        obj = None
        if status in ("optimal", "iteration-limit"):
            obj = sum((Fraction(c) * values[v] for v, c in obj_coeffs.items()), Fraction(0))
        duals = gap = None
        if status == "optimal":
            duals, gap = self._certificate(obj)
        return LpResult(status=status, objective=obj, values=values,
                        pivots=self.pivots, duals=duals, duality_gap=gap)

    def _certificate(self, primal_obj: Fraction):
        """Duals per original constraint, rebuilt from unit-column reduced costs."""
        crow = self.T[self.m]
        denom = self.den * self.cost_scale
        duals = [Fraction(0)] * len(self.program.constraints)
        dual_obj = Fraction(0)
        for orig, scale, sign, col, unit_sign in self.dual_meta:
            y_std = -unit_sign * Fraction(crow[col], denom) * self.obj_factor
            duals[orig] = y_std * scale * sign
            _, _, rhs = self.program.constraints[orig]
            dual_obj += duals[orig] * Fraction(rhs)
        gap = primal_obj - dual_obj
        return duals, gap


def solve(program, pivot_rule: str = "auto", max_iters: int = 200_000) -> LpResult:
    """Solve an LpProgram; deterministic for a fixed pivot rule."""
    return Simplex(program, pivot_rule=pivot_rule, max_iters=max_iters).solve()
