"""Lifted cut relaxations: set families, LP builders, and the ratio search.

Variables x(S,T) carry the intended meaning "the chosen side A satisfies
A cap S = T".  Both the LPs and their solutions index T by its bit mask
over S, the members of S taken in family order; `restrictions` maps the
masks over a set onto a subset, and every marginal and consistency row is
built on it.  Two builders exist:

* `build_full_sa` emits the complete r-round system (normalization,
  per-element consistency, nonnegativity) with one variable per (S,T).
* `build_sparsestcut_lp` emits the pared system over root-path unions of
  a balanced decomposition.  Only inclusion-maximal family sets carry
  variable blocks; every other family set is a marginal of its parent
  block, and blocks sharing a family subset are tied together by
  aggregated-consistency rows.  This is a pure presolve: the projection
  of the feasible region onto the family variables is unchanged.

Pair values y_uv are never standalone LP variables; objectives and the
demand constraint substitute their defining sums directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from typing import Iterable

from .decomposition import TreeDecomposition, least_bags
from .errors import BudgetError, InputError, InvariantError
from .instance import SparsestCutInstance, as_weight
from . import simplex

DEFAULT_SET_CAP = 22  # vertices in a demand pair's joint family set
DEFAULT_VARIABLE_BUDGET = 300_000  # variables in one full or pared system
MAX_DINKELBACH_ITERATIONS = 60


# ---------------------------------------------------------------------------
# Set families.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SetFamily:
    """A canonical list of vertex subsets over a fixed vertex order."""

    order: tuple
    sets: tuple  # sorted vertex tuples, deduplicated

    @staticmethod
    def build(order: Iterable, sets: Iterable) -> "SetFamily":
        order = tuple(order)
        pos = {v: i for i, v in enumerate(order)}
        canon = {tuple(sorted(s, key=pos.__getitem__)) for s in sets}
        ordered = sorted(canon, key=lambda s: (len(s), tuple(pos[v] for v in s)))
        return SetFamily(order, tuple(ordered))

    @property
    def pos(self) -> dict:
        return {v: i for i, v in enumerate(self.order)}

    def canonical(self, vs) -> tuple:
        pos = self.pos
        return tuple(sorted(vs, key=pos.__getitem__))

    def frozensets(self) -> list:
        return [frozenset(s) for s in self.sets]

    def maximal_indices(self) -> list:
        fsets = self.frozensets()
        out = []
        for i, s in enumerate(fsets):
            if not any(i != j and s < t for j, t in enumerate(fsets)):
                out.append(i)
        return out

    def variable_count(self) -> int:
        return sum(1 << len(s) for s in self.sets)


def subset_from_mask(elems: tuple, mask: int) -> frozenset:
    return frozenset(elems[b] for b in range(len(elems)) if (mask >> b) & 1)


def mask_of(elems: tuple, subset) -> int:
    at = {v: b for b, v in enumerate(elems)}
    m = 0
    for v in subset:
        m |= 1 << at[v]
    return m


def restrictions(elems: tuple, q_elems) -> list:
    """For every mask over elems, its restriction to the subset q_elems,
    as a mask over q_elems."""
    at = {v: b for b, v in enumerate(q_elems)}
    out = [0]
    for v in elems:
        bit = 1 << at[v] if v in at else 0
        out += [m | bit for m in out]
    return out


def marginal(elems: tuple, table: list, q_elems) -> list:
    """The table over elems summed onto the subset q_elems."""
    out = [Fraction(0)] * (1 << len(q_elems))
    for qm, val in zip(restrictions(elems, q_elems), table):
        if val:
            out[qm] += val
    return out


# ---------------------------------------------------------------------------
# Programs.
# ---------------------------------------------------------------------------

@dataclass
class LpProgram:
    """min/max of a linear objective over nonnegative variables.

    constraints: list of (coeff dict, sense in {"<=", ">=", "=="}, rhs).
    """

    variables: list
    constraints: list
    objective: dict
    sense: str = "min"
    name: str = "lp"

    def check(self):
        declared = set(self.variables)
        for coeffs, sense, _ in self.constraints:
            if sense not in ("<=", ">=", "=="):
                raise InputError(f"bad constraint sense {sense!r}")
            for v in coeffs:
                if v not in declared:
                    raise InputError(f"constraint references undeclared variable {v!r}")
        for v in self.objective:
            if v not in declared:
                raise InputError(f"objective references undeclared variable {v!r}")
        return self


def _var(si: int, mask: int) -> tuple:
    return ("x", si, mask)


# ---------------------------------------------------------------------------
# Full r-round system.
# ---------------------------------------------------------------------------

def full_family(vertices: Iterable, r: int) -> SetFamily:
    order = tuple(vertices)
    sets = []
    for k in range(r + 1):
        sets.extend(itertools.combinations(order, k))
    return SetFamily.build(order, sets)


def build_full_sa(n: int, r: int):
    """Family of all S with |S| <= r over vertices 1..n, plus the
    normalization and per-element consistency rows.

    Returns (family, constraints); nonnegativity is implicit (the solver
    keeps every variable >= 0).  The rows are integer (coefficients 1 and
    -1, right-hand sides 1 and 0), which the simplex takes as they are.
    """
    if r > n:
        raise InputError(f"rounds r={r} exceed vertex count n={n}")
    count = sum(comb(n, k) * (1 << k) for k in range(r + 1))
    if count > DEFAULT_VARIABLE_BUDGET:
        raise BudgetError(f"full {r}-round system needs {count} variables, "
                          f"budget is {DEFAULT_VARIABLE_BUDGET}",
                          limit=DEFAULT_VARIABLE_BUDGET, requested=count)
    family = full_family(range(1, n + 1), r)
    sidx = {s: i for i, s in enumerate(family.sets)}
    constraints = []
    for i, s in enumerate(family.sets):
        constraints.append(({_var(i, m): 1 for m in range(1 << len(s))}, "==", 1))
    # x(S,T) = x(S+u,T) + x(S+u,T+u) for |S| <= r-1, u not in S
    for i, s in enumerate(family.sets):
        if len(s) >= r:
            continue
        smem = set(s)
        for u in family.order:
            if u in smem:
                continue
            big = family.canonical(s + (u,))
            j = sidx[big]
            rows = [{_var(i, m): 1} for m in range(1 << len(s))]
            for bm, m in enumerate(restrictions(big, s)):
                rows[m][_var(j, bm)] = -1
            constraints.extend((row, "==", 0) for row in rows)
    return family, constraints


def _pair_expression(family: SetFamily, parent_idx: int, u, v) -> list:
    """The parent-block variables whose sum is y_uv: those with exactly one
    endpoint, in mask order."""
    elems = family.sets[parent_idx]
    ubit, vbit = 1 << elems.index(u), 1 << elems.index(v)
    return [_var(parent_idx, m) for m in range(1 << len(elems))
            if bool(m & ubit) != bool(m & vbit)]


def build_maxcut_lp(graph, r: int) -> LpProgram:
    """Maximize the total y over the graph's edges subject to the full
    r-round system."""
    if r < 2:
        raise InputError(f"the MaxCut LP needs rounds r >= 2 to see edges, got r={r}")
    n = len(graph.vertices)
    family, constraints = build_full_sa(n, r)
    relabel = {v: i + 1 for i, v in enumerate(graph.vertices)}
    sidx = {s: i for i, s in enumerate(family.sets)}
    objective: dict = {}
    for u, v in graph.edges:
        pi = sidx[family.canonical((relabel[u], relabel[v]))]
        for key in _pair_expression(family, pi, relabel[u], relabel[v]):
            objective[key] = objective.get(key, 0) + 1
    variables = [_var(i, m) for i, s in enumerate(family.sets) for m in range(1 << len(s))]
    return LpProgram(variables, constraints, objective, sense="max",
                     name=f"maxcut_sa_r{r}").check()


# ---------------------------------------------------------------------------
# Pared sparsest-cut system over a balanced decomposition.
# ---------------------------------------------------------------------------

@dataclass
class SparsestCutLp:
    """The pared program plus everything needed to read solutions back."""

    program: LpProgram
    family: SetFamily
    maximal: list  # family indices carrying variable blocks
    parent_of: dict  # family index -> chosen maximal family index
    cap_expr: dict
    dem_expr: dict
    instance: SparsestCutInstance

    def solution_from(self, values: dict) -> "SaSolution":
        """Every family set's table, summed from its parent block's nonzeros
        (the block's `marginal` onto the set, with one zero test per entry)."""
        sets = self.family.sets
        nonzeros = {}
        for p in self.maximal:
            block = (values[_var(p, m)] for m in range(1 << len(sets[p])))
            nonzeros[p] = [(m, x) for m, x in enumerate(block) if x]
        tables = {}
        for i, elems in enumerate(sets):
            p = self.parent_of[i]
            table = [Fraction(0)] * (1 << len(elems))
            restrict = restrictions(sets[p], elems)
            for m, x in nonzeros[p]:
                table[restrict[m]] += x
            tables[frozenset(elems)] = (elems, table)
        return SaSolution(self.family, tables)


@dataclass
class SaSolution:
    """A valuation x(S,T) over a declared family, with derived pair values.

    tables[frozenset(S)] = (elems, table): elems is S in family order and
    table[m] = x(S, T) for the T that mask m picks out of elems.
    """

    family: SetFamily
    tables: dict
    _marginals: dict = field(default_factory=dict, repr=False)

    def y_value(self, u, v) -> Fraction:
        table = self.tables[frozenset((u, v))][1]
        return table[1] + table[2]

    def block_table(self, S) -> tuple:
        """(elements, list-of-values indexed by subset mask) for a family set."""
        return self.tables[frozenset(S)]

    def aggregate(self, S, Q) -> tuple:
        """Marginal of the S-block onto Q (a subset of S); cached.

        Returns (q_elems, list indexed by Q-subset mask).
        """
        key = (frozenset(S), frozenset(Q))
        hit = self._marginals.get(key)
        if hit is None:
            elems, table = self.tables[key[0]]
            q_elems = self.family.canonical(Q)
            hit = self._marginals[key] = (q_elems, marginal(elems, table, q_elems))
        return hit

    def validate(self) -> list:
        """All violated conditions: normalization, nonnegativity, and the
        aggregated consistency between every nested family pair."""
        problems = []
        fsets = self.family.frozensets()
        for s in fsets:
            elems, table = self.tables[s]
            for m, v in enumerate(table):
                if v < 0:
                    problems.append(("negative", s, subset_from_mask(elems, m), v))
            total = sum(table, Fraction(0))
            if total != 1:
                problems.append(("normalization", s, None, total))
        for small in fsets:
            for big in fsets:
                if not small < big:
                    continue
                q_elems, agg = self.aggregate(big, small)
                for m, (a, x) in enumerate(zip(agg, self.tables[small][1])):
                    if a != x:
                        problems.append(("consistency", small,
                                         (big, subset_from_mask(q_elems, m)), a - x))
        return problems


def pared_family(instance: SparsestCutInstance, dec: TreeDecomposition):
    """The family the rounding analysis needs: root-path unions, per-pair
    endpoint-bag augmentations, and the joint union per demand pair."""
    unions = dec.unions
    order = instance.vertices
    least_bag = least_bags(dec, order)

    sets = [()]
    sets += [tuple(u) for u in unions]
    pairs = [(u, v) for u, v, _ in instance.supply_edges]
    pairs += [(u, v) for u, v, _ in instance.demand_edges]
    for u, v in pairs:
        sets.append((u,))
        sets.append((v,))
        sets.append((u, v))
    for u, v, _ in instance.demand_edges:
        a, b = least_bag[u], least_bag[v]
        sets.append(tuple(unions[a] | {u, v}))
        sets.append(tuple(unions[b] | {u, v}))
        joint = unions[a] | unions[b]
        if len(joint) > DEFAULT_SET_CAP:
            raise BudgetError(
                f"demand pair ({u},{v}) needs a joint set of {len(joint)} vertices, "
                f"cap is {DEFAULT_SET_CAP}", limit=DEFAULT_SET_CAP, requested=len(joint))
        sets.append(tuple(joint))
    return SetFamily.build(order, sets)


def build_sparsestcut_lp(instance: SparsestCutInstance, dec: TreeDecomposition,
                         alpha, include_demand_constraint: bool = True) -> SparsestCutLp:
    """Pared LP: minimize cut capacity subject to separated demand >= alpha.

    Maximal family sets carry the variable blocks; nested family sets are
    marginals.  Agreement rows tie any two blocks together on the largest
    family sets they share, which implies the aggregated consistency
    (Lemma-style) equalities for every nested family pair.
    """
    alpha = as_weight(alpha)
    family = pared_family(instance, dec)
    fsets = family.frozensets()
    maximal = family.maximal_indices()
    nvars = sum(1 << len(family.sets[i]) for i in maximal)
    if nvars > DEFAULT_VARIABLE_BUDGET:
        raise BudgetError(f"pared system needs {nvars} variables, budget is "
                          f"{DEFAULT_VARIABLE_BUDGET}", limit=DEFAULT_VARIABLE_BUDGET,
                          requested=nvars)

    parents: dict = {i: [] for i in range(len(fsets))}
    for i, s in enumerate(fsets):
        for mi in maximal:
            if s <= fsets[mi]:
                parents[i].append(mi)
    parent_of = {i: parents[i][0] for i in range(len(fsets))}

    # The rows are integer (coefficients 1 and -1, right-hand sides 1 and
    # 0), which the simplex takes as they are.
    constraints = []
    for mi in maximal:
        constraints.append(({_var(mi, m): 1 for m in range(1 << len(family.sets[mi]))},
                            "==", 1))

    # Agreement rows.  A family set S needs them when it lies in several
    # blocks and no larger family set covers the same block list.
    for i, s in enumerate(fsets):
        ps = parents[i]
        if len(ps) < 2:
            continue
        if any(j != i and s < fsets[j] and set(ps) <= set(parents[j])
               for j in range(len(fsets))):
            continue
        elems = family.sets[i]
        base = ps[0]
        for other in ps[1:]:
            rows = [{} for _ in range(1 << len(elems))]
            for block, sign in ((base, 1), (other, -1)):
                for bm, m in enumerate(restrictions(family.sets[block], elems)):
                    rows[m][_var(block, bm)] = sign
            constraints.extend((row, "==", 0) for row in rows)

    sidx = {s: i for i, s in enumerate(family.sets)}

    def pair_sum(edges) -> dict:
        """sum of w * y_uv over the edges, summed in integers over the
        weights' common denominator, one Fraction per variable at the end."""
        scale = lcm(1, *(w.denominator for _, _, w in edges))
        total: dict = {}
        for u, v, w in edges:
            c = w.numerator * (scale // w.denominator)
            for k in _pair_expression(family, parent_of[sidx[family.canonical((u, v))]],
                                      u, v):
                total[k] = total.get(k, 0) + c
        return {k: Fraction(c, scale) for k, c in total.items()}

    cap_expr = pair_sum(instance.supply_edges)
    dem_expr = pair_sum(instance.demand_edges)

    if include_demand_constraint:
        constraints.append((dict(dem_expr), ">=", alpha))

    variables = [_var(i, m) for i in maximal for m in range(1 << len(family.sets[i]))]
    program = LpProgram(variables, constraints, dict(cap_expr), sense="min",
                        name="sparsest_cut_pared").check()
    return SparsestCutLp(program, family, maximal, parent_of, cap_expr, dem_expr,
                         instance)


def full_solution_from(family: SetFamily, values: dict) -> SaSolution:
    """SaSolution for a full-system solve, where every set has variables."""
    return SaSolution(family, {
        frozenset(elems): (elems, [values[_var(i, m)] for m in range(1 << len(elems))])
        for i, elems in enumerate(family.sets)})


# ---------------------------------------------------------------------------
# Ratio search.
# ---------------------------------------------------------------------------

@dataclass
class RatioSearchResult:
    alpha: Fraction
    solution: SaSolution
    lp_value: Fraction  # capacity value at the returned solution
    ratio: Fraction  # lp_value / alpha
    iterations: int
    trace: list


def _certified(res: simplex.LpResult, what: str) -> simplex.LpResult:
    """res, once it is optimal with an exact duality gap of 0."""
    if not res.optimal:
        raise InvariantError(f"{what} solve failed: {res.status}")
    if res.duality_gap != 0:
        raise InvariantError(f"{what} solve has duality gap {res.duality_gap}")
    return res


def ratio_search(instance: SparsestCutInstance, dec: TreeDecomposition) -> RatioSearchResult:
    """Minimize (capacity value)/(demand value) over the pared polytope.

    Dinkelbach's exact parametric iteration: lambda <- cap(y)/dem(y) on the
    objective cap - lambda*dem, warm-restarting the tableau, which carries
    cap and dem as reduced-cost rows through its pivots.  Each iterate
    is a strictly better vertex, so the search ends, exactly, when that
    objective's minimum reaches 0.  Every solve must end optimal with an
    exact duality gap of 0, and the search must end within
    MAX_DINKELBACH_ITERATIONS re-solves, or InvariantError is raised.
    """
    if instance.total_demand <= 0:
        raise InputError("ratio search needs positive total demand")
    built = build_sparsestcut_lp(instance, dec, 0, include_demand_constraint=False)
    solver = simplex.Simplex(built.program, objectives=(built.cap_expr, built.dem_expr))
    _certified(solver.solve(), "feasibility")
    res = _certified(solver.reoptimize((0, 1), "max"), "max-demand")

    def values_of(res):
        values = res.values
        cap = sum((c * x for k, c in built.cap_expr.items() if (x := values[k])),
                  Fraction(0))
        dem = sum((c * x for k, c in built.dem_expr.items() if (x := values[k])),
                  Fraction(0))
        return cap, dem

    cap, dem = values_of(res)
    if dem <= 0:
        raise InputError("no cut distribution separates any demand")
    lam = cap / dem
    best = (res.values, cap, dem)
    trace = [(lam, cap, dem)]
    for it in range(MAX_DINKELBACH_ITERATIONS):
        res = _certified(solver.reoptimize((1, -lam), "min"), "dinkelbach")
        if res.objective == 0:
            sol = built.solution_from(best[0])
            return RatioSearchResult(best[2], sol, best[1], lam, it + 1, trace)
        cap, dem = values_of(res)
        lam_new = cap / dem
        if lam_new >= lam:
            raise InvariantError("dinkelbach ratio failed to decrease")
        lam = lam_new
        best = (res.values, cap, dem)
        trace.append((lam, cap, dem))
    raise InvariantError(f"dinkelbach did not converge in {MAX_DINKELBACH_ITERATIONS} "
                         f"iterations; trace: {trace}")


# ---------------------------------------------------------------------------
# LP text dump (a small CPLEX-LP dialect; rationals allowed as p/q).
# ---------------------------------------------------------------------------

def _mangle(key) -> str:
    if isinstance(key, tuple) and key and key[0] == "x":
        return f"x_{key[1]}_{key[2]}"
    return str(key)


def format_lp(program: LpProgram) -> str:
    def term(c, v):
        c = Fraction(c)
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        return f"{sign} {mag} {_mangle(v)}"

    lines = [f"\\ {program.name}"]
    lines.append("Maximize" if program.sense == "max" else "Minimize")
    obj = " ".join(term(c, v) for v, c in sorted(program.objective.items(),
                                                 key=lambda kv: _mangle(kv[0])))
    lines.append(f" obj: {obj if obj else '0 ' + _mangle(program.variables[0])}")
    lines.append("Subject To")
    for i, (coeffs, sense, rhs) in enumerate(program.constraints):
        body = " ".join(term(c, v) for v, c in sorted(coeffs.items(),
                                                      key=lambda kv: _mangle(kv[0])))
        op = {"<=": "<=", ">=": ">=", "==": "="}[sense]
        lines.append(f" c{i}: {body} {op} {Fraction(rhs)}")
    lines.append("Bounds")
    lines.append("\\ all variables >= 0 (solver default)")
    lines.append("End")
    return "\n".join(lines) + "\n"
