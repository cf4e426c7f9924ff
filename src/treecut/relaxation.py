"""Lifted cut relaxations: set families, LP builders, and the ratio search.

Variables x(S,T) carry the intended meaning "the chosen side A satisfies
A cap S = T".  Two builders exist:

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
from math import comb
from typing import Iterable

from .decomposition import TreeDecomposition, least_bags, root_path_unions
from .errors import BudgetError, InputError, InvariantError
from .instance import SparsestCutInstance, as_weight
from . import simplex

DEFAULT_SET_CAP = 22
DEFAULT_VARIABLE_BUDGET = 300_000


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

    def index_of(self, vs) -> int:
        return self.sets.index(self.canonical(vs))

    def __contains__(self, vs) -> bool:
        return self.canonical(vs) in set(self.sets)

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


def build_full_sa(n: int, r: int, budget: int = DEFAULT_VARIABLE_BUDGET):
    """Family of all S with |S| <= r over vertices 1..n, plus the
    normalization and per-element consistency rows.

    Returns (family, constraints); nonnegativity is implicit (the solver
    keeps every variable >= 0).
    """
    if r > n:
        raise InputError(f"rounds r={r} exceed vertex count n={n}")
    count = sum(comb(n, k) * (1 << k) for k in range(r + 1))
    if count > budget:
        raise BudgetError(f"full {r}-round system needs {count} variables, "
                          f"budget is {budget}", limit=budget, requested=count)
    family = full_family(range(1, n + 1), r)
    sidx = {s: i for i, s in enumerate(family.sets)}
    constraints = []
    for i, s in enumerate(family.sets):
        constraints.append(({_var(i, m): Fraction(1) for m in range(1 << len(s))},
                            "==", Fraction(1)))
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
            u_bit = 1 << big.index(u)
            lift = [big.index(v) for v in s]
            for m in range(1 << len(s)):
                mbig = 0
                for b, p in enumerate(lift):
                    if (m >> b) & 1:
                        mbig |= 1 << p
                row = {_var(i, m): Fraction(1),
                       _var(j, mbig): Fraction(-1),
                       _var(j, mbig | u_bit): Fraction(-1)}
                constraints.append((row, "==", Fraction(0)))
    return family, constraints


def _pair_expression(family: SetFamily, parent_idx: int, u, v) -> dict:
    """y_uv as a sum of parent-block variables with exactly one endpoint."""
    elems = family.sets[parent_idx]
    ubit, vbit = 1 << elems.index(u), 1 << elems.index(v)
    expr = {}
    for m in range(1 << len(elems)):
        if bool(m & ubit) != bool(m & vbit):
            expr[_var(parent_idx, m)] = Fraction(1)
    return expr


def build_maxcut_lp(graph, r: int, budget: int = DEFAULT_VARIABLE_BUDGET) -> LpProgram:
    """Maximize the total y over the graph's edges subject to the full
    r-round system."""
    if r < 2:
        raise InputError(f"the MaxCut LP needs rounds r >= 2 to see edges, got r={r}")
    n = len(graph.vertices)
    family, constraints = build_full_sa(n, r, budget)
    relabel = {v: i + 1 for i, v in enumerate(graph.vertices)}
    sidx = {s: i for i, s in enumerate(family.sets)}
    objective: dict = {}
    for u, v in graph.edges:
        pi = sidx[family.canonical((relabel[u], relabel[v]))]
        for key, c in _pair_expression(family, pi, relabel[u], relabel[v]).items():
            objective[key] = objective.get(key, Fraction(0)) + c
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
    decomposition: TreeDecomposition
    bag_set_index: dict  # bag node -> family index of its root-path union
    alpha: Fraction

    def solution_from(self, values: dict) -> "SaSolution":
        sol_values = {}
        by_parent: dict = {}
        for i in range(len(self.family.sets)):
            by_parent.setdefault(self.parent_of[i], []).append(i)
        for p, children in by_parent.items():
            elems = self.family.sets[p]
            proj = []
            for i in children:
                pm = mask_of(elems, self.family.sets[i])
                proj.append((i, pm, frozenset(self.family.sets[i])))
                for m in range(1 << len(self.family.sets[i])):
                    sol_values[(frozenset(self.family.sets[i]),
                                subset_from_mask(self.family.sets[i], m))] = Fraction(0)
            for m in range(1 << len(elems)):
                val = values[_var(p, m)]
                if not val:
                    continue
                here = subset_from_mask(elems, m)
                for i, pm, sfs in proj:
                    sol_values[(sfs, here & sfs)] += val
        return SaSolution(self.family, sol_values)


@dataclass
class SaSolution:
    """A valuation x(S,T) over a declared family, with derived pair values."""

    family: SetFamily
    values: dict  # (frozenset S, frozenset T) -> Fraction
    _tables: dict = field(default_factory=dict, repr=False)

    def value(self, S, T) -> Fraction:
        return self.values[(frozenset(S), frozenset(T))]

    @property
    def y(self) -> dict:
        out = {}
        for s in self.family.sets:
            if len(s) == 2:
                u, v = s
                out[frozenset(s)] = (self.values[(frozenset(s), frozenset((u,)))]
                                     + self.values[(frozenset(s), frozenset((v,)))])
        return out

    def y_value(self, u, v) -> Fraction:
        return self.y[frozenset((u, v))]

    def block_table(self, S) -> tuple:
        """(elements, list-of-values indexed by subset mask) for a family set."""
        key = frozenset(S)
        if key not in self._tables:
            elems = self.family.canonical(S)
            table = [self.values[(key, subset_from_mask(elems, m))]
                     for m in range(1 << len(elems))]
            self._tables[key] = (elems, table)
        return self._tables[key]

    def aggregate(self, S, Q) -> tuple:
        """Marginal of the S-block onto Q (a subset of S); cached.

        Returns (q_elems, list indexed by Q-subset mask).
        """
        ck = (frozenset(S), frozenset(Q))
        if ck in self._tables:
            return self._tables[ck]
        elems, table = self.block_table(S)
        q_elems = self.family.canonical(Q)
        qpos = [elems.index(v) for v in q_elems]
        out = [Fraction(0)] * (1 << len(q_elems))
        for m, val in enumerate(table):
            if val:
                qm = 0
                for b, p in enumerate(qpos):
                    if (m >> p) & 1:
                        qm |= 1 << b
                out[qm] += val
        self._tables[ck] = (q_elems, out)
        return self._tables[ck]

    def validate(self, require_all_nested: bool = True) -> list:
        """All violated conditions: normalization, nonnegativity, and the
        aggregated consistency between every nested family pair."""
        problems = []
        fsets = self.family.frozensets()
        for s, elems in zip(fsets, self.family.sets):
            total = Fraction(0)
            for m in range(1 << len(elems)):
                v = self.values[(s, subset_from_mask(elems, m))]
                if v < 0:
                    problems.append(("negative", s, subset_from_mask(elems, m), v))
                total += v
            if total != 1:
                problems.append(("normalization", s, None, total))
        if require_all_nested:
            for i, small in enumerate(fsets):
                for j, big in enumerate(fsets):
                    if i == j or not small < big:
                        continue
                    q_elems, agg = self.aggregate(big, small)
                    for m in range(1 << len(q_elems)):
                        t = subset_from_mask(q_elems, m)
                        if agg[m] != self.values[(small, t)]:
                            problems.append(("consistency", small, (big, t),
                                             agg[m] - self.values[(small, t)]))
        return problems


def pared_family(instance: SparsestCutInstance, dec: TreeDecomposition,
                 set_cap: int = DEFAULT_SET_CAP, extra_sets: Iterable = ()):
    """The family the rounding analysis needs: root-path unions, per-pair
    endpoint-bag augmentations, and the joint union per demand pair."""
    unions = root_path_unions(dec)
    order = instance.vertices
    least_bag = least_bags(dec, order)

    sets = [()]
    sets += [tuple(u.union_set) for u in unions]
    pairs = [(u, v) for u, v, _ in instance.supply_edges]
    pairs += [(u, v) for u, v, _ in instance.demand_edges]
    for u, v in pairs:
        sets.append((u,))
        sets.append((v,))
        sets.append((u, v))
    for u, v, _ in instance.demand_edges:
        a, b = least_bag[u], least_bag[v]
        sets.append(tuple(unions[a].union_set | {u, v}))
        sets.append(tuple(unions[b].union_set | {u, v}))
        joint = unions[a].union_set | unions[b].union_set
        if len(joint) > set_cap:
            raise BudgetError(
                f"demand pair ({u},{v}) needs a joint set of {len(joint)} vertices, "
                f"cap is {set_cap}", limit=set_cap, requested=len(joint))
        sets.append(tuple(joint))
    for s in extra_sets:
        if len(s) > set_cap:
            raise BudgetError(f"extra set of {len(s)} vertices exceeds cap {set_cap}",
                              limit=set_cap, requested=len(s))
        sets.append(tuple(s))
    family = SetFamily.build(order, sets)
    bag_set_index = {i: family.sets.index(family.canonical(unions[i].union_set))
                     for i in range(dec.n_bags)}
    return family, bag_set_index


def build_sparsestcut_lp(instance: SparsestCutInstance, dec: TreeDecomposition,
                         alpha, set_cap: int = DEFAULT_SET_CAP,
                         variable_budget: int = DEFAULT_VARIABLE_BUDGET,
                         extra_sets: Iterable = (),
                         include_demand_constraint: bool = True) -> SparsestCutLp:
    """Pared LP: minimize cut capacity subject to separated demand >= alpha.

    Maximal family sets carry the variable blocks; nested family sets are
    marginals.  Agreement rows tie any two blocks together on the largest
    family sets they share, which implies the aggregated consistency
    (Lemma-style) equalities for every nested family pair.
    """
    alpha = as_weight(alpha)
    family, bag_set_index = pared_family(instance, dec, set_cap, extra_sets)
    fsets = family.frozensets()
    maximal = family.maximal_indices()
    nvars = sum(1 << len(family.sets[i]) for i in maximal)
    if nvars > variable_budget:
        raise BudgetError(f"pared system needs {nvars} variables, budget is "
                          f"{variable_budget}", limit=variable_budget, requested=nvars)

    parents: dict = {i: [] for i in range(len(fsets))}
    for i, s in enumerate(fsets):
        for mi in maximal:
            if s <= fsets[mi]:
                parents[i].append(mi)
    parent_of = {i: parents[i][0] for i in range(len(fsets))}

    constraints = []
    for mi in maximal:
        constraints.append(({_var(mi, m): Fraction(1)
                             for m in range(1 << len(family.sets[mi]))},
                            "==", Fraction(1)))

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
            for m in range(1 << len(elems)):
                t = subset_from_mask(elems, m)
                row: dict = {}
                for block, sign in ((base, 1), (other, -1)):
                    belems = family.sets[block]
                    bpos = [belems.index(v) for v in elems]
                    fixed = 0
                    for b, p in enumerate(bpos):
                        if (m >> b) & 1:
                            fixed |= 1 << p
                    inside = sum(1 << p for p in bpos)
                    free = [b for b in range(len(belems)) if not (inside >> b) & 1]
                    for fm in range(1 << len(free)):
                        bm = fixed
                        for b, p in enumerate(free):
                            if (fm >> b) & 1:
                                bm |= 1 << p
                        key = _var(block, bm)
                        row[key] = row.get(key, Fraction(0)) + sign
                constraints.append((row, "==", Fraction(0)))

    def pair_expr(u, v, weight) -> dict:
        pi = parent_of[family.sets.index(family.canonical((u, v)))]
        return {k: weight * c for k, c in _pair_expression(family, pi, u, v).items()}

    cap_expr: dict = {}
    for u, v, w in instance.supply_edges:
        for k, c in pair_expr(u, v, w).items():
            cap_expr[k] = cap_expr.get(k, Fraction(0)) + c
    dem_expr: dict = {}
    for u, v, w in instance.demand_edges:
        for k, c in pair_expr(u, v, w).items():
            dem_expr[k] = dem_expr.get(k, Fraction(0)) + c

    if include_demand_constraint:
        constraints.append((dict(dem_expr), ">=", alpha))

    variables = [_var(i, m) for i in maximal for m in range(1 << len(family.sets[i]))]
    program = LpProgram(variables, constraints, dict(cap_expr), sense="min",
                        name="sparsest_cut_pared").check()
    return SparsestCutLp(program, family, maximal, parent_of, cap_expr, dem_expr,
                         instance, dec, bag_set_index, alpha)


def build_distortion_lp(vertices, metric: dict, distortion, scale,
                        r: int, budget: int = DEFAULT_VARIABLE_BUDGET) -> LpProgram:
    """Feasibility system for a distortion-D cut embedding of a metric:
    the full r-round system plus scale*d <= y <= D*scale*d per pair."""
    verts = list(vertices)
    n = len(verts)
    family, constraints = build_full_sa(n, r, budget)
    relabel = {v: i + 1 for i, v in enumerate(verts)}
    sidx = {s: i for i, s in enumerate(family.sets)}
    D = as_weight(distortion)
    C = as_weight(scale)
    for (u, v), d in metric.items():
        d = as_weight(d)
        pi = sidx[family.canonical((relabel[u], relabel[v]))]
        expr = _pair_expression(family, pi, relabel[u], relabel[v])
        constraints.append((dict(expr), ">=", C * d))
        constraints.append((dict(expr), "<=", D * C * d))
    variables = [_var(i, m) for i, s in enumerate(family.sets) for m in range(1 << len(s))]
    return LpProgram(variables, constraints, {}, sense="min",
                     name=f"distortion_{distortion}").check()


def full_solution_from(family: SetFamily, values: dict) -> SaSolution:
    """SaSolution for a full-system solve, where every set has variables."""
    out = {}
    for i, elems in enumerate(family.sets):
        s = frozenset(elems)
        for m in range(1 << len(elems)):
            out[(s, subset_from_mask(elems, m))] = values[_var(i, m)]
    return SaSolution(family, out)


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


def ratio_search(instance: SparsestCutInstance, dec: TreeDecomposition,
                 max_iterations: int = 60, set_cap: int = DEFAULT_SET_CAP,
                 variable_budget: int = DEFAULT_VARIABLE_BUDGET) -> RatioSearchResult:
    """Minimize (capacity value)/(demand value) over the pared polytope.

    Dinkelbach's exact parametric iteration: lambda <- cap(y)/dem(y) on the
    objective cap - lambda*dem, warm-restarting the tableau.  Each iterate
    is a strictly better vertex, so the search ends, exactly, when that
    objective's minimum reaches 0.
    """
    if instance.total_demand <= 0:
        raise InputError("ratio search needs positive total demand")
    built = build_sparsestcut_lp(instance, dec, 0, set_cap, variable_budget,
                                 include_demand_constraint=False)
    solver = simplex.Simplex(built.program)
    base = solver.solve()
    if not base.optimal:
        raise InvariantError(f"feasibility solve failed: {base.status}")
    res = solver.reoptimize(dict(built.dem_expr), sense="max")
    if not res.optimal:
        raise InvariantError(f"max-demand solve failed: {res.status}")

    def values_of(res):
        cap = sum((c * res.values[k] for k, c in built.cap_expr.items()), Fraction(0))
        dem = sum((c * res.values[k] for k, c in built.dem_expr.items()), Fraction(0))
        return cap, dem

    cap, dem = values_of(res)
    if dem <= 0:
        raise InputError("no cut distribution separates any demand")
    lam = cap / dem
    best = (res.values, cap, dem)
    trace = [(lam, cap, dem)]
    for it in range(max_iterations):
        obj = dict(built.cap_expr)
        for k, c in built.dem_expr.items():
            obj[k] = obj.get(k, Fraction(0)) - lam * c
        res = solver.reoptimize(obj, sense="min")
        if not res.optimal:
            raise InvariantError(f"dinkelbach solve failed: {res.status}")
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
    raise InvariantError(f"dinkelbach did not converge in {max_iterations} "
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


def parse_lp(text: str) -> LpProgram:
    sense = "min"
    objective: dict = {}
    constraints = []
    variables: dict = {}
    section = None
    body_lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("minimize", "maximize"):
            sense = "min" if low == "minimize" else "max"
            section = "obj"
            continue
        if low == "subject to":
            section = "cons"
            continue
        if low in ("bounds", "end"):
            section = None
            continue
        if section:
            body_lines.append((section, line))

    def parse_terms(s: str) -> dict:
        toks = s.replace("+", " + ").replace("-", " - ").split()
        out: dict = {}
        sign, coeff = 1, None
        for tok in toks:
            if tok == "+":
                sign, coeff = 1, None
            elif tok == "-":
                sign, coeff = -1, None
            else:
                try:
                    c = Fraction(tok)
                    coeff = c
                except ValueError:
                    c = coeff if coeff is not None else Fraction(1)
                    out[tok] = out.get(tok, Fraction(0)) + sign * c
                    variables[tok] = True
                    sign, coeff = 1, None
        return out

    for section, line in body_lines:
        if ":" in line:
            line = line.split(":", 1)[1].strip()
        if section == "obj":
            objective.update(parse_terms(line))
        else:
            for op, sense_tok in (("<=", "<="), (">=", ">="), ("=", "==")):
                if op in line:
                    lhs, rhs = line.rsplit(op, 1)
                    constraints.append((parse_terms(lhs), sense_tok, Fraction(rhs.strip())))
                    break
            else:
                raise InputError(f"constraint without relation: {line!r}")
    return LpProgram(list(variables), constraints, objective, sense=sense,
                     name="parsed").check()
