"""Lifted cut relaxations: set families, LP builders, and the ratio search.

Variables x(S,T) carry the intended meaning "the chosen side A satisfies
A cap S = T".  Both the LPs and their solutions index T by its bit mask
over S, the members of S taken in family order; `restrictions` maps the
masks over a set onto a subset, and every marginal and consistency row is
built on it.  An LP has no variable names: each set that carries a
variable block gets a column offset, x(S,T) is the column offset + mask,
and rows are {column: coefficient} dicts with integer coefficients.
`format_lp` names column offset + m of set i's block x_i_m.  Two builders
exist, and `agreement_rows` writes the consistency rows of both, each row
equating two blocks' marginals on a set:

* `build_full_sa` emits the complete r-round system (normalization,
  per-element consistency, nonnegativity) with one block per set, laid
  out at `SetFamily.offsets`; S agrees with each S + u.
* `build_sparsestcut_lp` emits the pared system over root-path unions of
  a balanced decomposition.  Only inclusion-maximal family sets carry
  variable blocks; every other family set is a marginal of the first
  block holding it, which agrees on it with each other block holding it.
  This is a pure presolve: the projection of the feasible region onto
  the family variables is unchanged.  Family containment is tested on
  vertex bitmasks.

Pair values y_uv are never standalone LP variables; objectives and the
demand constraint substitute their defining sums directly.  Capacity and
demand are built once as (scale, {column: int}), the sums times the
smallest integer scale, which is the form `simplex.Simplex` takes
objectives in.  A solution, `SaSolution`, is the blocks an LP solved,
read from its values over `LpProgram.blocks`; any other family set's
table is read on demand as the marginal of the first block holding it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm
from typing import Iterable

from .decomposition import TreeDecomposition, least_bags
from .errors import BudgetError, InputError, InvariantError
from .instance import SparsestCutInstance, as_weight, dinkelbach
from . import simplex
from .simplex import ZERO  # every zero an LpResult holds; skipping it is exact

DEFAULT_SET_CAP = 22  # vertices in a demand pair's joint family set
DEFAULT_VARIABLE_BUDGET = 300_000  # variables in one full or pared system


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

    @cached_property
    def pos(self) -> dict:
        return {v: i for i, v in enumerate(self.order)}

    def canonical(self, vs) -> tuple:
        return tuple(sorted(vs, key=self.pos.__getitem__))

    def frozensets(self) -> list:
        return [frozenset(s) for s in self.sets]

    @cached_property
    def bits(self) -> list:
        """Each set as a vertex bitmask over the order."""
        bit = {v: 1 << i for i, v in enumerate(self.order)}
        return [sum(map(bit.__getitem__, s)) for s in self.sets]

    @cached_property
    def offsets(self) -> list:
        """Each set's column offset when every set carries a block, as in
        the full system."""
        return list(itertools.accumulate((1 << len(s) for s in self.sets[:-1]), initial=0))

    def maximal_indices(self) -> list:
        """Sets in no other set: larger sets come first, and a set in a
        larger one is in a maximal one that came before it."""
        found = []
        for i in reversed(range(len(self.sets))):
            b = self.bits[i]
            if not any(b & c == b for _, c in found):
                found.append((i, b))
        return sorted(i for i, _ in found)

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
    out = [ZERO] * (1 << len(q_elems))
    for qm, val in zip(restrictions(elems, q_elems), table):
        if val is not ZERO:
            out[qm] += val
    return out


# ---------------------------------------------------------------------------
# Programs.
# ---------------------------------------------------------------------------

@dataclass
class LpProgram:
    """min/max of a linear objective over nonnegative variables, the
    columns in `variables` (a range from 0).

    constraints: list of ({column: coefficient}, sense in {"<=", ">=",
    "=="}, rhs), coefficients and right-hand sides int or Fraction.
    objective: (scale, {column: int}), the objective times a positive
    integer scale.  blocks: (family index, width) per variable block in
    column order, which names the columns in `format_lp`.
    """

    variables: range
    constraints: list
    objective: tuple
    sense: str = "min"
    name: str = "lp"
    blocks: tuple = ()


def agreement_rows(elems: tuple, a_elems: tuple, a_at: int, b_elems: tuple, b_at: int) -> list:
    """The rows equating, on elems, the marginals of the block over a_elems
    at column a_at and the block over b_elems at column b_at: one row per
    mask over elems, the a columns at 1 before the b columns at -1."""
    rows = [{} for _ in range(1 << len(elems))]
    for j, m in enumerate(restrictions(a_elems, elems), a_at):
        rows[m][j] = 1
    for j, m in enumerate(restrictions(b_elems, elems), b_at):
        rows[m][j] = -1
    return [(row, "==", 0) for row in rows]


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
    at = family.offsets
    constraints = []
    for i, s in enumerate(family.sets):
        constraints.append((dict.fromkeys(range(at[i], at[i] + (1 << len(s))), 1), "==", 1))
    # x(S,T) = x(S+u,T) + x(S+u,T+u) for |S| <= r-1, u not in S
    for i, s in enumerate(family.sets):
        if len(s) >= r:
            continue
        smem = set(s)
        for u in family.order:
            if u in smem:
                continue
            big = family.canonical(s + (u,))
            constraints += agreement_rows(s, s, at[i], big, at[sidx[big]])
    return family, constraints


def _pair_expression(elems: tuple, offset: int, u, v) -> list:
    """The columns of the block over elems at offset whose sum is y_uv:
    those with exactly one endpoint, in mask order."""
    ui, vi = elems.index(u), elems.index(v)
    return [offset + m for m in range(1 << len(elems)) if ((m >> ui) ^ (m >> vi)) & 1]


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
        for j in _pair_expression(family.sets[pi], family.offsets[pi], relabel[u], relabel[v]):
            objective[j] = objective.get(j, 0) + 1
    blocks = tuple((i, 1 << len(s)) for i, s in enumerate(family.sets))
    return LpProgram(range(family.variable_count()), constraints, (1, objective),
                     sense="max", name=f"maxcut_sa_r{r}", blocks=blocks)


# ---------------------------------------------------------------------------
# Pared sparsest-cut system over a balanced decomposition.
# ---------------------------------------------------------------------------

@dataclass
class SparsestCutLp:
    """The pared program, its family and the objectives the search carries."""

    program: LpProgram
    family: SetFamily
    cap_expr: tuple  # (scale, {column: int}): capacity times scale
    dem_expr: tuple  # (scale, {column: int}): demand times scale
    instance: SparsestCutInstance


def _numerators(values: list) -> tuple:
    """(den, numerators by column): the values as integers over the lcm of
    their denominators."""
    den = lcm(*(x.denominator for x in values if x is not ZERO))
    return den, [0 if x is ZERO else x.numerator * (den // x.denominator) for x in values]


@dataclass
class SaSolution:
    """A valuation x(S,T) over a declared family, held as the blocks an LP
    solved, with every other family set's table read as a marginal.

    blocks[frozenset(P)] = (elems, table), in column order: elems is P in
    family order and table[m] = x(P, T) for the T that mask m picks out of
    elems.  A family set's table is the marginal of the first block that
    holds it; no block holds a later one, so a block's table is its own.
    """

    family: SetFamily
    blocks: dict
    _marginals: dict = field(default_factory=dict, repr=False)

    @classmethod
    def read(cls, family: SetFamily, blocks, values: list) -> "SaSolution":
        """The solution whose blocks are an LP's columns: blocks lists
        (family index, width) in column order, as `LpProgram.blocks` does."""
        out, at = {}, 0
        for i, width in blocks:
            elems = family.sets[i]
            out[frozenset(elems)] = (elems, values[at:at + width])
            at += width
        return cls(family, out)

    def y_value(self, u, v) -> Fraction:
        table = self.block_table((u, v))[1]
        return table[1] + table[2]

    def block_table(self, S) -> tuple:
        """(elements, list-of-values indexed by subset mask) for a family set."""
        return self.aggregate(S, S)

    def aggregate(self, S, Q) -> tuple:
        """Marginal onto Q (a subset of S) of the first block holding S;
        cached.  KeyError when no block holds S.

        Returns (q_elems, list indexed by Q-subset mask).
        """
        key = (frozenset(S), frozenset(Q))
        hit = self._marginals.get(key)
        if hit is None:
            s, q = key
            p = next((p for p in self.blocks if s <= p), None)
            if p is None:
                raise KeyError(s)
            elems, table = hit = self.blocks[p]
            if p != q:
                q_elems = self.family.canonical(q)
                hit = (q_elems, marginal(elems, table, q_elems))
            self._marginals[key] = hit
        return hit

    def validate(self) -> list:
        """All violated conditions: nonnegativity and normalization of each
        block, which every marginal inherits, and the consistency of each
        family set with each block that strictly contains it."""
        problems = []
        for p, (elems, table) in self.blocks.items():
            for m, v in enumerate(table):
                if v < 0:
                    problems.append(("negative", p, subset_from_mask(elems, m), v))
            total = sum(table, Fraction(0))
            if total != 1:
                problems.append(("normalization", p, None, total))
        for small in self.family.frozensets():
            table = self.block_table(small)[1]
            for big in self.blocks:
                if not small < big:
                    continue
                q_elems, agg = self.aggregate(big, small)
                for m, (a, x) in enumerate(zip(agg, table)):
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
    sets, bits = family.sets, family.bits
    maximal = family.maximal_indices()
    offset, ncols = {}, 0
    for mi in maximal:
        offset[mi] = ncols
        ncols += 1 << len(sets[mi])
    if ncols > DEFAULT_VARIABLE_BUDGET:
        raise BudgetError(f"pared system needs {ncols} variables, budget is "
                          f"{DEFAULT_VARIABLE_BUDGET}", limit=DEFAULT_VARIABLE_BUDGET,
                          requested=ncols)

    parents = [[mi for mi in maximal if b & bits[mi] == b] for b in bits]

    # The rows are integer (coefficients 1 and -1, right-hand sides 1 and
    # 0), which the simplex takes as they are.
    constraints = [(dict.fromkeys(range(offset[mi], offset[mi] + (1 << len(sets[mi]))), 1),
                    "==", 1) for mi in maximal]

    # Agreement rows.  A family set S needs them when it lies in several
    # blocks and no larger family set lies in the same blocks.
    alike: dict = {}  # parent blocks -> the sets in exactly those blocks
    for b, ps in zip(bits, parents):
        alike.setdefault(tuple(ps), []).append(b)
    for i, b in enumerate(bits):
        ps = parents[i]
        if len(ps) < 2 or any(b != c and b & c == b for c in alike[tuple(ps)]):
            continue
        first = ps[0]
        for other in ps[1:]:
            constraints += agreement_rows(sets[i], sets[first], offset[first],
                                          sets[other], offset[other])

    sidx = {s: i for i, s in enumerate(sets)}

    def pair_sum(edges) -> tuple:
        """(scale, {column: int}): the sum of w * y_uv over the edges times
        the smallest integer scale."""
        scale = lcm(1, *(w.denominator for _, _, w in edges))
        total: dict = {}
        for u, v, w in edges:
            c = w.numerator * (scale // w.denominator)
            p = parents[sidx[family.canonical((u, v))]][0]
            for j in _pair_expression(sets[p], offset[p], u, v):
                total[j] = total.get(j, 0) + c
        g = gcd(scale, *total.values())
        return scale // g, {j: c // g for j, c in total.items()}

    cap_expr = pair_sum(instance.supply_edges)
    dem_expr = pair_sum(instance.demand_edges)

    if include_demand_constraint:  # in rationals, as the LP text prints it
        scale, dem = dem_expr
        constraints.append(({j: Fraction(c, scale) for j, c in dem.items()}, ">=", alpha))

    program = LpProgram(range(ncols), constraints, cap_expr, sense="min",
                        name="sparsest_cut_pared",
                        blocks=tuple((mi, 1 << len(sets[mi])) for mi in maximal))
    return SparsestCutLp(program, family, cap_expr, dem_expr, instance)


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

    Runs `instance.dinkelbach` from the max-demand vertex.  Each minimum
    of cap - lambda*dem is a re-solve that warm-restarts the tableau, which
    carries cap and dem as reduced-cost rows through its pivots, and must
    end optimal with an exact duality gap of 0, or InvariantError is raised.
    """
    if instance.total_demand <= 0:
        raise InputError("ratio search needs positive total demand")
    built = build_sparsestcut_lp(instance, dec, 0, include_demand_constraint=False)
    solver = simplex.Simplex(built.program, objectives=(built.cap_expr, built.dem_expr))
    _certified(solver.solve(), "feasibility")
    res = _certified(solver.reoptimize((0, 1), "max"), "max-demand")

    def minimize(lam):
        res = _certified(solver.reoptimize((1, -lam), "min"), "dinkelbach")
        return res.objective, res.values

    def values_of(values):  # integer dot products over the values' lcm denominator
        den, nums = _numerators(values)
        return tuple(Fraction(sum(c * nums[j] for j, c in ints.items()), scale * den)
                     for scale, ints in (built.cap_expr, built.dem_expr))

    values, trace = dinkelbach(minimize, values_of, res.values)
    lam, cap, dem = trace[-1]
    solution = SaSolution.read(built.family, built.program.blocks, values)
    return RatioSearchResult(dem, solution, cap, lam, len(trace), trace)


# ---------------------------------------------------------------------------
# LP text dump (a small CPLEX-LP dialect; rationals allowed as p/q).
# ---------------------------------------------------------------------------

def format_lp(program: LpProgram) -> str:
    """Column offset + m of block (i, width) is named x_i_m; a program
    without blocks names column j xj."""
    names = ([f"x_{i}_{m}" for i, width in program.blocks for m in range(width)]
             or [f"x{j}" for j in program.variables])

    def body(coeffs: dict, scale=1) -> str:
        terms = []
        for name, c in sorted((names[j], Fraction(c, scale)) for j, c in coeffs.items()):
            terms.append(f"{'-' if c < 0 else '+'} {abs(c)} {name}")
        return " ".join(terms)

    lines = [f"\\ {program.name}"]
    lines.append("Maximize" if program.sense == "max" else "Minimize")
    scale, objective = program.objective
    obj = body(objective, scale)
    lines.append(f" obj: {obj if obj else '0 ' + names[0]}")
    lines.append("Subject To")
    for i, (coeffs, sense, rhs) in enumerate(program.constraints):
        op = {"<=": "<=", ">=": ">=", "==": "="}[sense]
        lines.append(f" c{i}: {body(coeffs)} {op} {Fraction(rhs)}")
    lines.append("Bounds")
    lines.append("\\ all variables >= 0 (solver default)")
    lines.append("End")
    return "\n".join(lines) + "\n"
