"""Lifted cut relaxations: set families, LP builders, and the ratio search.

Variables x(S,T) carry the intended meaning "the chosen side A satisfies
A cap S = T".  Both the LPs and their solutions index T by its bit mask
over S, the members of S taken in family order; `restrictions` maps the
masks over a set onto a subset, and every marginal and consistency row is
built on it.  An LP has no variable names: each set that carries a
variable block gets a column offset, x(S,T) is the column offset + mask,
and rows are {column: coefficient} dicts with integer coefficients.
`format_lp` names column offset + m of set i's block x_i_m.

Both LPs are one block system over a family (Sherali and Adams, SIAM J.
Discrete Math. 3, 1990): `lifted_rows` lays out the carrier sets' blocks
and writes one normalization row per carrier and the `agreement_rows` of
each tie, equating two blocks' marginals on a set.  They differ only in
their carriers and ties:

* `build_maxcut_lp` takes the complete r-round system
  (`every_set_blocks`): every set carries a block; S agrees with each S + u.
* `build_sparsestcut_lp` takes the pared system over root-path unions of
  a balanced decomposition (`maximal_blocks`).  Only inclusion-maximal
  family sets carry blocks; every other family set is a marginal of the
  first block holding it, which agrees on it with each other block
  holding it.  This is a pure presolve: the projection of the feasible
  region onto the family variables is unchanged.  Family containment is
  tested on vertex bitmasks.

Pair values y_uv are never LP variables: `pair_sum` reads each from the
first block holding {u, v}, and every objective and the demand row
substitute those sums, as (scale, {column: int}) with the smallest
integer scale, the form `simplex.Simplex` takes objectives in.  A
program carries its family and carriers, so a solution, `SaSolution`, is
read from the program and its values alone; any other family set's
table is read on demand as the marginal of the first block holding it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm
from typing import Iterable, Optional

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

    def maximal_indices(self) -> list:
        """Sets in no other set: larger sets come first, and a set in a
        larger one is in a maximal one that came before it."""
        found = []
        for i in reversed(range(len(self.sets))):
            b = self.bits[i]
            if not any(b & c == b for _, c in found):
                found.append((i, b))
        return sorted(i for i, _ in found)


def subset_from_mask(elems: tuple, mask: int) -> frozenset:
    return frozenset(elems[b] for b in range(len(elems)) if (mask >> b) & 1)


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
    integer scale.  A lifted program also carries the family its columns
    are over, and blocks: the indices of the family sets that carry a
    block of 2^|S| columns, in column order.  `SaSolution.read` and
    `format_lp` read the columns through them.
    """

    variables: range
    constraints: list
    objective: tuple
    sense: str = "min"
    name: str = "lp"
    family: Optional[SetFamily] = None
    blocks: tuple = ()


def _check_budget(what: str, count: int) -> None:
    if count > DEFAULT_VARIABLE_BUDGET:
        raise BudgetError(f"{what} needs {count} variables, budget is "
                          f"{DEFAULT_VARIABLE_BUDGET}", limit=DEFAULT_VARIABLE_BUDGET,
                          requested=count)


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


def lifted_rows(family: SetFamily, carriers, ties) -> tuple:
    """(offset, rows) of a lifted system.  The carriers, family indices in
    order, each carry a block of 2^|S| columns, laid out one after another;
    offset maps each carrier to its first column.  The rows are one
    normalization row per carrier, then the agreement rows of each tie
    (set, block a, block b) in order.  They are integer (coefficients 1
    and -1, right-hand sides 1 and 0), which the simplex takes as they
    are; nonnegativity is the solver's default."""
    sets = family.sets
    offset = dict(zip(carriers, itertools.accumulate((1 << len(sets[c]) for c in carriers),
                                                     initial=0)))
    rows = [(dict.fromkeys(range(at, at + (1 << len(sets[c]))), 1), "==", 1)
            for c, at in offset.items()]
    for i, a, b in ties:
        rows += agreement_rows(sets[i], sets[a], offset[a], sets[b], offset[b])
    return offset, rows


def pair_sum(family: SetFamily, offset: dict, edges) -> tuple:
    """(scale, {column: int}): the sum of w * y_uv over the edges (u, v, w)
    times the smallest integer scale.  y_uv sums the columns, in mask
    order, of the first block in `offset` holding {u, v} whose mask has
    exactly one of u and v."""
    bits, pos = family.bits, family.pos
    scale = lcm(1, *(w.denominator for _, _, w in edges))
    total: dict = {}
    for u, v, w in edges:
        c = w.numerator * (scale // w.denominator)
        b = (1 << pos[u]) | (1 << pos[v])
        p = next(p for p in offset if b & bits[p] == b)
        elems = family.sets[p]
        ui, vi = elems.index(u), elems.index(v)
        for m in range(1 << len(elems)):
            if ((m >> ui) ^ (m >> vi)) & 1:
                total[offset[p] + m] = total.get(offset[p] + m, 0) + c
    g = gcd(scale, *total.values())
    return scale // g, {j: c // g for j, c in total.items()}


# ---------------------------------------------------------------------------
# Full r-round system.
# ---------------------------------------------------------------------------

def full_family(vertices: Iterable, r: int) -> SetFamily:
    order = tuple(vertices)
    return SetFamily.build(order, (s for k in range(r + 1)
                                   for s in itertools.combinations(order, k)))


def every_set_blocks(family: SetFamily) -> tuple:
    """(carriers, ties) of the complete system: every set carries a block,
    and each set below the largest size agrees on itself with each S + u."""
    sets = family.sets
    sidx = {s: i for i, s in enumerate(sets)}
    r = len(sets[-1])
    ties = [(i, i, sidx[family.canonical(s + (u,))])
            for i, s in enumerate(sets) if len(s) < r
            for u in family.order if u not in s]
    return range(len(sets)), ties


def build_maxcut_lp(graph, r: int) -> LpProgram:
    """Maximize the total y over the graph's edges subject to the full
    r-round system over its vertices."""
    if r < 2:
        raise InputError(f"the MaxCut LP needs rounds r >= 2 to see edges, got r={r}")
    n = len(graph.vertices)
    if r > n:
        raise InputError(f"rounds r={r} exceed vertex count n={n}")
    count = sum(comb(n, k) << k for k in range(r + 1))
    _check_budget(f"full {r}-round system", count)
    family = full_family(graph.vertices, r)
    carriers, ties = every_set_blocks(family)
    offset, constraints = lifted_rows(family, carriers, ties)
    objective = pair_sum(family, offset, [(u, v, 1) for u, v in graph.edges])
    return LpProgram(range(count), constraints, objective, sense="max",
                     name=f"maxcut_sa_r{r}", family=family, blocks=tuple(carriers))


# ---------------------------------------------------------------------------
# Pared sparsest-cut system over a balanced decomposition.
# ---------------------------------------------------------------------------

@dataclass
class SparsestCutLp:
    """The pared program (capacity its objective) and its demand objective."""

    program: LpProgram
    dem_expr: tuple  # (scale, {column: int}): demand times scale


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
    def read(cls, program: LpProgram, values: list) -> "SaSolution":
        """The solution whose blocks are a lifted program's columns."""
        out, at = {}, 0
        for i in program.blocks:
            elems = program.family.sets[i]
            out[frozenset(elems)] = (elems, values[at:at + (1 << len(elems))])
            at += 1 << len(elems)
        return cls(program.family, out)

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


def maximal_blocks(family: SetFamily) -> tuple:
    """(carriers, ties) of the pared system: the inclusion-maximal sets
    carry blocks.  A family set is tied when it lies in several blocks and
    no larger family set lies in the same blocks: the first block holding
    it agrees on it with each other one.  These ties imply the aggregated
    consistency equalities for every nested family pair."""
    bits = family.bits
    maximal = family.maximal_indices()
    parents = [[mi for mi in maximal if b & bits[mi] == b] for b in bits]
    alike: dict = {}  # parent blocks -> the sets in exactly those blocks
    for b, ps in zip(bits, parents):
        alike.setdefault(tuple(ps), []).append(b)
    ties = []
    for i, (b, ps) in enumerate(zip(bits, parents)):
        if len(ps) > 1 and not any(b != c and b & c == b for c in alike[tuple(ps)]):
            ties += [(i, ps[0], other) for other in ps[1:]]
    return maximal, ties


def build_sparsestcut_lp(instance: SparsestCutInstance, dec: TreeDecomposition,
                         alpha=None) -> SparsestCutLp:
    """Pared LP: minimize cut capacity, subject to separated demand >= alpha
    when alpha is given."""
    family = pared_family(instance, dec)
    carriers, ties = maximal_blocks(family)
    count = sum(1 << len(family.sets[c]) for c in carriers)
    _check_budget("pared system", count)
    offset, constraints = lifted_rows(family, carriers, ties)
    cap_expr = pair_sum(family, offset, instance.supply_edges)
    dem_expr = pair_sum(family, offset, instance.demand_edges)
    if alpha is not None:  # in rationals, as the LP text prints it
        scale, dem = dem_expr
        constraints.append(({j: Fraction(c, scale) for j, c in dem.items()}, ">=",
                            as_weight(alpha)))
    program = LpProgram(range(count), constraints, cap_expr, sense="min",
                        name="sparsest_cut_pared", family=family, blocks=tuple(carriers))
    return SparsestCutLp(program, dem_expr)


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
    carries cap (the program's objective) and dem as reduced-cost rows
    through its pivots, and must end optimal with an exact duality gap of
    0, or InvariantError is raised.
    """
    if instance.total_demand <= 0:
        raise InputError("ratio search needs positive total demand")
    built = build_sparsestcut_lp(instance, dec)
    solver = simplex.Simplex(built.program, objectives=(built.dem_expr,))
    objectives = solver.objectives  # (cap, dem)
    _certified(solver.solve(), "feasibility")
    res = _certified(solver.reoptimize((0, 1), "max"), "max-demand")

    def minimize(lam):
        res = _certified(solver.reoptimize((1, -lam), "min"), "dinkelbach")
        return res.objective, res.values

    def values_of(values):  # integer dot products over the values' lcm denominator
        den, nums = _numerators(values)
        return tuple(Fraction(sum(c * nums[j] for j, c in ints.items()), scale * den)
                     for scale, ints in objectives)

    values, trace = dinkelbach(minimize, values_of, res.values)
    lam, cap, dem = trace[-1]
    solution = SaSolution.read(built.program, values)
    return RatioSearchResult(dem, solution, cap, lam, len(trace), trace)


# ---------------------------------------------------------------------------
# LP text dump (a small CPLEX-LP dialect; rationals allowed as p/q).
# ---------------------------------------------------------------------------

def format_lp(program: LpProgram) -> str:
    """Column offset + m of the block of family set i is named x_i_m; a
    program without blocks names column j xj."""
    names = ([f"x_{i}_{m}" for i in program.blocks
              for m in range(1 << len(program.family.sets[i]))]
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
