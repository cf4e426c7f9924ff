"""Sparsest-cut instances, cuts, and exact sparsity values.

An instance couples a capacitated *supply* graph with a weighted *demand*
pair set over the same vertices.  All weights are ``fractions.Fraction``;
cut evaluation is always exact.  Parallel edges are kept distinct (the
powering generator relies on per-edge copies surviving round trips).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Hashable, Iterable, Optional

from .errors import BudgetError, InputError, InvariantError

Vertex = Hashable
Weight = Fraction

# The most vertices an instance file may declare.  No command can use more:
# each vertex costs the pared LP at least 2 of its 300,000 variables, the
# enumeration oracle stops at 26 vertices by default and the exact
# decomposition at 18.  The header is checked before any vertex is built.
MAX_INSTANCE_VERTICES = 150_000
# The most digits of a weight literal, and of the lcm of an instance's weight
# denominators: `1e5000` spells an integer Python refuses to print, a longer
# exponent one it takes unbounded time to build, and a sum of five weights
# over coprime 999-digit denominators has a 5000-digit one.
MAX_WEIGHT_DIGITS = 1000
MAX_DINKELBACH_ITERATIONS = 60  # steps of either exact ratio search


def _literal_digits(literal: str) -> int:
    """The mantissa's digits plus the exponent, at least the digits of the
    numerator and of the denominator; 19 exponent digits exceed any bound."""
    mantissa, _, exponent = literal.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")[:19]
    return sum(map(str.isdecimal, mantissa)) + (int(exponent) if exponent.isdecimal() else 0)


def as_weight(value) -> Fraction:
    """Coerce int/str/float/Fraction input to an exact Fraction.

    Strings accept decimal (``0.25``) and ratio (``1/4``) literals.
    Floats are rejected unless they are exactly representable small
    decimals, to keep instance files reproducible; pass strings instead.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _literal_digits(value) > MAX_WEIGHT_DIGITS:
            raise InputError(f"rational literal of more than {MAX_WEIGHT_DIGITS} digits")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {value!r}") from exc
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**9)
    raise InputError(f"cannot interpret {value!r} as a weight")


@dataclass(frozen=True)
class SparsestCutInstance:
    """Immutable sparsest-cut instance.

    vertices keep their declaration order, which doubles as the stable
    total order used for canonical set keys and tie-breaking.
    """

    vertices: tuple
    supply_edges: tuple  # (u, v, cap)
    demand_edges: tuple  # (u, v, dem)
    terminals: Optional[tuple] = None  # (s, t)
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        index = {v: i for i, v in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        object.__setattr__(self, "_index", index)
        for kind, edges in (("supply", self.supply_edges), ("demand", self.demand_edges)):
            for u, v, w in edges:
                if u not in index or v not in index:
                    raise InputError(f"{kind} edge ({u},{v}) uses undeclared vertex")
                if u == v:
                    raise InputError(f"{kind} edge ({u},{v}) is a self-loop")
                if w < 0:
                    raise InputError(f"{kind} edge ({u},{v}) has negative weight {w}")
        if self.terminals is not None:
            s, t = self.terminals
            if s not in index or t not in index or s == t:
                raise InputError(f"bad terminal pair {self.terminals!r}")

    @staticmethod
    def build(vertices: Iterable, supply, demand, terminals=None) -> "SparsestCutInstance":
        sup = tuple((u, v, as_weight(w)) for u, v, w in supply)
        dem = tuple((u, v, as_weight(w)) for u, v, w in demand)
        return SparsestCutInstance(tuple(vertices), sup, dem,
                                   tuple(terminals) if terminals else None)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex_index(self, v) -> int:
        return self._index[v]

    def sorted_vertices(self, vs: Iterable) -> tuple:
        return tuple(sorted(vs, key=self._index.__getitem__))

    @property
    def total_demand(self) -> Fraction:
        return sum((w for _, _, w in self.demand_edges), Fraction(0))

    @property
    def total_capacity(self) -> Fraction:
        return sum((w for _, _, w in self.supply_edges), Fraction(0))

    def supply_adjacency(self) -> dict:
        """vertex -> list of (neighbor, cap), parallel edges repeated."""
        adj: dict = {v: [] for v in self.vertices}
        for u, v, w in self.supply_edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj


@dataclass(frozen=True)
class Cut:
    """A vertex bipartition, stored as one side.  A == V and A == {} are
    permitted but flagged degenerate by evaluate_cut."""

    side_a: frozenset

    @staticmethod
    def of(vs: Iterable) -> "Cut":
        return Cut(frozenset(vs))

    def complement(self, instance: SparsestCutInstance) -> "Cut":
        return Cut(frozenset(instance.vertices) - self.side_a)


@dataclass(frozen=True)
class Sparsity:
    cut_capacity: Fraction
    cut_demand: Fraction
    ratio: Optional[Fraction]  # None when cut_demand == 0 (undefined flag)
    degenerate: bool = False


def evaluate_cut(instance: SparsestCutInstance, cut: Cut) -> Sparsity:
    """Exact capacity, demand, and ratio of a cut.

    Degenerate cuts (one side empty) evaluate to (0, 0, undefined).
    """
    if not cut.side_a <= set(instance.vertices):
        raise InputError("cut contains vertices outside the instance")
    size = len(cut.side_a)
    if size == 0 or size == instance.n:
        return Sparsity(Fraction(0), Fraction(0), None, degenerate=True)
    a = cut.side_a
    cap = Fraction(0)
    for u, v, w in instance.supply_edges:
        if (u in a) != (v in a):
            cap += w
    dem = Fraction(0)
    for u, v, w in instance.demand_edges:
        if (u in a) != (v in a):
            dem += w
    ratio = cap / dem if dem > 0 else None
    return Sparsity(cap, dem, ratio)


def dinkelbach(minimize, weights, witness) -> tuple:
    """Dinkelbach's exact ratio iteration (Management Science 13, 1967).

    weights(w) is a witness's (cap, dem), and minimize(lam) the exact
    minimum of cap - lam*dem with a minimizer, whose strictly lower ratio
    each step moves to until the minimum is 0.  Returns the optimal witness
    and (lam, cap, dem) per minimization, the last at that witness.
    """
    cap, dem = weights(witness)
    if dem <= 0:
        raise InputError("no cut distribution separates any demand")
    lam = Fraction(cap, dem)
    trace = [(lam, cap, dem)]
    for _ in range(MAX_DINKELBACH_ITERATIONS):
        value, point = minimize(lam)
        if value == 0:
            return witness, trace
        cap, dem = weights(point)
        if value > 0 or cap - lam * dem != value:
            raise InvariantError(f"dinkelbach minimum {value} at {lam} not attained below 0")
        witness, lam = point, Fraction(cap, dem)
        trace.append((lam, cap, dem))
    raise InvariantError(f"dinkelbach did not converge in {len(trace)} steps: {trace}")


def is_admissible(instance: SparsestCutInstance, cut: Cut) -> bool:
    """True iff the cut separates the designated terminals."""
    if instance.terminals is None:
        raise InputError("instance has no terminals; admissibility undefined")
    s, t = instance.terminals
    return (s in cut.side_a) != (t in cut.side_a)


def _components(instance: SparsestCutInstance, vs: frozenset) -> list:
    adj = instance.supply_adjacency()
    remaining = set(vs)
    comps = []
    while remaining:
        start = next(iter(remaining))
        comp = {start}
        stack = [start]
        remaining.discard(start)
        while stack:
            for w, _ in adj[stack.pop()]:
                if w in remaining:
                    remaining.discard(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def connected_refinement(instance: SparsestCutInstance, cut: Cut) -> Cut:
    """Refine a cut until both sides induce connected supply subgraphs.

    Repeatedly splits both sides into supply components and keeps a
    sparsest component cut; the ratio never increases.  When the current
    side is itself the sparsest piece, the best component of the split
    complement takes over instead (it is no sparser, by the mediant
    inequality, and its complement is connected through the current
    side).  If no component has positive demand the undefined flag
    propagates and the input comes back unchanged.
    """
    if len(_components(instance, frozenset(instance.vertices))) > 1:
        raise InputError("connected_refinement requires a connected supply graph")
    current = cut
    all_v = frozenset(instance.vertices)

    def index_key(p):
        return tuple(sorted(instance.vertex_index(v) for v in p))

    def best_piece(pieces):
        best = best_eval = None
        for piece in sorted(pieces, key=index_key):
            ev = evaluate_cut(instance, Cut(piece))
            if ev.ratio is None:
                continue
            if best_eval is None or ev.ratio < best_eval.ratio:
                best, best_eval = piece, ev
        return best

    for _ in range(instance.n + 4):
        if not current.side_a or current.side_a == all_v:
            return current
        side_comps = _components(instance, current.side_a)
        comp_comps = _components(instance, all_v - current.side_a)
        if len(side_comps) + len(comp_comps) == 2:
            return current
        best = best_piece(side_comps + comp_comps)
        if best is None:
            return current  # zero demand everywhere: undefined propagates
        if best == current.side_a:
            best = best_piece(comp_comps)
            if best is None:
                return current
        current = Cut(best)
    raise InvariantError("connected_refinement failed to converge")


# ---------------------------------------------------------------------------
# Instance text format:
#   c <comment>
#   p ssc <nvertices>
#   e <u> <v> <cap>       (supply edge)
#   d <u> <v> <dem>       (demand edge)
#   t <s> <t>             (optional terminals)
# Vertex ids are 1-based integers; weights decimal or p/q literals.
# ---------------------------------------------------------------------------

def format_weight(w: Fraction) -> str:
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def format_instance(instance: SparsestCutInstance) -> str:
    """Render in the `p ssc` text format; vertex ids become 1-based ints."""
    idx = {v: i + 1 for i, v in enumerate(instance.vertices)}
    lines = [f"p ssc {instance.n}"]
    for u, v, w in instance.supply_edges:
        lines.append(f"e {idx[u]} {idx[v]} {format_weight(w)}")
    for u, v, w in instance.demand_edges:
        lines.append(f"d {idx[u]} {idx[v]} {format_weight(w)}")
    if instance.terminals is not None:
        s, t = instance.terminals
        lines.append(f"t {idx[s]} {idx[t]}")
    return "\n".join(lines) + "\n"


# fields per record: `p ssc <n>`, `e|d <u> <v> <weight>`, `t <s> <t>`
RECORD_FIELDS = {"p": 3, "e": 4, "d": 4, "t": 3}


def parse_instance(text: str) -> SparsestCutInstance:
    n = None
    supply, demand = [], []
    terminals = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if len(parts) != RECORD_FIELDS.get(parts[0], len(parts)):
            raise InputError(f"line {lineno}: `{parts[0]}` takes "
                             f"{RECORD_FIELDS[parts[0]]} fields: {raw!r}")
        try:
            if parts[0] == "p":
                if parts[1] != "ssc" or n is not None:
                    raise InputError(f"line {lineno}: bad problem line")
                n = int(parts[2])
                if n > MAX_INSTANCE_VERTICES:
                    raise BudgetError(f"line {lineno}: {n} vertices exceed bound "
                                      f"{MAX_INSTANCE_VERTICES}",
                                      limit=MAX_INSTANCE_VERTICES, requested=n)
            elif parts[0] == "e":
                supply.append((int(parts[1]), int(parts[2]), as_weight(parts[3])))
            elif parts[0] == "d":
                demand.append((int(parts[1]), int(parts[2]), as_weight(parts[3])))
            elif parts[0] == "t":
                if terminals is not None:
                    raise InputError(f"line {lineno}: a second `t` line: {raw!r}")
                terminals = (int(parts[1]), int(parts[2]))
            else:
                raise InputError(f"line {lineno}: unknown record {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise InputError(f"line {lineno}: {raw!r}") from exc
    if n is None:
        raise InputError("missing `p ssc <n>` header")
    den, bound = 1, 10 ** MAX_WEIGHT_DIGITS
    for u, v, w in supply + demand:
        if not (1 <= u <= n and 1 <= v <= n):
            raise InputError(f"vertex id out of range 1..{n}: ({u},{v})")
        den = lcm(den, w.denominator)
        if den >= bound:
            raise InputError(f"weight denominators have an lcm of more than "
                             f"{MAX_WEIGHT_DIGITS} digits")
    return SparsestCutInstance.build(range(1, n + 1), supply, demand, terminals)
