"""Sparsest-cut instances, cuts, and exact sparsity values.

An instance couples a capacitated *supply* graph with a weighted *demand*
pair set over the same vertices.  All weights are ``fractions.Fraction``;
cut evaluation is always exact.  Parallel edges are kept distinct (the
powering generator relies on per-edge copies surviving round trips).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, Optional

from .errors import InputError, InvariantError

Vertex = Hashable
Weight = Fraction


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

    def supply_connected(self) -> bool:
        if not self.vertices:
            return True
        adj = self.supply_adjacency()
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w, _ in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


@dataclass(frozen=True)
class Cut:
    """A vertex bipartition, stored as one side.  A == V and A == {} are
    permitted but flagged degenerate by evaluate_cut."""

    side_a: frozenset

    @staticmethod
    def of(vs: Iterable) -> "Cut":
        return Cut(frozenset(vs))

    def side(self, v) -> bool:
        return v in self.side_a

    def complement(self, instance: SparsestCutInstance) -> "Cut":
        return Cut(frozenset(instance.vertices) - self.side_a)


@dataclass(frozen=True)
class Sparsity:
    cut_capacity: Fraction
    cut_demand: Fraction
    ratio: Optional[Fraction]  # None when cut_demand == 0 (undefined flag)
    degenerate: bool = False

    def defined(self) -> bool:
        return self.ratio is not None


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
    if not instance.supply_connected():
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


def parse_instance(text: str) -> SparsestCutInstance:
    n = None
    supply, demand = [], []
    terminals = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "p":
                if parts[1] != "ssc" or n is not None:
                    raise InputError(f"line {lineno}: bad problem line")
                n = int(parts[2])
            elif parts[0] == "e":
                supply.append((int(parts[1]), int(parts[2]), as_weight(parts[3])))
            elif parts[0] == "d":
                demand.append((int(parts[1]), int(parts[2]), as_weight(parts[3])))
            elif parts[0] == "t":
                terminals = (int(parts[1]), int(parts[2]))
            else:
                raise InputError(f"line {lineno}: unknown record {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise InputError(f"line {lineno}: {raw!r}") from exc
    if n is None:
        raise InputError("missing `p ssc <n>` header")
    for u, v, _ in supply + demand:
        if not (1 <= u <= n and 1 <= v <= n):
            raise InputError(f"vertex id out of range 1..{n}: ({u},{v})")
    return SparsestCutInstance.build(range(1, n + 1), supply, demand, terminals)
