"""Instance generators: reduction building blocks, instance powering, the
union-of-cliques label-cover transform, and the hypercube gadget.

Every generator co-emits a valid tree decomposition whose root bag
contains both terminals, which is what lets the powering operation stitch
copy decompositions together without growing the width.

Naming: powered instances use path-encoded vertex ids ("e", edge_index,
inner_id), so provenance is stable across runs.  The names are powering's
only copy record: a copy vertex's nesting depth is its level, and
`lift_cut` reads each vertex's side off its name.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

from .decomposition import TreeDecomposition
from .errors import BudgetError, InputError, InvariantError
from .instance import Cut, SparsestCutInstance, as_weight
from .oracle import exact_maxcut

DEFAULT_POWER_EDGE_BUDGET = 250_000  # supply edges of a powered instance
DEFAULT_GADGET_DIM_BOUND = 6  # labels, so cube dimension, of a gadget
LABELING_BUDGET = 2_000_000  # assignments the exact ULC optimum tries
ULC_ENTRY_BUDGET = 200_000  # permutation entries a random ULC draws or collapses to
GADGET_EDGE_BUDGET = 250_000  # supply and demand edges of a gadget
CLIQUE_PRODUCT_BUDGET = 24  # vertices of an exhaustively cut clique product


def _power_exceeds(base: int, exponent: int, bound: int) -> bool:
    """base ** exponent > bound, for a positive bound; a power is computed
    only below bound.bit_length() factors, since 2 ** that exceeds bound."""
    return base > 1 and (exponent >= bound.bit_length() or base ** exponent > bound)


# ---------------------------------------------------------------------------
# MaxCut instances.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxCutInstance:
    """Connected unweighted MaxCut instance on vertices 1..n."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        vs = set(self.vertices)
        for u, v in self.edges:
            if u not in vs or v not in vs or u == v:
                raise InputError(f"bad edge ({u},{v})")
        if not self._connected():
            raise InputError("MaxCut instance must be connected")

    def _connected(self) -> bool:
        if not self.vertices:
            return False
        adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @staticmethod
    def complete(n: int) -> "MaxCutInstance":
        return MaxCutInstance(tuple(range(1, n + 1)),
                              tuple((i, j) for i in range(1, n + 1)
                                    for j in range(i + 1, n + 1)))

    @staticmethod
    def path(n: int) -> "MaxCutInstance":
        return MaxCutInstance(tuple(range(1, n + 1)),
                              tuple((i, i + 1) for i in range(1, n)))

    @staticmethod
    def cycle(n: int) -> "MaxCutInstance":
        return MaxCutInstance(tuple(range(1, n + 1)),
                              tuple((i, i % n + 1) for i in range(1, n + 1)))

    @staticmethod
    def parse_name(name: str):
        """(constructor, n) for a name k<n>, p<n> or c<n>; nothing is built."""
        try:
            kind, n = name[0].lower(), int(name[1:])
        except (IndexError, ValueError) as exc:
            raise InputError(f"bad maxcut instance name {name!r} (use k5/p3/c5)") from exc
        kinds = {"k": MaxCutInstance.complete, "p": MaxCutInstance.path,
                 "c": MaxCutInstance.cycle}
        if kind not in kinds:
            raise InputError(f"unknown maxcut instance name {name!r} (use k5/p3/c5)")
        return kinds[kind], n

    @staticmethod
    def named(name: str) -> "MaxCutInstance":
        build, n = MaxCutInstance.parse_name(name)
        return build(n)


# ---------------------------------------------------------------------------
# Basic building block.
# ---------------------------------------------------------------------------

def building_block(H: MaxCutInstance, include_st_demand: bool):
    """The two-terminal star encoding of a MaxCut instance.

    Vertices {s,t} + [n]; both stars carry capacity deg(i)/2m; each H-edge
    becomes a 1/m demand; the s-t unit demand is optional (with it the
    sparsest cut value equals m/(m+maxcut)).

    Returns (instance, decomposition).
    """
    if H.m < 1:
        raise InputError("building block needs at least one edge")
    n, m = H.n, H.m
    verts = ("s", "t") + tuple(H.vertices)
    degree = Counter(v for edge in H.edges for v in edge)
    supply = []
    for i in H.vertices:
        c = Fraction(degree[i], 2 * m)
        supply.append(("s", i, c))
        supply.append(("t", i, c))
    demand = []
    if include_st_demand:
        demand.append(("s", "t", Fraction(1)))
    for u, v in H.edges:
        demand.append((u, v, Fraction(1, m)))
    inst = SparsestCutInstance(verts, tuple(supply), tuple(demand), ("s", "t"))
    bags = [frozenset({"s", "t", i}) for i in H.vertices]
    edges = [(k, k + 1) for k in range(n - 1)]
    dec = TreeDecomposition.build(bags, edges, root=0)
    return inst, dec


# ---------------------------------------------------------------------------
# Powering.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoweredInstance:
    """`base` powered `levels` times; vertex ("e", i, x) is x in the copy
    that replaced base supply edge i."""

    base: SparsestCutInstance
    levels: int
    instance: SparsestCutInstance
    decomposition: TreeDecomposition


def _ensure_terminal_root(dec: TreeDecomposition, s, t) -> TreeDecomposition:
    for i, bag in enumerate(dec.bags):
        if s in bag and t in bag:
            if i == dec.root:
                return dec
            return TreeDecomposition(dec.bags, dec.tree_edges, root=i)
    bags = [bag | {s, t} for bag in dec.bags]
    return TreeDecomposition.build(bags, dec.tree_edges, root=dec.root)


def power(base: SparsestCutInstance, levels: int,
          base_decomposition: TreeDecomposition) -> PoweredInstance:
    """Replace every capacity edge by a scaled copy of the previous level.

    Terminals of each copy are identified with the replaced edge's
    endpoints; copy weights are scaled by the replaced edge's capacity.
    Level-l demands are fresh copies of the base demands.
    """
    if base.terminals is None:
        raise InputError("powering needs designated terminals")
    if levels < 1:
        raise InputError("levels must be >= 1")
    m = len(base.supply_edges)
    if _power_exceeds(m, levels, DEFAULT_POWER_EDGE_BUDGET):
        raise BudgetError(f"powering to level {levels} needs {m}^{levels} supply "
                          f"edges, budget is {DEFAULT_POWER_EDGE_BUDGET}",
                          limit=DEFAULT_POWER_EDGE_BUDGET)
    s, t = base.terminals
    base_dec = _ensure_terminal_root(base_decomposition, s, t)

    inst, dec = base, base_dec
    for _ in range(levels - 1):
        inst, dec = _compose(base, base_dec, inst, dec)
    if len(inst.supply_edges) != m ** levels:
        raise InvariantError("capacity edge count mismatch after powering")
    return PoweredInstance(base, levels, inst, dec)


def _compose(outer, outer_dec, inner, inner_dec):
    """One powering step: outer with each capacity edge replaced by inner."""
    s, t = outer.terminals
    verts = list(outer.vertices)
    supply = []
    demand = list(outer.demand_edges)
    bags = list(outer_dec.bags)
    tree_edges = list(outer_dec.tree_edges)

    outer_bag_with = {}
    for bi, bag in enumerate(outer_dec.bags):
        for u, v, _ in outer.supply_edges:
            if u in bag and v in bag and (u, v) not in outer_bag_with:
                outer_bag_with[(u, v)] = bi

    ins, int_ = inner.terminals
    for ei, (u, v, cap) in enumerate(outer.supply_edges):
        def rename(x, ei=ei, u=u, v=v):
            if x == ins:
                return u
            if x == int_:
                return v
            return ("e", ei, x)

        for x in inner.vertices:
            if x not in (ins, int_):
                verts.append(("e", ei, x))
        for a, b, w in inner.supply_edges:
            supply.append((rename(a), rename(b), cap * w))
        for a, b, w in inner.demand_edges:
            demand.append((rename(a), rename(b), cap * w))
        # attach the copy's decomposition under a bag covering (u, v)
        offset = len(bags)
        for bag in inner_dec.bags:
            bags.append(frozenset(rename(x) for x in bag))
        for i, j in inner_dec.tree_edges:
            tree_edges.append((offset + i, offset + j))
        tree_edges.append((outer_bag_with[(u, v)], offset + inner_dec.root))

    inst = SparsestCutInstance(tuple(verts), tuple(supply), tuple(demand), (s, t))
    dec = TreeDecomposition.build(bags, tree_edges, root=outer_dec.root)
    return inst, dec


def lift_cut(powered: PoweredInstance, base_cut: Cut) -> Cut:
    """The recursively composed cut of an admissible base cut, each vertex's
    side read off its name.  A base vertex keeps its side; a copy vertex
    ("e", i, x) of an uncut base edge follows the edge's endpoints, and in a
    cut copy follows x's lifted side, complemented when the copy runs
    against its s-t orientation (edge i's first endpoint carries its s)."""
    base = powered.base
    s, t = base.terminals
    if (s in base_cut.side_a) == (t in base_cut.side_a):
        raise InputError("lift_cut needs an admissible base cut")
    base_vertices = frozenset(base.vertices)
    side = base_cut.side_a if s in base_cut.side_a else base_vertices - base_cut.side_a

    def lifted(x) -> bool:
        if x in base_vertices:
            return x in side
        u, v, _ = base.supply_edges[x[1]]
        if (u in side) == (v in side):
            return u in side
        return lifted(x[2]) == (u in side)

    return Cut(frozenset(filter(lifted, powered.instance.vertices)))


# ---------------------------------------------------------------------------
# Unique label cover: union-of-cliques instances.
# ---------------------------------------------------------------------------

def apply_sigma(sigma: tuple, x: int, d: int) -> int:
    """Permute cube coordinates: output bit i is input bit sigma^{-1}(i)."""
    inv = invert_sigma(sigma)
    y = 0
    for i in range(d):
        if (x >> inv[i]) & 1:
            y |= 1 << i
    return y


def compose_sigma(outer: tuple, inner: tuple) -> tuple:
    """(outer o inner)(i) = outer[inner[i]]."""
    return tuple(outer[inner[i]] for i in range(len(inner)))


def invert_sigma(sigma: tuple) -> tuple:
    inv = [0] * len(sigma)
    for j, img in enumerate(sigma):
        inv[img] = j
    return tuple(inv)


@dataclass(frozen=True)
class UlcInstance:
    """Unique label cover on a multigraph, constraints as permutations.

    edges[i] = (u, v, sigma) meaning sigma(label(u)) must equal label(v);
    the reverse direction uses the inverse.  cliques, when present, list
    edge indices per clique as the union-of-cliques witness.
    """

    vertices: tuple
    edges: tuple
    d: int
    cliques: Optional[tuple] = None

    def __post_init__(self):
        if type(self.d) is not int or self.d < 1:
            raise InputError(f"label count must be an integer of at least 1, got {self.d!r}")
        vs = set(self.vertices)
        for u, v, sigma in self.edges:
            if u not in vs or v not in vs or u == v:
                raise InputError(f"bad ULC edge ({u},{v})")
            if len(sigma) != self.d or sorted(sigma) != list(range(self.d)):
                raise InputError(f"constraint on ({u},{v}) is not a permutation")
        for clique in self.cliques or ():
            for i in clique:
                if type(i) is not int or not 0 <= i < len(self.edges):
                    raise InputError(f"clique entry {i!r} is not an edge index "
                                     f"0..{len(self.edges) - 1}")

    def satisfied_fraction(self, labeling: dict) -> Fraction:
        good = sum(1 for u, v, s in self.edges if s[labeling[u]] == labeling[v])
        return Fraction(good, len(self.edges))

    def best_labeling(self):
        check_labeling_budget(self.d, len(self.vertices))
        best, best_lab = Fraction(-1), None
        for labels in itertools.product(range(self.d), repeat=len(self.vertices)):
            lab = dict(zip(self.vertices, labels))
            val = self.satisfied_fraction(lab)
            if val > best:
                best, best_lab = val, lab
        return best_lab, best

    def require_delta_nice(self) -> int:
        """delta, once the clique witness shows the instance delta-nice."""
        if self.cliques is not None and len(self.cliques) != len(self.vertices):
            raise InputError(f"instance is not delta-nice: {len(self.cliques)} cliques "
                             f"!= {len(self.vertices)} vertices")
        try:
            delta = self.clique_union_delta()
        except InputError as exc:
            raise InputError(f"instance is not delta-nice: {exc}") from exc
        membership = {v: 0 for v in self.vertices}
        for edge_indices in self.cliques:
            for v in {x for i in edge_indices for x in self.edges[i][:2]}:
                membership[v] += 1
        bad = {v: c for v, c in membership.items() if c != delta}
        if bad:
            raise InputError(f"instance is not delta-nice: vertices not in exactly "
                             f"{delta} cliques: {bad}")
        return delta

    def clique_union_delta(self) -> int:
        """Uniform clique size of the edge partition witness (weaker than
        delta-niceness: vertex membership counts are not constrained).

        Each clique must be complete on distinct pairs, and the cliques
        must cover every edge exactly once."""
        if self.cliques is None:
            raise InputError("no clique partition witness")
        seen = set()
        sizes = set()
        for edge_indices in self.cliques:
            members = set()
            for i in edge_indices:
                if i in seen:
                    raise InputError(f"edge {i} appears in two cliques")
                seen.add(i)
                u, v, _ = self.edges[i]
                members.update((u, v))
            k = len(members)
            if len(edge_indices) != k * (k - 1) // 2:
                raise InputError(f"clique on {sorted(map(str, members))} is not complete")
            if len({frozenset(self.edges[i][:2]) for i in edge_indices}) != len(edge_indices):
                raise InputError("clique repeats a pair")
            sizes.add(k)
        if len(seen) != len(self.edges):
            raise InputError("cliques do not cover every edge")
        if len(sizes) != 1:
            raise InputError(f"clique sizes differ: {sorted(sizes)}")
        return sizes.pop()


@dataclass(frozen=True)
class BipartiteUlc:
    """Bipartite unique label cover; constraints read left-to-right."""

    left: tuple
    right: tuple
    edges: tuple  # (u in left, v in right, sigma)
    d: int

    def satisfied_fraction(self, labeling: dict) -> Fraction:
        good = sum(1 for u, v, s in self.edges if s[labeling[u]] == labeling[v])
        return Fraction(good, len(self.edges))


def bipartite_to_cliques(B: BipartiteUlc) -> UlcInstance:
    """Collapse a regular bipartite ULC onto its right side.

    Each left vertex turns into a clique over its neighborhood; the
    composed constraint routes through the shared left vertex.  The input
    must be regular on both sides, so the output is delta-nice.
    """
    left = Counter(u for u, _, _ in B.edges)
    right = Counter(v for _, v, _ in B.edges)
    delta_values = {left[u] for u in B.left} | {right[v] for v in B.right}
    if len(delta_values) != 1:
        raise InputError(f"bipartite instance is not regular: degrees {sorted(delta_values)}")
    edges = []
    cliques = []
    by_left = {u: [] for u in B.left}
    for u, v, sigma in B.edges:
        by_left[u].append((v, sigma))
    for u in B.left:
        clique = []
        nbrs = by_left[u]
        for (v, sv), (w, sw) in itertools.combinations(nbrs, 2):
            clique.append(len(edges))
            edges.append((v, w, compose_sigma(sw, invert_sigma(sv))))
        cliques.append(tuple(clique))
    out = UlcInstance(tuple(B.right), tuple(edges), B.d, tuple(cliques))
    out.require_delta_nice()
    return out


# ---------------------------------------------------------------------------
# The hypercube gadget.
# ---------------------------------------------------------------------------

def cube_vertex(v, x: int):
    return ("q", v, x)


@dataclass(frozen=True)
class UgGadget:
    ulc: UlcInstance
    delta: int
    alpha: Fraction
    instance: SparsestCutInstance
    decomposition: TreeDecomposition
    n_cube_nodes: int  # N
    n_demand_edges: int  # M

    def predicted(self) -> dict:
        d = self.ulc.d
        return {
            "N": self.n_cube_nodes,
            "M": self.n_demand_edges,
            "total_demand": "1",
            "total_capacity": str(2 + self.alpha * d / 2),
            "demand_edges_per_cube_node": self.delta * (self.delta - 1),
            "dictator_cut_capacity": str(1 + self.alpha / 2),
        }


def check_gadget_dimension(d: int):
    """Refuse a label count whose gadget cubes exceed the dimension bound."""
    if d > DEFAULT_GADGET_DIM_BOUND:
        raise BudgetError(f"label dimension {d} exceeds bound {DEFAULT_GADGET_DIM_BOUND}",
                          limit=DEFAULT_GADGET_DIM_BOUND, requested=d)


def ug_gadget(ulc: UlcInstance, alpha) -> UgGadget:
    """Hypercube-per-vertex sparsest-cut encoding of a delta-nice ULC.

    Star edges of capacity 1/N from both terminals to every cube node,
    cube edges of capacity alpha/N, and one 1/M demand per constraint and
    cube node, joining x in Q_v to the negation of sigma(x) in Q_w.

    With n ULC vertices and N = n*2^d cube nodes, each terminal's star
    sums to exactly 1, the cube edges sum to alpha*d/2, the total capacity
    is 2 + alpha*d/2 and a dictator cut pays 1 + alpha/2.
    """
    delta = ulc.require_delta_nice()
    d = ulc.d
    check_gadget_dimension(d)
    alpha = as_weight(alpha)
    if alpha < 0:
        raise InputError("cube edge capacity must be nonnegative")
    n = len(ulc.vertices)
    N = n * (1 << d)
    M = len(ulc.edges) * (1 << d)
    edges = 2 * N + N * d // 2 + M  # star, cube and demand edges
    if edges > GADGET_EDGE_BUDGET:
        raise BudgetError(f"gadget needs {edges} edges, budget is {GADGET_EDGE_BUDGET}",
                          limit=GADGET_EDGE_BUDGET, requested=edges)
    verts = ["s", "t"]
    cube_nodes = []
    for v in ulc.vertices:
        for x in range(1 << d):
            cube_nodes.append(cube_vertex(v, x))
    verts.extend(cube_nodes)

    supply = []
    star_cap = Fraction(1, N)
    for node in cube_nodes:
        supply.append(("s", node, star_cap))
        supply.append(("t", node, star_cap))
    cube_cap = alpha / N
    for v in ulc.vertices:
        for x in range(1 << d):
            for i in range(d):
                y = x ^ (1 << i)
                if x < y:
                    supply.append((cube_vertex(v, x), cube_vertex(v, y), cube_cap))

    demand = []
    dem = Fraction(1, M)
    full = (1 << d) - 1
    for u, v, sigma in ulc.edges:
        for x in range(1 << d):
            partner = apply_sigma(sigma, x, d) ^ full
            demand.append((cube_vertex(u, x), cube_vertex(v, partner), dem))

    inst = SparsestCutInstance(tuple(verts), tuple(supply), tuple(demand), ("s", "t"))
    bags = [frozenset({"s", "t"} | {cube_vertex(v, x) for x in range(1 << d)})
            for v in ulc.vertices]
    edges = [(k, k + 1) for k in range(n - 1)]
    dec = TreeDecomposition.build(bags, edges, root=0)
    return UgGadget(ulc, delta, alpha, inst, dec, N, M)


def dictator_cut(gadget: UgGadget, labeling: dict) -> Cut:
    """Coordinate cut chosen per cube by a labeling; capacity 1 + alpha/2."""
    side = {"s"}
    for v in gadget.ulc.vertices:
        if v not in labeling:
            raise InputError(f"labeling misses vertex {v}")
        bit = 1 << labeling[v]
        for x in range(1 << gadget.ulc.d):
            if x & bit:
                side.add(cube_vertex(v, x))
    return Cut(frozenset(side))


def clique_product_maxcut_bound(ulc: UlcInstance, copies: int) -> dict:
    """Exhaustively check the cut bound on the blown-up clique union.

    The product graph replaces every vertex by `copies` clones and every
    edge by the complete bipartite pattern between the clone groups; no
    cut may exceed a (1/2 + 1/(2(delta-1))) fraction of the edges.  Only
    the union-of-cliques witness is needed, not full niceness.
    """
    delta = ulc.clique_union_delta()
    verts = [(v, i) for v in ulc.vertices for i in range(copies)]
    pairs = [((u, i), (v, j)) for u, v, _ in ulc.edges
             for i in range(copies) for j in range(copies)]
    side, cut = exact_maxcut(SimpleNamespace(vertices=verts, edges=pairs),
                             bound=CLIQUE_PRODUCT_BUDGET)
    worst = Fraction(cut, len(pairs))
    bound = Fraction(1, 2) + Fraction(1, 2 * (delta - 1))
    return {
        "delta": delta,
        "copies": copies,
        "edges": len(pairs),
        "max_cut_fraction": worst,
        "bound": bound,
        "holds": worst <= bound,
        "witness": sorted(map(str, side)),
    }


def check_labeling_budget(d: int, n: int):
    """Refuse an exact ULC optimum over d^n labelings above LABELING_BUDGET."""
    if _power_exceeds(d, n, LABELING_BUDGET):
        raise BudgetError(f"labeling search over {d}^{n} assignments exceeds "
                          f"budget {LABELING_BUDGET}", limit=LABELING_BUDGET)


def random_delta_nice_ulc(n: int, delta: int, d: int, seed: int = 0,
                          plant: bool = False) -> UlcInstance:
    """Random delta-nice ULC on n vertices via delta bipartite matchings.

    Left vertex i joins rights i, i+1, ..., i+delta-1 (mod n) with random
    per-edge permutations, then collapses onto the right side.  With
    `plant`, constraints are wired around a hidden labeling, so the output
    is fully satisfiable (the completeness side of the gadget).
    """
    if not (2 <= delta <= n):
        raise InputError(f"need 2 <= delta <= n, got delta={delta}, n={n}")
    if d < 1:
        raise InputError(f"label count must be at least 1, got {d}")
    # n*delta permutations drawn, n*C(delta, 2) after the collapse, d entries each
    entries = n * max(delta, delta * (delta - 1) // 2) * d
    if entries > ULC_ENTRY_BUDGET:
        raise BudgetError(f"random ULC over {n} vertices, delta {delta} and {d} labels "
                          f"needs {entries} permutation entries, budget is "
                          f"{ULC_ENTRY_BUDGET}", limit=ULC_ENTRY_BUDGET, requested=entries)
    rng = random.Random(seed)
    left = tuple(f"L{i}" for i in range(n))
    right = tuple(range(1, n + 1))
    hidden = {v: rng.randrange(d) for v in left + right}
    edges = []
    for shift in range(delta):
        for i in range(n):
            u, v = left[i], right[(i + shift) % n]
            sigma = list(range(d))
            rng.shuffle(sigma)
            if plant:
                j = sigma.index(hidden[v])
                sigma[j], sigma[hidden[u]] = sigma[hidden[u]], hidden[v]
            edges.append((u, v, tuple(sigma)))
    out = bipartite_to_cliques(BipartiteUlc(left, right, tuple(edges), d))
    if plant:
        labeling = {v: hidden[v] for v in right}
        if out.satisfied_fraction(labeling) != 1:
            raise InvariantError("planted labeling failed to satisfy the instance")
    return out


def ulc_to_json_dict(ulc: UlcInstance) -> dict:
    return {
        "vertices": list(ulc.vertices),
        "d": ulc.d,
        "edges": [[u, v, list(sigma)] for u, v, sigma in ulc.edges],
        "cliques": [list(c) for c in ulc.cliques] if ulc.cliques else None,
    }
