"""Tree decompositions: validation, exact width, balancing, root-path unions.

The balanced transform rebuilds a decomposition into a binary tree of
depth O(log n) whose bags grow by at most a factor of three, by
recursively splitting the bag tree at separator nodes while carrying a
boundary of at most two original-bag slices.  The depth/width
postconditions are asserted on every output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import BudgetError, InputError, InvariantError
from .instance import SparsestCutInstance

DEFAULT_EXACT_BOUND = 18


def depth_bound(n: int) -> int:
    """Depth budget for the balanced transform on an n-vertex graph."""
    return 2 * math.ceil(math.log(max(2 * n, 2), 5 / 4))


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple  # of frozensets
    tree_edges: tuple  # undirected (i, j) index pairs
    root: int = 0

    @staticmethod
    def build(bags, tree_edges, root=0) -> "TreeDecomposition":
        return TreeDecomposition(tuple(frozenset(b) for b in bags),
                                 tuple(tuple(sorted(e)) for e in tree_edges), root)

    @property
    def n_bags(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    @property
    def max_bag_size(self) -> int:
        return max(len(b) for b in self.bags)

    @cached_property
    def all_vertices(self) -> frozenset:
        return frozenset().union(*self.bags) if self.bags else frozenset()

    @cached_property
    def adjacency(self) -> tuple:
        adj = [[] for _ in self.bags]
        for i, j in self.tree_edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def parents(self) -> tuple:
        """parent index per bag (None at the root); raises if not a tree."""
        if len(self.tree_edges) != self.n_bags - 1:
            raise InvariantError("bag links do not form a tree")
        parent: list = [None] * self.n_bags
        seen = {self.root}
        order = [self.root]
        stack = [self.root]
        while stack:
            i = stack.pop()
            for j in self.adjacency[i]:
                if j not in seen:
                    seen.add(j)
                    parent[j] = i
                    order.append(j)
                    stack.append(j)
        if len(seen) != self.n_bags:
            raise InvariantError("bag links do not span all bags")
        return tuple(parent)

    @cached_property
    def depths(self) -> tuple:
        parent = self.parents
        depth = [0] * self.n_bags
        # parents is produced root-first, so a second pass in index order
        # is not enough; walk via repeated parent lookups (trees are tiny).
        for i in range(self.n_bags):
            d, j = 0, i
            while parent[j] is not None:
                j = parent[j]
                d += 1
            depth[i] = d
        return tuple(depth)

    @property
    def depth(self) -> int:
        return max(self.depths)

    def children(self, i: int) -> list:
        return [j for j in self.adjacency[i] if self.parents[j] == i]

    def is_binary(self) -> bool:
        return all(len(self.children(i)) <= 2 for i in range(self.n_bags))


@dataclass(frozen=True)
class RootPathUnion:
    node: int
    union_set: frozenset


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: str = "ok"
    witness: Optional[object] = None

    def __bool__(self):
        return self.ok


def validate(instance: SparsestCutInstance, dec: TreeDecomposition) -> ValidationReport:
    """Check the three decomposition invariants, reporting the first failure."""
    # 1. tree structure
    if dec.n_bags == 0:
        return ValidationReport(False, "no bags")
    try:
        dec.parents
    except InvariantError as exc:
        return ValidationReport(False, str(exc))
    extra = dec.all_vertices - set(instance.vertices)
    if extra:
        return ValidationReport(False, "bags mention undeclared vertices", sorted(map(str, extra)))
    # 2. every supply edge inside some bag
    for u, v, _ in instance.supply_edges:
        if not any(u in b and v in b for b in dec.bags):
            return ValidationReport(False, f"supply edge ({u},{v}) not covered by any bag", (u, v))
    # 3. occurrences of each vertex form a connected subtree
    for v in instance.vertices:
        nodes = [i for i, b in enumerate(dec.bags) if v in b]
        if not nodes:
            return ValidationReport(False, f"vertex {v} missing from every bag", v)
        seen = {nodes[0]}
        stack = [nodes[0]]
        holder = set(nodes)
        while stack:
            i = stack.pop()
            for j in dec.adjacency[i]:
                if j in holder and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != len(nodes):
            return ValidationReport(False, f"bags containing {v} are disconnected", v)
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# Exact treewidth by dynamic programming over eliminated vertex sets.
# ---------------------------------------------------------------------------

def _adjacency_masks(instance: SparsestCutInstance):
    n = instance.n
    adj = [0] * n
    for u, v, _ in instance.supply_edges:
        iu, iv = instance.vertex_index(u), instance.vertex_index(v)
        adj[iu] |= 1 << iv
        adj[iv] |= 1 << iu
    return adj


def _reach_bag(adj, eliminated: int, v: int) -> int:
    """Bitmask of live vertices adjacent to v through the eliminated set."""
    boundary = adj[v]
    inside = 0
    while True:
        new = boundary & eliminated & ~inside
        if not new:
            break
        inside |= new
        m = new
        while m:
            low = m & -m
            boundary |= adj[low.bit_length() - 1]
            m ^= low
    return boundary & ~eliminated & ~(1 << v)


def exact_decomposition(instance: SparsestCutInstance,
                        bound: int = DEFAULT_EXACT_BOUND) -> TreeDecomposition:
    """Minimum-width tree decomposition via the elimination-set DP.

    Exponential in n; refuses above `bound` (supply a decomposition file
    instead for larger graphs).  Ties in the DP break toward the
    lexicographically first vertex, so outputs are reproducible.
    """
    n = instance.n
    if n > bound:
        raise BudgetError(
            f"exact decomposition over {n} vertices exceeds bound {bound}; "
            "supply a tree decomposition file instead", limit=bound, requested=n)
    if n == 0:
        raise InputError("empty instance")
    adj = _adjacency_masks(instance)
    full = (1 << n) - 1
    INF = n + 1
    f = [INF] * (full + 1)
    choice = [-1] * (full + 1)
    f[0] = 0
    for s in range(1, full + 1):
        m = s
        best, best_v = INF, -1
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            prev = s ^ low
            if f[prev] >= best:
                continue
            q = _reach_bag(adj, prev, v).bit_count()
            val = f[prev] if f[prev] > q else q
            if val < best:  # strict: earliest v wins ties (iteration is ascending)
                best, best_v = val, v
        f[s] = best
        choice[s] = best_v

    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()  # elimination order, first-eliminated first

    # Bags from the elimination order; attach each bag to the bag of the
    # next-eliminated vertex it contains.
    position = {v: i for i, v in enumerate(order)}
    bags = []
    eliminated = 0
    for v in order:
        reach = _reach_bag(adj, eliminated, v)
        bag = {instance.vertices[v]}
        m = reach
        while m:
            low = m & -m
            bag.add(instance.vertices[low.bit_length() - 1])
            m ^= low
        bags.append(frozenset(bag))
        eliminated |= 1 << v
    edges = []
    for i, v in enumerate(order):
        later = [position[instance.vertex_index(u)] for u in bags[i]
                 if position[instance.vertex_index(u)] > i]
        if later:
            edges.append((i, min(later)))
        elif i != n - 1:
            edges.append((i, n - 1))  # isolated remainder: hang off the last bag
    dec = TreeDecomposition.build(bags, edges, root=n - 1)
    if dec.width != f[full]:
        raise InvariantError(f"reconstructed width {dec.width} != DP width {f[full]}")
    return dec


def treewidth_by_search(instance: SparsestCutInstance, bound: int = 10) -> int:
    """Independent treewidth check: branch-and-bound over elimination orders.

    Deliberately separate from the DP so the two can cross-validate.
    """
    n = instance.n
    if n > bound:
        raise BudgetError(f"search over {n} vertices exceeds bound {bound}",
                          limit=bound, requested=n)
    adj = _adjacency_masks(instance)
    full = (1 << n) - 1

    def greedy_upper() -> int:
        eliminated, width = 0, 0
        while eliminated != full:
            best_v, best_q = -1, n + 1
            for v in range(n):
                if (eliminated >> v) & 1:
                    continue
                q = _reach_bag(adj, eliminated, v).bit_count()
                if q < best_q:
                    best_q, best_v = q, v
            width = max(width, best_q)
            eliminated |= 1 << best_v
        return width

    best = greedy_upper()

    def dfs(eliminated: int, width_so_far: int):
        nonlocal best
        if width_so_far >= best:
            return
        if eliminated == full:
            best = width_so_far
            return
        for v in range(n):
            if (eliminated >> v) & 1:
                continue
            q = _reach_bag(adj, eliminated, v).bit_count()
            w = max(width_so_far, q)
            if w < best:
                dfs(eliminated | (1 << v), w)

    dfs(0, 0)
    return best


# ---------------------------------------------------------------------------
# Balanced transform.
# ---------------------------------------------------------------------------

def _pruned(dec: TreeDecomposition):
    """Collapse bags contained in a neighbor; returns (bags, adjacency sets)."""
    bags = list(dec.bags)
    adj = [set(a) for a in dec.adjacency]
    alive = [True] * len(bags)
    changed = True
    while changed:
        changed = False
        for i in range(len(bags)):
            if not alive[i]:
                continue
            for j in list(adj[i]):
                if bags[i] <= bags[j]:
                    # merge i into j
                    for k in list(adj[i]):
                        if k != j:
                            adj[k].discard(i)
                            adj[k].add(j)
                            adj[j].add(k)
                    adj[j].discard(i)
                    adj[i].clear()
                    alive[i] = False
                    changed = True
                    break
            if changed:
                break
    keep = [i for i in range(len(bags)) if alive[i]]
    remap = {old: new for new, old in enumerate(keep)}
    new_bags = [bags[i] for i in keep]
    new_adj = [set(remap[k] for k in adj[i]) for i in keep]
    return new_bags, new_adj


class _Balancer:
    def __init__(self, bags, adj):
        self.bags = bags
        self.adj = adj
        self.out_bags: list = []
        self.out_edges: list = []

    def bag_union(self, nodes) -> frozenset:
        u: frozenset = frozenset()
        for i in nodes:
            u |= self.bags[i]
        return u

    def components(self, nodes: frozenset, removed: int) -> list:
        rest = set(nodes) - {removed}
        comps = []
        while rest:
            start = next(iter(rest))
            comp = {start}
            stack = [start]
            rest.discard(start)
            while stack:
                i = stack.pop()
                for j in self.adj[i]:
                    if j in rest:
                        rest.discard(j)
                        comp.add(j)
                        stack.append(j)
            comps.append(frozenset(comp))
        return comps

    def tree_path(self, nodes: frozenset, a: int, b: int) -> list:
        parent = {a: None}
        stack = [a]
        while stack:
            i = stack.pop()
            if i == b:
                break
            for j in self.adj[i]:
                if j in nodes and j not in parent:
                    parent[j] = i
                    stack.append(j)
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        return path

    def pick_split(self, nodes: frozenset, doors: tuple) -> int:
        if len(doors) == 2 and doors[0] != doors[1]:
            candidates = self.tree_path(nodes, doors[0], doors[1])
        else:
            candidates = sorted(nodes)
        best, best_key = None, None
        for c in candidates:
            comps = self.components(nodes, c)
            worst = max((len(x) for x in comps), default=0)
            key = (worst, c)
            if best_key is None or key < best_key:
                best, best_key = c, key
        return best

    def emit(self, bag: frozenset, parent: Optional[int]) -> int:
        idx = len(self.out_bags)
        self.out_bags.append(bag)
        if parent is not None:
            self.out_edges.append((parent, idx))
        return idx

    def build(self, nodes: frozenset, boundary: frozenset, doors: tuple,
              parent: Optional[int]):
        if len(nodes) == 1:
            only = next(iter(nodes))
            self.emit(boundary | self.bags[only], parent)
            return
        c = self.pick_split(nodes, doors)
        me = self.emit(boundary | self.bags[c], parent)
        comps = self.components(nodes, c)
        old_doors = [d for d in doors if d != c]
        if len(comps) == 1:
            comp = comps[0]
            door_in = [d for d in old_doors if d in comp]
            gate = next(iter(j for j in self.adj[c] if j in comp))
            self.recurse(comp, me, self._doors(door_in, gate))
            return
        # Two groups, an old door in each at most once; components are
        # balanced greedily by size.
        groups: list = [[], []]
        sizes = [0, 0]
        door_of = [next((d for d in old_doors if d in comp), None) for comp in comps]
        order = sorted(range(len(comps)), key=lambda i: -len(comps[i]))
        taken_door = [False, False]
        for i in order:
            want = 0 if sizes[0] <= sizes[1] else 1
            if door_of[i] is not None and taken_door[want]:
                want = 1 - want
            groups[want].append(comps[i])
            sizes[want] += len(comps[i])
            if door_of[i] is not None:
                taken_door[want] = True
        for group in groups:
            if not group:
                continue
            if len(group) == 1:
                comp = group[0]
                door_in = [d for d in old_doors if d in comp]
                gate = next(iter(j for j in self.adj[c] if j in comp))
                self.recurse(comp, me, self._doors(door_in, gate))
            else:
                merged = frozenset().union(*group) | {c}
                door_in = [d for d in old_doors if d in merged]
                self.recurse(merged, me, self._doors(door_in, c))

    @staticmethod
    def _doors(door_in: list, anchor: int) -> tuple:
        doors = tuple(dict.fromkeys(door_in + [anchor]))
        if len(doors) > 2:
            raise InvariantError(f"subtree acquired {len(doors)} doors")
        return doors

    def recurse(self, nodes: frozenset, parent: int, doors: tuple):
        parent_bag = self.out_bags[parent]
        boundary = parent_bag & self.bag_union(nodes)
        self.build(nodes, boundary, doors, parent)


def balance(dec: TreeDecomposition) -> TreeDecomposition:
    """Rebuild into a binary decomposition of depth O(log n).

    Output satisfies: valid, binary, depth <= 2*ceil(log_{5/4}(2n)), and
    max bag size <= 3 * (input max bag size).  If the input is already
    binary and no deeper or wider than the rebuilt tree, it is returned
    unchanged.
    """
    dec.parents  # raises InvariantError on malformed trees
    n = len(dec.all_vertices)
    k_in = dec.max_bag_size
    bags, adj = _pruned(dec)
    bal = _Balancer(bags, adj)
    bal.build(frozenset(range(len(bags))), frozenset(), (), None)
    out = TreeDecomposition.build(bal.out_bags, bal.out_edges, root=0)
    bound = depth_bound(n)
    if out.depth > bound:
        raise InvariantError(f"balanced depth {out.depth} exceeds bound {bound}")
    if out.max_bag_size > 3 * k_in:
        raise InvariantError(
            f"balanced bag size {out.max_bag_size} exceeds 3*{k_in}")
    if not out.is_binary():
        raise InvariantError("balanced tree is not binary")
    if dec.is_binary() and dec.depth <= out.depth and dec.max_bag_size <= out.max_bag_size:
        return dec
    return out


def root_path_unions(dec: TreeDecomposition) -> list:
    """V_a per bag: the union of all bags on the root-to-a path."""
    parent = dec.parents
    out: list = [None] * dec.n_bags
    order = sorted(range(dec.n_bags), key=lambda i: dec.depths[i])
    for i in order:
        if parent[i] is None:
            out[i] = RootPathUnion(i, dec.bags[i])
        else:
            out[i] = RootPathUnion(i, out[parent[i]].union_set | dec.bags[i])
    return out


def least_bags(dec: TreeDecomposition, vertices) -> dict:
    """Per vertex, the shallowest bag holding it (ties to the lowest index)."""
    depths = dec.depths
    least = {}
    for v in vertices:
        holders = [i for i, b in enumerate(dec.bags) if v in b]
        if not holders:
            raise InputError(f"decomposition misses vertex {v}")
        least[v] = min(holders, key=lambda i: (depths[i], i))
    return least


# ---------------------------------------------------------------------------
# PACE-style text format:
#   s td <numbags> <maxbagsize> <n>
#   b <index> <v1> <v2> ...
#   <i> <j>
# Bag and vertex ids are 1-based.
# ---------------------------------------------------------------------------

def format_decomposition(dec: TreeDecomposition, instance: SparsestCutInstance) -> str:
    idx = {v: i + 1 for i, v in enumerate(instance.vertices)}
    lines = [f"s td {dec.n_bags} {dec.max_bag_size} {instance.n}"]
    for i, bag in enumerate(dec.bags):
        members = " ".join(str(idx[v]) for v in instance.sorted_vertices(bag))
        lines.append(f"b {i + 1} {members}".rstrip())
    for i, j in dec.tree_edges:
        lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str, instance: SparsestCutInstance,
                        root: int = 0) -> TreeDecomposition:
    header = None
    bags: dict = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "s":
                header = (int(parts[2]), int(parts[3]), int(parts[4]))
            elif parts[0] == "b":
                ids = [int(p) for p in parts[2:]]
                if any(not 1 <= i <= instance.n for i in ids):
                    raise InputError(f"line {lineno}: vertex ids run 1..{instance.n}: {raw!r}")
                bags[int(parts[1]) - 1] = frozenset(instance.vertices[i - 1] for i in ids)
            else:
                edges.append((int(parts[0]) - 1, int(parts[1]) - 1))
        except (IndexError, ValueError) as exc:
            raise InputError(f"line {lineno}: {raw!r}") from exc
    if header is None:
        raise InputError("missing `s td ...` header")
    nb = header[0]
    if set(bags) != set(range(nb)):
        raise InputError(f"expected bags 1..{nb}")
    if not 0 <= root < nb:
        raise InputError(f"root bag {root + 1} is not among bags 1..{nb}")
    return TreeDecomposition.build([bags[i] for i in range(nb)], edges, root=root)
