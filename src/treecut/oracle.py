"""Exact ground truth: sparsest cut, MaxCut, cut audits.

Enumeration walks all 2^(n-1) cut classes (first vertex pinned) with a
Gray code, updating cut capacity and demand incrementally as scaled
integers.  It backs the cut audits and `exact_sparsest_cut`, whose
witness is the lexicographically smallest optimal side.

`sparsest_cut_by_elimination` gets the optimal ratio without enumerating.
Dinkelbach's iteration (Dinkelbach 1967), the one `instance.dinkelbach`
that the LP ratio search also runs, turns the ratio into a few problems
min cap - lambda*dem.  Each is a pairwise min-sum problem solved exactly
by variable elimination (nonserial dynamic programming, Bertele and
Brioschi 1972) in greedy min-degree order over the supply and demand
pairs.  Its cost is exponential only in the elimination width, which
stays small on the powered instances; scopes above MAX_ELIMINATION_SCOPE
are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import BudgetError, InputError, InvariantError
from .instance import Cut, SparsestCutInstance, Sparsity, dinkelbach, evaluate_cut

DEFAULT_ENUM_BOUND = 26
MAX_ELIMINATION_SCOPE = 16


def _scaled_edges(instance, edges):
    """(index u, index v, integer weight) triples; returns (triples, scale)."""
    scale = lcm(*(w.denominator for _, _, w in edges)) if edges else 1
    return [(instance.vertex_index(u), instance.vertex_index(v), int(w * scale))
            for u, v, w in edges], scale


def _scaled_incidence(instance, edges):
    """Per-vertex incidence lists with integer weights; returns (inc, scale)."""
    scaled, scale = _scaled_edges(instance, edges)
    inc = [[] for _ in instance.vertices]
    for iu, iv, iw in scaled:
        inc[iu].append((iv, iw))
        inc[iv].append((iu, iw))
    return inc, scale


def _mask_cut(instance, mask, free) -> Cut:
    side = {instance.vertices[0]}
    for bit, idx in enumerate(free):
        if (mask >> bit) & 1:
            side.add(instance.vertices[idx])
    return Cut(frozenset(side))


def _mask_key(mask, free):
    return tuple(sorted([0] + [free[b] for b in range(len(free)) if (mask >> b) & 1]))


@dataclass
class CutAudit:
    """Aggregated extrema over every cut class of an instance.

    Ratio extrema are stored as (demand, capacity) integer pairs during
    the scan and rebuilt as exact Fractions of the witness cuts here.
    """

    n_cut_classes: int
    sparsest: Optional[tuple]  # (Cut, Sparsity), over all cuts with demand > 0
    min_admissible_capacity: Optional[tuple]  # (Cut, Fraction)
    max_admissible_ratio: Optional[tuple]  # (Cut, Fraction dem/cap or None=inf)
    max_inadmissible_ratio: Optional[tuple]  # same convention

    def gamma(self) -> Fraction:
        """Audited max admissible demand/capacity ratio (the measured γ)."""
        if self.max_admissible_ratio is None:
            raise InputError("no admissible cuts audited")
        cut, ratio = self.max_admissible_ratio
        if ratio is None:
            raise InputError("admissible cut with zero capacity: γ unbounded")
        return ratio

    def to_dict(self) -> dict:
        def entry(pair, value_name):
            if pair is None:
                return None
            cut, val = pair
            if isinstance(val, Sparsity):
                payload = {"capacity": str(val.cut_capacity), "demand": str(val.cut_demand),
                           "ratio": str(val.ratio)}
            else:
                payload = {value_name: "inf" if val is None else str(val)}
            payload["witness"] = sorted(map(str, cut.side_a))
            return payload

        return {
            "cut_classes": self.n_cut_classes,
            "sparsest": entry(self.sparsest, "ratio"),
            "min_admissible_capacity": entry(self.min_admissible_capacity, "capacity"),
            "max_admissible_demand_over_capacity": entry(self.max_admissible_ratio, "ratio"),
            "max_inadmissible_demand_over_capacity": entry(self.max_inadmissible_ratio, "ratio"),
        }


def _enumerate_extrema(instance: SparsestCutInstance, bound: int) -> CutAudit:
    n = instance.n
    if n > bound:
        raise BudgetError(f"enumeration over {n} vertices exceeds bound {bound}",
                          limit=bound, requested=n)
    if n < 2:
        raise InputError("need at least two vertices to cut")
    sup_inc, _ = _scaled_incidence(instance, instance.supply_edges)
    dem_inc, _ = _scaled_incidence(instance, instance.demand_edges)

    # Free vertices ordered so that low-incidence ones occupy the
    # frequently flipped Gray positions.
    free = sorted(range(1, n), key=lambda i: len(sup_inc[i]) + len(dem_inc[i]))
    nf = n - 1
    side = [0] * n
    side[0] = 1
    cap = sum(w for _, w in sup_inc[0])
    dem = sum(w for _, w in dem_inc[0])

    has_terms = instance.terminals is not None
    if has_terms:
        si, ti = map(instance.vertex_index, instance.terminals)

    # Extrema accumulators: (value tuple, mask).
    best_sparse = None  # (cap, dem, mask), minimize cap/dem
    min_adm_cap = None  # (cap, mask)
    max_adm_ratio = None  # (dem, cap, mask), maximize dem/cap
    max_inadm_ratio = None

    def better_key(mask_new, mask_old):
        return _mask_key(mask_new, free) < _mask_key(mask_old, free)

    mask = 0
    k = 0
    total = 1 << nf
    while True:
        # evaluate the current cut class (side of vertex 0 is A)
        if dem > 0:
            if best_sparse is None or cap * best_sparse[1] < best_sparse[0] * dem or \
                    (cap * best_sparse[1] == best_sparse[0] * dem and better_key(mask, best_sparse[2])):
                best_sparse = (cap, dem, mask)
        if has_terms and mask.bit_count() + 1 < n:  # proper, non-degenerate class
            if side[si] != side[ti]:
                if min_adm_cap is None or cap < min_adm_cap[0] or \
                        (cap == min_adm_cap[0] and better_key(mask, min_adm_cap[1])):
                    min_adm_cap = (cap, mask)
                cur = max_adm_ratio
                if cur is None or dem * cur[1] > cur[0] * cap or \
                        (dem * cur[1] == cur[0] * cap and better_key(mask, cur[2])):
                    max_adm_ratio = (dem, cap, mask)
            else:
                cur = max_inadm_ratio
                if cur is None or dem * cur[1] > cur[0] * cap or \
                        (dem * cur[1] == cur[0] * cap and better_key(mask, cur[2])):
                    max_inadm_ratio = (dem, cap, mask)

        k += 1
        if k >= total:
            break
        b = (k & -k).bit_length() - 1
        u = free[b]
        s = side[u]
        side[u] = 1 - s
        mask ^= 1 << b
        for v, w in sup_inc[u]:
            if side[v] == s:
                cap += w
            else:
                cap -= w
        for v, w in dem_inc[u]:
            if side[v] == s:
                dem += w
            else:
                dem -= w

    def finish_ratio(acc):
        if acc is None:
            return None
        d, c, m = acc
        cut = _mask_cut(instance, m, free)
        ev = evaluate_cut(instance, cut)
        ratio = (ev.cut_demand / ev.cut_capacity) if ev.cut_capacity > 0 else None
        return (cut, ratio)

    sparse_entry = None
    if best_sparse is not None:
        cut = _mask_cut(instance, best_sparse[2], free)
        sparse_entry = (cut, evaluate_cut(instance, cut))
    cap_entry = None
    if min_adm_cap is not None:
        cut = _mask_cut(instance, min_adm_cap[1], free)
        cap_entry = (cut, evaluate_cut(instance, cut).cut_capacity)
    return CutAudit(
        n_cut_classes=total,
        sparsest=sparse_entry,
        min_admissible_capacity=cap_entry,
        max_admissible_ratio=finish_ratio(max_adm_ratio),
        max_inadmissible_ratio=finish_ratio(max_inadm_ratio),
    )


def exact_sparsest_cut(instance: SparsestCutInstance):
    """Global sparsest cut by full enumeration.

    Ties broken by the lexicographically smallest canonical side (the side
    containing the first vertex, compared as a sorted index tuple).
    """
    if instance.total_demand <= 0:
        raise InputError("instance has zero total demand")
    audit = _enumerate_extrema(instance, DEFAULT_ENUM_BOUND)
    if audit.sparsest is None:
        raise InputError("no cut separates any demand")
    return audit.sparsest


def _elimination_plan(n: int, pairs) -> tuple:
    """Greedy min-degree elimination of vertices 1..n-1 (vertex 0 is pinned).

    Returns the order as [(v, scope)], scope being v's uneliminated
    neighbours when v goes, and per v its bucket: the factors (pairs, and
    the tables left by eliminated vertices) whose first-eliminated
    variable is v, each with the map from (v, *scope) masks into it.
    """
    adj = {v: set() for v in range(1, n)}
    for u, v in pairs:
        if u:
            adj[u].add(v)
            adj[v].add(u)
    order = []
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        scope = adj.pop(v)
        if len(scope) > MAX_ELIMINATION_SCOPE:
            raise BudgetError(f"variable elimination needs a scope of {len(scope)} "
                              f"vertices, bound is {MAX_ELIMINATION_SCOPE}",
                              limit=MAX_ELIMINATION_SCOPE, requested=len(scope))
        for u in scope:
            adj[u] |= scope
            adj[u] -= {u, v}
        order.append((v, tuple(sorted(scope))))
    scopes = dict(order)
    pos = {v: i for i, (v, _) in enumerate(order)}
    buckets = {v: [] for v in scopes}

    def place(key, fvars):
        v = min(fvars, key=pos.__getitem__)
        bits = [((v,) + scopes[v]).index(u) for u in fvars]
        buckets[v].append((key, [sum(((m >> b) & 1) << i for i, b in enumerate(bits))
                                 for m in range(2 << len(scopes[v]))]))

    for u, v in pairs:
        place((u, v), (u, v) if u else (v,))
    for v, scope in order:
        if scope:
            place(v, scope)
    return order, buckets


def _eliminate(n: int, plan, pairs, p: int, q: int) -> tuple:
    """min over sides x (x_0 = 0) of q*cap - p*dem summed over the pairs x
    separates, by bucket elimination; returns (minimum, argmin x)."""
    order, buckets = plan
    tables = {}
    for (u, v), (c, d) in pairs.items():
        w = q * c - p * d
        tables[u, v] = [0, w, w, 0] if u else [0, w]
    total, argmin = 0, {}
    for v, scope in order:
        full = [0] * (2 << len(scope))
        for key, index in buckets[v]:
            table = tables.pop(key)
            full = [a + table[i] for a, i in zip(full, index)]
        low = [min(a, b) for a, b in zip(full[::2], full[1::2])]
        argmin[v] = [int(b < a) for a, b in zip(full[::2], full[1::2])]
        if scope:
            tables[v] = low
        else:
            total += low[0]
    x = [0] * n
    for v, scope in reversed(order):
        x[v] = argmin[v][sum(x[u] << j for j, u in enumerate(scope))]
    return total, x


def sparsest_cut_by_elimination(instance: SparsestCutInstance):
    """Global sparsest cut by `instance.dinkelbach` over variable elimination.

    From a cut that separates demand, each minimum of cap - (p/q)*dem over
    all cuts is that of q*cap - p*dem, found exactly by elimination, over
    q.  Cost is exponential only in the elimination width.  The witness
    has no tie-break guarantee.
    """
    if instance.total_demand <= 0:
        raise InputError("instance has zero total demand")
    n = instance.n
    pairs, scales = {}, []
    for k, edges in enumerate((instance.supply_edges, instance.demand_edges)):
        scaled, scale = _scaled_edges(instance, edges)
        scales.append(scale)
        for u, v, w in scaled:
            pairs.setdefault((min(u, v), max(u, v)), [0, 0])[k] += w

    def weights(y):
        cut = [cd for (u, v), cd in pairs.items() if y[u] != y[v]]
        return sum(c for c, _ in cut), sum(d for _, d in cut)

    plan = _elimination_plan(n, pairs)

    def minimize(lam):
        value, y = _eliminate(n, plan, pairs, lam.numerator, lam.denominator)
        return Fraction(value, lam.denominator), y

    x = [0] * n
    x[next(v for (_, v), (_, d) in pairs.items() if d)] = 1
    x, trace = dinkelbach(minimize, weights, x)
    cut = Cut(frozenset(instance.vertices[j] for j in range(n) if not x[j]))
    sparsity = evaluate_cut(instance, cut)
    ratio = trace[-1][0] * scales[1] / scales[0]  # back from scaled integer units
    if sparsity.ratio != ratio:
        raise InvariantError(f"elimination ratio {ratio} != witness ratio {sparsity.ratio}")
    return cut, sparsity


def audit_cuts(instance: SparsestCutInstance, bound: int = DEFAULT_ENUM_BOUND) -> CutAudit:
    """Exhaustively verify the universally quantified cut claims.

    Cuts are partitioned by whether they separate the instance's
    terminals; extrema are tracked per class.
    """
    return _enumerate_extrema(instance, bound)


def check_maxcut_bound(n: int, bound: int = DEFAULT_ENUM_BOUND) -> None:
    """Refuse an exact MaxCut over n vertices above bound, before any work."""
    if n > bound:
        raise BudgetError(f"maxcut enumeration over {n} vertices exceeds bound {bound}",
                          limit=bound, requested=n)


def exact_maxcut(graph, bound: int = DEFAULT_ENUM_BOUND):
    """Exact MaxCut of an unweighted graph, walking the cut classes in
    Gray-code order.  `graph` needs `.vertices` and `.edges` (pairs).

    Returns (set, size): the least vertex mask among the maximum cuts that
    leave the last vertex out."""
    verts = list(graph.vertices)
    n = len(verts)
    check_maxcut_bound(n, bound)
    index = {v: i for i, v in enumerate(verts)}
    adj = [[] for _ in verts]
    for u, v in graph.edges:
        if u != v:  # a loop is never cut
            adj[index[u]].append(index[v])
            adj[index[v]].append(index[u])
    side = [0] * n
    size = best = mask = best_mask = 0
    for k in range(1, 1 << max(n - 1, 0)):
        b = (k & -k).bit_length() - 1
        s = side[b]
        side[b] = 1 - s
        mask ^= 1 << b
        for v in adj[b]:
            size += 1 if side[v] == s else -1
        if size > best or (size == best and mask < best_mask):
            best, best_mask = size, mask
    side = {verts[i] for i in range(n) if (best_mask >> i) & 1}
    return side, best
