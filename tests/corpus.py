"""Random instance corpus shared by the acceptance suite and scripts.

Series-parallel graphs come from repeated series/parallel expansions of a
single edge; the treewidth-3 family subsamples random partial 3-trees.
Weights are random small rationals so every comparison stays exact.
"""

import random
from fractions import Fraction

from treecut.instance import SparsestCutInstance


# A valid instance whose LP capacity is 0: vertex 9 has no supply edge and
# two demand pairs, so the cut {9} has sparsity 0.  The one positive-
# capacity edge, 2-4, must get y = 0.
ZERO_CAPACITY_SSC = """p ssc 10
e 2 4 2
e 3 8 0
e 4 5 0
e 5 6 0
d 5 3 3
d 9 6 3
d 3 9 1
d 3 9 3
"""


def random_rational(rng, max_num=8, max_den=6) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def series_parallel_edges(rng, n):
    edges = [(1, 2)]
    nxt = 3
    while nxt <= n:
        i = rng.randrange(len(edges))
        u, v = edges[i]
        if rng.random() < 0.5:
            edges.pop(i)  # series split of (u,v)
        edges.append((u, nxt))
        edges.append((nxt, v))
        nxt += 1
    return edges


def partial_three_tree_edges(rng, n, keep=0.8):
    edges = set()
    for i in range(1, 5):
        for j in range(i + 1, 5):
            edges.add((i, j))
    cliques = [(1, 2, 3, 4)]
    for v in range(5, n + 1):
        base = rng.choice(cliques)
        sub = tuple(sorted(rng.sample(base, 3)))
        for u in sub:
            edges.add((min(u, v), max(u, v)))
        cliques.append(sub + (v,))
    edges = sorted(edges)
    kept = {e for e in edges if rng.random() < keep}
    seen = {1}
    for u, v in edges:  # keep a connected skeleton
        if (u in seen) != (v in seen):
            kept.add((u, v))
            seen.update((u, v))
    return sorted(kept)


def random_demands(rng, n, count):
    dems = []
    for _ in range(count):
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u != v:
            dems.append((u, v, random_rational(rng)))
    if not dems:
        dems.append((1, n, Fraction(1)))
    return dems


def random_instance(rng, kind: str, n: int) -> SparsestCutInstance:
    if kind == "series-parallel":
        edges = series_parallel_edges(rng, n)
    elif kind == "tw3":
        edges = partial_three_tree_edges(rng, max(n, 5))
        n = max(n, 5)
    else:
        raise ValueError(kind)
    supply = [(u, v, random_rational(rng)) for u, v in edges]
    demand = random_demands(rng, n, rng.randint(2, 6))
    return SparsestCutInstance.build(range(1, n + 1), supply, demand)


def acceptance_corpus(seed: int = 0, count: int = 100):
    """The approximation-guarantee corpus: series-parallel and treewidth-3
    instances, n <= 10, random rational weights."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        kind = "series-parallel" if i % 5 < 3 else "tw3"
        n = rng.randint(4, 10)
        out.append(random_instance(rng, kind, n))
    return out
