"""Propagation rounding, its derandomization, and the sampled embedding.

Sampling walks the balanced decomposition top-down, drawing each bag's
assignment from the solution's conditional distribution given the parent
assignment; a draw is placed by integer comparison with the cumulative
weights, so it is exact at interval boundaries too.  The derandomization
walks the same cached conditionals, fixing bag assignments greedily to keep
the conditional potential

    W = (capacity cut)/lp_star - 2 (demand cut)/alpha

nonpositive; at lp_star 0 the capacity term is dropped, since no cut the
walk reaches cuts an edge of positive capacity, and E[W] <= -1 then forces
a cut that separates demand.  Every conditional expectation is evaluated as
an exact Fraction, so greedy comparisons can never be flipped by roundoff.
Each candidate's E[W] is summed as one integer numerator over a running
denominator; a bag whose parent's assignment leaves it one extension is
fixed unpriced, as E[W] cannot move.  A pair's endpoints are independent
given V_g, g where their least bags' root paths meet; until g is fixed, the
sum runs over V_g's extensions of the deepest fixed bag above g.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd

from .decomposition import TreeDecomposition, least_bags
from .errors import BudgetError, InputError, InvariantError
from .instance import Cut, SparsestCutInstance
from .relaxation import SaSolution, numerators, subset_from_mask

EMBED_SAMPLE_BUDGET = 100_000  # samples in one embedding


def _remap(mask: int, from_elems, to_elems) -> int:
    """mask over from_elems re-indexed onto to_elems; an element of
    to_elems missing from from_elems gets a 0 bit."""
    at = {v: i for i, v in enumerate(from_elems)}
    m = 0
    for i, v in enumerate(to_elems):
        if v in at and (mask >> at[v]) & 1:
            m |= 1 << i
    return m


def _extensions(elems, table, sub_elems, sub_mask: int):
    """(mask, weight) for each positive-weight assignment of elems that
    agrees with sub_mask on sub_elems, a subset of elems.

    Free bits are enumerated in increasing order, so every caller sees the
    same order and the exact tie-breaks that depend on it.
    """
    fixed = _remap(sub_mask, sub_elems, elems)
    inside = set(sub_elems)
    free = [i for i, v in enumerate(elems) if v not in inside]
    for fm in range(1 << len(free)):
        m = fixed
        for bit, p in enumerate(free):
            if (fm >> bit) & 1:
                m |= 1 << p
        w = table[m]
        if w > 0:
            yield m, w


class PropagationSampler:
    """Draws cuts from the propagation distribution of an LP solution.

    Bag a's conditional given its parent's assignment is cached per
    (a, parent mask); the derandomizer reads the same conditionals."""

    def __init__(self, solution: SaSolution, dec: TreeDecomposition):
        self.dec = dec
        self.parent = dec.parents
        self._choices: dict = {}
        self.blocks = {a: solution.block_table(dec.unions[a]) for a in dec.top_down}

    def conditional(self, a: int, parent_mask: int):
        """(masks, weights, bounds, total) for bag a given its parent's mask
        (0 at the root): the positive-weight extensions in `_extensions`'
        order, their weights as integers over one denominator, the
        cumulative weights times 2^53, and the weights' sum."""
        key = (a, parent_mask)
        cached = self._choices.get(key)
        if cached is not None:
            return cached
        elems, table = self.blocks[a]
        b = self.parent[a]
        pelems = self.blocks[b][0] if b is not None else ()
        pairs = list(_extensions(elems, table, pelems, parent_mask))
        if not pairs:
            raise InvariantError("conditioning event has probability zero")
        masks, weights = zip(*pairs)
        _, nums = numerators(weights)
        out = (masks, nums, list(accumulate(n << 53 for n in nums)), sum(nums))
        self._choices[key] = out
        return out

    def assignments(self, masks: dict) -> dict:
        """bag -> the vertices its mask puts on side A."""
        return {a: subset_from_mask(self.blocks[a][0], m) for a, m in masks.items()}

    def sample_masks(self, rng: random.Random) -> dict:
        """One mask per bag.  A draw r = rng.random() is exactly k / 2^53,
        so mask i is drawn for the first cumulative weight above r * total,
        compared in integers."""
        chosen: dict = {}
        for a in self.dec.top_down:
            b = self.parent[a]
            masks, _, bounds, total = self.conditional(a, chosen[b] if b is not None else 0)
            chosen[a] = masks[bisect_right(bounds, int(rng.random() * 2**53) * total)]
        return chosen


@dataclass(frozen=True)
class RoundingState:
    """One propagation walk: per-bag assignments, their union, the seed."""

    assignments: dict  # bag index -> frozenset of chosen vertices (A_a)
    cut: Cut
    seed: int

    def check_extension(self, dec: TreeDecomposition) -> bool:
        """Each child assignment must extend its parent on the shared union."""
        for a, chosen in self.assignments.items():
            b = dec.parents[a]
            if b is None:
                continue
            if chosen & dec.unions[b] != self.assignments[b]:
                return False
        return True


def sample_state(solution: SaSolution, dec: TreeDecomposition, seed: int = 0) -> RoundingState:
    """One full propagation walk with its per-bag assignments kept."""
    sampler = PropagationSampler(solution, dec)
    assignments = sampler.assignments(sampler.sample_masks(random.Random(seed)))
    return RoundingState(assignments, Cut(frozenset().union(*assignments.values())), seed)


def sample_cut(solution: SaSolution, dec: TreeDecomposition, seed: int = 0) -> Cut:
    """One cut from the propagation distribution; deterministic per seed."""
    return sample_state(solution, dec, seed).cut


# ---------------------------------------------------------------------------
# Derandomization by conditional expectations.
# ---------------------------------------------------------------------------

@dataclass
class DerandPotential:
    trace: list  # conditional E[W] after each greedy fixing; trace[0] is E[W]

    def nonincreasing(self) -> bool:
        return all(b <= a for a, b in zip(self.trace, self.trace[1:]))


class _Derandomizer:
    def __init__(self, instance: SparsestCutInstance, solution: SaSolution,
                 dec: TreeDecomposition, alpha: Fraction, lp_star: Fraction):
        self.sol = solution
        self.sampler = PropagationSampler(solution, dec)
        self.dec = dec
        self.unions = dec.unions
        self.least = least_bags(dec, instance.vertices)
        self.paths = dec.paths
        # (u, v, numerator, denominator) of each pair's coefficient in W.  At
        # lp_star 0 every positive-capacity edge has y = 0, so no cut the walk
        # reaches cuts one, and W = -2 (demand cut)/alpha exactly.
        self.pairs = []
        for u, v, w in (instance.supply_edges if lp_star else ()):
            c = Fraction(w) / lp_star
            self.pairs.append((u, v, c.numerator, c.denominator))
        for u, v, w in instance.demand_edges:
            c = Fraction(-2) * Fraction(w) / alpha
            self.pairs.append((u, v, c.numerator, c.denominator))
        # (u, v) -> g, the bag where the root paths of b(u) and b(v) meet
        self.meet = {}
        for u, v, _, _ in self.pairs:
            pu, pv = self.paths[self.least[u]], self.paths[self.least[v]]
            k = min(len(pu), len(pv)) - 1
            while pu[k] != pv[k]:  # root paths part once, so scan up from the shorter's end
                k -= 1
            self.meet[u, v] = pu[k]
        self._psep_memo: dict = {}

    # -- helpers ----------------------------------------------------------

    def _lowest_labeled(self, a: int, labels: dict) -> int:
        """The deepest labeled bag on a's root path, a itself included."""
        path, k = self.paths[a], 0
        while k < len(path) and path[k] in labels:
            k += 1
        return path[k - 1]

    def _union_elems(self, a: int):
        return self.sampler.blocks[a][0]

    def _prob_in(self, v, ell: int, ell_mask: int):
        """P[v in A | assignment of V_ell]: v's bit when v is in V_ell, else
        via the chain block at b(v)."""
        if v in self.unions[ell]:
            return (ell_mask >> self._union_elems(ell).index(v)) & 1
        target = self.unions[ell] | {v}
        q_elems, agg = self.sol.aggregate(self.unions[self.least[v]], target)
        vbit = 1 << q_elems.index(v)
        m = _remap(ell_mask, self._union_elems(ell), q_elems) & ~vbit
        denom = agg[m] + agg[m | vbit]
        if denom == 0:
            raise InvariantError("conditioning event has probability zero")
        return agg[m | vbit] / denom

    def _cached(self, fn, *args) -> Fraction:
        key = (fn.__name__, *args)
        hit = self._psep_memo.get(key)
        if hit is None:
            hit = self._psep_memo[key] = fn(*args)
        return hit

    # -- separation probabilities ------------------------------------------

    def _prob(self, v, labels: dict):
        """P[v in A | labels]; v's bit once b(v) is labeled."""
        ell = self._lowest_labeled(self.least[v], labels)
        return self._cached(self._prob_in, v, ell, labels[ell])

    def psep(self, u, v, labels: dict):
        """P[u, v separated | labels].  Given V_g, u and v are independent;
        while g is unlabeled, sum over V_g's extensions of the assignment
        of ell, the deepest labeled bag above g."""
        g = self.meet[u, v]
        ell = self._lowest_labeled(g, labels)
        if ell != g:
            return self._cached(self._psep_via_lca, u, v, g, ell, labels[ell])
        pu, pv = self._prob(u, labels), self._prob(v, labels)
        if pv in (0, 1):  # a fixed endpoint
            pu, pv = pv, pu
        if pu in (0, 1):
            return 1 - pv if pu else pv
        return pu * (1 - pv) + (1 - pu) * pv

    def _psep_via_lca(self, u, v, anc: int, ell: int, ell_mask: int) -> Fraction:
        a_elems, a_table = self.sampler.blocks[anc]
        total = acc = Fraction(0)
        for m, w in _extensions(a_elems, a_table, self._union_elems(ell), ell_mask):
            total += w
            pu = self._prob_in(u, anc, m)
            pv = self._prob_in(v, anc, m)
            acc += w * (pu * (1 - pv) + (1 - pu) * pv)
        if total == 0:
            raise InvariantError("conditioning event has probability zero")
        return acc / total

    # -- greedy -----------------------------------------------------------

    def expected_w(self, labels: dict) -> Fraction:
        """sum of c * psep over the pairs, as one integer numerator over a
        running denominator."""
        num, den = 0, 1
        for u, v, cn, cd in self.pairs:
            p = self.psep(u, v, labels)
            pn = p.numerator
            if pn:
                d = cd * p.denominator
                if den % d:
                    grow = d // gcd(den, d)
                    num, den = num * grow, den * grow
                num += cn * pn * (den // d)
        return Fraction(num, den)

    def run(self):
        trace = []
        labels: dict = {}
        for a in self.dec.top_down:
            parent = self.dec.parents[a]
            masks, weights, _, total = self.sampler.conditional(a, labels.get(parent, 0))
            if parent is not None and len(masks) == 1:
                # a forced bag: its one extension has conditional probability 1
                labels[a] = masks[0]
                trace.append(trace[-1])
                continue
            best_mask = best_val = None
            weighted = 0
            for m, w in zip(masks, weights):
                trial = dict(labels)
                trial[a] = m
                val = self.expected_w(trial)
                weighted += w * val
                if best_val is None or val < best_val or (val == best_val and m < best_mask):
                    best_val, best_mask = val, m
            if parent is None:
                trace.append(weighted / total)
            labels[a] = best_mask
            trace.append(best_val)
        side = frozenset().union(*self.sampler.assignments(labels).values())
        return Cut(side), trace


def derandomize(instance: SparsestCutInstance, solution: SaSolution,
                dec: TreeDecomposition, alpha, lp_star):
    """Deterministic cut with sparsity at most 2*lp_star/alpha.

    lp_star is the solution's capacity value.  Returns (cut,
    DerandPotential); the potential trace is exact and ends at the
    realized W of the output cut.
    """
    cut, trace = _Derandomizer(instance, solution, dec, Fraction(alpha), Fraction(lp_star)).run()
    return cut, DerandPotential(trace)


# ---------------------------------------------------------------------------
# Monte-Carlo cut embedding.
# ---------------------------------------------------------------------------

@dataclass
class Embedding:
    vertices: tuple
    num_samples: int
    membership: dict  # vertex -> int bitmask over samples

    def distance(self, u, v) -> Fraction:
        sep = (self.membership[u] ^ self.membership[v]).bit_count()
        return Fraction(sep, self.num_samples)

    def to_csv(self) -> str:
        lines = ["vertex," + ",".join(f"c{j}" for j in range(self.num_samples))]
        cell = {"0": "0", "1": str(1.0 / self.num_samples)}
        for v in self.vertices:
            bits = format(self.membership[v], f"0{self.num_samples}b")[::-1]  # bit j at j
            lines.append(f"{v}," + ",".join(map(cell.__getitem__, bits)))
        return "\n".join(lines) + "\n"


def check_sample_budget(num_samples: int):
    """Refuse no samples, or more than EMBED_SAMPLE_BUDGET (the CSV has a column each)."""
    if num_samples <= 0:
        raise InputError("num_samples must be positive")
    if num_samples > EMBED_SAMPLE_BUDGET:
        raise BudgetError(f"{num_samples} samples exceed budget {EMBED_SAMPLE_BUDGET}",
                          limit=EMBED_SAMPLE_BUDGET, requested=num_samples)


def embed_l1(solution: SaSolution, dec: TreeDecomposition, num_samples: int,
             seed: int = 0) -> Embedding:
    """Concatenate sampled cut indicators into a scaled 0/1 embedding.

    Coordinate j of f(u) is [u in A_j]/num_samples; distances are exact
    separation frequencies.
    """
    check_sample_budget(num_samples)
    sampler = PropagationSampler(solution, dec)
    rng = random.Random(seed)
    vertices = solution.family.order
    # a child's mask extends its parent's, so v's least bag decides v
    least = least_bags(dec, vertices)
    drawn = {a: [] for a in least.values()}
    for _ in range(num_samples):
        masks = sampler.sample_masks(rng)
        for a, seen in drawn.items():
            seen.append(masks[a])
    membership = {}
    for v, a in least.items():
        bit = 1 << sampler.blocks[a][0].index(v)
        membership[v] = int("".join("1" if m & bit else "0" for m in reversed(drawn[a])), 2)
    return Embedding(vertices, num_samples, membership)
