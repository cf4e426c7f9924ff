"""Propagation rounding, its derandomization, and the sampled embedding.

Sampling walks the balanced decomposition top-down, drawing each bag's
assignment from the solution's conditional distribution given the parent
assignment.  The derandomization fixes bag assignments greedily to keep
the conditional potential

    W = (capacity cut)/lp_star - 2 (demand cut)/alpha

nonpositive; every conditional expectation is evaluated as an exact Fraction,
so greedy comparisons can never be flipped by roundoff.  Each candidate's
E[W] is summed as one integer numerator over a running denominator.  A
pair's endpoints are independent given V_g, g where their least bags' root
paths meet; until g is fixed, the lowest fixed bag above g conditions both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .decomposition import TreeDecomposition, least_bags
from .errors import BudgetError, InputError, InvariantError
from .instance import Cut, SparsestCutInstance
from .relaxation import SaSolution, subset_from_mask

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
    """Draws cuts from the propagation distribution of an LP solution."""

    def __init__(self, solution: SaSolution, dec: TreeDecomposition):
        self.solution = solution
        self.dec = dec
        self.parent = dec.parents
        self._choices: dict = {}
        self._blocks = {}
        for a in dec.top_down:
            self._blocks[a] = solution.block_table(dec.unions[a])

    def _conditional(self, a: int, parent_mask_bits: tuple):
        key = (a, parent_mask_bits)
        cached = self._choices.get(key)
        if cached is not None:
            return cached
        elems, table = self._blocks[a]
        b = self.parent[a]
        pelems = self._blocks[b][0] if b is not None else ()
        masks, weights = [], []
        for m, w in _extensions(elems, table, pelems, parent_mask_bits[0]):
            masks.append(m)
            weights.append(float(w))
        if not masks:
            raise InvariantError("conditioning event has probability zero")
        total = sum(weights)
        cum = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cum.append(acc)
        cum[-1] = 1.0
        out = (elems, masks, cum)
        self._choices[key] = out
        return out

    def sample_masks(self, rng: random.Random) -> dict:
        chosen: dict = {}
        for a in self.dec.top_down:
            b = self.parent[a]
            pkey = (chosen[b],) if b is not None else (0,)
            elems, masks, cum = self._conditional(a, pkey)
            r = rng.random()
            lo = 0
            while cum[lo] <= r:
                lo += 1
            chosen[a] = masks[lo]
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
    masks = sampler.sample_masks(random.Random(seed))
    assignments = {a: subset_from_mask(sampler._blocks[a][0], mask) for a, mask in masks.items()}
    return RoundingState(assignments, Cut(frozenset().union(*assignments.values())), seed)


def sample_cut(solution: SaSolution, dec: TreeDecomposition, seed: int = 0) -> Cut:
    """One cut from the propagation distribution; deterministic per seed."""
    return sample_state(solution, dec, seed).cut


# ---------------------------------------------------------------------------
# Derandomization by conditional expectations.
# ---------------------------------------------------------------------------

@dataclass
class DerandPotential:
    lp_star: Fraction
    alpha: Fraction
    trace: list  # conditional E[W] after each greedy fixing; trace[0] is E[W]

    def nonincreasing(self) -> bool:
        return all(b <= a for a, b in zip(self.trace, self.trace[1:]))


class _Derandomizer:
    def __init__(self, instance: SparsestCutInstance, solution: SaSolution,
                 dec: TreeDecomposition, alpha: Fraction, lp_star: Fraction):
        self.sol = solution
        self.dec = dec
        self.unions = dec.unions
        self.least = least_bags(dec, instance.vertices)
        self.paths = dec.paths
        # (u, v, numerator, denominator) of each pair's coefficient in W
        self.pairs = []
        for u, v, w in instance.supply_edges:
            c = Fraction(w) / lp_star
            self.pairs.append((u, v, c.numerator, c.denominator))
        for u, v, w in instance.demand_edges:
            c = Fraction(-2) * Fraction(w) / alpha
            self.pairs.append((u, v, c.numerator, c.denominator))
        # v -> (b(v), v's bit in V_b(v)'s elements)
        self.bit = {v: (b, 1 << self._union_elems(b).index(v)) for v, b in self.least.items()}
        # (u, v) -> (g, deep): g is the bag where the root paths of b(u) and
        # b(v) meet, and deep the deeper of the two when g is one of them
        self.meet = {}
        for u, v, _, _ in self.pairs:
            pu, pv = sorted((self.paths[self.least[u]], self.paths[self.least[v]]), key=len)
            k = len(pu) - 1
            while pu[k] != pv[k]:  # root paths part once, so scan up from the shorter's end
                k -= 1
            self.meet[u, v] = (pu[k], pv[-1] if k == len(pu) - 1 else None)
        self._psep_memo: dict = {}

    # -- helpers ----------------------------------------------------------

    def _lowest_labeled(self, a: int, labels: dict) -> int:
        path, k = self.paths[a], 0
        while path[k] in labels:  # a itself is unlabeled
            k += 1
        return path[k - 1]

    def _union_elems(self, a: int):
        return self.sol.block_table(self.unions[a])[0]

    def _prob_in(self, v, ell: int, ell_mask: int) -> Fraction:
        """P[v in A | assignment of V_ell], via the chain block at b(v)."""
        target = self.unions[ell] | {v}
        q_elems, agg = self.sol.aggregate(self.unions[self.least[v]], target)
        vbit = 1 << q_elems.index(v)
        m = _remap(ell_mask, self._union_elems(ell), q_elems) & ~vbit
        denom = agg[m] + agg[m | vbit]
        if denom == 0:
            raise InvariantError("conditioning event has probability zero")
        return agg[m | vbit] / denom

    def _psep_joint(self, u, v, deep: int, ell: int, ell_mask: int) -> Fraction:
        """P[u, v separated | assignment of V_ell], u and v on deep's root path."""
        target = self.unions[ell] | {u, v}
        q_elems, agg = self.sol.aggregate(self.unions[deep], target)
        ubit, vbit = 1 << q_elems.index(u), 1 << q_elems.index(v)
        m = _remap(ell_mask, self._union_elems(ell), q_elems) & ~(ubit | vbit)
        denom = agg[m] + agg[m | ubit] + agg[m | vbit] + agg[m | ubit | vbit]
        if denom == 0:
            raise InvariantError("conditioning event has probability zero")
        return (agg[m | ubit] + agg[m | vbit]) / denom

    def _cached(self, fn, *args) -> Fraction:
        key = (fn.__name__, *args)
        hit = self._psep_memo.get(key)
        if hit is None:
            hit = self._psep_memo[key] = fn(*args)
        return hit

    # -- separation probabilities ------------------------------------------

    def _prob(self, v, labels: dict):
        """P[v in A | labels]; v's bit once b(v) is labeled."""
        b, bit = self.bit[v]
        if b in labels:
            return 1 if labels[b] & bit else 0
        ell = self._lowest_labeled(b, labels)
        return self._cached(self._prob_in, v, ell, labels[ell])

    def psep(self, u, v, labels: dict):
        """P[u, v separated | labels].  Given V_g, u and v are independent;
        while g is unlabeled, the lowest labeled bag above it conditions."""
        g, deep = self.meet[u, v]
        if g not in labels:
            ell = self._lowest_labeled(g, labels)
            if deep is None:
                return self._cached(self._psep_via_lca, u, v, g, ell, labels[ell])
            return self._cached(self._psep_joint, u, v, deep, ell, labels[ell])
        pu, pv = self._prob(u, labels), self._prob(v, labels)
        if pv in (0, 1):  # a fixed endpoint
            pu, pv = pv, pu
        if pu in (0, 1):
            return 1 - pv if pu else pv
        return pu * (1 - pv) + (1 - pu) * pv

    def _psep_via_lca(self, u, v, anc: int, ell: int, ell_mask: int) -> Fraction:
        a_elems, a_table = self.sol.block_table(self.unions[anc])
        total = Fraction(0)
        acc = Fraction(0)
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
            elems, table = self.sol.block_table(self.unions[a])
            parent = self.dec.parents[a]
            pelems = self._union_elems(parent) if parent is not None else ()
            best_mask = None
            best_val = None
            weighted = Fraction(0)
            weight_total = Fraction(0)
            for m, w in _extensions(elems, table, pelems, labels.get(parent, 0)):
                trial = dict(labels)
                trial[a] = m
                val = self.expected_w(trial)
                weighted += w * val
                weight_total += w
                if best_val is None or val < best_val or (val == best_val and m < best_mask):
                    best_val, best_mask = val, m
            if best_mask is None:
                raise InvariantError("no extension with positive probability")
            if parent is None:
                trace.append(weighted / weight_total)
            labels[a] = best_mask
            trace.append(best_val)
        side = frozenset().union(*(subset_from_mask(self._union_elems(a), mask)
                                   for a, mask in labels.items()))
        return Cut(side), trace


def derandomize(instance: SparsestCutInstance, solution: SaSolution,
                dec: TreeDecomposition, alpha, lp_star):
    """Deterministic cut with sparsity at most 2*lp_star/alpha.

    lp_star is the solution's capacity value.  Returns (cut,
    DerandPotential); the potential trace is exact and ends at the
    realized W of the output cut.
    """
    alpha = Fraction(alpha)
    lp_star = Fraction(lp_star)
    if lp_star <= 0:
        # Zero LP capacity: any cut that separates demand is free; sample one.
        return sample_cut(solution, dec, 0), DerandPotential(lp_star, alpha, [])
    der = _Derandomizer(instance, solution, dec, alpha, lp_star)
    cut, trace = der.run()
    return cut, DerandPotential(lp_star, alpha, trace)


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
        bit = 1 << sampler._blocks[a][0].index(v)
        membership[v] = int("".join("1" if m & bit else "0" for m in reversed(drawn[a])), 2)
    return Embedding(vertices, num_samples, membership)
