"""Propagation rounding, its derandomization, and the sampled embedding.

Sampling walks the balanced decomposition top-down, drawing each bag's
assignment from the solution's conditional distribution given the parent
assignment.  The derandomization fixes bag assignments greedily to keep
the conditional potential

    W = (capacity cut)/lp_star - 2 (demand cut)/alpha

nonpositive; every conditional expectation is evaluated as an exact Fraction,
so greedy comparisons can never be flipped by roundoff.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .decomposition import TreeDecomposition, least_bags, root_path_unions
from .errors import InputError, InvariantError
from .instance import Cut, SparsestCutInstance
from .relaxation import SaSolution


def _bag_order(dec: TreeDecomposition) -> list:
    return sorted(range(dec.n_bags), key=lambda i: (dec.depths[i], i))


def _ancestor_path(dec: TreeDecomposition, a: int) -> list:
    """Bag indices from the root down to a, inclusive."""
    path = [a]
    while dec.parents[path[-1]] is not None:
        path.append(dec.parents[path[-1]])
    path.reverse()
    return path


class PropagationSampler:
    """Draws cuts from the propagation distribution of an LP solution."""

    def __init__(self, solution: SaSolution, dec: TreeDecomposition):
        self.solution = solution
        self.dec = dec
        self.unions = root_path_unions(dec)
        self.order = _bag_order(dec)
        self.parent = dec.parents
        self._choices: dict = {}
        self._blocks = {}
        for a in self.order:
            self._blocks[a] = solution.block_table(self.unions[a].union_set)

    def _conditional(self, a: int, parent_mask_bits: tuple):
        key = (a, parent_mask_bits)
        cached = self._choices.get(key)
        if cached is not None:
            return cached
        elems, table = self._blocks[a]
        b = self.parent[a]
        if b is None:
            fixed, free = 0, list(range(len(elems)))
        else:
            pelems, _ = self._blocks[b]
            ppos = {v: elems.index(v) for v in pelems}
            fixed = 0
            for bit, v in enumerate(pelems):
                if (parent_mask_bits[0] >> bit) & 1:
                    fixed |= 1 << ppos[v]
            free = [i for i, v in enumerate(elems) if v not in ppos]
        masks, weights = [], []
        for fm in range(1 << len(free)):
            m = fixed
            for bit, p in enumerate(free):
                if (fm >> bit) & 1:
                    m |= 1 << p
            w = table[m]
            if w > 0:
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
        for a in self.order:
            b = self.parent[a]
            pkey = (chosen[b],) if b is not None else (0,)
            elems, masks, cum = self._conditional(a, pkey)
            r = rng.random()
            lo = 0
            while cum[lo] <= r:
                lo += 1
            chosen[a] = masks[lo]
        return chosen

    def sample(self, rng: random.Random) -> frozenset:
        chosen = self.sample_masks(rng)
        side = set()
        for a, mask in chosen.items():
            elems, _ = self._blocks[a]
            for bit, v in enumerate(elems):
                if (mask >> bit) & 1:
                    side.add(v)
        return frozenset(side)


@dataclass(frozen=True)
class RoundingState:
    """One propagation walk: per-bag assignments, their union, the seed."""

    assignments: dict  # bag index -> frozenset of chosen vertices (A_a)
    cut: Cut
    seed: int

    def check_extension(self, dec: TreeDecomposition) -> bool:
        """Each child assignment must extend its parent on the shared union."""
        unions = root_path_unions(dec)
        for a, chosen in self.assignments.items():
            b = dec.parents[a]
            if b is None:
                continue
            if chosen & unions[b].union_set != self.assignments[b]:
                return False
        return True


def sample_state(solution: SaSolution, dec: TreeDecomposition, seed: int = 0) -> RoundingState:
    """One full propagation walk with its per-bag assignments kept."""
    sampler = PropagationSampler(solution, dec)
    masks = sampler.sample_masks(random.Random(seed))
    assignments = {}
    side = set()
    for a, mask in masks.items():
        elems, _ = sampler._blocks[a]
        chosen = frozenset(v for bit, v in enumerate(elems) if (mask >> bit) & 1)
        assignments[a] = chosen
        side |= chosen
    return RoundingState(assignments, Cut(frozenset(side)), seed)


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
        self.inst = instance
        self.sol = solution
        self.dec = dec
        self.unions = root_path_unions(dec)
        self.order = _bag_order(dec)
        self.least = least_bags(dec, instance.vertices)
        self.paths = {a: _ancestor_path(dec, a) for a in range(dec.n_bags)}
        self.pairs = []
        for u, v, w in instance.supply_edges:
            self.pairs.append((u, v, Fraction(w) / lp_star))
        for u, v, w in instance.demand_edges:
            self.pairs.append((u, v, Fraction(-2) * Fraction(w) / alpha))
        self.labels: dict = {}  # bag -> chosen mask over its union tuple
        self._psep_memo: dict = {}

    # -- helpers ----------------------------------------------------------

    def _lca(self, a: int, b: int) -> int:
        pa, pb = self.paths[a], self.paths[b]
        top = None
        for x, y in zip(pa, pb):
            if x == y:
                top = x
            else:
                break
        return top

    def _lowest_labeled(self, a: int, labels: dict) -> Optional[int]:
        low = None
        for node in self.paths[a]:
            if node in labels:
                low = node
            else:
                break
        return low

    def _union_elems(self, a: int):
        return self.sol.block_table(self.unions[a].union_set)[0]

    def _prob_in(self, v, ell: int, ell_mask: int) -> Fraction:
        """P[v in A | assignment of V_ell], via the chain block at b(v)."""
        bv = self.least[v]
        ell_elems = self._union_elems(ell)
        at = {e: i for i, e in enumerate(ell_elems)}
        target = self.unions[ell].union_set | {v}
        q_elems, agg = self.sol.aggregate(self.unions[bv].union_set, target)
        vbit = 1 << q_elems.index(v)
        m = 0
        for i, e in enumerate(q_elems):
            if e != v and (ell_mask >> at[e]) & 1:
                m |= 1 << i
        denom = agg[m] + agg[m | vbit]
        if denom == 0:
            raise InvariantError("conditioning event has probability zero")
        return agg[m | vbit] / denom

    # -- separation probabilities ------------------------------------------

    def psep(self, u, v, labels: dict) -> Fraction:
        bu, bv = self.least[u], self.least[v]
        lab_u = bu in labels
        lab_v = bv in labels
        if lab_u and lab_v:
            au = self._vertex_value(u, labels)
            av = self._vertex_value(v, labels)
            return Fraction(1) if au != av else Fraction(0)
        if lab_u or lab_v:
            if lab_v:
                u, v, bu, bv = v, u, bv, bu
            ell = self._lowest_labeled(bv, labels)
            key = ("one", v, ell, labels[ell])
            hit = self._psep_memo.get(key)
            if hit is None:
                hit = (self._prob_in(v, ell, labels[ell]),)
                self._psep_memo[key] = hit
            p = hit[0]
            return (1 - p) if self._vertex_value(u, labels) else p
        # both unlabeled
        if self._on_common_path(bu, bv):
            deep = bv if len(self.paths[bv]) >= len(self.paths[bu]) else bu
            ell = self._lowest_labeled(deep, labels)
            key = ("joint", u, v, ell, labels[ell])
            hit = self._psep_memo.get(key)
            if hit is None:
                ell_elems = self._union_elems(ell)
                at = {e: i for i, e in enumerate(ell_elems)}
                target = self.unions[ell].union_set | {u, v}
                q_elems, agg = self.sol.aggregate(self.unions[deep].union_set, target)
                ubit, vbit = 1 << q_elems.index(u), 1 << q_elems.index(v)
                m = 0
                for i, e in enumerate(q_elems):
                    if e != u and e != v and (labels[ell] >> at[e]) & 1:
                        m |= 1 << i
                denom = agg[m] + agg[m | ubit] + agg[m | vbit] + agg[m | ubit | vbit]
                if denom == 0:
                    raise InvariantError("conditioning event has probability zero")
                hit = ((agg[m | ubit] + agg[m | vbit]) / denom,)
                self._psep_memo[key] = hit
            return hit[0]
        anc = self._lca(bu, bv)
        if anc in labels:
            pu = self._prob_memo(u, labels)
            pv = self._prob_memo(v, labels)
            return pu * (1 - pv) + (1 - pu) * pv
        # lca unlabeled: condition on the full assignment of V_anc
        ell = self._lowest_labeled(anc, labels)
        key = ("lca", u, v, anc, ell, labels[ell])
        hit = self._psep_memo.get(key)
        if hit is None:
            hit = (self._psep_via_lca(u, v, anc, ell, labels[ell]),)
            self._psep_memo[key] = hit
        return hit[0]

    def _psep_via_lca(self, u, v, anc: int, ell: int, ell_mask: int) -> Fraction:
        a_elems, a_table = self.sol.block_table(self.unions[anc].union_set)
        ell_elems = self._union_elems(ell)
        apos = {e: i for i, e in enumerate(a_elems)}
        fixed = 0
        for bit, e in enumerate(ell_elems):
            if (ell_mask >> bit) & 1:
                fixed |= 1 << apos[e]
        inside = sum(1 << apos[e] for e in ell_elems)
        free = [i for i in range(len(a_elems)) if not (inside >> i) & 1]
        total = Fraction(0)
        acc = Fraction(0)
        for fm in range(1 << len(free)):
            m = fixed
            for bit, p in enumerate(free):
                if (fm >> bit) & 1:
                    m |= 1 << p
            w = a_table[m]
            if w == 0:
                continue
            total += w
            pu = self._prob_in(u, anc, m)
            pv = self._prob_in(v, anc, m)
            acc += w * (pu * (1 - pv) + (1 - pu) * pv)
        if total == 0:
            raise InvariantError("conditioning event has probability zero")
        return acc / total

    def _prob_memo(self, v, labels: dict) -> Fraction:
        ell = self._lowest_labeled(self.least[v], labels)
        key = ("in", v, ell, labels[ell])
        hit = self._psep_memo.get(key)
        if hit is None:
            hit = (self._prob_in(v, ell, labels[ell]),)
            self._psep_memo[key] = hit
        return hit[0]

    def _on_common_path(self, bu: int, bv: int) -> bool:
        pa, pb = self.paths[bu], self.paths[bv]
        shorter, longer = (pa, pb) if len(pa) <= len(pb) else (pb, pa)
        return longer[:len(shorter)] == shorter

    def _vertex_value(self, v, labels: dict) -> bool:
        b = self.least[v]
        elems = self._union_elems(b)
        return bool((labels[b] >> elems.index(v)) & 1)

    # -- greedy -----------------------------------------------------------

    def expected_w(self, labels: dict) -> Fraction:
        return sum((c * self.psep(u, v, labels) for u, v, c in self.pairs), Fraction(0))

    def run(self):
        trace = []
        labels: dict = {}
        unconditional = None
        for a in self.order:
            elems, table = self.sol.block_table(self.unions[a].union_set)
            parent = self.dec.parents[a]
            if parent is None:
                fixed, free = 0, list(range(len(elems)))
            else:
                pelems = self._union_elems(parent)
                pmask = labels[parent]
                fixed = self._expand(pelems, pmask, elems)
                inside = {v for v in pelems}
                free = [i for i, v in enumerate(elems) if v not in inside]
            best_mask = None
            best_val = None
            weighted = Fraction(0)
            weight_total = Fraction(0)
            for fm in range(1 << len(free)):
                m = fixed
                for bit, p in enumerate(free):
                    if (fm >> bit) & 1:
                        m |= 1 << p
                w = table[m]
                if w == 0:
                    continue
                trial = dict(labels)
                trial[a] = m
                val = self.expected_w(trial)
                weighted += w * val
                weight_total += w
                if best_val is None or val < best_val or (val == best_val and m < best_mask):
                    best_val, best_mask = val, m
            if best_mask is None:
                raise InvariantError("no extension with positive probability")
            if parent is None and unconditional is None:
                unconditional = weighted / weight_total
                trace.append(unconditional)
            labels[a] = best_mask
            trace.append(best_val)
        side = set()
        for a, mask in labels.items():
            elems = self._union_elems(a)
            for bit, v in enumerate(elems):
                if (mask >> bit) & 1:
                    side.add(v)
        return Cut(frozenset(side)), trace

    def _expand(self, from_elems, mask: int, to_elems) -> int:
        at = {v: i for i, v in enumerate(from_elems)}
        m = 0
        for i, v in enumerate(to_elems):
            if v in at and (mask >> at[v]) & 1:
                m |= 1 << i
        return m


def derandomize(instance: SparsestCutInstance, solution: SaSolution,
                dec: TreeDecomposition, alpha, lp_star=None):
    """Deterministic cut with sparsity at most 2*lp_star/alpha.

    lp_star defaults to the solution's own capacity value.  Returns
    (cut, DerandPotential); the potential trace is exact and ends at the
    realized W of the output cut.
    """
    alpha = Fraction(alpha)
    if lp_star is None:
        lp_star = sum((Fraction(w) * solution.y_value(u, v)
                       for u, v, w in instance.supply_edges), Fraction(0))
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

    def coordinates(self, v) -> list:
        m = self.membership[v]
        unit = Fraction(1, self.num_samples)
        return [unit if (m >> j) & 1 else Fraction(0) for j in range(self.num_samples)]

    def to_csv(self) -> str:
        lines = ["vertex," + ",".join(f"c{j}" for j in range(self.num_samples))]
        unit = 1.0 / self.num_samples
        for v in self.vertices:
            m = self.membership[v]
            row = ",".join(str(unit) if (m >> j) & 1 else "0"
                           for j in range(self.num_samples))
            lines.append(f"{v},{row}")
        return "\n".join(lines) + "\n"


def embed_l1(solution: SaSolution, dec: TreeDecomposition, num_samples: int,
             seed: int = 0) -> Embedding:
    """Concatenate sampled cut indicators into a scaled 0/1 embedding.

    Coordinate j of f(u) is [u in A_j]/num_samples; distances are exact
    separation frequencies.
    """
    if num_samples <= 0:
        raise InputError("num_samples must be positive")
    sampler = PropagationSampler(solution, dec)
    rng = random.Random(seed)
    vertices = tuple(sorted(solution.family.order,
                            key=solution.family.pos.__getitem__))
    membership = {v: 0 for v in vertices}
    for j in range(num_samples):
        side = sampler.sample(rng)
        for v in side:
            membership[v] |= 1 << j
    return Embedding(vertices, num_samples, membership)
