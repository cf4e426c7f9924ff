import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from treecut.decomposition import TreeDecomposition, balance, exact_decomposition
from treecut.errors import InputError
from treecut.generators import MaxCutInstance, building_block
from treecut.instance import SparsestCutInstance, evaluate_cut
from treecut.oracle import exact_sparsest_cut
from treecut.relaxation import SaSolution, ratio_search
from treecut.rounding import (PropagationSampler, derandomize, embed_l1, sample_cut)
from treecut import simplex

from _lp_fixtures import build_distortion_lp, y_value


def solved_block(H=None):
    inst, dec = building_block(H or MaxCutInstance.complete(3), include_st_demand=True)
    dec = balance(dec)
    rs = ratio_search(inst, dec)
    return inst, dec, rs


def path_metric_solution():
    """A genuinely fractional solution: the path metric as cut probabilities."""
    verts = [1, 2, 3, 4]
    inst = SparsestCutInstance.build(
        verts, [(1, 2, 1), (2, 3, 1), (3, 4, 1)],
        [(1, 4, 1)])
    metric = {(u, v): Fraction(abs(u - v), 3) for u, v in itertools.combinations(verts, 2)}
    prog = build_distortion_lp(verts, metric, 1, Fraction(1), r=4)
    res = simplex.solve(prog)
    assert res.optimal
    sol = SaSolution.read(prog, res.values)
    dec = TreeDecomposition.build([{1, 2}, {2, 3}, {3, 4}], [(0, 1), (1, 2)])
    return inst, dec, sol, metric


def test_integral_solution_same_cut_every_seed():
    inst, dec, rs = solved_block()
    cuts = {sample_cut(rs.solution, dec, seed=s) for s in range(8)}
    assert len(cuts) == 1  # the LP optimum here is integral
    assert evaluate_cut(inst, next(iter(cuts))).ratio == rs.ratio


def test_seed_determinism():
    inst, dec, sol, _ = path_metric_solution()
    a = sample_cut(sol, dec, seed=13)
    b = sample_cut(sol, dec, seed=13)
    c = sample_cut(sol, dec, seed=14)
    assert a == b
    sampler = PropagationSampler(sol, dec)
    r1 = [sampler.sample_masks(random.Random(5)) for _ in range(4)]
    r2 = [sampler.sample_masks(random.Random(5)) for _ in range(4)]
    assert r1 == r2


def test_fractional_marginals_match_lemma_bounds():
    inst, dec, sol, metric = path_metric_solution()
    n = 20000
    # the embedding's distances are the sampled cuts' separation frequencies
    emb = embed_l1(sol, dec, n, seed=0)
    for (u, v), d in metric.items():
        y = float(d)  # the distortion LP pins y_uv = d(u,v)
        emp = float(emb.distance(u, v))
        sigma = math.sqrt(y * (1 - y) / n)
        if (u, v) in {(1, 2), (2, 3), (3, 4)}:  # supply edges: exact marginal
            assert abs(emp - y) <= 4 * sigma + 1e-9
        assert emp >= y / 2 - 4 * sigma - 1e-9
        assert emp <= y + 4 * sigma + 1e-9


def test_bag_marginals_track_block_values():
    inst, dec, sol, _ = path_metric_solution()
    sampler = PropagationSampler(sol, dec)
    rng = random.Random(1)
    n = 20000
    counts = [dict() for _ in range(dec.n_bags)]
    for _ in range(n):
        masks = sampler.sample_masks(rng)
        for a, m in masks.items():
            counts[a][m] = counts[a].get(m, 0) + 1
    for a in range(dec.n_bags):
        elems, table = sol.block_table(dec.unions[a])
        tv = sum(abs(counts[a].get(m, 0) / n - float(table[m]))
                 for m in range(1 << len(elems))) / 2
        assert tv <= 0.02


def test_derandomized_cut_within_factor_two():
    rng = random.Random(23)
    for trial in range(12):
        n = rng.randint(3, 8)
        sup = [(rng.randint(1, v - 1), v, Fraction(rng.randint(1, 6), rng.randint(1, 4)))
               for v in range(2, n + 1)]
        dem = []
        for _ in range(rng.randint(1, 4)):
            u, v = rng.randint(1, n), rng.randint(1, n)
            if u != v:
                dem.append((u, v, Fraction(rng.randint(1, 5), rng.randint(1, 3))))
        if not dem:
            dem = [(1, n, 1)]
        inst = SparsestCutInstance.build(range(1, n + 1), sup, dem)
        dec = balance(exact_decomposition(inst))
        rs = ratio_search(inst, dec)
        cut, pot = derandomize(inst, rs.solution, dec, rs.alpha, rs.lp_value)
        sp = evaluate_cut(inst, cut)
        assert sp.ratio is not None and sp.ratio <= 2 * rs.ratio
        assert pot.nonincreasing()
        assert pot.trace[-1] <= 0
        _, phi = exact_sparsest_cut(inst)
        assert rs.ratio <= phi.ratio


def test_derandomize_on_fractional_solution():
    inst, dec, sol, _ = path_metric_solution()
    alpha = y_value(sol, 1, 4)
    lp_star = sum(Fraction(w) * y_value(sol, u, v) for u, v, w in inst.supply_edges)
    cut, pot = derandomize(inst, sol, dec, alpha, lp_star)
    sp = evaluate_cut(inst, cut)
    assert pot.trace[0] <= 0
    assert pot.nonincreasing()
    assert sp.ratio is not None and sp.ratio <= 2 * lp_star / alpha


def test_derandomize_integral_matches_sample():
    inst, dec, rs = solved_block()
    cut, _ = derandomize(inst, rs.solution, dec, rs.alpha, rs.lp_value)
    assert cut == sample_cut(rs.solution, dec, seed=0)


def test_embedding_integral_two_points():
    inst, dec, rs = solved_block()
    emb = embed_l1(rs.solution, dec, 64, seed=0)
    for u, v in itertools.combinations(inst.vertices, 2):
        assert emb.distance(u, v) in (Fraction(0), Fraction(1))


def test_embedding_distortion_versus_target():
    inst, dec, sol, metric = path_metric_solution()
    emb = embed_l1(sol, dec, 40000, seed=2)
    expansion = contraction = Fraction(1)
    for (u, v), d in metric.items():
        dist = emb.distance(u, v)
        expansion = max(expansion, Fraction(dist) / d)
        contraction = max(contraction, d / Fraction(dist))
    # guarantee: separation in [y/2, y] with y = d, so distortion <= 2(1+eps)
    assert float(expansion * contraction) <= 2 * 1.05


def test_embedding_rejects_zero_samples():
    inst, dec, rs = solved_block()
    with pytest.raises(InputError):
        embed_l1(rs.solution, dec, 0)


def test_embedding_csv_shape():
    inst, dec, rs = solved_block()
    emb = embed_l1(rs.solution, dec, 8, seed=0)
    lines = emb.to_csv().strip().split("\n")
    assert len(lines) == 1 + len(inst.vertices)
    assert lines[0].count(",") == 8


# sha256 of the CSV of 1000 samples (seed 5) of the path-metric solution,
# whose sampled cuts differ, recorded while embed_l1 still built a vertex
# set per sample.
PATH_METRIC_EMBED_DIGEST = "88922fef3c5dda894fc201f570a31cb759d156f1c8dc0549c4437c0b3437e85f"


def test_embedding_csv_matches_recorded_digest():
    inst, dec, sol, _ = path_metric_solution()
    csv = embed_l1(sol, dec, 1000, seed=5).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == PATH_METRIC_EMBED_DIGEST


def test_rounding_state_extension_invariant():
    from treecut.rounding import sample_state
    inst, dec, sol, _ = path_metric_solution()
    for seed in range(6):
        state = sample_state(sol, dec, seed)
        assert state.check_extension(dec)
        assert state.cut.side_a == frozenset().union(*state.assignments.values())
