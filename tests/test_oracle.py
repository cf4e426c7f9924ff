import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treecut import instance as instance_module, oracle
from treecut.cli import main
from treecut.decomposition import balance, exact_decomposition
from treecut.errors import BudgetError, InputError, InvariantError
from treecut.generators import MaxCutInstance, building_block, power
from treecut.instance import Cut, SparsestCutInstance, evaluate_cut, format_instance
from treecut.oracle import (audit_cuts, exact_maxcut, exact_sparsest_cut,
                            sparsest_cut_by_elimination)
from treecut.relaxation import ratio_search

from corpus import acceptance_corpus, random_rational


@dataclass
class Graph:
    vertices: tuple
    edges: tuple


def complete(n):
    return Graph(tuple(range(1, n + 1)),
                 tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


def test_maxcut_small_cliques():
    assert exact_maxcut(complete(2))[1] == 1
    assert exact_maxcut(complete(4))[1] == 4
    assert exact_maxcut(complete(5))[1] == 6


def test_maxcut_path():
    p3 = Graph((1, 2, 3), ((1, 2), (2, 3)))
    side, mc = exact_maxcut(p3)
    assert mc == 2


def test_maxcut_budget():
    with pytest.raises(BudgetError):
        exact_maxcut(complete(27))


def reference_maxcut(graph):
    """Every cut class evaluated edge by edge, the first maximum kept: the
    masks over all vertices but the last, in increasing order."""
    verts = list(graph.vertices)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    pairs = [(index[u], index[v]) for u, v in graph.edges]
    best, best_mask = -1, 0
    for mask in range(1 << max(n - 1, 0)):
        size = 0
        for iu, iv in pairs:
            size += ((mask >> iu) ^ (mask >> iv)) & 1
        if size > best:
            best, best_mask = size, mask
    return {verts[i] for i in range(n) if (best_mask >> i) & 1}, best


def test_maxcut_gray_walk_matches_reference():
    # multigraphs with parallel edges over shuffled labels, connected or not
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 9)
        verts = rng.sample(range(1, 20), n)
        m = rng.randint(0, 3 * n) if n > 1 else 0
        edges = [tuple(rng.sample(verts, 2)) for _ in range(m)]
        graph = Graph(tuple(verts), tuple(edges))
        assert exact_maxcut(graph) == reference_maxcut(graph)


def test_sparsest_cut_single_edge():
    inst = SparsestCutInstance.build([1, 2], [(1, 2, Fraction(3, 7))], [(1, 2, 1)])
    cut, sp = exact_sparsest_cut(inst)
    assert sp.ratio == Fraction(3, 7)


def test_sparsest_cut_exhaustive_agreement():
    # cross-check the Gray-code scan against direct evaluation of all cuts
    sup = [(1, 2, Fraction(1, 2)), (2, 3, 1), (3, 4, Fraction(2, 3)), (1, 4, 1), (2, 4, 1)]
    dem = [(1, 3, 1), (2, 4, Fraction(1, 5)), (1, 4, 2)]
    inst = SparsestCutInstance.build(range(1, 5), sup, dem)
    _, sp = exact_sparsest_cut(inst)
    best = None
    for mask in range(1, 1 << 4):
        side = {v for i, v in enumerate(inst.vertices) if (mask >> i) & 1}
        ev = evaluate_cut(inst, Cut.of(side))
        if ev.ratio is not None and (best is None or ev.ratio < best):
            best = ev.ratio
    assert sp.ratio == best


@given(st.randoms(use_true_random=False))
@settings(max_examples=30)
def test_sparsest_cut_random_agreement(rng):
    n = rng.randint(2, 7)
    sup = [(rng.randint(1, v - 1), v, Fraction(rng.randint(1, 6), rng.randint(1, 4)))
           for v in range(2, n + 1)]
    dem = []
    for _ in range(rng.randint(1, 5)):
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u != v:
            dem.append((u, v, Fraction(rng.randint(1, 5), rng.randint(1, 3))))
    if not dem:
        dem = [(1, n, 1)]
    inst = SparsestCutInstance.build(range(1, n + 1), sup, dem)
    cut, sp = exact_sparsest_cut(inst)
    assert evaluate_cut(inst, cut).ratio == sp.ratio
    brute = None
    for mask in range(1, 1 << n):
        side = {v for i, v in enumerate(inst.vertices) if (mask >> i) & 1}
        ev = evaluate_cut(inst, Cut.of(side))
        if ev.ratio is not None and (brute is None or ev.ratio < brute):
            brute = ev.ratio
    assert sp.ratio == brute


def test_audit_terminal_stats():
    # K_2 plus terminals: admissible cuts separate 1 and 2
    inst = SparsestCutInstance.build(
        [1, 2, 3], [(1, 2, 2), (2, 3, 1)], [(1, 2, 1), (1, 3, 3)], terminals=(1, 2))
    audit = audit_cuts(inst)
    assert audit.n_cut_classes == 4
    cut, cap = audit.min_admissible_capacity
    assert cap == 2  # any 1-2 separating cut pays the heavy edge
    assert audit.gamma() == Fraction(4, 2)  # cut {1}: dem 4, cap 2
    _, inadm = audit.max_inadmissible_ratio
    assert inadm == Fraction(3, 1)  # cut {1,2}: dem 3, cap 1


@given(st.randoms(use_true_random=False))
@settings(max_examples=20)
def test_optimum_admits_connected_refinement(rng):
    # a sparsest cut can always be made connected without changing its ratio
    from treecut.instance import connected_refinement
    n = rng.randint(3, 8)
    sup = [(rng.randint(1, v - 1), v, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
           for v in range(2, n + 1)]
    for _ in range(rng.randint(0, 3)):
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u != v:
            sup.append((u, v, Fraction(rng.randint(1, 4))))
    dem = [(rng.randint(1, n), rng.randint(1, n), Fraction(rng.randint(1, 4)))
           for _ in range(3)]
    dem = [(u, v, w) for u, v, w in dem if u != v] or [(1, n, Fraction(1))]
    inst = SparsestCutInstance.build(range(1, n + 1), sup, dem)
    cut, sp = exact_sparsest_cut(inst)
    refined = connected_refinement(inst, cut)
    assert evaluate_cut(inst, refined).ratio == sp.ratio


def test_audit_with_separating_override():
    # admissibility follows whichever pair the instance names as terminals
    def audit(terminals):
        return audit_cuts(SparsestCutInstance.build(
            [1, 2, 3], [(1, 2, 2), (2, 3, 1)], [(1, 2, 1), (1, 3, 3)], terminals))

    assert audit((1, 3)).min_admissible_capacity[1] == 1  # cut {3} pays only edge (2,3)
    assert audit((1, 2)).min_admissible_capacity[1] == 2


# ---------------------------------------------------------------------------
# The elimination oracle against enumeration.
# ---------------------------------------------------------------------------

def assert_elimination_matches_enumeration(inst):
    _, want = exact_sparsest_cut(inst)
    cut, got = sparsest_cut_by_elimination(inst)
    assert got.ratio == want.ratio
    assert evaluate_cut(inst, cut).ratio == want.ratio


def test_elimination_matches_enumeration_on_corpus():
    for inst in acceptance_corpus(0, 100):
        assert_elimination_matches_enumeration(inst)


def test_elimination_matches_enumeration_reweighted():
    # same graphs and demand pairs, weights redrawn (zero weights included)
    rng = random.Random(5)
    for inst in acceptance_corpus(1, 50):
        def redraw(edges):
            return [(u, v, random_rational(rng) if rng.random() < 0.9 else 0)
                    for u, v, _ in edges]
        inst = SparsestCutInstance.build(inst.vertices, redraw(inst.supply_edges),
                                         redraw(inst.demand_edges) + [(1, 2, 1)])
        assert_elimination_matches_enumeration(inst)


# The 23-vertex powered instances behind gap_table.py's enumerable rows
# (k3 r=2 and r=3 share one instance: rounds only change the base LP).
@pytest.mark.parametrize("name", ["p3", "k3"])
def test_elimination_matches_enumeration_on_gap_instances(name):
    block, dec = building_block(MaxCutInstance.named(name), include_st_demand=False)
    inst = power(block, 2, dec).instance
    assert inst.n == 23
    assert_elimination_matches_enumeration(inst)


def test_elimination_zero_demand_is_input_error():
    inst = SparsestCutInstance.build([1, 2, 3], [(1, 2, 1), (2, 3, 1)], [(1, 3, 0)])
    with pytest.raises(InputError):
        sparsest_cut_by_elimination(inst)


def test_elimination_refuses_wide_instances():
    n = 20
    inst = SparsestCutInstance.build(
        range(1, n + 1), [(i, j, 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)],
        [(1, n, 1)])
    with pytest.raises(BudgetError):
        sparsest_cut_by_elimination(inst)


# A path 1-2-3-4 with capacities 3, 1, 3 and one demand pair (1, 4): the
# optimum cuts the middle edge at ratio 1, and both ratio searches start
# from a cut at ratio 3, so each needs two Dinkelbach steps.
TWO_STEP_PATH = SparsestCutInstance.build(
    [1, 2, 3, 4], [(1, 2, 3), (2, 3, 1), (3, 4, 3)], [(1, 4, 1)])


def test_elimination_refuses_a_positive_minimum(monkeypatch, tmp_path, capsys):
    # A minimum above 0 means the minimizer misses the current witness's
    # own value of 0: the search raises instead of taking its ratio.
    real = oracle._eliminate
    monkeypatch.setattr(oracle, "_eliminate", lambda *a: (1, real(*a)[1]))
    with pytest.raises(InvariantError):
        sparsest_cut_by_elimination(TWO_STEP_PATH)
    path = tmp_path / "path.ssc"
    path.write_text(format_instance(TWO_STEP_PATH))
    assert main(["verify", str(path)]) == 4
    assert "internal invariant violated" in capsys.readouterr().err


def test_dinkelbach_bound_holds_for_both_ratio_searches(monkeypatch):
    dec = balance(exact_decomposition(TWO_STEP_PATH))
    assert ratio_search(TWO_STEP_PATH, dec).iterations == 2
    assert sparsest_cut_by_elimination(TWO_STEP_PATH)[1].ratio == 1
    monkeypatch.setattr(instance_module, "MAX_DINKELBACH_ITERATIONS", 1)
    with pytest.raises(InvariantError, match="did not converge"):
        ratio_search(TWO_STEP_PATH, dec)
    with pytest.raises(InvariantError, match="did not converge"):
        sparsest_cut_by_elimination(TWO_STEP_PATH)
