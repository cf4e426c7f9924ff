import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from treecut.decomposition import (TreeDecomposition, balance, depth_bound,
                                   exact_decomposition, format_decomposition, least_bags,
                                   parse_decomposition, validate)
from treecut.errors import BudgetError, InputError
from treecut.generators import MaxCutInstance, building_block, power
from treecut.instance import SparsestCutInstance, format_instance, parse_instance

from _reference_treewidth import treewidth_by_search
from corpus import acceptance_corpus


def path_instance(n):
    return SparsestCutInstance.build(range(1, n + 1),
                                     [(i, i + 1, 1) for i in range(1, n)], [(1, n, 1)])


def clique_instance(n):
    sup = [(i, j, 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return SparsestCutInstance.build(range(1, n + 1), sup, [(1, 2, 1)])


def test_validate_ok_path():
    inst = path_instance(3)
    dec = TreeDecomposition.build([{1, 2}, {2, 3}], [(0, 1)])
    report = validate(inst, dec)
    assert report.ok
    assert dec.width == 1


def test_validate_uncovered_edge():
    inst = path_instance(3)
    dec = TreeDecomposition.build([{1, 2}, {3}], [(0, 1)])
    report = validate(inst, dec)
    assert not report.ok
    assert report.witness == (2, 3)


def test_validate_disconnected_trace():
    inst = path_instance(3)
    dec = TreeDecomposition.build([{1, 2}, {2, 3}, {1, 3}], [(0, 1), (1, 2)])
    # vertex 1 appears in bags 0 and 2, which are not adjacent
    report = validate(inst, dec)
    assert not report.ok and report.witness == 1


def test_validate_disconnected_in_sibling_subtrees():
    # a 4-cycle; vertex 4 sits in one grandchild under each child of the root
    inst = SparsestCutInstance.build(range(1, 5), [(1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1)],
                                     [(1, 4, 1)])
    dec = TreeDecomposition.build([{1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}],
                                  [(0, 1), (0, 2), (1, 3), (2, 4)])
    report = validate(inst, dec)
    assert not report.ok
    assert report.message == "bags containing 4 are disconnected"
    assert report.witness == 4


def test_validate_vertex_missing_from_every_bag():
    # vertex 3 carries only demand, so no supply edge check catches it first
    inst = SparsestCutInstance.build(range(1, 4), [(1, 2, 1)], [(1, 3, 1)])
    report = validate(inst, TreeDecomposition.build([{1, 2}], []))
    assert not report.ok
    assert report.message == "vertex 3 missing from every bag"
    assert report.witness == 3
    # failures are reported in vertex order: a disconnected 2 before a missing 3
    report = validate(inst, TreeDecomposition.build([{1, 2}, {1}, {2}], [(0, 1), (1, 2)]))
    assert report.message == "bags containing 2 are disconnected"
    assert report.witness == 2


def test_exact_decomposition_tree_width_one():
    inst = SparsestCutInstance.build(
        range(1, 8), [(1, 2, 1), (1, 3, 1), (2, 4, 1), (2, 5, 1), (3, 6, 1), (3, 7, 1)],
        [(4, 7, 1)])
    dec = exact_decomposition(inst)
    assert validate(inst, dec).ok
    assert dec.width == 1


@pytest.mark.parametrize("n,expected", [(3, 2), (4, 3), (5, 4)])
def test_exact_decomposition_clique(n, expected):
    inst = clique_instance(n)
    dec = exact_decomposition(inst)
    assert validate(inst, dec).ok
    assert dec.width == expected


def test_exact_decomposition_cycle():
    sup = [(i, i % 6 + 1, 1) for i in range(1, 7)]
    inst = SparsestCutInstance.build(range(1, 7), sup, [(1, 4, 1)])
    dec = exact_decomposition(inst)
    assert validate(inst, dec).ok
    assert dec.width == 2


def test_exact_decomposition_respects_bound():
    with pytest.raises(BudgetError):
        exact_decomposition(path_instance(19))
    exact_decomposition(path_instance(19), bound=19)


@given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
@settings(max_examples=25)
def test_exact_matches_search_oracle(n, rng):
    edges = [(rng.randint(1, v - 1), v, 1) for v in range(2, n + 1)]
    for _ in range(rng.randint(0, n)):
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u != v and not any({a, b} == {u, v} for a, b, _ in edges):
            edges.append((u, v, 1))
    inst = SparsestCutInstance.build(range(1, n + 1), edges, [(1, n, 1)])
    dec = exact_decomposition(inst)
    assert validate(inst, dec).ok
    assert dec.width == treewidth_by_search(inst)


def test_balance_single_bag_returned_as_is():
    inst = clique_instance(4)
    dec = TreeDecomposition.build([frozenset(inst.vertices)], [])
    assert balance(dec) is dec


def test_balance_long_path_decomposition():
    n = 30
    inst = path_instance(n)
    dec = TreeDecomposition.build([{i, i + 1} for i in range(1, n)],
                                  [(i, i + 1) for i in range(n - 2)])
    out = balance(dec)
    assert validate(inst, out).ok
    assert out.is_binary()
    assert out.depth <= depth_bound(n) == 38
    assert out.max_bag_size <= 9
    assert validate(inst, balance(out)).ok


@given(st.integers(min_value=2, max_value=12), st.randoms(use_true_random=False))
@settings(max_examples=30)
def test_balance_random_trees(n, rng):
    edges = [(rng.randint(1, v - 1), v, 1) for v in range(2, n + 1)]
    inst = SparsestCutInstance.build(range(1, n + 1), edges, [(1, n, 1)])
    dec = exact_decomposition(inst)
    out = balance(dec)
    assert validate(inst, out).ok
    assert out.is_binary()
    assert out.depth <= depth_bound(n)
    assert out.max_bag_size <= 3 * dec.max_bag_size


def test_root_path_unions_basics():
    dec = TreeDecomposition.build([{1, 2, 3}, {3, 4, 5}, {5, 6, 7}, {3, 8, 9}],
                                  [(0, 1), (1, 2), (0, 3)])
    unions = dec.unions
    assert unions[0] == frozenset({1, 2, 3})  # V_r = U_r
    assert unions[2] == frozenset({1, 2, 3, 4, 5, 6, 7})
    assert unions[3] == frozenset({1, 2, 3, 8, 9})
    for u in unions:
        assert len(u) <= dec.max_bag_size * (dec.depth + 1)


def test_decomposition_round_trip():
    inst = path_instance(5)
    dec = exact_decomposition(inst)
    text = format_decomposition(dec, inst)
    back = parse_decomposition(text, inst, root=dec.root)
    assert back.bags == dec.bags
    assert set(back.tree_edges) == set(dec.tree_edges)


def star_decomposition(n):
    """Star supply graph with one bag per edge hanging off a center bag."""
    inst = SparsestCutInstance.build(
        range(1, n + 1), [(1, v, 1) for v in range(2, n + 1)], [(2, n, 1)])
    bags = [{1}] + [{1, v} for v in range(2, n + 1)]
    edges = [(0, k) for k in range(1, n)]
    return inst, TreeDecomposition.build(bags, edges)


def caterpillar_decomposition(n):
    """Path of bags with a pendant bag at every spine node."""
    inst = SparsestCutInstance.build(
        range(1, 2 * n + 1),
        [(i, i + 1, 1) for i in range(1, n)] + [(i, n + i, 1) for i in range(1, n + 1)],
        [(1, 2 * n, 1)])
    bags = []
    edges = []
    for i in range(1, n):
        bags.append({i, i + 1})
    for i in range(1, n + 1):
        bags.append({i, n + i})
    for k in range(len(bags) - 1):
        if k < n - 2:
            edges.append((k, k + 1))
    spine = list(range(n - 1))
    for j, k in enumerate(range(n - 1, len(bags))):
        anchor = min(j, n - 2) if spine else k
        edges.append((anchor, k))
    return inst, TreeDecomposition.build(bags, edges)


@pytest.mark.parametrize("n", [20, 40])
def test_balance_star_shapes(n):
    inst, dec = star_decomposition(n)
    assert validate(inst, dec).ok
    out = balance(dec)
    assert validate(inst, out).ok
    assert out.is_binary()
    assert out.depth <= depth_bound(n)
    assert out.max_bag_size <= 3 * dec.max_bag_size


@pytest.mark.parametrize("n", [10, 18])
def test_balance_caterpillar_shapes(n):
    inst, dec = caterpillar_decomposition(n)
    assert validate(inst, dec).ok
    out = balance(dec)
    assert validate(inst, out).ok
    assert out.is_binary()
    assert out.depth <= depth_bound(2 * n)
    assert out.max_bag_size <= 3 * dec.max_bag_size


def test_balance_depth_is_logarithmic_on_long_paths():
    # not just within the bound: the rebuild should be genuinely shallow
    n = 120
    inst = path_instance(n)
    dec = TreeDecomposition.build([{i, i + 1} for i in range(1, n)],
                                  [(i, i + 1) for i in range(n - 2)])
    out = balance(dec)
    assert validate(inst, out).ok
    assert out.depth <= 2 * math.ceil(math.log2(n)) + 4


def test_exact_matches_search_oracle_at_ten():
    import random as _random
    rng = _random.Random(5)
    n = 10
    edges = [(rng.randint(1, v - 1), v, 1) for v in range(2, n + 1)]
    edges += [(1, 5, 1), (2, 8, 1), (4, 9, 1), (3, 10, 1)]
    inst = SparsestCutInstance.build(range(1, n + 1), sorted(set(edges)), [(1, n, 1)])
    dec = exact_decomposition(inst)
    assert validate(inst, dec).ok
    assert dec.width == treewidth_by_search(inst, bound=10)


@pytest.mark.parametrize("edge", ["1 3", "1 -5", "1 0", "1 2 3"])
def test_bad_tree_edge_line_is_named(edge):
    # two bags over the path 1-2-3; "1 0" once aliased the last bag
    text = f"s td 2 2 3\nb 1 1 2\nb 2 2 3\n{edge}\n"
    with pytest.raises(InputError, match="line 4"):
        parse_decomposition(text, path_instance(3))


@pytest.mark.parametrize("text, match", [
    # a second bag 2 once silently replaced the first
    pytest.param("s td 2 2 3\nb 1 1 2\nb 2 2 3\nb 2 1 3\n1 2\n",
                 "line 4: bag 2 is given twice", id="bag"),
    pytest.param("s td 2 2 3\nb 1 1 2\ns td 2 2 3\nb 2 2 3\n1 2\n",
                 "line 3: a second `s td` header", id="header"),
])
def test_repeated_bag_or_header_line_is_named(text, match):
    with pytest.raises(InputError, match=match):
        parse_decomposition(text, path_instance(3))


@pytest.mark.parametrize("header", ["s td 2 2 99", "s td 2 2 2", "s td 2 3 3", "s td 2 1 3"])
def test_header_must_match_bags_and_instance(header):
    with pytest.raises(InputError, match="`s td` header gives"):
        parse_decomposition(f"{header}\nb 1 1 2\nb 2 2 3\n1 2\n", path_instance(3))


def test_huge_bag_count_is_refused_before_allocating():
    # the header's bag count is compared with the bags given before any
    # structure of that size is built
    text = "s td 1000000 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"
    inst = path_instance(3)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=r"expected bags 1\.\.1000000"):
            parse_decomposition(text, inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def rooted_view_cases():
    """Balanced decompositions of the acceptance corpus, and the levels-2
    fractals' decompositions read back from their `.td` text, as given and
    balanced."""
    cases = [(inst, balance(exact_decomposition(inst))) for inst in acceptance_corpus(0, 100)]
    for base in ("p3", "k4"):
        block, block_dec = building_block(MaxCutInstance.named(base), include_st_demand=False)
        powered = power(block, 2, block_dec)
        inst = parse_instance(format_instance(powered.instance))
        dec = parse_decomposition(format_decomposition(powered.decomposition, powered.instance),
                                  inst)
        cases += [(inst, dec), (inst, balance(dec))]
    return cases


def test_rooted_view_matches_parent_walks():
    for inst, dec in rooted_view_cases():
        for a in range(dec.n_bags):
            path = [a]
            while dec.parents[path[-1]] is not None:
                path.append(dec.parents[path[-1]])
            path.reverse()
            assert dec.paths[a] == tuple(path)
            assert dec.depths[a] == len(path) - 1
            assert dec.unions[a] == frozenset().union(*(dec.bags[i] for i in path))
        assert dec.top_down == tuple(sorted(range(dec.n_bags),
                                            key=lambda i: (dec.depths[i], i)))
        least = least_bags(dec, inst.vertices)
        for v in inst.vertices:
            holders = [i for i, b in enumerate(dec.bags) if v in b]
            assert least[v] == min(holders, key=lambda i: (dec.depths[i], i))


def test_least_bags_refuses_a_missing_vertex():
    dec = TreeDecomposition.build([{1, 2}, {2, 3}], [(0, 1)])
    with pytest.raises(InputError, match="decomposition misses vertex 4"):
        least_bags(dec, [1, 2, 3, 4])
