from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treecut.errors import InputError
from treecut.instance import (Cut, SparsestCutInstance, as_weight, connected_refinement,
                              evaluate_cut, format_instance, is_admissible, parse_instance)


def k2_instance():
    return SparsestCutInstance.build([1, 2], [(1, 2, 1)], [(1, 2, 1)])


def two_triangles_bridge():
    # triangles 1-2-3 and 4-5-6 joined by bridge 3-4, unit weights
    sup = [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1), (4, 6, 1), (3, 4, 1)]
    dem = [(1, 5, 1), (2, 6, 1)]
    return SparsestCutInstance.build(range(1, 7), sup, dem)


def test_single_edge_cut():
    inst = k2_instance()
    sp = evaluate_cut(inst, Cut.of([1]))
    assert sp.cut_capacity == 1 and sp.cut_demand == 1 and sp.ratio == 1


def test_degenerate_cut_flagged():
    inst = k2_instance()
    sp = evaluate_cut(inst, Cut.of([]))
    assert sp.degenerate and sp.ratio is None
    assert sp.cut_capacity == 0 and sp.cut_demand == 0


def test_complement_symmetry_small():
    inst = two_triangles_bridge()
    for side in [{1}, {1, 2}, {1, 2, 3}, {2, 5}]:
        a = evaluate_cut(inst, Cut.of(side))
        b = evaluate_cut(inst, Cut.of(set(inst.vertices) - side))
        assert (a.cut_capacity, a.cut_demand) == (b.cut_capacity, b.cut_demand)


def test_admissibility_requires_terminals():
    inst = k2_instance()
    with pytest.raises(InputError):
        is_admissible(inst, Cut.of([1]))


def test_admissibility():
    inst = SparsestCutInstance.build([1, 2, 3], [(1, 2, 1), (2, 3, 1)],
                                     [(1, 3, 1)], terminals=(1, 3))
    assert is_admissible(inst, Cut.of([1]))
    assert not is_admissible(inst, Cut.of([1, 3]))


def test_connected_refinement_fixed_point():
    inst = two_triangles_bridge()
    cut = Cut.of({1, 2, 3})
    assert connected_refinement(inst, cut) == cut


def test_connected_refinement_improves_disconnected_cut():
    inst = two_triangles_bridge()
    bad = Cut.of({1, 4})  # one vertex from each triangle: both sides disconnected
    before = evaluate_cut(inst, bad)
    refined = connected_refinement(inst, bad)
    after = evaluate_cut(inst, refined)
    assert after.ratio is not None and after.ratio <= before.ratio
    # both sides connected now: refining again is a no-op
    assert connected_refinement(inst, refined) == refined


@st.composite
def random_instance_and_cut(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    # random connected supply graph: a random spanning tree plus extras
    edges = []
    for v in range(2, n + 1):
        u = draw(st.integers(min_value=1, max_value=v - 1))
        edges.append((u, v, draw(st.integers(min_value=1, max_value=5))))
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=5))
    for u, v in extra:
        if u != v:
            edges.append((u, v, 1))
    m = draw(st.integers(min_value=1, max_value=4))
    dems = []
    for _ in range(m):
        u = draw(st.integers(1, n))
        v = draw(st.integers(1, n))
        if u != v:
            dems.append((u, v, draw(st.integers(min_value=1, max_value=3))))
    side = {v for v in range(1, n + 1) if draw(st.booleans())}
    return SparsestCutInstance.build(range(1, n + 1), edges, dems), Cut.of(side)


@given(random_instance_and_cut())
def test_refinement_never_increases_ratio(pair):
    inst, cut = pair
    before = evaluate_cut(inst, cut)
    refined = connected_refinement(inst, cut)
    after = evaluate_cut(inst, refined)
    if before.ratio is not None and after.ratio is not None:
        assert after.ratio <= before.ratio


@given(random_instance_and_cut())
def test_evaluation_is_reproducible_and_symmetric(pair):
    inst, cut = pair
    a1 = evaluate_cut(inst, cut)
    a2 = evaluate_cut(inst, cut)
    assert a1 == a2
    comp = evaluate_cut(inst, cut.complement(inst))
    assert (a1.cut_capacity, a1.cut_demand) == (comp.cut_capacity, comp.cut_demand)


def test_weight_literals():
    assert as_weight("3/5") == Fraction(3, 5)
    assert as_weight("0.25") == Fraction(1, 4)
    assert as_weight(2) == 2
    with pytest.raises(InputError):
        as_weight("3//5")


def test_weight_literals_above_the_digit_bound_are_input_errors():
    # 1000 digits in all are accepted; one more digit, in the mantissa or
    # the exponent, is refused before the integer is built
    assert as_weight("9" * 1000) == 10**1000 - 1
    assert as_weight("1e999") == 10**999
    assert as_weight("1/" + "3" * 999) == Fraction(1, int("3" * 999))
    for literal in ("9" * 1001, "1e1000", "1e-1000", "1/" + "3" * 1000, "1e1_000",
                    "2.5e" + "0" * 30 + "999", "1e" + "9" * 40):
        with pytest.raises(InputError, match="more than 1000 digits"):
            as_weight(literal)


def test_weight_denominators_above_the_digit_bound_are_input_errors():
    # the lcm of all supply and demand denominators may have 1000 digits
    ok = parse_instance(f"p ssc 2\ne 1 2 1/{2**999}\nd 1 2 1/{5**999}\n")
    assert ok.total_demand == Fraction(1, 5**999)
    for a, b in (("e", "d"), ("e", "e")):
        with pytest.raises(InputError, match="lcm of more than 1000 digits"):
            parse_instance(f"p ssc 2\n{a} 1 2 1/{2**1000}\n{b} 1 2 1/{5**1000}\nd 1 2 1\n")


def test_format_parse_round_trip():
    inst = SparsestCutInstance.build(
        [1, 2, 3], [(1, 2, Fraction(1, 3)), (1, 2, Fraction(1, 3)), (2, 3, 2)],
        [(1, 3, Fraction(7, 2))], terminals=(1, 3))
    text = format_instance(inst)
    back = parse_instance(text)
    assert back == inst
    # parallel edges survive verbatim
    assert len(back.supply_edges) == 3


def test_parse_rejects_bad_input():
    with pytest.raises(InputError):
        parse_instance("e 1 2 1\n")  # no header
    with pytest.raises(InputError):
        parse_instance("p ssc 2\ne 1 3 1\n")  # vertex out of range
    with pytest.raises(InputError):
        SparsestCutInstance.build([1, 2], [(1, 1, 1)], [])  # self loop


def test_refinement_on_block_disconnected_side():
    # block of K_3: side {1,2} has a disconnected complement structure;
    # refinement lands on a connected cut at most as sparse
    from treecut.generators import MaxCutInstance, building_block
    inst, _ = building_block(MaxCutInstance.complete(3), include_st_demand=True)
    bad = Cut.of({1, 2})
    before = evaluate_cut(inst, bad)
    refined = connected_refinement(inst, bad)
    after = evaluate_cut(inst, refined)
    assert after.ratio is not None and after.ratio <= before.ratio


def test_refinement_bulk_never_increases_ratio():
    # volume check: ten thousand random cuts on random graphs, n <= 12
    import random as _random
    rng = _random.Random(99)
    total = 0
    while total < 10_000:
        n = rng.randint(3, 12)
        sup = [(rng.randint(1, v - 1), v, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
               for v in range(2, n + 1)]
        for _ in range(rng.randint(0, n)):
            u, v = rng.randint(1, n), rng.randint(1, n)
            if u != v:
                sup.append((u, v, Fraction(rng.randint(1, 4))))
        dem = [(u, v, Fraction(rng.randint(1, 4), rng.randint(1, 2)))
               for u, v in ((rng.randint(1, n), rng.randint(1, n)) for _ in range(4))
               if u != v] or [(1, n, Fraction(1))]
        inst = SparsestCutInstance.build(range(1, n + 1), sup, dem)
        for _ in range(50):
            side = {v for v in inst.vertices if rng.random() < 0.5}
            cut = Cut.of(side)
            before = evaluate_cut(inst, cut)
            after = evaluate_cut(inst, connected_refinement(inst, cut))
            if before.ratio is not None and after.ratio is not None:
                assert after.ratio <= before.ratio
            total += 1
