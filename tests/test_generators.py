import itertools
import random
from fractions import Fraction

import pytest

from treecut.decomposition import exact_decomposition, validate
from treecut.errors import BudgetError, InputError
from treecut.generators import (BipartiteUlc, MaxCutInstance, UlcInstance,
                                apply_sigma, bipartite_to_cliques, building_block,
                                clique_product_maxcut_bound, compose_sigma,
                                cube_vertex, dictator_cut, lift_cut, power,
                                random_delta_nice_ulc, ug_gadget)
from treecut.instance import Cut, evaluate_cut, is_admissible
from treecut.oracle import audit_cuts, exact_maxcut, exact_sparsest_cut


def test_block_k2_capacities():
    inst, dec = building_block(MaxCutInstance.complete(2), include_st_demand=False)
    caps = sorted(w for _, _, w in inst.supply_edges)
    assert caps == [Fraction(1, 2)] * 4
    assert inst.total_capacity == 2
    assert validate(inst, dec).ok


def test_block_k3_sparsest_cut():
    inst, _ = building_block(MaxCutInstance.complete(3), include_st_demand=True)
    cut, sp = exact_sparsest_cut(inst)
    assert sp.ratio == Fraction(3, 5)
    assert is_admissible(inst, cut)
    # the claimed witness from the construction: A = {s, 1, 2}
    assert evaluate_cut(inst, Cut.of({"s", 1, 2})).ratio == Fraction(3, 5)


def test_block_without_st_demand_min_admissible_capacity():
    inst, _ = building_block(MaxCutInstance.complete(3), include_st_demand=False)
    audit = audit_cuts(inst)
    assert audit.min_admissible_capacity[1] == 1


def test_block_rejects_disconnected():
    with pytest.raises(InputError):
        MaxCutInstance((1, 2, 3), ((1, 2),))


@pytest.mark.parametrize("name", ["k3", "k4", "p3", "c5"])
def test_block_lemma_bullets(name):
    H = MaxCutInstance.named(name)
    inst, _ = building_block(H, include_st_demand=False)
    maxside, mc = exact_maxcut(H)
    s = Fraction(mc, H.m)
    audit = audit_cuts(inst)
    # (1) a capacity-1 admissible cut separating mc/m demand exists
    witness = Cut.of({"s"} | set(maxside))
    ev = evaluate_cut(inst, witness)
    assert ev.cut_capacity == 1 and ev.cut_demand == s
    # (2) every admissible cut has capacity >= 1
    assert audit.min_admissible_capacity[1] == 1
    # (3) admissible cuts carry at most s demand per unit capacity
    assert audit.gamma() == s
    # (4) inadmissible cuts never beat sparsity 1
    assert audit.max_inadmissible_ratio[1] <= 1


def test_power_level_one_is_identity():
    base, dec = building_block(MaxCutInstance.complete(3), include_st_demand=False)
    powered = power(base, 1, dec)
    assert powered.instance == base


def test_power_counts_and_decomposition():
    base, dec = building_block(MaxCutInstance.complete(3), include_st_demand=False)
    powered = power(base, 2, dec)
    assert len(powered.instance.supply_edges) == 36  # m^2 with m = 6
    assert len(powered.instance.vertices) == 5 + 6 * 3
    assert validate(powered.instance, powered.decomposition).ok
    assert powered.decomposition.width == dec.width


def test_power_treewidth_preserved_exactly():
    base, dec = building_block(MaxCutInstance.complete(2), include_st_demand=False)
    powered = power(base, 2, dec)
    assert exact_decomposition(powered.instance).width == exact_decomposition(base).width


def test_lift_cut_identity_and_values():
    base, dec = building_block(MaxCutInstance.path(3), include_st_demand=False)
    p1 = power(base, 1, dec)
    maxside, mc = exact_maxcut(MaxCutInstance.path(3))
    base_cut = Cut.of({"s"} | set(maxside))
    assert lift_cut(p1, base_cut) == base_cut

    p2 = power(base, 2, dec)
    lifted = lift_cut(p2, base_cut)
    ev = evaluate_cut(p2.instance, lifted)
    assert ev.cut_capacity == 1
    assert ev.cut_demand == 2  # dem * (1 + cap) with cap 1, dem = mc/m = 1
    assert ev.ratio == Fraction(1, 2)


@pytest.mark.parametrize("name", ["k3", "c5"])
@pytest.mark.parametrize("levels", [2, 3])
def test_lift_cut_capacity_power_law(name, levels):
    H = MaxCutInstance.named(name)
    base, dec = building_block(H, include_st_demand=False)
    powered = power(base, levels, dec)
    rng = random.Random(5)
    for _ in range(20):
        side = {"s"} | {i for i in H.vertices if rng.random() < 0.5}
        base_cut = Cut.of(side)
        cap = evaluate_cut(base, base_cut).cut_capacity
        dem = evaluate_cut(base, base_cut).cut_demand
        lifted = lift_cut(powered, base_cut)
        ev = evaluate_cut(powered.instance, lifted)
        assert ev.cut_capacity == cap ** levels
        assert ev.cut_demand == dem * sum(cap ** k for k in range(levels))


def test_lift_cut_rejects_inadmissible():
    base, dec = building_block(MaxCutInstance.complete(3), include_st_demand=False)
    p2 = power(base, 2, dec)
    with pytest.raises(InputError):
        lift_cut(p2, Cut.of({"s", "t"}))


# ---------------------------------------------------------------------------
# ULC machinery.
# ---------------------------------------------------------------------------

def identity(d):
    return tuple(range(d))


def test_sigma_application_is_index_pullback():
    # sigma = (1, 2, 0) sends label 0->1, 1->2, 2->0; bit i of the image
    # equals bit sigma^{-1}(i) of the input
    sigma = (1, 2, 0)
    x = 0b001  # only coordinate 0 set
    y = apply_sigma(sigma, x, 3)
    assert y == 0b010
    assert compose_sigma(sigma, (2, 0, 1)) == (0, 1, 2)


def test_bipartite_single_left_vertex():
    # regular on both sides: each of "u" and "w" joins both right vertices
    B = BipartiteUlc(("u", "w"), (1, 2), (("u", 1, identity(2)), ("u", 2, (1, 0)),
                                         ("w", 1, identity(2)), ("w", 2, identity(2))), 2)
    out = bipartite_to_cliques(B)
    assert len(out.edges) == 2 and out.cliques == ((0,), (1,))
    u, v, sigma = out.edges[0]
    assert {u, v} == {1, 2}
    assert sigma == (1, 0)  # route through "u": sigma_uw o sigma_uv^{-1}
    assert out.edges[1][2] == (0, 1)  # and through "w"


def test_bipartite_to_cliques_rejects_irregular_degrees():
    # "u" joins both right vertices, "w" only vertex 1
    B = BipartiteUlc(("u", "w"), (1, 2), (("u", 1, identity(2)), ("u", 2, identity(2)),
                                         ("w", 1, identity(2))), 2)
    with pytest.raises(InputError, match=r"not regular: degrees \[1, 2\]"):
        bipartite_to_cliques(B)


def make_regular_bipartite(rng, n=3, d=3):
    """Delta-regular bipartite ULC on n+n vertices via delta perfect matchings."""
    left = tuple(f"L{i}" for i in range(n))
    right = tuple(range(1, n + 1))
    edges = []
    for shift in range(min(3, n)):
        for i in range(n):
            sigma = list(range(d))
            rng.shuffle(sigma)
            edges.append((left[i], right[(i + shift) % n], tuple(sigma)))
    return BipartiteUlc(left, right, tuple(edges), d)


def test_bipartite_to_cliques_nice_and_satisfiable():
    rng = random.Random(2)
    n, d = 3, 3
    left = tuple(f"L{i}" for i in range(n))
    right = tuple(range(1, n + 1))
    # plant a satisfying labeling, then wire constraints consistent with it
    lab = {v: rng.randrange(d) for v in left + right}
    edges = []
    for shift in range(3):
        for i in range(n):
            u, v = left[i], right[(i + shift) % n]
            sigma = list(range(d))
            rng.shuffle(sigma)
            j = sigma.index(lab[v])
            sigma[j], sigma[lab[u]] = sigma[lab[u]], lab[v]
            edges.append((u, v, tuple(sigma)))
    B = BipartiteUlc(left, right, tuple(edges), d)
    assert B.satisfied_fraction(lab) == 1
    out = bipartite_to_cliques(B)
    assert out.require_delta_nice() == 3
    assert out.satisfied_fraction({v: lab[v] for v in right}) == 1


def test_bipartite_soundness_transfer():
    # B satisfying 1 - delta fraction: composed satisfies >= 1 - 2*delta
    rng = random.Random(9)
    B = make_regular_bipartite(rng)
    ulc = bipartite_to_cliques(B)
    lab_b, best_b = None, Fraction(-1)
    for labels in itertools.product(range(B.d), repeat=len(B.left + B.right)):
        lab = dict(zip(B.left + B.right, labels))
        val = B.satisfied_fraction(lab)
        if val > best_b:
            best_b, lab_b = val, lab
    _, best_u = ulc.best_labeling()
    assert best_u >= 1 - 2 * (1 - best_b)


def test_best_labeling_refuses_a_huge_search_without_computing_it():
    # 2^15000 labelings; the count has more digits than int() may format
    with pytest.raises(BudgetError, match=r"over 2\^15000 assignments"):
        UlcInstance(tuple(range(15000)), (), 2).best_labeling()


def triangle_ulc(d=2):
    ident = identity(d)
    edges = ((1, 2, ident), (2, 3, ident), (1, 3, ident))
    return UlcInstance((1, 2, 3), edges, d, ((0,), (1,), (2,)))


def test_gadget_totals_and_regularity():
    ulc = triangle_ulc(2)
    gadget = ug_gadget(ulc, Fraction(1, 25))
    inst = gadget.instance
    assert inst.total_demand == 1
    assert gadget.n_cube_nodes == 12 and gadget.n_demand_edges == 12
    # one 1/N capacity edge to each terminal per cube node
    star = [e for e in inst.supply_edges if "s" in e[:2] or "t" in e[:2]]
    assert len(star) == 2 * gadget.n_cube_nodes
    assert all(w == Fraction(1, 12) for _, _, w in star)
    # every cube node carries delta*(delta-1) demand edges
    incid = {}
    for u, v, _ in inst.demand_edges:
        incid[u] = incid.get(u, 0) + 1
        incid[v] = incid.get(v, 0) + 1
    assert set(incid.values()) == {gadget.delta * (gadget.delta - 1)}
    assert validate(inst, gadget.decomposition).ok


def test_dictator_cut_capacity_and_demand():
    ulc = triangle_ulc(2)
    alpha = Fraction(1, 25)
    gadget = ug_gadget(ulc, alpha)
    lab = {1: 0, 2: 0, 3: 0}  # identity constraints: fully satisfied
    cut = dictator_cut(gadget, lab)
    ev = evaluate_cut(gadget.instance, cut)
    assert ev.cut_capacity == 1 + alpha / 2
    assert ev.cut_demand == 1  # all demand cut when every constraint holds
    # a labeling satisfying fraction q cuts at least q
    for lab in ({1: 0, 2: 1, 3: 0}, {1: 1, 2: 0, 3: 0}):
        q = ulc.satisfied_fraction(lab)
        ev = evaluate_cut(gadget.instance, dictator_cut(gadget, lab))
        assert ev.cut_demand >= q
        assert ev.cut_capacity == 1 + alpha / 2


def test_dictator_cut_alpha_zero_edge_case():
    gadget = ug_gadget(triangle_ulc(2), 0)
    ev = evaluate_cut(gadget.instance, dictator_cut(gadget, {1: 0, 2: 0, 3: 0}))
    assert ev.cut_capacity == 1


def test_gadget_inadmissible_cuts_audit():
    gadget = ug_gadget(triangle_ulc(2), Fraction(1, 25))
    audit = audit_cuts(gadget.instance)
    cut, ratio = audit.max_inadmissible_ratio
    assert ratio <= 1  # no inadmissible cut separates more demand than capacity


def single_clique_ulc(delta):
    verts = tuple(range(1, delta + 1))
    ident = identity(2)
    edges = tuple((u, v, ident) for u, v in itertools.combinations(verts, 2))
    return UlcInstance(verts, edges, 2, (tuple(range(len(edges))),))


def test_clique_product_bound_single_clique():
    rep = clique_product_maxcut_bound(single_clique_ulc(3), 1)
    assert rep["max_cut_fraction"] == Fraction(2, 3)
    assert rep["holds"]
    rep2 = clique_product_maxcut_bound(single_clique_ulc(3), 2)
    assert rep2["holds"]


def test_clique_product_bound_shared_vertex():
    rep = clique_product_maxcut_bound(shared_vertex_ulc(), 1)
    assert rep["holds"]


def shared_vertex_ulc():
    ident = identity(2)
    edges = tuple((u, v, ident) for u, v in
                  list(itertools.combinations((1, 2, 3), 2)) +
                  list(itertools.combinations((3, 4, 5), 2)))
    return UlcInstance((1, 2, 3, 4, 5), edges, 2, ((0, 1, 2), (3, 4, 5)))


def naive_clique_product_bound(ulc, copies):
    """Mask loop over the product graph's cut classes, last clone pinned;
    the first strictly larger cut wins."""
    delta = ulc.clique_union_delta()
    verts = [(v, i) for v in ulc.vertices for i in range(copies)]
    pairs = [(verts.index((u, i)), verts.index((v, j))) for u, v, _ in ulc.edges
             for i in range(copies) for j in range(copies)]
    worst, worst_mask = Fraction(0), 0
    for mask in range(1 << (len(verts) - 1)):
        frac = Fraction(sum(((mask >> a) ^ (mask >> b)) & 1 for a, b in pairs), len(pairs))
        if frac > worst:
            worst, worst_mask = frac, mask
    bound = Fraction(1, 2) + Fraction(1, 2 * (delta - 1))
    return {"delta": delta, "copies": copies, "edges": len(pairs),
            "max_cut_fraction": worst, "bound": bound, "holds": worst <= bound,
            "witness": sorted(str(verts[i]) for i in range(len(verts))
                              if (worst_mask >> i) & 1)}


# single_clique_ulc(3) is also criterion 7's delta-3 clique
@pytest.mark.parametrize("ulc,copies", [
    (single_clique_ulc(3), 1), (single_clique_ulc(3), 2), (single_clique_ulc(4), 2),
    (shared_vertex_ulc(), 1), (shared_vertex_ulc(), 2)],
    ids=["k3-1", "k3-2", "k4-2", "shared-1", "shared-2"])
def test_clique_product_bound_matches_naive_mask_loop(ulc, copies):
    assert clique_product_maxcut_bound(ulc, copies) == naive_clique_product_bound(ulc, copies)


def test_clique_repeating_a_pair_is_rejected():
    ident = identity(2)
    ulc = UlcInstance((1, 2, 3), ((1, 2, ident), (1, 2, ident), (2, 3, ident)), 2,
                      ((0, 1, 2),))
    with pytest.raises(InputError, match="repeats a pair"):
        ulc.clique_union_delta()
    with pytest.raises(InputError, match="repeats a pair"):
        clique_product_maxcut_bound(ulc, 1)


@pytest.mark.parametrize("d", [0, -1])
def test_label_count_below_one_is_rejected(d):
    with pytest.raises(InputError):
        UlcInstance((1, 2), ((1, 2, ()),), d)
    with pytest.raises(InputError):
        random_delta_nice_ulc(3, 2, d)


def test_powered_gadget_parameter_plumbing():
    # epsilon = 2: levels = ceil(4/eps) = 2, alpha = eps^2 = 4
    eps = 2
    levels, alpha = 2, Fraction(eps * eps)
    gadget = ug_gadget(triangle_ulc(2), alpha)
    powered = power(gadget.instance, levels, gadget.decomposition)
    lab = {1: 0, 2: 0, 3: 0}
    base_cut = dictator_cut(gadget, lab)
    lifted = lift_cut(powered, base_cut)
    ev = evaluate_cut(powered.instance, lifted)
    eta = 1 - gadget.ulc.satisfied_fraction(lab)
    assert ev.ratio <= Fraction(1 + 4 * eps) / (levels * (1 - eta))
    assert ev.cut_capacity == (1 + alpha / 2) ** levels


def test_powered_block_decomposition_width_two():
    # fractal of a series-parallel block keeps width 2; the emitted
    # decomposition certifies the upper bound and the C_4 inside gives
    # the matching lower bound
    base, dec = building_block(MaxCutInstance.path(3), include_st_demand=False)
    powered = power(base, 2, dec)
    assert validate(powered.instance, powered.decomposition).ok
    assert powered.decomposition.width == 2


def test_unpowered_gadget_has_no_gap():
    # single-cube-node cuts pay exactly their demand, so without powering
    # the sparsest cut sits at 1 regardless of the labeling structure
    gadget = ug_gadget(triangle_ulc(2), Fraction(1, 25))
    _, sp = exact_sparsest_cut(gadget.instance)
    assert sp.ratio == 1


def test_random_delta_nice_ulc():
    from treecut.generators import random_delta_nice_ulc
    ulc = random_delta_nice_ulc(4, 3, 3, seed=7)
    assert ulc.require_delta_nice() == 3
    assert len(ulc.edges) == 4 * 3  # n * C(delta, 2)
    planted = random_delta_nice_ulc(4, 2, 2, seed=7, plant=True)
    _, best = planted.best_labeling()
    assert best == 1
    # deterministic per seed
    again = random_delta_nice_ulc(4, 3, 3, seed=7)
    assert again.edges == ulc.edges


def test_gadget_from_random_ulc():
    from treecut.generators import random_delta_nice_ulc
    ulc = random_delta_nice_ulc(4, 3, 2, seed=1, plant=True)
    gadget = ug_gadget(ulc, Fraction(1, 25))
    assert gadget.instance.total_demand == 1
    lab, _ = ulc.best_labeling()
    ev = evaluate_cut(gadget.instance, dictator_cut(gadget, lab))
    assert ev.cut_capacity == 1 + gadget.alpha / 2
    assert ev.cut_demand == 1  # fully satisfiable: the dictator cut takes all demand
