"""Acceptance suite: every exit criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable:
exact rational equalities wherever the pipeline is exact, 3-sigma bands
for the Monte-Carlo checks, and wall-clock budgets where stated.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from _lp_fixtures import y_value
from corpus import acceptance_corpus

from treecut.decomposition import balance, exact_decomposition, validate
from treecut.generators import (MaxCutInstance, UlcInstance, building_block,
                                clique_product_maxcut_bound, dictator_cut,
                                lift_cut, power, random_delta_nice_ulc,
                                ug_gadget)
from treecut.instance import Cut, evaluate_cut
from treecut.lift import (gap_experiment, lift_distribution, lifted_value,
                          make_lift_context)
from treecut.oracle import audit_cuts, exact_maxcut, exact_sparsest_cut
from treecut.relaxation import ratio_search
from treecut.pipeline import solve
from treecut.rounding import PropagationSampler, embed_l1
from treecut import simplex


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    return ok


# ---------------------------------------------------------------------------
# Shared pipeline runs over the random corpus (criteria 1 and 3).
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def corpus_results():
    t0 = time.monotonic()
    results = []
    for inst in acceptance_corpus(seed=0, count=100):
        res = solve(inst)
        _, phi = exact_sparsest_cut(inst)
        results.append({
            "instance": inst, "ratio": res.lp.ratio, "alpha": res.lp.alpha,
            "sparsity": res.sparsity.ratio, "phi": phi.ratio, "trace": res.potential.trace,
        })
    return {"elapsed": time.monotonic() - t0, "runs": results}


def test_criterion_1_approximation_guarantee(corpus_results):
    runs = corpus_results["runs"]
    ok_count = sum(1 for r in runs
                   if r["sparsity"] is not None
                   and r["sparsity"] <= 2 * r["ratio"]
                   and r["ratio"] <= r["phi"])
    within_time = corpus_results["elapsed"] <= 600
    ok = len(runs) >= 100 and ok_count == len(runs) and within_time
    report("criterion 1 (factor-2 guarantee on 100 random instances)", ok,
           f"{ok_count}/{len(runs)} instances, {corpus_results['elapsed']:.1f}s")
    assert len(runs) >= 100
    for r in runs:
        assert r["sparsity"] is not None
        assert r["sparsity"] <= 2 * r["ratio"]  # exact rational comparison
        assert r["ratio"] <= r["phi"]
    assert within_time


def test_criterion_3_derandomization_potential(corpus_results):
    runs = corpus_results["runs"]
    ok = all(r["trace"] and r["trace"][-1] <= 0
             and all(b <= a for a, b in zip(r["trace"], r["trace"][1:]))
             and r["trace"][0] <= 0
             for r in runs)
    report("criterion 3 (potential trace nonincreasing, final W <= 0)", ok,
           f"{len(runs)} traces, exact")
    for r in runs:
        assert r["trace"][0] <= 0
        assert all(b <= a for a, b in zip(r["trace"], r["trace"][1:]))
        assert r["trace"][-1] <= 0


# ---------------------------------------------------------------------------
# Criterion 2: rounding marginals on the K_3 block.
# ---------------------------------------------------------------------------

def test_criterion_2_rounding_marginals():
    t0 = time.monotonic()
    inst, dec0 = building_block(MaxCutInstance.complete(3), include_st_demand=True)
    dec = balance(dec0)
    rs = ratio_search(inst, dec)
    sol = rs.solution
    sampler = PropagationSampler(sol, dec)
    rng = random.Random(0)
    n = 100_000

    bag_counts = [dict() for _ in range(dec.n_bags)]
    pair_sep = {}
    pairs = [(u, v) for u, v, _ in inst.supply_edges] + \
            [(u, v) for u, v, _ in inst.demand_edges]
    for _ in range(n):
        masks = sampler.sample_masks(rng)
        for a, m in masks.items():
            bag_counts[a][m] = bag_counts[a].get(m, 0) + 1
        side = set()
        for a, mask in masks.items():
            elems, _ = sol.block_table(dec.unions[a])
            for bit, v in enumerate(elems):
                if (mask >> bit) & 1:
                    side.add(v)
        for u, v in pairs:
            pair_sep[(u, v)] = pair_sep.get((u, v), 0) + ((u in side) != (v in side))

    ok = True
    for u, v, _ in inst.supply_edges:
        y = float(y_value(sol, u, v))
        emp = pair_sep[(u, v)] / n
        sigma = math.sqrt(y * (1 - y) / n)
        ok &= abs(emp - y) <= 3 * sigma + 1e-12
    for u, v, _ in inst.demand_edges:
        y = float(y_value(sol, u, v))
        emp = pair_sep[(u, v)] / n
        sigma = math.sqrt(max(y * (1 - y), 0.25) / n)
        ok &= emp >= y / 2 - 3 * sigma - 1e-12
    worst_tv = 0.0
    within = total_at = 0
    for a in range(dec.n_bags):
        elems, table = sol.block_table(dec.unions[a])
        tv = sum(abs(bag_counts[a].get(m, 0) / n - float(table[m]))
                 for m in range(1 << len(elems))) / 2
        worst_tv = max(worst_tv, tv)
        for m in range(1 << len(elems)):
            x = float(table[m])
            emp = bag_counts[a].get(m, 0) / n
            total_at += 1
            within += abs(emp - x) <= 3 * math.sqrt(x * (1 - x) / n) + 1e-12
    ok &= worst_tv <= 0.02
    ok &= within >= 0.99 * total_at  # per-(bag, subset) 3-sigma coverage
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 120
    report("criterion 2 (edge/demand marginals, bag TV <= 0.02)", ok,
           f"worst TV {worst_tv:.4f}, {within}/{total_at} in 3s, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: building block equalities and the four block properties.
# ---------------------------------------------------------------------------

def test_criterion_4_building_block():
    ok = True
    details = []
    for name in ("k3", "k4", "k5", "p3", "c5"):
        H = MaxCutInstance.named(name)
        maxside, mc = exact_maxcut(H)
        with_st, _ = building_block(H, include_st_demand=True)
        _, sp = exact_sparsest_cut(with_st)
        ok &= sp.ratio == Fraction(H.m, H.m + mc)
        details.append(f"{name}:{sp.ratio}")

        block, _ = building_block(H, include_st_demand=False)
        audit = audit_cuts(block)
        witness = evaluate_cut(block, Cut.of({"s"} | set(maxside)))
        ok &= witness.cut_capacity == 1 and witness.cut_demand == Fraction(mc, H.m)
        ok &= audit.min_admissible_capacity[1] == 1
        ok &= audit.gamma() == Fraction(mc, H.m)
        ok &= audit.max_inadmissible_ratio[1] <= 1
    report("criterion 4 (block sparsity m/(m+mc), four block properties)", ok,
           " ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: powering on the P_3 block, full 23-vertex audit.
# ---------------------------------------------------------------------------

def test_criterion_5_powering_audit():
    t0 = time.monotonic()
    H = MaxCutInstance.path(3)
    base, base_dec = building_block(H, include_st_demand=False)
    powered = power(base, 2, base_dec)
    inst = powered.instance
    ok = len(inst.supply_edges) == 36

    gamma = audit_cuts(base).gamma()
    ok &= gamma == 1  # P_3 is bipartite: maxcut = all edges

    maxside, mc = exact_maxcut(H)
    lifted = lift_cut(powered, Cut.of({"s"} | set(maxside)))
    ev = evaluate_cut(inst, lifted)
    ok &= (ev.cut_capacity, ev.cut_demand, ev.ratio) == (1, 2, Fraction(1, 2))

    audit = audit_cuts(inst)  # 2^22 cut classes
    _, phi = audit.sparsest
    ok &= phi.ratio == Fraction(1, 2)
    ok &= audit.min_admissible_capacity[1] >= 1
    ok &= audit.gamma() <= 2 * gamma  # admissible demand <= l*gamma*capacity
    ok &= audit.max_inadmissible_ratio[1] <= (2 - 1) * gamma + 1
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 1800
    report("criterion 5 (powering: 36 edges, dictator cut 1/2, full audit)", ok,
           f"phi={phi.ratio}, gamma={gamma}, {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: treewidth preservation and generator decompositions.
# ---------------------------------------------------------------------------

def test_criterion_6_treewidth_preservation():
    base, base_dec = building_block(MaxCutInstance.complete(2), include_st_demand=False)
    powered = power(base, 2, base_dec)
    w_base = exact_decomposition(base).width
    w_powered = exact_decomposition(powered.instance).width
    ok = w_base == w_powered

    emitted = []
    for name in ("k3", "p3", "c5"):
        emitted.append(building_block(MaxCutInstance.named(name), True))
    pb, pbd = building_block(MaxCutInstance.path(3), False)
    p = power(pb, 2, pbd)
    emitted.append((p.instance, p.decomposition))
    ident = (0, 1)
    ulc = UlcInstance((1, 2, 3), ((1, 2, ident), (2, 3, ident), (1, 3, ident)),
                      2, ((0,), (1,), (2,)))
    g = ug_gadget(ulc, Fraction(1, 25))
    emitted.append((g.instance, g.decomposition))
    for inst, dec in emitted:
        ok &= validate(inst, dec).ok
    report("criterion 6 (powering preserves exact width; emitted decs valid)", ok,
           f"width {w_base} == {w_powered}, {len(emitted)} decompositions")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: the hypercube gadget.
# ---------------------------------------------------------------------------

def _toy_gadget(alpha=Fraction(1, 25)):
    ident = (0, 1)
    ulc = UlcInstance((1, 2, 3), ((1, 2, ident), (2, 3, ident), (1, 3, ident)),
                      2, ((0,), (1,), (2,)))
    return ug_gadget(ulc, alpha)


def test_criterion_7_gadget_invariants():
    gadget = _toy_gadget()
    inst = gadget.instance
    ok = inst.total_demand == 1
    incid = {}
    for u, v, _ in inst.demand_edges:
        incid[u] = incid.get(u, 0) + 1
        incid[v] = incid.get(v, 0) + 1
    ok &= set(incid.values()) == {gadget.delta * (gadget.delta - 1)}

    lab = {1: 0, 2: 0, 3: 0}
    ev = evaluate_cut(inst, dictator_cut(gadget, lab))
    ok &= ev.cut_capacity == 1 + gadget.alpha / 2
    ok &= ev.cut_demand >= gadget.ulc.satisfied_fraction(lab)

    audit = audit_cuts(inst)
    ok &= audit.max_inadmissible_ratio[1] <= 1

    rep1 = clique_product_maxcut_bound(_delta3_clique(), 1)
    rep2 = clique_product_maxcut_bound(_delta3_clique(), 2)
    ok &= rep1["holds"] and rep2["holds"]
    report("criterion 7 (gadget: demand 1, dictator 1+a/2, audits, clique bound)",
           ok)
    assert ok


def _delta3_clique():
    ident = (0, 1)
    verts = (1, 2, 3)
    edges = tuple((u, v, ident) for u, v in itertools.combinations(verts, 2))
    return UlcInstance(verts, edges, 2, (tuple(range(3)),))


def _capacity_parts(gadget):
    """Summed star capacity per terminal, and summed cube-edge capacity."""
    inst = gadget.instance
    stars = {t: Fraction(0) for t in inst.terminals}
    cube = Fraction(0)
    for u, v, w in inst.supply_edges:
        if u in stars:
            stars[u] += w
        elif v in stars:
            stars[v] += w
        else:
            cube += w
    return stars, cube


def test_criterion_7_total_capacity_as_pinned():
    # Pinned value: total capacity exactly 2 + alpha*d/2, derived from the
    # construction's parts.  Each terminal has a star of N edges of
    # capacity 1/N, one to every cube node, so each star sums to 1.  The n
    # cubes Q_d carry d*2^(d-1) edges each, of capacity alpha/N with
    # N = n*2^d, so the cube edges sum to alpha*d/2.  No gadget meeting
    # criterion 7's pins has total 1 + alpha*d/2: with C the summed
    # star capacity per terminal and A = N times the cube-edge capacity, a
    # dictator cut pays C + A/2 and the network 2C + A*d/2, so dictator
    # 1 + alpha/2 and total 1 + alpha*d/2 force 1 + (A - alpha)(d/2 - 1) = 0,
    # which has no solution at d = 2.  Checked on the toy triangle gadget
    # and on a d = 3 random delta-nice gadget across alpha.
    ulc3 = random_delta_nice_ulc(4, 3, 3, seed=7)
    gadgets = [_toy_gadget()] + [ug_gadget(ulc3, Fraction(a))
                                 for a in (0, Fraction(1, 25), 4)]
    ok = True
    totals = []
    for gadget in gadgets:
        d = gadget.ulc.d
        expected = 2 + gadget.alpha * d / 2
        stars, cube = _capacity_parts(gadget)
        total = gadget.instance.total_capacity
        ok &= stars == {"s": 1, "t": 1}
        ok &= cube == gadget.alpha * d / 2
        ok &= total == expected
        ok &= Fraction(gadget.predicted()["total_capacity"]) == expected
        totals.append(f"d={d} alpha={gadget.alpha}: {total}")
    report("criterion 7b (total capacity 2 + alpha*d/2; each terminal star sums to 1)",
           ok, ", ".join(totals))
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: the lift, exhaustively on G_2(P_3).
# ---------------------------------------------------------------------------

def test_criterion_8_lift():
    t0 = time.monotonic()
    from treecut.relaxation import SaSolution, build_maxcut_lp, subset_from_mask

    ok = True
    # the base distributions are the solved x(S,T), D_S(T) = x(S,T)
    for name in ("k3", "p3"):
        H = MaxCutInstance.named(name)
        prog = build_maxcut_lp(H, 3)
        res = simplex.solve(prog)
        sol = SaSolution.read(prog, res.values)
        ok &= sol.validate() == []
        dists = make_lift_context(H, 3, 2).base_dists
        ok &= all(dists[S][subset_from_mask(elems, m)] == x
                  for S, (elems, table) in sol.blocks.items()
                  for m, x in enumerate(table))

    # exhaustive consistency on G_2(P_3) for all |T| <= 3
    ctx = make_lift_context(MaxCutInstance.path(3), 3, 2)
    verts = list(ctx.powered.instance.vertices)
    checked = 0
    consistent = True
    for size in (1, 2, 3):
        for T in itertools.combinations(verts, size):
            T = frozenset(T)
            dT = lift_distribution(ctx, T)
            if sum(dT.values()) != 1 or any(p < 0 for p in dT.values()):
                consistent = False
            for q in T:
                Q = T - {q}
                dQ = lift_distribution(ctx, Q)
                for a, p in dQ.items():
                    if p != dT.get(a, Fraction(0)) + dT.get(a | {q}, Fraction(0)):
                        consistent = False
            checked += 1
    ok &= consistent

    # exact lifted values for the three pinned (H, levels) pairs, c at r=3
    values_ok = True
    for name, levels in (("k3", 2), ("k5", 2), ("p3", 3)):
        H = MaxCutInstance.named(name)
        ctx2 = make_lift_context(H, 3, levels)
        c = Fraction(ctx2.base_value) / H.m
        lv = lifted_value(ctx2)
        values_ok &= lv.capacity_value == 1
        values_ok &= lv.demand_value == levels * c
    ok &= values_ok
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 1200
    report("criterion 8 (lift: base D_S(T) = x(S,T), exhaustive consistency, exact values)",
           ok, f"{checked} sets checked, {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: gap translation on K_5.
# ---------------------------------------------------------------------------

def test_criterion_9_gap_translation():
    rep = gap_experiment(MaxCutInstance.complete(5), 2, 2, name="k5")
    ok = rep.s == Fraction(6, 10)
    ok &= rep.gap_via_lift == rep.gap_formula
    ok &= rep.gap_formula == 2 * rep.c / (1 + Fraction(6, 10))
    ok &= rep.gap_formula == Fraction(5, 4)  # c = 1 at two rounds on K_5
    report("criterion 9 (gap ratio lc/(1+(l-1)s), two independent routes)", ok,
           f"gap={rep.gap_formula}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 10: the Monte-Carlo embedding on the K_3 block.
# ---------------------------------------------------------------------------

def test_criterion_10_embedding():
    inst, dec0 = building_block(MaxCutInstance.complete(3), include_st_demand=True)
    dec = balance(dec0)
    rs = ratio_search(inst, dec)
    sol = rs.solution
    n = 100_000
    emb = embed_l1(sol, dec, n, seed=0)
    ok = True
    for u, v, _ in inst.supply_edges:
        y = float(y_value(sol, u, v))
        sigma = math.sqrt(y * (1 - y) / n)
        ok &= abs(float(emb.distance(u, v)) - y) <= 3 * sigma + 1e-12
    family_pairs = [tuple(s) for s in sol.family.sets if len(s) == 2]
    for u, v in family_pairs:
        y = float(y_value(sol, u, v))
        dist = float(emb.distance(u, v))
        sigma = math.sqrt(max(y * (1 - y), 0.25) / n)
        ok &= y / 2 - 3 * sigma - 1e-12 <= dist <= y + 3 * sigma + 1e-12
    report("criterion 10 (embedding distances in [y/2 - 3s, y + 3s])", ok,
           f"{len(family_pairs)} pairs, {n} samples")
    assert ok


# ---------------------------------------------------------------------------
# End-to-end exhibit: the whole pipeline on a 23-vertex fractal.
# ---------------------------------------------------------------------------

def test_pipeline_on_powered_fractal():
    base, dec0 = building_block(MaxCutInstance.complete(3), include_st_demand=False)
    powered = power(base, 2, dec0)
    inst = powered.instance
    res = solve(inst, powered.decomposition)
    rs, pot, sparsity = res.lp, res.potential, res.sparsity.ratio
    _, phi = exact_sparsest_cut(inst)
    ok = (rs.solution.validate() == [] and sparsity <= 2 * rs.ratio
          and rs.ratio <= phi.ratio and pot.trace[-1] <= 0)
    report("pipeline exhibit (23-vertex fractal, exact end to end)", ok,
           f"lp={rs.ratio} cut={sparsity} phi={phi.ratio}")
    assert ok
