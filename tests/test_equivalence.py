"""Deep equivalence checks.

1. The pared LP's block elimination must define exactly the spec'd
   polytope: a literal emission (variables for every family set, one
   normalization per set, aggregated consistency for every nested pair)
   has the same optimum, and the reduced solution is feasible for it.

2. The derandomizer's conditional separation probabilities must equal
   brute-force enumeration of the propagation distribution.
"""

import itertools
import random
from fractions import Fraction

from treecut.decomposition import TreeDecomposition, balance, exact_decomposition
from treecut.instance import SparsestCutInstance
from treecut.relaxation import SaSolution, build_sparsestcut_lp, ratio_search
from treecut.rounding import _Derandomizer
from treecut import simplex

from _lp_fixtures import build_distortion_lp, named_program, y_value


def literal_program(built, inst, alpha):
    """The unreduced system over the same family."""
    family = built.program.family
    fsets = family.frozensets()
    variables = []
    constraints = []
    for i, elems in enumerate(family.sets):
        for m in range(1 << len(elems)):
            variables.append(("f", i, m))
        constraints.append(({("f", i, m): Fraction(1)
                             for m in range(1 << len(elems))}, "==", Fraction(1)))
    for i, small in enumerate(fsets):
        for j, big in enumerate(fsets):
            if i == j or not small < big:
                continue
            selems, belems = family.sets[i], family.sets[j]
            bpos = [belems.index(v) for v in selems]
            inside = sum(1 << p for p in bpos)
            free = [b for b in range(len(belems)) if not (inside >> b) & 1]
            for m in range(1 << len(selems)):
                fixed = 0
                for b, p in enumerate(bpos):
                    if (m >> b) & 1:
                        fixed |= 1 << p
                row = {("f", i, m): Fraction(1)}
                for fm in range(1 << len(free)):
                    bm = fixed
                    for b, p in enumerate(free):
                        if (fm >> b) & 1:
                            bm |= 1 << p
                    row[("f", j, bm)] = row.get(("f", j, bm), Fraction(0)) - 1
                constraints.append((row, "==", Fraction(0)))

    def pair_terms(u, v, w):
        i = family.sets.index(family.canonical((u, v)))
        elems = family.sets[i]
        ubit, vbit = 1 << elems.index(u), 1 << elems.index(v)
        return {("f", i, m): w for m in range(4) if bool(m & ubit) != bool(m & vbit)}

    objective = {}
    dem_row = {}
    for u, v, w in inst.supply_edges:
        for k, c in pair_terms(u, v, Fraction(w)).items():
            objective[k] = objective.get(k, Fraction(0)) + c
    for u, v, w in inst.demand_edges:
        for k, c in pair_terms(u, v, Fraction(w)).items():
            dem_row[k] = dem_row.get(k, Fraction(0)) + c
    constraints.append((dem_row, ">=", Fraction(alpha)))
    return named_program(variables, constraints, objective, sense="min")


def test_pared_lp_matches_literal_emission():
    rng = random.Random(17)
    for trial in range(6):
        n = rng.randint(3, 6)
        sup = [(rng.randint(1, v - 1), v, Fraction(rng.randint(1, 4), rng.randint(1, 3)))
               for v in range(2, n + 1)]
        if n >= 4:
            sup.append((1, n, Fraction(1)))
        dem = [(1, n, Fraction(1))]
        for _ in range(2):
            u, v = rng.randint(1, n), rng.randint(1, n)
            if u != v:
                dem.append((u, v, Fraction(rng.randint(1, 3), 2)))
        inst = SparsestCutInstance.build(range(1, n + 1), sup, dem)
        dec = balance(exact_decomposition(inst))
        alpha = Fraction(1, 2)
        built = build_sparsestcut_lp(inst, dec, alpha)
        reduced = simplex.solve(built.program)
        literal = simplex.solve(literal_program(built, inst, alpha))
        assert reduced.status == literal.status == "optimal"
        assert reduced.objective == literal.objective

        # the materialized reduced solution satisfies the literal system
        sol = SaSolution.read(built.program, reduced.values)
        family = built.program.family
        # the literal program's columns are ("f", i, m) in (i, m) order
        lit_values = [x for elems in family.sets for x in sol.block_table(elems)[1]]
        # and every block's table is its LP variables, read back unchanged
        at = 0
        for i in built.program.blocks:
            elems = family.sets[i]
            width = 1 << len(elems)
            assert sol.block_table(elems) == (elems, reduced.values[at:at + width])
            at += width
        prog = literal_program(built, inst, alpha)
        for coeffs, sense, rhs in prog.constraints:
            lhs = sum(c * lit_values[k] for k, c in coeffs.items())
            if sense == "==":
                assert lhs == rhs
            elif sense == ">=":
                assert lhs >= rhs


# ---------------------------------------------------------------------------
# Brute-force propagation enumeration vs the derandomizer.
# ---------------------------------------------------------------------------

def enumerate_propagation(sol, dec):
    """All (per-bag masks, probability) outcomes of the propagation walk."""
    unions = dec.unions
    outcomes = [({}, Fraction(1))]
    for a in dec.top_down:
        elems, table = sol.block_table(unions[a])
        parent = dec.parents[a]
        new = []
        for masks, p in outcomes:
            if parent is None:
                fixed, free = 0, list(range(len(elems)))
                denom = Fraction(1)
            else:
                pelems, ptable = sol.block_table(unions[parent])
                at = {v: i for i, v in enumerate(pelems)}
                fixed = 0
                for i, v in enumerate(elems):
                    if v in at and (masks[parent] >> at[v]) & 1:
                        fixed |= 1 << i
                free = [i for i, v in enumerate(elems) if v not in at]
                denom = ptable[masks[parent]]
            for fm in range(1 << len(free)):
                m = fixed
                for b, pos in enumerate(free):
                    if (fm >> b) & 1:
                        m |= 1 << pos
                w = table[m]
                if w == 0:
                    continue
                nxt = dict(masks)
                nxt[a] = m
                new.append((nxt, p * w / denom))
        outcomes = new
    return outcomes, unions


def star_solution():
    """Star supply graph with a branching decomposition and a fractional
    solution (the star metric as cut probabilities)."""
    verts = [1, 2, 3, 4]
    inst = SparsestCutInstance.build(
        verts, [(1, 2, 1), (1, 3, 1), (1, 4, 1)],
        [(2, 3, 1), (2, 4, Fraction(1, 2)), (3, 4, 1)])
    metric = {}
    for u, v in itertools.combinations(verts, 2):
        metric[(u, v)] = Fraction(1, 3) if 1 in (u, v) else Fraction(2, 3)
    prog = build_distortion_lp(verts, metric, 1, Fraction(1), r=4)
    res = simplex.solve(prog)
    assert res.optimal
    sol = SaSolution.read(prog, res.values)
    dec = TreeDecomposition.build([{1, 2}, {1, 3}, {1, 4}], [(0, 1), (0, 2)])
    return inst, dec, sol


def vertices_of(masks, unions, sol):
    side = set()
    for a, m in masks.items():
        elems, _ = sol.block_table(unions[a])
        for b, v in enumerate(elems):
            if (m >> b) & 1:
                side.add(v)
    return side


def test_derandomizer_probabilities_match_enumeration():
    inst, dec, sol = star_solution()
    outcomes, unions = enumerate_propagation(sol, dec)
    assert sum(p for _, p in outcomes) == 1
    lp_star = sum(Fraction(w) * y_value(sol, u, v) for u, v, w in inst.supply_edges)
    alpha = sum(Fraction(w) * y_value(sol, u, v) for u, v, w in inst.demand_edges)
    der = _Derandomizer(inst, sol, dec, alpha, lp_star)

    pairs = [(u, v) for u, v, _ in inst.supply_edges]
    pairs += [(u, v) for u, v, _ in inst.demand_edges]

    # conditioned on each positive-probability root assignment, and on each
    # (root, first-child) prefix, the derandomizer's separation probability
    # equals the enumerated conditional
    prefixes = []
    relems, rtable = sol.block_table(unions[0])
    for m in range(1 << len(relems)):
        if rtable[m] > 0:
            prefixes.append({0: m})
    for base in list(prefixes):
        celems, ctable = sol.block_table(unions[1])
        for m in range(1 << len(celems)):
            trial = dict(base)
            trial[1] = m
            if any(o_masks[1] == m and o_masks[0] == base[0] for o_masks, _ in outcomes):
                prefixes.append(trial)

    for labels in prefixes:
        cond = [(masks, p) for masks, p in outcomes
                if all(masks[a] == m for a, m in labels.items())]
        total = sum(p for _, p in cond)
        for u, v in pairs:
            want = sum(p for masks, p in cond
                       if (u in vertices_of(masks, unions, sol)) !=
                       (v in vertices_of(masks, unions, sol))) / total
            got = der.psep(u, v, labels)
            assert got == want, (labels, (u, v), got, want)

    # and the unconditional potential matches the enumerated expectation
    expect_w = Fraction(0)
    for masks, p in outcomes:
        side = vertices_of(masks, unions, sol)
        z = sum(Fraction(w) for a, b, w in inst.supply_edges if (a in side) != (b in side))
        zp = sum(Fraction(w) for a, b, w in inst.demand_edges if (a in side) != (b in side))
        expect_w += p * (z / lp_star - 2 * zp / alpha)
    root_weighted = Fraction(0)
    relems, rtable = sol.block_table(unions[0])
    for m in range(1 << len(relems)):
        if rtable[m] > 0:
            root_weighted += rtable[m] * der.expected_w({0: m})
    assert root_weighted == expect_w
