"""treecut.pipeline.solve: the one production chain and its run-time checks."""

import random
from fractions import Fraction

import pytest

from treecut import pipeline, simplex
from treecut.cli import main
from treecut.decomposition import balance, exact_decomposition
from treecut.errors import InvariantError
from treecut.generators import MaxCutInstance, building_block
from treecut.instance import Cut, SparsestCutInstance, evaluate_cut
from treecut.relaxation import ratio_search
from treecut.rounding import DerandPotential, derandomize


def k3_block():
    inst, _ = building_block(MaxCutInstance.complete(3), include_st_demand=True)
    return inst


def no_demand_cut(inst, solution, dec, alpha, lp_star):
    _, pot = derandomize(inst, solution, dec, alpha, lp_star)
    return Cut(frozenset()), pot


def rising_trace(inst, solution, dec, alpha, lp_star):
    cut, pot = derandomize(inst, solution, dec, alpha, lp_star)
    trace = [pot.trace[0] - 1] + pot.trace  # one step up, still ending <= 0
    return cut, DerandPotential(trace)


BROKEN = {
    "no_demand_cut": (no_demand_cut, "sparsity_within_2lp"),
    "rising_trace": (rising_trace, "potential_trace_monotone"),
}


def test_solve_matches_hand_chain_on_k3_block():
    inst = k3_block()
    dec = balance(exact_decomposition(inst))
    rs = ratio_search(inst, dec)
    cut, pot = derandomize(inst, rs.solution, dec, rs.alpha, rs.lp_value)
    res = pipeline.solve(inst)
    assert res.dec == dec
    assert (res.lp.ratio, res.lp.alpha, res.lp.lp_value) == (rs.ratio, rs.alpha, rs.lp_value)
    assert res.cut == cut
    assert res.potential.trace == pot.trace
    assert res.sparsity == evaluate_cut(inst, cut)
    assert res.guarantees() == {"potential_trace_monotone": True,
                                "final_potential_nonpositive": True,
                                "sparsity_within_2lp": True}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_solve_refuses_a_broken_guarantee(case, monkeypatch):
    fake, failed = BROKEN[case]
    monkeypatch.setattr(pipeline, "derandomize", fake)
    with pytest.raises(InvariantError, match=failed):
        pipeline.solve(k3_block())


def zero_capacity_sweep():
    """700 seeded instances with zero capacities and often disconnected
    supply, which the acceptance corpus, the soak and the bench corpus
    never draw: n in 5..10, 1..n+2 random supply pairs with capacities
    from {0, 0, 1, 2} drawn in sorted pair order, then 1..5 demand pairs
    with weights 1..3."""
    rng = random.Random(7)
    for _ in range(700):
        n = rng.randint(5, 10)
        pairs = set()
        for _ in range(rng.randint(1, n + 2)):
            u, v = rng.sample(range(1, n + 1), 2)
            pairs.add((min(u, v), max(u, v)))
        supply = [(u, v, rng.choice((0, 0, 1, 2))) for u, v in sorted(pairs)]
        demand = [(*rng.sample(range(1, n + 1), 2), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 5))]
        yield SparsestCutInstance.build(range(1, n + 1), supply, demand)


def test_solve_keeps_the_factor_two_on_zero_capacities_and_disconnected_supply():
    # Instance #644 has LP capacity 0, and its seed-0 propagation sample
    # separates no demand: only the derandomizer's walk finds a cut.
    for index, inst in enumerate(zero_capacity_sweep()):
        res = pipeline.solve(inst)
        assert res.sparsity.ratio <= 2 * res.lp.ratio, index


@pytest.mark.parametrize("command", ["solve", "round", "embed", "verify"])
@pytest.mark.parametrize("case", sorted(BROKEN))
def test_cli_exits_4_on_a_broken_guarantee(case, command, monkeypatch, tmp_path, capsys):
    inst = tmp_path / "in.ssc"
    assert main(["gen", "block", "--maxcut", "k3", "--st-demand", "-o", str(inst)]) == 0
    monkeypatch.setattr(pipeline, "derandomize", BROKEN[case][0])
    # embed prints only its CSV and takes no --format
    code = main([command, str(inst)] + ([] if command == "embed" else ["--format", "json"]))
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert "internal invariant violated" in err and "Traceback" not in err


def test_ratio_search_refuses_a_nonzero_duality_gap(monkeypatch):
    certificate = simplex.Simplex._certificate

    def gap_of_one(self, primal_obj):
        duals, _ = certificate(self, primal_obj)
        return duals, Fraction(1)

    monkeypatch.setattr(simplex.Simplex, "_certificate", gap_of_one)
    inst = k3_block()
    with pytest.raises(InvariantError, match="duality gap 1"):
        ratio_search(inst, balance(exact_decomposition(inst)))


def test_verify_dump_lp_matches_solve(tmp_path, capsys):
    inst = tmp_path / "in.ssc"
    assert main(["gen", "block", "--maxcut", "k3", "--st-demand", "-o", str(inst)]) == 0
    assert main(["solve", str(inst), "--dump-lp", str(tmp_path / "solve.lp")]) == 0
    assert main(["verify", str(inst), "--dump-lp", str(tmp_path / "verify.lp")]) == 0
    capsys.readouterr()
    assert (tmp_path / "verify.lp").read_bytes() == (tmp_path / "solve.lp").read_bytes()


# Recorded at 8287866, before the pared LP moved to integer columns.  The
# potential-trace digest covers the `str` of every trace entry over
# acceptance_corpus(0, 100) and the p3, k3 and k4 levels-2 fractals through
# their `.td`; CI recomputes it on Python 3.10 with tests/_trace_digest.py.
# The shape totals are (rows, columns, nonzeros) over the 100 corpus LPs.
POTENTIAL_TRACE_DIGEST = "faa5136462a1db1790901137e727704b2f5b843b4989cb34ff4878092b06dd8e"
PARED_LP_SHAPE_TOTALS = (2621, 10208, 25968)


def test_potential_traces_and_lp_shapes_match_recorded_digests():
    from _trace_digest import pared_lp_shape_totals, potential_trace_digest
    assert potential_trace_digest() == POTENTIAL_TRACE_DIGEST
    assert pared_lp_shape_totals() == PARED_LP_SHAPE_TOTALS


# Recorded at 39365c9, before forced bags went unpriced: the k5 levels-2
# fractal's potential trace (`_trace_digest.branching_trace_digest`), where
# 6 of 63 bags have more than one extension of their parent's assignment;
# CI recomputes it on Python 3.10.  Only the root and those bags are priced,
# each extension by one `expected_w` call: 13 on k5 (69 when every bag was
# priced) and 100 over acceptance_corpus(0, 100), where every non-root bag
# is forced (530).
BRANCHING_TRACE_DIGEST = "561e14620392c6b7cd19d82f34c4612edbe9340832111cd6f827f2bd98115c1c"


def test_derandomizer_prices_only_bags_with_a_choice(monkeypatch):
    from _trace_digest import branching_trace_digest
    from corpus import acceptance_corpus
    from treecut import rounding
    calls = [0]
    expected_w = rounding._Derandomizer.expected_w

    def counted(self, labels):
        calls[0] += 1
        return expected_w(self, labels)

    monkeypatch.setattr(rounding._Derandomizer, "expected_w", counted)
    assert branching_trace_digest() == BRANCHING_TRACE_DIGEST
    assert calls[0] == 13
    calls[0] = 0
    for inst in acceptance_corpus(0, 100):
        pipeline.solve(inst)
    assert calls[0] == 100
