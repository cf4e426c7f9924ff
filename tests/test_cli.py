import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from corpus import acceptance_corpus
from treecut.cli import main, make_parser
from treecut.instance import format_instance, parse_instance


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_oracle_solve_round_trip(tmp_path, capsys):
    inst_file = tmp_path / "g1k3.ssc"
    code, _, _ = run(capsys, "gen", "block", "--maxcut", "k3", "--st-demand",
                     "-o", str(inst_file))
    assert code == 0
    text = inst_file.read_text()
    parsed = parse_instance(text)
    assert parsed.total_demand == 2  # 1 (s-t) + 3 * 1/3

    code, out, _ = run(capsys, "oracle", str(inst_file), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sparsest"]["ratio"] == "3/5"

    code, out, _ = run(capsys, "solve", str(inst_file), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lp_ratio"] == "3/5"
    assert payload["within_factor_two"] is True


def test_byte_identical_reruns(tmp_path, capsys):
    inst = tmp_path / "in.ssc"
    run(capsys, "gen", "block", "--maxcut", "p3", "--st-demand", "-o", str(inst))
    _, out1, _ = run(capsys, "solve", str(inst), "--format", "json", "--seed", "0")
    _, out2, _ = run(capsys, "solve", str(inst), "--format", "json", "--seed", "0")
    assert out1 == out2


def test_emitted_instances_round_trip_losslessly(tmp_path, capsys):
    out_file = tmp_path / "g2.ssc"
    code, _, _ = run(capsys, "gen", "power", "--maxcut", "p3", "--levels", "2",
                     "-o", str(out_file))
    assert code == 0
    text = out_file.read_text()
    inst = parse_instance(text)
    from treecut.instance import format_instance
    assert format_instance(inst) == text


@pytest.mark.parametrize("what", ["block", "power"])
def test_gen_runs_the_exact_maxcut_only_for_a_sidecar(what, monkeypatch, tmp_path, capsys):
    argv = ["gen", what, "--maxcut", "k4", "--st-demand", "--td-out", str(tmp_path / "a.td")]
    assert run(capsys, *argv, "-o", str(tmp_path / "a.ssc")) == (0, "", "")
    from treecut import cli
    from treecut.errors import InvariantError

    def no_maxcut(graph):
        raise InvariantError("the exact MaxCut ran")

    monkeypatch.setattr(cli, "exact_maxcut", no_maxcut)
    argv[-1] = str(tmp_path / "b.td")
    assert run(capsys, *argv, "-o", str(tmp_path / "b.ssc")) == (0, "", "")
    for ext in ("ssc", "td"):
        assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()
    code, _, err = run(capsys, *argv, "--sidecar", str(tmp_path / "b.json"))
    assert code == 4 and err == "internal invariant violated: the exact MaxCut ran\n", err


def test_gen_gadget_with_sidecar(tmp_path, capsys):
    out_file = tmp_path / "gadget.ssc"
    sidecar = tmp_path / "gadget.json"
    td = tmp_path / "gadget.td"
    code, _, _ = run(capsys, "gen", "gadget", "--alpha", "1/25",
                     "-o", str(out_file), "--sidecar", str(sidecar), "--td-out", str(td))
    assert code == 0
    meta = json.loads(sidecar.read_text())
    assert meta["total_demand"] == "1"
    assert meta["N"] == 12
    inst = parse_instance(out_file.read_text())
    assert inst.total_demand == 1


def test_gap_json_and_csv(capsys):
    code, out, _ = run(capsys, "gap", "--base", "p3", "--rounds", "2",
                       "--levels", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lifted_sparsity"] == "1/2"
    assert payload["phi"] == "1/2"
    code, out, _ = run(capsys, "gap", "--base", "p3", "--rounds", "2",
                       "--levels", "2", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert len(header.split(",")) == len(row.split(","))


def test_csv_reports_read_back_as_one_row_per_header(tmp_path, capsys):
    # list and dict cells (the cut, the audit's entries) hold commas, so
    # they are quoted: each report parses to one row of one cell per key
    inst = tmp_path / "in.ssc"
    run(capsys, "gen", "block", "--maxcut", "k3", "--st-demand", "-o", str(inst))
    for argv in (["solve", str(inst)], ["round", str(inst)], ["oracle", str(inst)],
                 ["verify", str(inst)], ["gap", "--base", "p3"]):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert len(rows) == 1 and len(rows[0]) == len(header), (argv, out)


def test_embed_csv(tmp_path, capsys):
    inst = tmp_path / "in.ssc"
    run(capsys, "gen", "block", "--maxcut", "k3", "--st-demand", "-o", str(inst))
    code, out, _ = run(capsys, "embed", str(inst), "--samples", "16")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6  # header + 5 vertices


def test_verify_passes_on_generated_instance(tmp_path, capsys):
    inst = tmp_path / "in.ssc"
    run(capsys, "gen", "block", "--maxcut", "c5", "--st-demand", "-o", str(inst))
    code, out, _ = run(capsys, "verify", str(inst), "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_parser_is_built_once_and_survives_failed_parses(tmp_path, capsys):
    inst = tmp_path / "in.ssc"
    run(capsys, "gen", "block", "--maxcut", "k3", "--st-demand", "-o", str(inst))
    for bad in (["solve", str(inst), "--no-such-flag"], ["solve", str(inst), "--format", "xml"],
                ["solve"], ["frobnicate"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    assert make_parser() is make_parser()
    cached = run(capsys, "solve", str(inst), "--format", "json")
    make_parser.cache_clear()
    fresh = run(capsys, "solve", str(inst), "--format", "json")
    assert cached == fresh and cached[0] == 0


# sha256 of each command's stdout over acceptance_corpus(0, 20), instance
# after instance, recorded when the digests were introduced (`oracle`
# later, before its callers lost their settable bounds).
RECORDED_DIGESTS = {
    "solve": "a0e3a889c29e14746ecd074caea9ab6e1b849fa05729c115b358a01b26b947d1",
    "verify": "da95543da7edecaf78273b3fa769d0bb2afe775eaebd7224871c8f850c1dbd82",
    "round": "b5558d25cc49e03637b071b768e0a3cadd444557caf7d4f03758783586cbc17f",
    "embed": "9e45be0ca74e9a46fd2036ec3ee837f01b5650a750e016f793c03e926cc656e0",
    "oracle": "227e46afbd4009d823bb7fadab3fccf6f4f8d85ef17838e3f64fa9e6626185eb",
}
DIGEST_COMMANDS = {
    "solve": ["--format", "json"],
    "verify": ["--format", "json"],
    "round": ["--seed", "3"],
    "embed": ["--samples", "20"],
    "oracle": ["--format", "json"],
}


def test_outputs_match_recorded_digests(tmp_path, capsys):
    """The pipeline's outputs stay byte-identical across refactors.

    A digest may change only with a deliberate change of output that is
    listed in CHANGES.md, together with the new digest.
    """
    digests = {name: hashlib.sha256() for name in DIGEST_COMMANDS}
    for i, inst in enumerate(acceptance_corpus(0, 20)):
        path = tmp_path / f"c{i}.ssc"
        path.write_text(format_instance(inst))
        for name, extra in DIGEST_COMMANDS.items():
            code, out, err = run(capsys, name, str(path), *extra)
            assert code == 0, (i, name, err)
            digests[name].update(out.encode())
    assert {name: h.hexdigest() for name, h in digests.items()} == RECORDED_DIGESTS


# sha256 of `solve --format json` on the levels-2 fractals through their
# `.td`: p3 and k4 recorded before the simplex pivot went sparse, c5 and k5
# while the tableau still had one running denominator.
FRACTAL_DIGESTS = {
    "p3": "b0e270e1b1f72efcd3ac7a1d547ff2ec20f4d748de1177b289957d94b0412176",
    "k4": "a5b0af5f999b700344e7bd1e9e35da7382ee3762d127660ef9f63e530b46089b",
    "c5": "926455663c57944994d2a273581b2146f939a631313afba6b7de806d74ada345",
    # lp_ratio 10/17, cut_sparsity 5/8
    "k5": "f28fd5c12826c180d5e59bb9d4aa83a21a238f212000d4f50e867bdaf1df4a18",
}


@pytest.mark.parametrize("base", sorted(FRACTAL_DIGESTS))
def test_fractal_solve_matches_recorded_digest(base, tmp_path, capsys):
    inst = tmp_path / f"{base}.ssc"
    td = tmp_path / f"{base}.td"
    run(capsys, "gen", "power", "--maxcut", base, "--levels", "2",
        "-o", str(inst), "--td-out", str(td))
    code, out, err = run(capsys, "solve", str(inst), "--decomposition", str(td),
                         "--format", "json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == FRACTAL_DIGESTS[base]


def test_verify_checks_the_oracle_above_the_enumeration_bound(tmp_path, capsys):
    # 38 vertices: beyond the Gray-code enumeration, within the
    # elimination oracle's scope
    inst = tmp_path / "k4.ssc"
    td = tmp_path / "k4.td"
    run(capsys, "gen", "power", "--maxcut", "k4", "--levels", "2",
        "-o", str(inst), "--td-out", str(td))
    assert parse_instance(inst.read_text()).n == 38
    code, out, _ = run(capsys, "verify", str(inst), "--decomposition", str(td),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lp_below_oracle"] is True
    assert payload["cut_within_2opt"] is True


def test_exit_code_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.ssc"
    bad.write_text("e 1 2 1\n")
    code, _, err = run(capsys, "oracle", str(bad))
    assert code == 2
    assert "input error" in err


def test_exit_code_budget_refusal(tmp_path, capsys):
    inst = tmp_path / "big.ssc"
    run(capsys, "gen", "power", "--maxcut", "k3", "--levels", "2", "-o", str(inst))
    # 23 vertices: exact decomposition refuses above its bound of 18
    code, _, err = run(capsys, "solve", str(inst))
    assert code == 3
    assert "budget refusal" in err


def test_infeasible_base_solve_is_an_invariant_fault(monkeypatch, capsys):
    # the base MaxCut LP comes from our own simplex, so a solution that
    # fails validation is an internal fault (exit 4), not an input error
    from treecut import simplex
    solve = simplex.solve

    def off_by_one(program):
        res = solve(program)
        res.values[0] += 1
        return res

    monkeypatch.setattr(simplex, "solve", off_by_one)
    code, _, err = run(capsys, "gap", "--base", "p3")
    assert code == 4
    assert err.startswith("internal invariant violated: solution is infeasible"), err


def test_base_solve_with_a_duality_gap_is_an_invariant_fault(monkeypatch, capsys):
    # the base MaxCut solve is certified like the ratio search's solves: an
    # optimal status with a nonzero duality gap is an internal fault
    from dataclasses import replace
    from fractions import Fraction
    from treecut import simplex
    solve = simplex.solve

    def gapped(program):
        return replace(solve(program), duality_gap=Fraction(1))

    monkeypatch.setattr(simplex, "solve", gapped)
    code, _, err = run(capsys, "gap", "--base", "p3")
    assert code == 4
    assert err == "internal invariant violated: base MaxCut solve has duality gap 1\n", err


def test_gap_refuses_an_over_bound_base_before_its_lp(monkeypatch, capsys):
    # the base's exact MaxCut bound is checked before the base LP is built
    # and solved, which took minutes for K30 at 2 rounds
    from treecut import simplex

    def no_solve(program):
        raise AssertionError("the base LP was solved")

    monkeypatch.setattr(simplex, "solve", no_solve)
    code, _, err = run(capsys, "gap", "--base", "k30", "--rounds", "2", "--levels", "2")
    assert code == 3
    assert err == "budget refusal: maxcut enumeration over 30 vertices exceeds bound 26\n", err


@pytest.mark.parametrize("argv", [["gen", "block", "--maxcut", "k1000"],
                                  ["gen", "power", "--maxcut", "k1000", "--levels", "2"],
                                  ["gap", "--base", "k1000"]],
                         ids=["gen_block", "gen_power", "gap"])
def test_an_over_bound_named_base_is_refused_before_it_is_built(argv, monkeypatch, capsys,
                                                                tmp_path):
    # K1000's 499,500 edges took 0.3 s and 97 MB to build before the
    # bound refused them
    from treecut.generators import MaxCutInstance

    def no_build(n):
        raise AssertionError("the complete graph was built")

    monkeypatch.setattr(MaxCutInstance, "complete", staticmethod(no_build))
    code, _, err = run(capsys, *argv, "-o", str(tmp_path / "out"))
    assert code == 3
    assert err == "budget refusal: maxcut enumeration over 1000 vertices exceeds bound 26\n", err
    assert not (tmp_path / "out").exists()


# the whole message of the one refusal both column budgets share
COLUMN_REFUSALS = {
    "pared_columns_c5_levels_3": "pared system needs 392320 variables, budget is 300000",
    "full_columns_k26_rounds_5": "full 5-round system needs 2366313 variables, budget is 300000",
}


@pytest.mark.parametrize("argv, code", [
    # 6^6000 supply edges, refused without computing the power
    (["gen", "power", "--maxcut", "p3", "--levels", "6000"], 3),
    (["gap", "--base", "p3", "--levels", "6000"], 3),
    # the MaxCut bound refuses 1000 vertices before the block is built,
    # with or without a sidecar
    (["gen", "block", "--maxcut", "k1000"], 3),
    # 2^(10^9) cube nodes, refused before the ULC is built
    (["gen", "gadget", "--labels", str(10**9)], 3),
    # a header naming 10^12 vertices, refused before any is built
    (["oracle", "{tmp}/huge.ssc"], 3),
    # 6 * 10^6 permutation entries, refused before the ULC is drawn
    (["gen", "ulc", "--ulc-vertices", "3", "--labels", str(10**6)], 3),
    (["gen", "gadget", "--random-ulc", "--ulc-vertices", str(10**9)], 3),
    # an optimum over 2^3000 labelings, refused before the ULC is written
    (["gen", "ulc", "--ulc-vertices", "3000", "--sidecar", "{tmp}/side.json"], 3),
    # 460,800 gadget edges over a 1200-vertex ULC
    (["gen", "gadget", "--random-ulc", "--ulc-vertices", "1200", "--labels", "6"], 3),
    # 10^9 samples, refused before the instance is solved
    (["embed", "{tmp}/pair.ssc", "--samples", str(10**9)], 3),
    # weights of 10^8 and 5001 digits, input errors before the integers are built
    (["gen", "gadget", "--alpha", "1e100000000"], 2),
    (["solve", "{tmp}/wide.ssc"], 2),
    # ten coprime 999-digit denominators, which a cut capacity sums into one
    # of 5000 digits
    (["solve", "{tmp}/coprime.ssc"], 2),
    (["oracle", "{tmp}/coprime.ssc"], 2),
    # the pared LP of the c5 levels-3 fractal, through its .td
    (["solve", "{tmp}/c5.ssc", "--decomposition", "{tmp}/c5.td"], 3),
    # the full 5-round system over K26, refused before its family is built
    (["gap", "--base", "k26", "--rounds", "5"], 3),
], ids=["power_levels_6000", "gap_levels_6000", "block_k1000", "gadget_labels_1e9",
        "ssc_header_1e12", "ulc_labels_1e6", "random_ulc_gadget_vertices_1e9",
        "ulc_sidecar_labelings", "gadget_edges", "embed_samples_1e9",
        "gadget_alpha_1e100000000", "ssc_weight_1e5000", "ssc_denominators_solve",
        "ssc_denominators_oracle", "pared_columns_c5_levels_3", "full_columns_k26_rounds_5"])
def test_budget_refusals_never_show_a_traceback(argv, code, tmp_path, capsys, request):
    (tmp_path / "huge.ssc").write_text(f"p ssc {10**12}\ne 1 2 1\nd 1 2 1\n")
    (tmp_path / "pair.ssc").write_text("p ssc 2\ne 1 2 1\nd 1 2 1\n")
    (tmp_path / "wide.ssc").write_text("p ssc 2\ne 1 2 1e5000\nd 1 2 1\n")
    (tmp_path / "coprime.ssc").write_text("p ssc 3\n" + "".join(
        f"e {1 + k // 5} {2 + k // 5} 1/{10**998 + k + 1}\n" for k in range(10)) + "d 1 3 1\n")
    if "{tmp}/c5.ssc" in argv:
        run(capsys, "gen", "power", "--maxcut", "c5", "--levels", "3",
            "-o", str(tmp_path / "c5.ssc"), "--td-out", str(tmp_path / "c5.td"))
    argv = [a.format(tmp=tmp_path) for a in argv] + ["-o", str(tmp_path / "out")]
    got, _, err = run(capsys, *argv)
    prefix = {3: "budget refusal: ", 2: "input error: "}[code]
    assert got == code and err.startswith(prefix), err
    assert not (tmp_path / "out").exists()
    says = COLUMN_REFUSALS.get(request.node.callspec.id)
    assert says is None or err == prefix + says + "\n", err


@pytest.mark.parametrize("command", ["solve", "oracle", "round", "verify"])
def test_weights_at_the_digit_bounds_print_without_a_traceback(command, tmp_path, capsys):
    # 1000-digit integers and 999-digit denominators, whose lcm is within
    # the bound: the printed ratios reach 1999 digits
    den = 10**998 + 1
    inst = tmp_path / "edge.ssc"
    inst.write_text(f"p ssc 3\ne 1 2 {10**1000 - 1}\ne 2 3 1/{den}\ne 2 3 {10**1000 - 3}\n"
                    f"e 1 3 1/{den}\nd 1 3 {10**1000 - 7}\nd 1 2 1/{den}\nd 2 3 3/{den}\n")
    code, out, err = run(capsys, command, str(inst), "--format", "json")
    assert code == 0 and not err
    assert json.loads(out)


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "oracle", "/nonexistent/file.ssc")
    assert code == 2


def test_solve_with_supplied_decomposition(tmp_path, capsys):
    inst = tmp_path / "in.ssc"
    td = tmp_path / "in.td"
    run(capsys, "gen", "power", "--maxcut", "p3", "--levels", "2",
        "-o", str(inst), "--td-out", str(td))
    code, out, _ = run(capsys, "solve", str(inst), "--decomposition", str(td),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["within_factor_two"] is True


def test_dump_lp(tmp_path, capsys):
    inst = tmp_path / "in.ssc"
    lp = tmp_path / "dump.lp"
    run(capsys, "gen", "block", "--maxcut", "k3", "--st-demand", "-o", str(inst))
    code, _, _ = run(capsys, "solve", str(inst), "--dump-lp", str(lp),
                     "--format", "json")
    assert code == 0
    from _lp_fixtures import parse_lp
    from treecut import simplex
    prog = parse_lp(lp.read_text())
    assert simplex.solve(prog).optimal


def test_round_subcommand(tmp_path, capsys):
    inst = tmp_path / "in.ssc"
    run(capsys, "gen", "block", "--maxcut", "k3", "--st-demand", "-o", str(inst))
    code, out, _ = run(capsys, "round", str(inst), "--format", "json", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 3
    assert payload["cut_sparsity"] is not None


def _triangle_ulc_json(d=2, cliques=([0], [1], [2])):
    edges = [[1, 2, [0, 1]], [2, 3, [0, 1]], [1, 3, [0, 1]]]
    return json.dumps({"vertices": [1, 2, 3], "d": d, "edges": edges,
                       "cliques": list(cliques)})


# A valid two-bag decomposition of the K_3 block has the tree-edge line "1 2".
TWO_BAG_TD = "s td 2 4 5\nb 1 1 2 3 4\nb 2 1 2 5\n{}\n"
BAD_FILES = {
    "edge_out_of_range.td": TWO_BAG_TD.format("1 3"),
    "edge_negative.td": TWO_BAG_TD.format("1 -5"),
    "edge_zero.td": TWO_BAG_TD.format("1 0"),
    "edge_three_ids.td": TWO_BAG_TD.format("1 2 3"),
    "bag_repeated.td": TWO_BAG_TD.format("b 2 1 2 5\n1 2"),
    "header_repeated.td": "s td 2 4 5\n" + TWO_BAG_TD.format("1 2"),
    "header_n_mismatch.td": TWO_BAG_TD.replace("s td 2 4 5", "s td 2 4 99").format("1 2"),
    "header_maxbag_mismatch.td": TWO_BAG_TD.replace("s td 2 4 5", "s td 2 3 5").format("1 2"),
    "clique_out_of_range.json": _triangle_ulc_json(cliques=([0], [1], [5])),
    "clique_negative.json": _triangle_ulc_json(cliques=([0], [1], [-1])),
    "clique_string.json": _triangle_ulc_json(cliques=([0], [1], ["2"])),
    "clique_float.json": _triangle_ulc_json(cliques=([0], [1], [2.0])),
    "clique_bool.json": _triangle_ulc_json(cliques=([0], [True], [2])),
    "fractional_d.json": _triangle_ulc_json(d=2.7),
    "huge_d.json": _triangle_ulc_json(d=10**7),
}

# Each case exits 2 (input error) without a traceback: an unwritable
# output path, a malformed rational, too few SA rounds, a `.td` bag member,
# tree edge or root bag outside the 1-based range, a `.td` bag or header
# given twice, a header whose largest-bag size or vertex count does not
# match, a ULC clique entry that is not an edge index, a fractional label
# count or one that no constraint's permutation has (checked before a
# range of that size is built), and the removed LP-mode flags.
BAD_INPUTS = {
    "unwritable_output": ["solve", "{inst}", "-o", "{tmp}/missing/x.json"],
    "bad_alpha": ["gen", "gadget", "--alpha", "abc"],
    "zero_rounds": ["gap", "--base", "k2", "--rounds", "0"],
    "td_member_zero": ["solve", "{inst}", "--decomposition", "{tmp}/zero.td"],
    "td_root_out_of_range": ["solve", "{inst}", "--decomposition", "{tmp}/ok.td",
                             "--root", "9"],
    "removed_arith_flag": ["solve", "{inst}", "--arith", "float"],
    "removed_alpha_mode_flag": ["solve", "{inst}", "--alpha-mode", "grid"],
    "gadget_zero_labels": ["gen", "gadget", "--labels", "0", "-o", "{tmp}/g.ssc"],
    "gadget_negative_labels": ["gen", "gadget", "--labels", "-1", "-o", "{tmp}/g.ssc"],
    "random_ulc_gadget_zero_labels": ["gen", "gadget", "--random-ulc", "--labels", "0",
                                      "-o", "{tmp}/g.ssc"],
    "ulc_zero_labels": ["gen", "ulc", "--labels", "0", "-o", "{tmp}/u.json"],
    **{f"td_{name[:-3]}": ["solve", "{inst}", "--decomposition", "{tmp}/" + name]
       for name in BAD_FILES if name.endswith(".td")},
    **{f"ulc_{name[:-5]}": ["gen", "gadget", "--ulc", "{tmp}/" + name, "-o", "{tmp}/g.ssc"]
       for name in BAD_FILES if name.endswith(".json")},
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_without_traceback(case, tmp_path, capsys):
    inst = tmp_path / "in.ssc"
    run(capsys, "gen", "block", "--maxcut", "k3", "--st-demand", "-o", str(inst))
    # a valid decomposition of the K_3 block; "0" in place of its vertex 5
    td = "s td 3 3 5\nb 1 1 2 {}\nb 2 1 2 4\nb 3 1 2 3\n1 2\n1 3\n"
    (tmp_path / "ok.td").write_text(td.format(5))
    (tmp_path / "zero.td").write_text(td.format(0))
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(inst=inst, tmp=tmp_path) for a in BAD_INPUTS[case]]
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
    res = subprocess.run([sys.executable, "-m", "treecut.cli", *argv],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr


def test_byte_identical_across_hash_seeds(tmp_path):
    # set iteration order of str-keyed sets varies with PYTHONHASHSEED;
    # none of it may leak into emitted artifacts
    env_base = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
    inst = tmp_path / "in.ssc"
    outs = []
    for seed in ("1", "7"):
        env = {**env_base, "PYTHONHASHSEED": seed}
        subprocess.run([sys.executable, "-m", "treecut.cli", "gen", "block",
                        "--maxcut", "k3", "--st-demand", "-o", str(inst)],
                       env=env, check=True)
        res = subprocess.run([sys.executable, "-m", "treecut.cli", "solve",
                              str(inst), "--format", "json"],
                             env=env, check=True, capture_output=True)
        outs.append(res.stdout)
    assert outs[0] == outs[1]


def test_decompose_then_solve_round_trip(tmp_path, capsys):
    inst = tmp_path / "in.ssc"
    td = tmp_path / "in.td"
    run(capsys, "gen", "block", "--maxcut", "c5", "--st-demand", "-o", str(inst))
    code, _, _ = run(capsys, "decompose", str(inst), "-o", str(td))
    assert code == 0
    code, out, _ = run(capsys, "solve", str(inst), "--decomposition", str(td),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["within_factor_two"] is True


def test_gen_ulc_and_gadget_round_trip(tmp_path, capsys):
    ulc_file = tmp_path / "u.json"
    side = tmp_path / "u.meta.json"
    code, _, _ = run(capsys, "gen", "ulc", "--ulc-vertices", "4", "--delta", "2",
                     "--labels", "2", "--plant", "--seed", "2",
                     "-o", str(ulc_file), "--sidecar", str(side))
    assert code == 0
    assert json.loads(side.read_text())["optimum"] == "1"
    code, _, _ = run(capsys, "gen", "gadget", "--ulc", str(ulc_file),
                     "--alpha", "1/25", "-o", str(tmp_path / "g.ssc"))
    assert code == 0
    code, _, _ = run(capsys, "gen", "gadget", "--random-ulc", "--ulc-vertices", "3",
                     "--delta", "2", "--labels", "2", "-o", str(tmp_path / "g2.ssc"))
    assert code == 0
