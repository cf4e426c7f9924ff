import json
import os
import subprocess
import sys

import pytest

from treecut.cli import main
from treecut.instance import parse_instance


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
    from treecut.relaxation import parse_lp
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


# Each case exits 2 (input error) without a traceback: an unwritable
# output path, a malformed rational, too few SA rounds, a `.td` bag member
# or root bag outside the 1-based range, and the removed LP-mode flags.
BAD_INPUTS = {
    "unwritable_output": ["solve", "{inst}", "-o", "{tmp}/missing/x.json"],
    "bad_alpha": ["gen", "gadget", "--alpha", "abc"],
    "zero_rounds": ["gap", "--base", "k2", "--rounds", "0"],
    "td_member_zero": ["solve", "{inst}", "--decomposition", "{tmp}/zero.td"],
    "td_root_out_of_range": ["solve", "{inst}", "--decomposition", "{tmp}/ok.td",
                             "--root", "9"],
    "removed_arith_flag": ["solve", "{inst}", "--arith", "float"],
    "removed_alpha_mode_flag": ["solve", "{inst}", "--alpha-mode", "grid"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_without_traceback(case, tmp_path, capsys):
    inst = tmp_path / "in.ssc"
    run(capsys, "gen", "block", "--maxcut", "k3", "--st-demand", "-o", str(inst))
    # a valid decomposition of the K_3 block; "0" in place of its vertex 5
    td = "s td 3 3 5\nb 1 1 2 {}\nb 2 1 2 4\nb 3 1 2 3\n1 2\n1 3\n"
    (tmp_path / "ok.td").write_text(td.format(5))
    (tmp_path / "zero.td").write_text(td.format(0))
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
