"""Tests of the benchmark itself: its generators, determinism and contract.

    python -m pytest bench/test_bench.py

Each workload runs in its reduced-size smoke form.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root, workload, trace, hash_seed="0"):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=170)


def fingerprint_of(stdout):
    line = next(l for l in stdout.splitlines() if l.startswith("fingerprint") and ": {" in l)
    return json.loads(line.split(": ", 1)[1])


def test_default_seed_reproduces_acceptance_corpus(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from corpus import acceptance_corpus
    stream = workloads.CorpusStream(0, str(tmp_path))
    assert stream.next_instances() == acceptance_corpus(0, 100)


def test_later_passes_reweight_the_same_graphs(tmp_path):
    stream = workloads.CorpusStream(5, str(tmp_path))
    first, second = stream.next_instances(), stream.next_instances()
    assert first != second
    for a, b in zip(first, second):
        assert a.vertices == b.vertices
        assert [e[:2] for e in a.supply_edges] == [e[:2] for e in b.supply_edges]
        assert [e[:2] for e in a.demand_edges] == [e[:2] for e in b.demand_edges]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_runs_are_correct_and_deterministic(workload):
    first, second = bench(ROOT, workload, 1, "1"), bench(ROOT, workload, 1, "2")
    for done in (first, second):
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert fingerprint_of(first.stdout) == fingerprint_of(second.stdout)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    done = bench(ROOT, workload, 0)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    import run

    def broken(*args):
        raise workloads.CheckFailed("injected")

    monkeypatch.setattr(workloads, "check_pipeline", broken)
    code = run.main(["--workload", "corpus", "--seed", "0", "--seconds", "1", "--trace", "0",
                     "--smoke"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(str(tmp_path), "corpus", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
