import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def run_script(name, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True, timeout=300)


def test_block_table_runs():
    res = run_script("block_table.py")
    assert res.returncode == 0
    assert "3/5" in res.stdout  # the K_3 block row


def test_approx_benchmark_runs():
    res = run_script("approx_benchmark.py", "5", "3")
    assert res.returncode == 0
    assert "5 instances" in res.stdout


def test_gap_table_runs():
    res = run_script("gap_table.py")
    assert res.returncode == 0
    lines = [l for l in res.stdout.strip().split("\n") if not l.startswith("#")]
    assert len(lines) == 10  # header + 9 configurations
    assert any(",5/4," in l for l in lines)  # the K_5 r=2 l=2 gap


def test_soak_runs():
    res = run_script("soak.py", "4", "1")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "soak clean: 4 instances" in res.stdout
