import hashlib
import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def run_script(name, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True, timeout=300)


# sha256 of scripts/block_table.py's stdout, recorded before the oracle's
# audit lost its `separating` override.  The script audits s-t blocks, so
# it covers the admissible extrema that no corpus instance reaches.
BLOCK_TABLE_DIGEST = "bd69c78d76b65b7ccc56282f9adbdba64facb9c95d0558843d340a9d0adfd1b8"


def test_block_table_runs():
    res = run_script("block_table.py")
    assert res.returncode == 0
    assert "3/5" in res.stdout  # the K_3 block row
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == BLOCK_TABLE_DIGEST


def test_approx_benchmark_runs():
    res = run_script("approx_benchmark.py", "5", "3")
    assert res.returncode == 0
    assert "5 instances" in res.stdout


# sha256 of scripts/gap_table.py's stdout, recorded before the lift DP
# moved to integer arithmetic.
GAP_TABLE_DIGEST = "865c76ad7a9a83a035bb8df79ebf2f321d3c6b988eff72b91aec170c5dac7041"


def test_gap_table_runs():
    res = run_script("gap_table.py")
    assert res.returncode == 0
    lines = [l for l in res.stdout.strip().split("\n") if not l.startswith("#")]
    assert len(lines) == 10  # header + 9 configurations
    assert any(",5/4," in l for l in lines)  # the K_5 r=2 l=2 gap
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == GAP_TABLE_DIGEST


def test_soak_runs():
    res = run_script("soak.py", "4", "1")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "soak clean: 4 instances" in res.stdout
