#!/usr/bin/env python3
"""Run the factor-2 pipeline over the random acceptance corpus and report
per-instance LP ratio, derandomized sparsity, and the exact optimum."""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from corpus import acceptance_corpus

from treecut.decomposition import exact_decomposition
from treecut.oracle import exact_sparsest_cut
from treecut.pipeline import solve


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    t0 = time.monotonic()
    worst = 0.0
    tight = 0
    print(f"{'n':>3} {'tw':>3} {'lp ratio':>12} {'cut sparsity':>13} "
          f"{'optimum':>12} {'cut/opt':>8}")
    for inst in acceptance_corpus(seed=seed, count=count):
        dec = exact_decomposition(inst)
        res = solve(inst, dec)
        rs, sparsity = res.lp, res.sparsity.ratio
        _, phi = exact_sparsest_cut(inst)
        assert rs.ratio <= phi.ratio
        approx = float(sparsity / phi.ratio)
        worst = max(worst, approx)
        tight += rs.ratio == phi.ratio
        print(f"{inst.n:>3} {dec.width:>3} {str(rs.ratio):>12} {str(sparsity):>13} "
              f"{str(phi.ratio):>12} {approx:>8.4f}")
    dt = time.monotonic() - t0
    print(f"\n{count} instances in {dt:.1f}s; worst cut/optimum {worst:.4f}; "
          f"LP tight on {tight}/{count}")


if __name__ == "__main__":
    main()
