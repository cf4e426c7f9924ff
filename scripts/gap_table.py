#!/usr/bin/env python3
"""Gap experiments over small bases: lifted LP value vs the exact optimum.

Writes one CSV row per (base, rounds, levels) configuration.  Powered
instances of at most 24 vertices get an exact sparsest-cut column from the
elimination oracle (phi_source "oracle"); larger ones report the formula
bound.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from treecut.generators import MaxCutInstance
from treecut.lift import GapReport, gap_experiment


CONFIGS = [
    ("p3", 2, 2),
    ("p3", 3, 3),
    ("k3", 2, 2),
    ("k3", 3, 2),
    ("k4", 2, 2),
    ("k5", 2, 2),
    ("k5", 3, 2),
    ("c5", 2, 2),
    ("c5", 3, 2),
]


def main():
    print(GapReport.csv_header())
    for name, rounds, levels in CONFIGS:
        t0 = time.monotonic()
        report = gap_experiment(MaxCutInstance.named(name), rounds, levels, name=name)
        print(report.csv_row(), flush=True)
        print(f"# {name} r={rounds} l={levels}: {time.monotonic() - t0:.1f}s",
              file=sys.stderr)


if __name__ == "__main__":
    main()
