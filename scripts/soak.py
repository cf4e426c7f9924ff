#!/usr/bin/env python3
"""Randomized soak: run the full pipeline on many random instances and
check every exact invariant along the way.  Exits nonzero on the first
violation; meant for long confidence runs, not the unit suite."""

import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from corpus import random_instance

from treecut.decomposition import validate
from treecut.errors import InvariantError
from treecut.instance import connected_refinement, evaluate_cut
from treecut.oracle import exact_sparsest_cut
from treecut.pipeline import solve
from treecut.rounding import sample_state


def check(instance, rng):
    res = solve(instance)  # checks the factor-2 bound and the potential trace
    bal, rs = res.dec, res.lp
    assert validate(instance, bal).ok, "balanced decomposition invalid"
    assert bal.is_binary()
    assert rs.solution.validate() == [], "solution fails consistency"

    best, phi = exact_sparsest_cut(instance)
    assert rs.ratio <= phi.ratio, "relaxation above optimum"
    assert res.sparsity.ratio <= 2 * phi.ratio

    state = sample_state(rs.solution, bal, seed=rng.randrange(1 << 30))
    assert state.check_extension(bal)

    refined = connected_refinement(instance, best)
    assert evaluate_cut(instance, refined).ratio == phi.ratio, "optimum not connected-stable"
    return rs.ratio == phi.ratio


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else int(time.time())
    rng = random.Random(seed)
    t0 = time.monotonic()
    tight = 0
    for i in range(count):
        kind = rng.choice(["series-parallel", "series-parallel", "tw3"])
        n = rng.randint(3, 10)
        inst = random_instance(rng, kind, n)
        try:
            tight += check(inst, rng)
        except (AssertionError, InvariantError) as exc:
            print(f"FAILED on instance {i} (seed {seed}): {exc}")
            print(inst)
            return 1
        if (i + 1) % 25 == 0:
            print(f"{i + 1}/{count} ok ({time.monotonic() - t0:.0f}s)", flush=True)
    print(f"soak clean: {count} instances, LP tight on {tight}, seed {seed}, "
          f"{time.monotonic() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
