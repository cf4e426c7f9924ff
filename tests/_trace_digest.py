"""Digests of what the pipeline computes, over the acceptance corpus and
three fractals: the exact derandomization potential traces, the pared
LPs' shape totals and the pivots of the corpus ratio searches; the text
of the full Sherali-Adams MaxCut LPs the gap table solves; and the
lifted distributions of G_3(P_3) and the lift calls they take.

Run as a script, it prints the potential-trace digest; it needs only the
standard library and `treecut` on the path:

    PYTHONPATH=src python tests/_trace_digest.py

and the MaxCut LP text digest, the corpus pivot count, the lift
distribution digest or the lift's call count by

    PYTHONPATH=src:tests python -c \
        'import _trace_digest; print(_trace_digest.maxcut_lp_text_digest())'
    PYTHONPATH=src:tests python -c \
        'import _trace_digest; print(_trace_digest.ratio_search_pivots())'
    PYTHONPATH=src:tests python -c \
        'import _trace_digest; print(_trace_digest.lift_distribution_digest())'
    PYTHONPATH=src:tests python -c \
        'import _trace_digest; print(_trace_digest.lift_call_count())'
"""

import hashlib
import itertools
import os
import sys
from unittest import mock

sys.path.insert(0, os.path.dirname(__file__))

from treecut import lift, pipeline, relaxation, simplex  # noqa: E402
from treecut.decomposition import (balance, exact_decomposition,  # noqa: E402
                                   format_decomposition, parse_decomposition)
from treecut.generators import MaxCutInstance, building_block, power  # noqa: E402
from treecut.instance import format_instance, parse_instance  # noqa: E402
from treecut.lift import lift_distribution, make_lift_context  # noqa: E402
from treecut.relaxation import build_maxcut_lp, build_sparsestcut_lp, format_lp  # noqa: E402

from corpus import acceptance_corpus  # noqa: E402

FRACTAL_BASES = ("p3", "k3", "k4")
# the nine gap-table (base, rounds) configurations, in this order
MAXCUT_CONFIGS = [("p3", 2), ("p3", 3), ("k3", 2), ("k3", 3), ("k4", 2),
                  ("k5", 2), ("k5", 3), ("c5", 2), ("c5", 3)]


def fractal(base: str):
    """`treecut gen power --maxcut <base> --levels 2` read back through its
    `.ssc` and `.td`, as `solve --decomposition` sees it."""
    block, block_dec = building_block(MaxCutInstance.named(base), include_st_demand=False)
    powered = power(block, 2, block_dec)
    td = format_decomposition(powered.decomposition, powered.instance)
    inst = parse_instance(format_instance(powered.instance))
    return inst, parse_decomposition(td, inst, root=0)


def potential_trace_digest() -> str:
    """sha256 over every potential trace, one line per instance with the
    `str` of each entry: acceptance_corpus(0, 100), then the fractals."""
    runs = [(inst, None) for inst in acceptance_corpus(0, 100)]
    runs += [fractal(base) for base in FRACTAL_BASES]
    h = hashlib.sha256()
    for inst, dec in runs:
        trace = pipeline.solve(inst, dec).potential.trace
        h.update((" ".join(map(str, trace)) + "\n").encode())
    return h.hexdigest()


def pared_lp_shape_totals() -> tuple:
    """(rows, columns, nonzeros) summed over the pared LPs the ratio search
    builds for acceptance_corpus(0, 100)."""
    rows = cols = nonzeros = 0
    for inst in acceptance_corpus(0, 100):
        dec = balance(exact_decomposition(inst))
        program = build_sparsestcut_lp(inst, dec)
        rows += len(program.constraints)
        cols += len(program.variables)
        nonzeros += sum(len(coeffs) for coeffs, _, _ in program.constraints)
    return rows, cols, nonzeros


def ratio_search_solvers() -> list:
    """The `Simplex` of each ratio search over acceptance_corpus(0, 100),
    as each search leaves it."""
    solvers = []
    init = simplex.Simplex.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        solvers.append(self)

    with mock.patch.object(simplex.Simplex, "__init__", recorded):
        for inst in acceptance_corpus(0, 100):
            relaxation.ratio_search(inst, balance(exact_decomposition(inst)))
    return solvers


def ratio_search_pivots() -> int:
    """`Simplex.pivots` summed over the corpus ratio searches."""
    return sum(solver.pivots for solver in ratio_search_solvers())


def maxcut_lp_text_digest() -> str:
    """sha256 of `format_lp(build_maxcut_lp(H, r))` over MAXCUT_CONFIGS."""
    h = hashlib.sha256()
    for name, rounds in MAXCUT_CONFIGS:
        h.update(format_lp(build_maxcut_lp(MaxCutInstance.named(name), rounds)).encode())
    return h.hexdigest()


def small_targets(vertices) -> list:
    """Every set of one or two vertices: singletons, then pairs, in vertex order."""
    return [T for k in (1, 2) for T in itertools.combinations(vertices, k)]


def lift_distribution_digest() -> str:
    """sha256 of the sorted `str` form of every |T| <= 2 lifted
    distribution of G_3(P_3) at rounds 3, one line per set of
    `small_targets`."""
    ctx = make_lift_context(MaxCutInstance.path(3), 3, 3)
    h = hashlib.sha256()
    for T in small_targets(ctx.powered.instance.vertices):
        dist = lift_distribution(ctx, T)
        text = str(sorted((sorted(map(str, sel)), str(p)) for sel, p in dist.items()))
        h.update(text.encode() + b"\n")
    return h.hexdigest()


def lift_call_count() -> int:
    """lift_distribution calls, the recursive ones included, for the
    targets of `lift_distribution_digest`."""
    ctx = make_lift_context(MaxCutInstance.path(3), 3, 3)
    call, calls = lift.lift_distribution, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return call(*args, **kwargs)

    with mock.patch.object(lift, "lift_distribution", counted):
        for T in small_targets(ctx.powered.instance.vertices):
            lift.lift_distribution(ctx, T)
    return calls[0]


if __name__ == "__main__":
    print(potential_trace_digest())
