"""In-memory span tracer that wraps treecut's public functions from outside.

`install` replaces each traced function under every name a treecut module
holds it by (cli and lift import several functions by name; ratio_search
reaches build_sparsestcut_lp and the simplex through module globals), and
replaces the `Simplex` methods on the class.  `uninstall` restores them.

A span is [name, start, end, parent index, job id, counters].  Spans stay
in memory; `write` dumps them as JSON lines when the run ends.  A span's
self time is its duration minus the durations of its direct children,
which in this single-threaded run are disjoint sub-intervals.
"""

from __future__ import annotations

import functools
import json
import sys
import time

GENERATOR_FUNCTIONS = ("building_block", "power", "ug_gadget")
ORACLE_FUNCTIONS = ("exact_sparsest_cut", "audit_cuts", "exact_maxcut")


class Tracer:
    def __init__(self):
        self.spans = []
        self.violations = []  # (job id, message)
        self.job = None
        self.active = False
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = pre(args) if pre else None
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.job, {}]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if post:
                post(tracer, span, args, out, state)
            return out

        return traced

    def patch_function(self, module, attr, name, pre=None, post=None):
        original = getattr(module, attr)
        traced = self.wrap(name, original, pre, post)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "treecut":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr, name, pre=None, post=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, pre, post))

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def write(self, path: str):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, job, counters in self.spans:
                fh.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7),
                                     parent, job, counters]) + "\n")


# ---------------------------------------------------------------------------
# Counters recorded at the layer boundaries.
# ---------------------------------------------------------------------------

def _lp_shape(tracer, span, args, out, state):
    program = args[0].program
    span[5].update(rows=len(program.constraints), cols=len(program.variables),
                   nonzeros=sum(len(coeffs) for coeffs, _, _ in program.constraints))


def _pivots_before(args):
    return args[0].pivots


def _pivots_and_gap(tracer, span, args, out, before):
    span[5]["pivots"] = args[0].pivots - before
    if out.optimal and args[0].mode == "rational" and out.duality_gap != 0:
        tracer.violations.append((tracer.job, f"{span[0]}: duality gap {out.duality_gap}"))


def _iterations(tracer, span, args, out, state):
    span[5]["iterations"] = out.iterations


def _trace_len(tracer, span, args, out, state):
    span[5]["trace_len"] = len(out[1].trace)


def _cut_classes(tracer, span, args, out, state):
    span[5]["cut_classes"] = 1 << (len(args[0].vertices) - 1)


def install(tracer: Tracer):
    from treecut import cli, decomposition, generators, lift, oracle, relaxation, rounding, simplex

    tracer.patch_function(decomposition, "exact_decomposition", "decomposition.exact_decomposition")
    tracer.patch_function(decomposition, "balance", "decomposition.balance")
    tracer.patch_function(relaxation, "build_sparsestcut_lp", "relaxation.build_sparsestcut_lp")
    tracer.patch_function(relaxation, "build_maxcut_lp", "relaxation.build_maxcut_lp")
    tracer.patch_function(relaxation, "ratio_search", "relaxation.ratio_search",
                          post=_iterations)
    tracer.patch_method(simplex.Simplex, "__init__", "simplex.init", post=_lp_shape)
    tracer.patch_method(simplex.Simplex, "solve", "simplex.solve",
                        pre=_pivots_before, post=_pivots_and_gap)
    tracer.patch_method(simplex.Simplex, "reoptimize", "simplex.reoptimize",
                        pre=_pivots_before, post=_pivots_and_gap)
    tracer.patch_function(rounding, "derandomize", "rounding.derandomize", post=_trace_len)
    for fn in ORACLE_FUNCTIONS:
        tracer.patch_function(oracle, fn, "oracle.enumerate", post=_cut_classes)
    tracer.patch_function(lift, "make_lift_context", "lift.make_lift_context")
    tracer.patch_function(lift, "lifted_value", "lift.lifted_value")
    tracer.patch_function(lift, "lift_distribution", "lift.lift_distribution")
    for fn in GENERATOR_FUNCTIONS:
        tracer.patch_function(generators, fn, "generators." + fn)
    tracer.patch_function(cli, "main", "cli.main")


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------

def group_of(name: str) -> str:
    return "generators" if name.startswith("generators.") else name


def summarize(spans) -> dict:
    """Per span group: calls, inclusive seconds of outermost spans (`s`),
    self seconds (`self_s`) and summed counters."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, start, end, parent, _, counters) in enumerate(spans):
        group = group_of(name)
        st = stats.setdefault(group, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += end - start - child[i]
        p = parent
        while p >= 0 and group_of(spans[p][0]) != group:
            p = spans[p][3]
        if p < 0:
            st["s"] += end - start
        for key, value in counters.items():
            st[key] = st.get(key, 0) + value
    return stats
