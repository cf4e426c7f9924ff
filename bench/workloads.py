"""Seeded inputs and jobs of the treecut benchmark.

A workload is a sequence of passes; a pass is a fixed list of jobs made
from the seed.  Each job has a timed part (the call into treecut) and an
untimed exact check that raises `CheckFailed` on any violation and
otherwise returns a text digest of the exact outputs.

The random-instance generators are the benchmark's own copy of the
acceptance-corpus recipe, so that an edit under tests/ cannot move the
benchmark.  treecut functions are always called through their module
(`relaxation.ratio_search(...)`), so the tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from treecut import cli, decomposition, generators, instance, lift, oracle, relaxation, rounding

# corpus: the acceptance corpus's 100 graphs and demand pairs.  Each pass
# redraws every weight from the run's seed; seed 0's first pass is the
# acceptance corpus itself.  Keeping the graphs fixed keeps the LP shapes
# fixed, so seeds change pivot paths but not the mix of problem sizes.
# Positions with i % 7 == 6 go through `treecut solve` in-process.
CORPUS_SEED, CORPUS_COUNT, SMOKE_COUNT = 0, 100, 10
CLI_EVERY = 7

# certify: the nine scripts/gap_table.py configurations.
GAP_CONFIGS = (
    ("p3", 2, 2), ("p3", 3, 3), ("k3", 2, 2), ("k3", 3, 2), ("k4", 2, 2),
    ("k5", 2, 2), ("k5", 3, 2), ("c5", 2, 2), ("c5", 3, 2),
)
SMOKE_GAP_CONFIGS = (("k4", 2, 2), ("k5", 2, 2), ("c5", 2, 2))
GADGET_ALPHA = Fraction(1, 25)
LIFT_BASE, LIFT_ROUNDS, LIFT_LEVELS = "p3", 3, 3  # G_3(P_3), 131 vertices
SMOKE_LIFT_LEVELS = 2


class CheckFailed(Exception):
    """An exact check on a job's output failed."""


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str]


# ---------------------------------------------------------------------------
# Seeded generators: the acceptance-corpus recipe.
# ---------------------------------------------------------------------------

def random_rational(rng, max_num=8, max_den=6) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def series_parallel_edges(rng, n):
    edges = [(1, 2)]
    nxt = 3
    while nxt <= n:
        i = rng.randrange(len(edges))
        u, v = edges[i]
        if rng.random() < 0.5:
            edges.pop(i)  # series split of (u,v)
        edges.append((u, nxt))
        edges.append((nxt, v))
        nxt += 1
    return edges


def partial_three_tree_edges(rng, n, keep=0.8):
    edges = set()
    for i in range(1, 5):
        for j in range(i + 1, 5):
            edges.add((i, j))
    cliques = [(1, 2, 3, 4)]
    for v in range(5, n + 1):
        base = rng.choice(cliques)
        sub = tuple(sorted(rng.sample(base, 3)))
        for u in sub:
            edges.add((min(u, v), max(u, v)))
        cliques.append(sub + (v,))
    edges = sorted(edges)
    kept = {e for e in edges if rng.random() < keep}
    seen = {1}
    for u, v in edges:  # keep a connected skeleton
        if (u in seen) != (v in seen):
            kept.add((u, v))
            seen.update((u, v))
    return sorted(kept)


def random_demands(rng, n, count):
    dems = []
    for _ in range(count):
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u != v:
            dems.append((u, v, random_rational(rng)))
    if not dems:
        dems.append((1, n, Fraction(1)))
    return dems


def random_instance(rng, kind: str, n: int):
    if kind == "series-parallel":
        edges = series_parallel_edges(rng, n)
    elif kind == "tw3":
        edges = partial_three_tree_edges(rng, max(n, 5))
        n = max(n, 5)
    else:
        raise ValueError(kind)
    supply = [(u, v, random_rational(rng)) for u, v in edges]
    demand = random_demands(rng, n, rng.randint(2, 6))
    return instance.SparsestCutInstance.build(range(1, n + 1), supply, demand)


def acceptance_corpus(seed: int, count: int) -> list:
    """The approximation-guarantee corpus: series-parallel and treewidth-3
    instances, n <= 10, random rational weights."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        kind = "series-parallel" if i % 5 < 3 else "tw3"
        out.append(random_instance(rng, kind, rng.randint(4, 10)))
    return out


def reweight(inst, rng):
    """The same graph and demand pairs with every weight redrawn."""
    supply = [(u, v, random_rational(rng)) for u, v, _ in inst.supply_edges]
    demand = [(u, v, random_rational(rng)) for u, v, _ in inst.demand_edges]
    return instance.SparsestCutInstance.build(inst.vertices, supply, demand)


# ---------------------------------------------------------------------------
# corpus jobs.
# ---------------------------------------------------------------------------

def solve_pipeline(inst):
    """exact decomposition -> balance -> ratio_search -> derandomize -> evaluate_cut."""
    dec = decomposition.balance(decomposition.exact_decomposition(inst))
    rs = relaxation.ratio_search(inst, dec)
    cut, pot = rounding.derandomize(inst, rs.solution, dec, rs.alpha, rs.lp_value)
    return rs, cut, pot, instance.evaluate_cut(inst, cut)


def check_pipeline(rs, pot, sp, phi):
    require(sp.ratio is not None, "derandomized cut separates no demand")
    require(sp.ratio <= 2 * rs.ratio, f"sparsity {sp.ratio} > 2 * lp_ratio {rs.ratio}")
    require(rs.ratio <= phi.ratio, f"lp_ratio {rs.ratio} > phi {phi.ratio}")
    trace = pot.trace
    require(bool(trace), "empty potential trace")
    require(all(b <= a for a, b in zip(trace, trace[1:])), "potential trace increases")
    require(trace[-1] <= 0, f"final potential {trace[-1]} > 0")


def direct_job(label, inst) -> Job:
    def run():
        rs, cut, pot, sp = solve_pipeline(inst)
        _, phi = oracle.exact_sparsest_cut(inst)
        return rs, cut, pot, sp, phi

    def check(out):
        rs, cut, pot, sp, phi = out
        check_pipeline(rs, pot, sp, phi)
        return f"{rs.ratio}|{rs.alpha}|{sorted(map(str, cut.side_a))}|{sp.ratio}|{phi.ratio}"

    return Job(label, run, check)


def cli_job(label, inst, path) -> Job:
    """`treecut solve PATH --format json` in-process, then the oracle.

    The check re-runs the library pipeline untimed and requires the CLI's
    JSON to carry exactly the same rationals and cut.
    """
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["solve", path, "--format", "json"])
        _, phi = oracle.exact_sparsest_cut(inst)
        return code, out.getvalue(), err.getvalue(), phi

    def check(out):
        code, text, err, phi = out
        require(code == 0, f"treecut solve exited {code}: {err.strip()}")
        got = json.loads(text)
        rs, cut, pot, sp = solve_pipeline(inst)
        check_pipeline(rs, pot, sp, phi)
        want = {
            "lp_ratio": str(rs.ratio), "alpha": str(rs.alpha),
            "lp_capacity_value": str(rs.lp_value), "cut": sorted(map(str, cut.side_a)),
            "cut_sparsity": str(sp.ratio), "within_factor_two": True,
            "final_potential": str(pot.trace[-1]),
        }
        for key, value in want.items():
            require(got.get(key) == value, f"CLI {key} {got.get(key)!r} != library {value!r}")
        return text + str(phi.ratio)

    return Job(label, run, check)


class CorpusStream:
    """The corpus workload: the acceptance corpus, reweighted per pass."""

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.base = acceptance_corpus(CORPUS_SEED, SMOKE_COUNT if smoke else CORPUS_COUNT)
        self.weights = random.Random(seed)
        self.fresh = seed != CORPUS_SEED
        self.workdir = workdir
        self.passes = 0

    def next_instances(self) -> list:
        insts = self.base
        if self.fresh or self.passes:
            insts = [reweight(inst, self.weights) for inst in insts]
        self.passes += 1
        return insts

    def next_pass(self) -> list:
        jobs = []
        p = self.passes
        for i, inst in enumerate(self.next_instances()):
            label = f"corpus pass {p} #{i} n={inst.n}"
            if i % CLI_EVERY == CLI_EVERY - 1:
                path = os.path.join(self.workdir, f"corpus-{p}-{i}.ssc")
                with open(path, "w") as fh:
                    fh.write(instance.format_instance(inst))
                jobs.append(cli_job(label + " via cli", inst, path))
            else:
                jobs.append(direct_job(label, inst))
        return jobs


# ---------------------------------------------------------------------------
# certify jobs.
# ---------------------------------------------------------------------------

def gap_job(name, rounds, levels) -> Job:
    def run():
        return lift.gap_experiment(generators.MaxCutInstance.named(name), rounds, levels,
                                   name=name)

    def check(rep):
        require(rep.gap_via_lift == rep.gap_formula,
                f"gap_via_lift {rep.gap_via_lift} != gap_formula {rep.gap_formula}")
        return rep.csv_row()

    return Job(f"gap {name} r={rounds} l={levels}", run, check)


def triangle_ulc():
    """Three pairwise 2-cliques with identity constraints; 2-nice."""
    ident = (0, 1)
    return generators.UlcInstance((1, 2, 3), ((1, 2, ident), (2, 3, ident), (1, 3, ident)),
                                  2, ((0,), (1,), (2,)))


def gadget_job(label, ulc) -> Job:
    """Build the hypercube gadget and audit every cut class."""
    def run():
        gadget = generators.ug_gadget(ulc, GADGET_ALPHA)
        return gadget, oracle.audit_cuts(gadget.instance)

    def check(out):
        gadget, audit = out
        inst = gadget.instance
        require(inst.total_demand == 1, f"gadget total demand {inst.total_demand} != 1")
        require(audit.n_cut_classes == 1 << (inst.n - 1), "audit skipped cut classes")
        labeling, satisfied = ulc.best_labeling()
        ev = instance.evaluate_cut(inst, generators.dictator_cut(gadget, labeling))
        require(ev.cut_capacity == 1 + gadget.alpha / 2,
                f"dictator capacity {ev.cut_capacity} != 1 + alpha/2")
        require(ev.cut_demand >= satisfied, "dictator cut separates less than the labeling")
        require(audit.min_admissible_capacity[1] <= ev.cut_capacity,
                "audited minimum admissible capacity exceeds the dictator cut")
        return json.dumps(audit.to_dict(), sort_keys=True)

    return Job(label, run, check)


def check_distribution(dist, T):
    require(sum(dist.values()) == 1, f"lift distribution over {sorted(map(str, T))} sums to "
            f"{sum(dist.values())}")
    require(all(p >= 0 for p in dist.values()), "negative lift probability")
    require(all(sel <= T for sel in dist), "lift selection outside its target set")


def marginal(dist, q):
    out = {}
    for sel, p in dist.items():
        key = sel & q
        out[key] = out.get(key, Fraction(0)) + p
    return {k: p for k, p in out.items() if p}


def powered_vertex_count(levels: int) -> int:
    block, dec = generators.building_block(generators.MaxCutInstance.named(LIFT_BASE),
                                           include_st_demand=False)
    return len(generators.power(block, levels, dec).instance.vertices)


def lift_jobs(levels: int, n_vertices: int, rng) -> list:
    """make_lift_context on G_levels(P_3), then one lift_distribution call
    per job on every |T| <= 2 subset: the singletons first, then the pairs
    in a seeded order.  The jobs share the context and its memo, so the
    order decides which call pays for a shared sub-distribution."""
    state = {}

    def make_context():
        H = generators.MaxCutInstance.named(LIFT_BASE)
        state["ctx"] = lift.make_lift_context(H, LIFT_ROUNDS, levels)
        return state["ctx"]

    def check_context(ctx):
        require(ctx.base_value > 0, "base MaxCut LP value is not positive")
        require(len(ctx.powered.instance.vertices) == n_vertices,
                "lift context powered a different instance")
        return f"{ctx.base_value}|{n_vertices}"

    def job(target):
        def run():
            T = frozenset(state["ctx"].powered.instance.vertices[i] for i in target)
            return T, lift.lift_distribution(state["ctx"], T)

        def check(out):
            T, dist = out
            check_distribution(dist, T)
            for q in T if len(T) > 1 else ():
                single = {k: p for k, p in lift.lift_distribution(state["ctx"], [q]).items() if p}
                require(marginal(dist, frozenset([q])) == single,
                        f"pair {sorted(map(str, T))} does not marginalise onto {q}")
            return repr(sorted((sorted(map(str, sel)), str(p)) for sel, p in dist.items()))

        return Job(f"lift {target}", run, check)

    pairs = list(itertools.combinations(range(n_vertices), 2))
    rng.shuffle(pairs)
    return ([Job(f"lift context P3 l={levels}", make_context, check_context)]
            + [job((v,)) for v in range(n_vertices)] + [job(t) for t in pairs])


class CertifyStream:
    """The certify workload: gap experiments, the gadget audit, the lift."""

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.lift_levels = SMOKE_LIFT_LEVELS if smoke else LIFT_LEVELS
        self.lift_vertices = powered_vertex_count(self.lift_levels)

    def next_pass(self) -> list:
        configs = SMOKE_GAP_CONFIGS if self.smoke else GAP_CONFIGS
        others = [gap_job(*cfg) for cfg in configs]
        others.append(gadget_job("gadget triangle ULC", triangle_ulc()))
        lifts = lift_jobs(self.lift_levels, self.lift_vertices, self.rng)
        # The lift calls are spread between the other jobs, so that their
        # latencies sample the whole pass rather than one second of it.
        jobs, calls = lifts[:1], lifts[1:]
        for k, other in enumerate(others):
            lo, hi = (len(calls) * i // len(others) for i in (k, k + 1))
            jobs.extend(calls[lo:hi])
            jobs.append(other)
        return jobs


def make_stream(workload: str, seed: int, workdir: str, smoke: bool = False):
    if workload == "corpus":
        return CorpusStream(seed, workdir, smoke)
    if workload == "certify":
        return CertifyStream(seed, workdir, smoke)
    raise ValueError(f"unknown workload {workload!r}")
