#!/usr/bin/env python3
"""The treecut benchmark: one workload, closed loop, single process.

    python3 bench/run.py --workload {corpus,certify} --seed N --seconds S --trace {0,1}

Run from a checkout: treecut is imported from its `src/` directory, and the
run fails (nonzero exit, no result line) when that is missing.  The
workload's passes run back to back, each job starting when the previous
one returns, while the next pass is expected to end within `--seconds`;
only whole passes run, and always at least one.  Every
job is checked with exact rational inequalities after its timed part.

--trace 0 prints the end-to-end metrics; --trace 1 runs each pass once
untraced and once traced (alternating which goes first) and prints the
per-layer metrics from the traced runs.  --smoke runs one reduced pass.
The last line of stdout is the JSON result; the exit code is 1 when any job
failed.  See bench/notes.json for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
# setup_s is the median of this many set-ups: the run's own and the rest in
# fresh interpreters.  On a shared 2-core machine, back-to-back set-ups in
# fresh interpreters spread by 16-31% (IQR/median); their median is steadier.
SETUP_SAMPLES = 9
PASS_STRIDE = 100_000  # job id = pass index * PASS_STRIDE + position


def import_program():
    """Put the checkout's src/ first on sys.path and import the benchmark."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "treecut", "__init__.py")):
        raise SystemExit(f"error: treecut sources not found under {src}")
    sys.path.insert(0, src)
    import treecut
    if os.path.dirname(os.path.dirname(os.path.abspath(treecut.__file__))) != src:
        raise SystemExit(f"error: imported treecut from {treecut.__file__}, not {src}")
    import tracer
    import workloads
    return workloads, tracer


def set_up(workload, seed, workdir, smoke):
    """Import treecut and build the first pass's inputs, the work setup_s
    times.  Returns (seconds, workloads, tracer module, stream, first pass)."""
    t0 = time.perf_counter()
    workloads, tracing = import_program()
    stream = workloads.make_stream(workload, seed, workdir, smoke)
    first_pass = stream.next_pass()
    return time.perf_counter() - t0, workloads, tracing, stream, first_pass


def fresh_set_up_seconds(args, workdir) -> float:
    """set_up's time in a fresh interpreter, where treecut is not yet imported."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(run.set_up(sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5] == '1')[0])")
    done = subprocess.run([sys.executable, "-c", code, BENCH, args.workload, str(args.seed),
                           workdir, "1" if args.smoke else "0"],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def run_pass(workloads, jobs, pass_index, tracer):
    """Run every job of a pass.  Returns per-job (seconds or None, digest)
    and the failures as (label, message)."""
    results, failures = [], []
    for j, job in enumerate(jobs):
        job_id = pass_index * PASS_STRIDE + j
        error = None
        seen = 0
        if tracer:
            tracer.job, tracer.active, seen = job_id, True, len(tracer.violations)
        start = time.perf_counter()
        try:
            out = job.run()
        except Exception as exc:  # a failed job is counted; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        digest = ""
        if tracer:
            tracer.active = False
            error = error or "; ".join(msg for _, msg in tracer.violations[seen:]) or None
        if error is None:
            try:
                digest = hashlib.sha256(job.check(out).encode()).hexdigest()
            except workloads.CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception as exc:  # a crashing check is a failed job too
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append((job.label, error))
            seconds = None
        results.append((seconds, digest))
    return results, failures


def percentiles(latencies):
    """p50, p90 and the number of samples beyond p90 (zeros without samples)."""
    if len(latencies) < 2:
        return (latencies or [0.0]) * 2 + [0]
    q = statistics.quantiles(latencies, n=10)
    return q[4], q[8], sum(1 for x in latencies if x > q[8])


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(stats, n_jobs, overhead_frac):
    def get(group, key):
        return stats.get(group, {}).get(key, 0)

    def per_job(group, key="s"):
        return ratio(get(group, key), n_jobs)

    solve_s, reopt_s = get("simplex.solve", "s"), get("simplex.reoptimize", "s")
    pivots = get("simplex.solve", "pivots") + get("simplex.reoptimize", "pivots")
    inits = get("simplex.init", "calls")
    return [
        ("simplex.init.s", "s", per_job("simplex.init")),
        ("simplex.solve.s", "s", per_job("simplex.solve")),
        ("simplex.solve.pivots", "count", per_job("simplex.solve", "pivots")),
        ("simplex.reoptimize.s", "s", per_job("simplex.reoptimize")),
        ("simplex.reoptimize.calls", "count", per_job("simplex.reoptimize", "calls")),
        ("simplex.reoptimize.pivots", "count", per_job("simplex.reoptimize", "pivots")),
        ("simplex.s_per_pivot", "s", ratio(solve_s + reopt_s, pivots)),
        ("relaxation.build_sparsestcut_lp.s", "s", per_job("relaxation.build_sparsestcut_lp")),
        ("relaxation.lp.rows", "count", ratio(get("simplex.init", "rows"), inits)),
        ("relaxation.lp.cols", "count", ratio(get("simplex.init", "cols"), inits)),
        ("relaxation.lp.nonzeros", "count", ratio(get("simplex.init", "nonzeros"), inits)),
        ("relaxation.ratio_search.self_s", "s", per_job("relaxation.ratio_search", "self_s")),
        ("relaxation.ratio_search.iterations", "count",
         ratio(get("relaxation.ratio_search", "iterations"),
               get("relaxation.ratio_search", "calls"))),
        ("decomposition.exact_decomposition.s", "s",
         per_job("decomposition.exact_decomposition")),
        ("decomposition.balance.s", "s", per_job("decomposition.balance")),
        ("oracle.enumerate.s", "s", per_job("oracle.enumerate")),
        ("oracle.cut_classes", "count", per_job("oracle.enumerate", "cut_classes")),
        ("oracle.classes_per_s", "1/s",
         ratio(get("oracle.enumerate", "cut_classes"), get("oracle.enumerate", "s"))),
        ("lift.make_lift_context.self_s", "s", per_job("lift.make_lift_context", "self_s")),
        ("lift.lifted_value.s", "s", per_job("lift.lifted_value")),
        ("lift.lift_distribution.s", "s", per_job("lift.lift_distribution")),
        ("lift.lift_distribution.calls", "count", per_job("lift.lift_distribution", "calls")),
        ("rounding.derandomize.s", "s", per_job("rounding.derandomize")),
        ("rounding.derandomize.trace_len", "count",
         ratio(get("rounding.derandomize", "trace_len"), get("rounding.derandomize", "calls"))),
        ("generators.s", "s", per_job("generators")),
        ("cli.main.self_s", "s", per_job("cli.main", "self_s")),
        ("trace.overhead_frac", "ratio", overhead_frac),
    ]


def fingerprint(digests, spans=None):
    """Digest of the first pass's exact outputs, plus its deterministic
    counters when the pass was traced."""
    fp = {"jobs": len(digests),
          "outputs": hashlib.sha256("".join(digests).encode()).hexdigest()[:32]}
    if spans is not None:
        counters = {}
        for name, _, _, _, job, span_counters in spans:
            if job >= PASS_STRIDE:
                continue
            counters[f"{name}.calls"] = counters.get(f"{name}.calls", 0) + 1
            for key, value in span_counters.items():
                counters[f"{name}.{key}"] = counters.get(f"{name}.{key}", 0) + value
        fp["counters"] = dict(sorted(counters.items()))
    return fp


def compare_reference(key, fp):
    with open(os.path.join(BENCH, "notes.json")) as fh:
        ref = json.load(fh).get("fingerprints", {}).get(key)
    if ref is None:
        return "no reference recorded"
    changed = [k for k in ("jobs", "outputs") if ref.get(k) != fp.get(k)]
    if "counters" in ref and "counters" in fp:
        keys = set(ref["counters"]) | set(fp["counters"])
        changed += sorted(k for k in keys if ref["counters"].get(k) != fp["counters"].get(k))
    return "matches reference" if not changed else "CHANGED vs reference: " + ", ".join(changed)


def measure(args, workloads, tracing, stream, first_pass):
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    pass_seconds, traced_seconds, untraced_seconds = [], [], []
    latencies, failures = [], []
    attempted = 0
    first_digests = None
    jobs, p = first_pass, 0
    try:
        while True:
            pass_start = time.perf_counter()
            if tracer is None:
                results, fails = run_pass(workloads, jobs, p, None)
                runs = [(results, fails, None)]
            else:
                order = (False, True) if p % 2 == 0 else (True, False)
                runs = []
                for traced in order:
                    results, fails = run_pass(workloads, jobs, p, tracer if traced else None)
                    runs.append((results, fails, traced))
                digests = [[d for _, d in r] for r, _, _ in runs]
                for job, a, b in zip(jobs, *digests):
                    if a and b and a != b:
                        failures.append((job.label, "traced and untraced outputs differ"))
            for results, fails, traced in runs:
                attempted += len(results)
                failures.extend(fails)
                ok = [s for s, _ in results if s is not None]
                if traced is None:
                    latencies.extend(ok)
                    pass_seconds.append(sum(ok))
                else:
                    (traced_seconds if traced else untraced_seconds).append(sum(ok))
            if first_digests is None:
                first_digests = [d for _, d in runs[-1][0]]
            p += 1
            # Stop before a pass that, taking as long as this one, would end
            # after --seconds: the run measures at most about that long.
            now = time.perf_counter()
            if args.smoke or (now - start) + (now - pass_start) > args.seconds:
                break
            jobs = stream.next_pass()
    finally:
        if tracer:
            tracer.uninstall()
    return {"passes": p, "pass_seconds": pass_seconds, "traced_seconds": traced_seconds,
            "untraced_seconds": untraced_seconds, "latencies": latencies,
            "failures": failures, "attempted": attempted, "tracer": tracer,
            "first_digests": first_digests, "elapsed": time.perf_counter() - start}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "certify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one reduced-size pass")
    args = ap.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup, workloads, tracing, stream, first_pass = set_up(
            args.workload, args.seed, workdir, args.smoke)
        setups = [setup] + [fresh_set_up_seconds(args, workdir)
                            for _ in range(SETUP_SAMPLES - 1)]
        m = measure(args, workloads, tracing, stream, first_pass)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = m["failures"]
    n_failed = len(failures)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}; python "
          f"{platform.python_version()}, nproc {os.cpu_count()}; {m['passes']} passes, "
          f"{m['attempted']} jobs in {m['elapsed']:.1f} s")
    if m["pass_seconds"]:
        print("pass seconds " + " ".join(f"{x:.3f}" for x in m["pass_seconds"]))
    for label, message in failures[:20]:
        print(f"FAILED {label}: {message}")
    print(f"failed_frac {n_failed / max(m['attempted'], 1):.6g} "
          f"({n_failed}/{m['attempted']})")

    tracer = m["tracer"]
    fp = fingerprint(m["first_digests"], tracer.spans if tracer else None)
    key = f"{args.workload} seed={args.seed}{' smoke' if args.smoke else ''}"
    print(f"fingerprint {key}: {json.dumps(fp, sort_keys=True)}")
    print(f"fingerprint {key}: {compare_reference(key, fp)}")

    if tracer is None:
        lat = m["latencies"]
        p50, p90, beyond = percentiles(lat)
        # Printed, not in the result: certify's median lift call slows by up
        # to 1.7x when the shared host is busy (see bench/notes.json).
        print(f"{'job_s.p50':38} {p50:<14.6g} {'s':6} {len(lat)} samples, not in the result")
        rows = [
            ("setup_s", "s", statistics.median(setups),
             f"median of {len(setups)} set-ups: import treecut + build the first pass's inputs"),
            ("wall_s", "s", statistics.median(m["pass_seconds"] or [0.0]),
             f"median over {len(m['pass_seconds'])} passes of summed job time"),
            ("jobs_per_s", "1/s", ratio(len(lat), sum(m["pass_seconds"])),
             f"{len(lat)} completed jobs"),
            ("job_s.p90", "s", p90, f"{len(lat)} samples, {beyond} beyond"),
            ("peak_rss_mb", "MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
             "ru_maxrss of this process"),
        ]
    else:
        spans_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        overhead = ratio(sum(m["traced_seconds"]), sum(m["untraced_seconds"])) - 1
        rows = [(name, unit, value, "") for name, unit, value in
                layer_metrics(tracing.summarize(tracer.spans), m["attempted"] // 2, overhead)]
        print(f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    for name, unit, value, note in rows:
        print(f"{name:38} {value:<14.6g} {unit:6} {note}")
    print(json.dumps({"correct": n_failed == 0, "attempted": m["attempted"],
                      "failed": n_failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, unit, value, _ in rows}}))
    return 1 if n_failed else 0


if __name__ == "__main__":
    sys.exit(main())
