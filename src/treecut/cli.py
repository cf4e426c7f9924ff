"""Command line interface: one binary for the whole pipeline.

Subcommands: decompose, solve, round, oracle, gen, gap, embed, verify.
Exit codes: 0 ok, 2 input error, 3 budget refusal, 4 internal invariant
violation.  Seeds default to 0; identical configs produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .decomposition import (balance, exact_decomposition, format_decomposition,
                            parse_decomposition, validate)
from .errors import BudgetError, InputError, InvariantError, TreecutError
from .generators import (MaxCutInstance, UlcInstance, building_block, power,
                         random_delta_nice_ulc, ug_gadget, ulc_to_json_dict)
from .instance import as_weight, evaluate_cut, format_instance, parse_instance
from .lift import gap_experiment, GapReport
from .oracle import audit_cuts, exact_maxcut, exact_sparsest_cut
from .relaxation import build_sparsestcut_lp, format_lp, ratio_search
from .rounding import derandomize, embed_l1, sample_cut

DEFAULT_VERTEX_BUDGET = 26


def _budget(args, default: int = DEFAULT_VERTEX_BUDGET) -> int:
    env = os.environ.get("TREECUT_BUDGET")
    if args.budget_vertices is not None:
        return args.budget_vertices
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"bad TREECUT_BUDGET value {env!r}") from exc
    return default


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc


def _emit(args, payload: dict, text_lines):
    if args.format == "json":
        _write(getattr(args, "output", None), json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif args.format == "csv":
        keys = sorted(payload)
        _write(getattr(args, "output", None),
               ",".join(keys) + "\n" + ",".join(str(payload[k]) for k in keys) + "\n")
    else:
        _write(getattr(args, "output", None), "\n".join(text_lines) + "\n")


def _load_instance_and_decomposition(args):
    inst = parse_instance(_read(args.instance))
    if getattr(args, "decomposition", None):
        dec = parse_decomposition(_read(args.decomposition), inst, root=args.root - 1)
        report = validate(inst, dec)
        if not report.ok:
            raise InputError(f"supplied decomposition invalid: {report.message}")
    else:
        dec = exact_decomposition(inst, bound=_budget(args, default=18))
    return inst, balance(dec)


def _solve_pipeline(args):
    inst, dec = _load_instance_and_decomposition(args)
    rs = ratio_search(inst, dec)
    if args.dump_lp:
        built = build_sparsestcut_lp(inst, dec, rs.alpha)
        _write(args.dump_lp, format_lp(built.program))
    return inst, dec, rs


def cmd_decompose(args) -> int:
    inst = parse_instance(_read(args.instance))
    dec = exact_decomposition(inst, bound=_budget(args, default=18))
    bal = balance(dec)
    _write(args.output, format_decomposition(bal, inst))
    return 0


def cmd_solve(args) -> int:
    inst, dec, rs = _solve_pipeline(args)
    cut, pot = derandomize(inst, rs.solution, dec, rs.alpha, rs.lp_value)
    sp = evaluate_cut(inst, cut)
    payload = {
        "lp_ratio": str(rs.ratio),
        "alpha": str(rs.alpha),
        "lp_capacity_value": str(rs.lp_value),
        "cut": sorted(map(str, cut.side_a)),
        "cut_capacity": str(sp.cut_capacity),
        "cut_demand": str(sp.cut_demand),
        "cut_sparsity": str(sp.ratio),
        "within_factor_two": sp.ratio is not None and sp.ratio <= 2 * rs.ratio,
        "final_potential": str(pot.trace[-1]) if pot.trace else None,
    }
    _emit(args, payload, [
        f"lp ratio        {rs.ratio}",
        f"alpha           {rs.alpha}",
        f"cut             {{{', '.join(sorted(map(str, cut.side_a)))}}}",
        f"cut sparsity    {sp.ratio}",
        f"2 * lp ratio    {2 * rs.ratio}",
    ])
    return 0


def cmd_round(args) -> int:
    inst, dec, rs = _solve_pipeline(args)
    cut = sample_cut(rs.solution, dec, seed=args.seed)
    sp = evaluate_cut(inst, cut)
    payload = {
        "seed": args.seed,
        "cut": sorted(map(str, cut.side_a)),
        "cut_capacity": str(sp.cut_capacity),
        "cut_demand": str(sp.cut_demand),
        "cut_sparsity": str(sp.ratio),
        "lp_ratio": str(rs.ratio),
    }
    _emit(args, payload, [f"cut {{{', '.join(sorted(map(str, cut.side_a)))}}}",
                          f"sparsity {sp.ratio}"])
    return 0


def cmd_oracle(args) -> int:
    inst = parse_instance(_read(args.instance))
    audit = audit_cuts(inst, bound=_budget(args))
    payload = audit.to_dict()
    lines = [f"cut classes      {audit.n_cut_classes}"]
    if audit.sparsest:
        cut, sp = audit.sparsest
        lines.append(f"sparsest ratio   {sp.ratio}")
        lines.append(f"sparsest cut     {{{', '.join(sorted(map(str, cut.side_a)))}}}")
    if audit.min_admissible_capacity:
        lines.append(f"min adm capacity {audit.min_admissible_capacity[1]}")
    if audit.max_admissible_ratio:
        lines.append(f"max adm dem/cap  {audit.max_admissible_ratio[1]}")
    if audit.max_inadmissible_ratio:
        lines.append(f"max inadm d/c    {audit.max_inadmissible_ratio[1]}")
    _emit(args, payload, lines)
    return 0


def _ulc_from_json(text: str) -> UlcInstance:
    try:
        raw = json.loads(text)
        edges = tuple((u, v, tuple(sigma)) for u, v, sigma in raw["edges"])
        cliques = tuple(tuple(c) for c in raw["cliques"]) if raw.get("cliques") else None
        return UlcInstance(tuple(raw["vertices"]), edges, int(raw["d"]), cliques)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad ULC json: {exc}") from exc


def triangle_ulc(d: int = 2) -> UlcInstance:
    """Three pairwise 2-cliques with identity constraints; 2-nice."""
    ident = tuple(range(d))
    edges = ((1, 2, ident), (2, 3, ident), (1, 3, ident))
    return UlcInstance((1, 2, 3), edges, d, ((0,), (1,), (2,)))


def cmd_gen(args) -> int:
    sidecar = {}
    if args.what == "block":
        H = MaxCutInstance.named(args.maxcut)
        inst, dec = building_block(H, include_st_demand=args.st_demand)
        _, mc = exact_maxcut(H)
        sidecar = {
            "kind": "block",
            "maxcut": args.maxcut,
            "st_demand": args.st_demand,
            "m": H.m,
            "maxcut_size": mc,
            "predicted_sparsity": str(Fraction(H.m, H.m + mc)) if args.st_demand else None,
        }
    elif args.what == "power":
        H = MaxCutInstance.named(args.maxcut)
        base, base_dec = building_block(H, include_st_demand=args.st_demand)
        powered = power(base, args.levels, base_dec)
        inst, dec = powered.instance, powered.decomposition
        _, mc = exact_maxcut(H)
        s = Fraction(mc, H.m)
        sidecar = {
            "kind": "power",
            "maxcut": args.maxcut,
            "levels": args.levels,
            "capacity_edges": len(inst.supply_edges),
            "predicted_capacity_edges": (2 * H.n) ** args.levels,
            "vertices": len(inst.vertices),
            "soundness_sparsity_lower_bound": str(1 / (1 + (args.levels - 1) * s)),
        }
    elif args.what == "gadget":
        if args.random_ulc:
            ulc = random_delta_nice_ulc(args.ulc_vertices, args.delta, args.labels,
                                        seed=args.seed, plant=args.plant)
        elif args.ulc:
            ulc = _ulc_from_json(_read(args.ulc))
        else:
            ulc = triangle_ulc(args.labels)
        gadget = ug_gadget(ulc, as_weight(args.alpha))
        inst, dec = gadget.instance, gadget.decomposition
        sidecar = {"kind": "gadget", "alpha": str(gadget.alpha), **gadget.predicted()}
    elif args.what == "ulc":
        ulc = random_delta_nice_ulc(args.ulc_vertices, args.delta, args.labels,
                                    seed=args.seed, plant=args.plant)
        _write(args.output, json.dumps(ulc_to_json_dict(ulc), sort_keys=True) + "\n")
        if args.sidecar:
            best_lab, best = ulc.best_labeling()
            _write(args.sidecar, json.dumps(
                {"kind": "ulc", "delta": ulc.require_delta_nice(), "d": ulc.d,
                 "edges": len(ulc.edges), "optimum": str(best)},
                indent=2, sort_keys=True) + "\n")
        return 0
    else:
        raise InputError(f"unknown generator {args.what!r}")
    _write(args.output, format_instance(inst))
    if args.td_out:
        _write(args.td_out, format_decomposition(dec, inst))
    if args.sidecar:
        _write(args.sidecar, json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_gap(args) -> int:
    H = MaxCutInstance.named(args.base)
    report = gap_experiment(H, args.rounds, args.levels, name=args.base)
    payload = report.to_dict()
    if args.format == "csv":
        _write(getattr(args, "output", None),
               GapReport.csv_header() + "\n" + report.csv_row() + "\n")
        return 0
    _emit(args, payload, [f"{k:18} {v}" for k, v in sorted(payload.items())])
    return 0


def cmd_embed(args) -> int:
    inst, dec, rs = _solve_pipeline(args)
    emb = embed_l1(rs.solution, dec, args.samples, seed=args.seed)
    _write(args.output, emb.to_csv())
    return 0


def cmd_verify(args) -> int:
    inst, dec = _load_instance_and_decomposition(args)
    checks = {}
    checks["decomposition_valid"] = bool(validate(inst, dec))
    rs = ratio_search(inst, dec)
    checks["solution_consistent"] = not rs.solution.validate()
    cut, pot = derandomize(inst, rs.solution, dec, rs.alpha, rs.lp_value)
    sp = evaluate_cut(inst, cut)
    checks["potential_trace_monotone"] = pot.nonincreasing()
    checks["final_potential_nonpositive"] = not pot.trace or pot.trace[-1] <= 0
    checks["sparsity_within_2lp"] = sp.ratio is not None and sp.ratio <= 2 * rs.ratio
    if inst.n <= _budget(args):
        _, phi = exact_sparsest_cut(inst, bound=_budget(args))
        checks["lp_below_oracle"] = rs.ratio <= phi.ratio
        checks["cut_within_2opt"] = sp.ratio <= 2 * phi.ratio
    ok = all(checks.values())
    payload = {"ok": ok, **{k: bool(v) for k, v in checks.items()}}
    _emit(args, payload, [f"{k:28} {'pass' if v else 'FAIL'}" for k, v in checks.items()])
    return 0 if ok else 4


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="treecut",
                                description="sparsest cut on bounded-treewidth graphs")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, pipeline=True):
        sp.add_argument("--format", choices=["json", "csv", "text"], default="text")
        sp.add_argument("--output", "-o", default=None)
        sp.add_argument("--budget-vertices", type=int, default=None)
        if pipeline:
            sp.add_argument("--decomposition", default=None,
                            help="PACE-style tree decomposition file")
            sp.add_argument("--root", type=int, default=1,
                            help="1-based root bag index for supplied decompositions")
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--dump-lp", default=None)

    sp = sub.add_parser("decompose", help="exact balanced tree decomposition")
    sp.add_argument("instance")
    common(sp, pipeline=False)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("solve", help="LP + derandomized rounding (factor 2)")
    sp.add_argument("instance")
    common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("round", help="sample one cut from the LP distribution")
    sp.add_argument("instance")
    common(sp)
    sp.set_defaults(func=cmd_round)

    sp = sub.add_parser("oracle", help="brute-force sparsest cut and cut audit")
    sp.add_argument("instance")
    common(sp, pipeline=False)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("gen", help="emit a named construction")
    sp.add_argument("what", choices=["block", "power", "gadget", "ulc"])
    sp.add_argument("--maxcut", default="k3", help="k<n>, p<n>, or c<n>")
    sp.add_argument("--st-demand", action="store_true")
    sp.add_argument("--levels", type=int, default=2)
    sp.add_argument("--ulc", default=None, help="ULC instance json")
    sp.add_argument("--random-ulc", action="store_true",
                    help="generate the gadget's ULC instead of reading one")
    sp.add_argument("--ulc-vertices", type=int, default=3)
    sp.add_argument("--delta", type=int, default=2)
    sp.add_argument("--plant", action="store_true",
                    help="wire constraints around a hidden satisfying labeling")
    sp.add_argument("--labels", type=int, default=2)
    sp.add_argument("--alpha", default="1/25")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--td-out", default=None)
    sp.add_argument("--sidecar", default=None)
    common(sp, pipeline=False)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("gap", help="lifted-solution gap experiment")
    sp.add_argument("--base", default="p3")
    sp.add_argument("--rounds", type=int, default=2)
    sp.add_argument("--levels", type=int, default=2)
    common(sp, pipeline=False)
    sp.set_defaults(func=cmd_gap)

    sp = sub.add_parser("embed", help="Monte-Carlo cut embedding (CSV)")
    sp.add_argument("instance")
    sp.add_argument("--samples", type=int, default=1000)
    common(sp)
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("verify", help="replay the acceptance checks on an instance")
    sp.add_argument("instance")
    common(sp)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return BudgetError.exit_code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return InputError.exit_code
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return InvariantError.exit_code
    except TreecutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
