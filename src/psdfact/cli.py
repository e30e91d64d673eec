"""Command-line entry point binding all modules into pipelines.

Subcommands: slack, fact, rescale, round, reconstruct, check, bounds,
pipeline.  Every run emits a manifest (command line, seed, version, input
hashes, wall time) inside its JSON report; the seed is null for commands
that draw no random numbers.  Exit codes: 0 success, 1 verdict failure,
2 precondition error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__, bounds, serialize
from .derivatives import dplus_opnorm_additive, dplus_opnorm_congruence, fd_ladder
from .errors import NumericError, PreconditionError
from .factorization import (
    FitConfig,
    FitFailure,
    alternating_fit,
    diagonal_embed,
    verify_factorization,
)
from .pipeline import PipelineConfig, run_pipeline
from .polytopes import build_slack, builtin_instance
from .rescaling import RescaleConfig, rescale
from .rounding import GridParams, build_rounded_system, grid_delta, reconstruct
from . import symmat

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_PRECONDITION = 2
EXIT_NUMERIC = 3


def _manifest(args, inputs=(), t0=None) -> dict:
    hashes = {}
    for path in inputs:
        if path:
            hashes[str(path)] = serialize.sha256_file(path)
    return serialize.RunManifest(
        command=" ".join(sys.argv[1:]) or args.command,
        seed=getattr(args, "seed", None),
        version=__version__,
        input_hashes=hashes,
        wall_time_s=0.0 if t0 is None else time.perf_counter() - t0,
    ).to_json()


def _write(text: str, args) -> None:
    """Write to ``--out`` or standard output; a reader that closed early ends output quietly."""
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(report: dict, args) -> None:
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args)


def _load_slack(path):
    return serialize.slack_from_json(serialize.load_json(path))


def _load_fact(path):
    return serialize.factorization_from_json(serialize.load_json(path))


def _instance_or_file(args):
    if getattr(args, "file", None):
        h, v = serialize.polytope_from_json(serialize.load_json(args.file))
        if v is None:
            raise PreconditionError("polytope file carries no points")
        return h, v
    if not getattr(args, "instance", None):
        raise PreconditionError("pass --instance NAME or --file polytope.json")
    return builtin_instance(args.instance, args.n)


# --------------------------------------------------------------------------
# Subcommand handlers


def _cmd_slack_build(args) -> int:
    t0 = time.perf_counter()
    h, v = _instance_or_file(args)
    s = build_slack(h, v)
    report = serialize.slack_to_json(s)
    report["manifest"] = _manifest(args, [getattr(args, "file", None)], t0)
    _emit(report, args)
    return EXIT_OK


def _cmd_fact_verify(args) -> int:
    t0 = time.perf_counter()
    s = _load_slack(args.slack)
    f = _load_fact(args.fact)
    rep = verify_factorization(f, s, args.tol)
    report = {
        "passed": rep.passed,
        "max_abs_residual": rep.max_abs_residual,
        "residual_location": list(rep.residual_location),
        "lmax_u": rep.lmax_u,
        "lmax_v": rep.lmax_v,
        "potential": rep.potential,
        "tol": rep.tol,
        "manifest": _manifest(args, [args.slack, args.fact], t0),
    }
    _emit(report, args)
    return EXIT_OK if rep.passed else EXIT_VERDICT


def _cmd_fact_embed(args) -> int:
    t0 = time.perf_counter()
    s = _load_slack(args.slack)
    f = diagonal_embed(s)
    report = serialize.factorization_to_json(f)
    report["manifest"] = _manifest(args, [args.slack], t0)
    _emit(report, args)
    return EXIT_OK


def _cmd_fact_fit(args) -> int:
    t0 = time.perf_counter()
    s = _load_slack(args.slack)
    cfg = FitConfig(tol=args.tol, seed=args.seed)
    result = alternating_fit(s, args.r, cfg)
    if isinstance(result, FitFailure):
        report = {
            "found": False,
            "residual": result.residual,
            "note": "no factorization found at this side; not a nonexistence proof",
            "manifest": _manifest(args, [args.slack], t0),
        }
        _emit(report, args)
        return EXIT_VERDICT
    report = serialize.factorization_to_json(result)
    report["found"] = True
    report["manifest"] = _manifest(args, [args.slack], t0)
    _emit(report, args)
    return EXIT_OK


def _cmd_rescale_run(args) -> int:
    t0 = time.perf_counter()
    s = _load_slack(args.slack)
    f = _load_fact(args.fact)
    cfg = RescaleConfig(tol=args.tol, max_iters=args.max_iters, seed=args.seed)
    res = rescale(f, s, cfg)
    report = {
        "certificate": res.certificate,
        "iterations": res.iterations,
        "reduced_dim": res.reduced_dim,
        "lmax_u": res.lmax_u,
        "lmax_v": res.lmax_v,
        "phi_trajectory": list(res.phi_trajectory),
        "transform": serialize.matrix_to_json(res.transform),
        "transform_pinv": serialize.matrix_to_json(res.transform_pinv),
        "factorization": serialize.factorization_to_json(res.factorization),
        "diagnostics": {
            k: v for k, v in res.diagnostics.items() if not isinstance(v, np.ndarray)
        },
        "manifest": _manifest(args, [args.slack, args.fact], t0),
    }
    _emit(report, args)
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "phi", "lmax"])
            # The loop re-balances before recording, so lmax_u == lmax_v up
            # to round-off; the larger is what the certificate compares.
            for i, (phi, lmaxes) in enumerate(
                zip(res.phi_trajectory, res.lmax_trajectory)
            ):
                writer.writerow([i, repr(phi), repr(max(lmaxes))])
    return EXIT_OK if res.certificate else EXIT_VERDICT


def _cmd_round_run(args) -> int:
    t0 = time.perf_counter()
    s = _load_slack(args.slack)
    f = _load_fact(args.fact)
    if s.h is None:
        raise PreconditionError("slack file lacks polytope provenance needed for rounding")
    h = s.h
    scale = {"max": 1.0, "max/10": 0.1}.get(args.delta)
    if scale is None:
        try:
            scale = float(args.delta) / grid_delta(h.dim, f.side)
        except ValueError:
            raise PreconditionError(f"--delta {args.delta!r} is not a number") from None
    grid = GridParams.for_slack(
        n=h.dim, r=f.side, delta_eff=s.max_entry,
        scale=scale, worst_case=args.worst_case,
    )
    system = build_rounded_system(h, f, grid)
    report = serialize.system_to_json(system)
    report["rounding"] = [
        {
            "error_fnorm": err,
            "error_bound": grid.error_bound,
            "error_bound_ok": err <= grid.error_bound,
            "entry_bound": grid.entry_bound,
            "entry_bound_ok": bool(np.max(np.abs(u)) <= grid.entry_bound),
        }
        for err, u in zip(system.error_fnorm, system.factors)
    ]
    report["manifest"] = _manifest(args, [args.slack, args.fact], t0)
    _emit(report, args)
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    t0 = time.perf_counter()
    system = serialize.system_from_json(serialize.load_json(args.system))
    recon = reconstruct(system, args.n)
    report = recon.to_json()
    report["complete"] = recon.complete
    report["manifest"] = _manifest(args, [args.system], t0)
    _emit(report, args)
    return EXIT_OK if recon.complete else EXIT_VERDICT


def _cmd_check_derivatives(args) -> int:
    t0 = time.perf_counter()
    if args.side < 1:
        raise PreconditionError(f"--side must be at least 1, got {args.side}")
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    passed = True
    for pair in range(args.pairs):
        gap = 0.1 + 0.4 * rng.random()
        x = _random_gapped_psd(rng, args.side, gap)
        z = rng.standard_normal((args.side, args.side))
        z = symmat.as_symmetric(z)
        z /= max(symmat.operator_norm(z), 1e-12)
        tol = 1e-4 / gap

        def congruence_norm(eps):
            e = symmat.matrix_exponential(eps * z)
            return symmat.operator_norm(e @ x @ e)

        add = fd_ladder(lambda eps: symmat.operator_norm(x + eps * z),
                        dplus_opnorm_additive(x, z), eps_ladder=(1e-6,))
        con = fd_ladder(congruence_norm, dplus_opnorm_congruence(x, z), eps_ladder=(1e-6,))
        worst = max(worst, add.max_deviation, con.max_deviation)
        ok = add.max_deviation <= tol and con.max_deviation <= tol
        passed = passed and ok
        rows.append([pair, gap, add.analytic, add.slopes[0][1], add.max_deviation,
                     con.analytic, con.slopes[0][1], con.max_deviation, tol, ok])
    header = ["pair", "gap", "additive_analytic", "additive_fd", "additive_dev",
              "congruence_analytic", "congruence_fd", "congruence_dev", "tol", "pass"]
    if args.report:
        with open(args.report, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    report = {
        "pairs": args.pairs,
        "worst_deviation": worst,
        "passed": passed,
        "manifest": _manifest(args, t0=t0),
    }
    _emit(report, args)
    return EXIT_OK if passed else EXIT_VERDICT


def _random_gapped_psd(rng, side, gap):
    lam = np.empty(side)
    lam[0] = 1.0
    if side > 1:
        lam[1:] = rng.random(side - 1) * (1.0 - gap)
    q, _ = np.linalg.qr(rng.standard_normal((side, side)))
    return symmat.as_symmetric((q * lam) @ q.T)


def _cmd_bounds_eval(args) -> int:
    t0 = time.perf_counter()
    if args.formula == "xc01":
        rep = bounds.xc01_lower_bound(args.n)
    elif args.formula == "coeff":
        rep = bounds.worst_case_coeff_bound(args.n)
    elif args.formula == "counting":
        rep = bounds.counting_capacity(args.n, args.R)
    elif args.formula == "polygon":
        rep = bounds.polygon_bound(args.d)
    elif args.formula == "polygon-params":
        rep = bounds.polygon_params_report(args.d)
    else:
        raise PreconditionError(f"unknown formula {args.formula!r}")
    report = {
        "formula": rep.formula,
        "inputs": rep.inputs,
        "log2_value": rep.log2_value,
        "decimal": rep.decimal,
        "assumptions": list(rep.assumptions),
        "extras": rep.extras,
        "manifest": _manifest(args, t0=t0),
    }
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["formula", "inputs", "log2_value", "decimal"])
        writer.writerow([rep.formula, json.dumps(rep.inputs), repr(rep.log2_value), rep.decimal])
        _write(buf.getvalue(), args)
    else:
        _emit(report, args)
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    t0 = time.perf_counter()
    cfg = PipelineConfig(
        r=args.r,
        skip_rescale=args.skip_rescale,
        unbalance=args.unbalance,
        seed=args.seed,
        rescale_cfg=RescaleConfig(tol=args.tol, seed=args.seed),
    )
    report = run_pipeline(args.instance, args.n, cfg)
    report["manifest"] = _manifest(args, t0=t0)
    _emit(report, args)
    return EXIT_OK if report["verdict"] == "match" else EXIT_VERDICT


# --------------------------------------------------------------------------
# Parser


def _add_common(p, tol=None, seed=False):
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    if tol is not None:
        p.add_argument("--tol", type=float, default=tol)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdfact",
        description="Slack matrices, semidefinite factorizations, rescaling, rounding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slack", help="build slack matrices")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    b = ssub.add_parser("build")
    b.add_argument("--instance")
    b.add_argument("--n", type=int, default=2)
    b.add_argument("--file", help="polytope JSON instead of a builtin")
    _add_common(b)
    b.set_defaults(func=_cmd_slack_build)

    p = sub.add_parser("fact", help="build and verify factorizations")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    fv = fsub.add_parser("verify")
    fv.add_argument("--slack", required=True)
    fv.add_argument("--fact", required=True)
    _add_common(fv, tol=1e-8)
    fv.set_defaults(func=_cmd_fact_verify)
    fe = fsub.add_parser("embed")
    fe.add_argument("--slack", required=True)
    _add_common(fe)
    fe.set_defaults(func=_cmd_fact_embed)
    ff = fsub.add_parser("fit")
    ff.add_argument("--slack", required=True)
    ff.add_argument("--r", type=int, required=True)
    _add_common(ff, tol=1e-7, seed=True)
    ff.set_defaults(func=_cmd_fact_fit)

    p = sub.add_parser("rescale", help="rescale a factorization")
    rsub = p.add_subparsers(dest="subcommand", required=True)
    rr = rsub.add_parser("run")
    rr.add_argument("--slack", required=True)
    rr.add_argument("--fact", required=True)
    rr.add_argument("--max-iters", type=int, default=500)
    rr.add_argument(
        "--trace",
        help="write a CSV trace here: header iteration,phi,lmax with "
        "lmax = max(lmax_u, lmax_v); one row per phi_trajectory entry, "
        "row 0 being the balanced start before any descent step; floats "
        "written with repr so they round-trip exactly",
    )
    _add_common(rr, tol=0.05, seed=True)
    rr.set_defaults(func=_cmd_rescale_run)

    p = sub.add_parser("round", help="select a subsystem and round it")
    osub = p.add_subparsers(dest="subcommand", required=True)
    orun = osub.add_parser("run")
    orun.add_argument("--slack", required=True)
    orun.add_argument("--fact", required=True)
    orun.add_argument("--delta", default="max", help='"max", "max/10", or a value')
    orun.add_argument("--worst-case", action="store_true")
    _add_common(orun)
    orun.set_defaults(func=_cmd_round_run)

    p = sub.add_parser("reconstruct", help="sweep {0,1}^n through the membership oracle")
    p.add_argument("--system", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("check", help="verification harnesses")
    csub = p.add_subparsers(dest="subcommand", required=True)
    cd = csub.add_parser("derivatives")
    cd.add_argument("--pairs", type=int, default=200)
    cd.add_argument("--side", type=int, default=6)
    cd.add_argument("--report", help="CSV report path")
    _add_common(cd, seed=True)
    cd.set_defaults(func=_cmd_check_derivatives)

    p = sub.add_parser("bounds", help="bound calculators")
    bsub = p.add_subparsers(dest="subcommand", required=True)
    be = bsub.add_parser("eval")
    be.add_argument("--formula", required=True,
                    choices=("xc01", "coeff", "counting", "polygon", "polygon-params"))
    be.add_argument("--n", type=int, default=2)
    be.add_argument("--R", type=int, default=1)
    be.add_argument("--d", type=int, default=4)
    be.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(be)
    be.set_defaults(func=_cmd_bounds_eval)

    p = sub.add_parser("pipeline", help="full slack->reconstruct pipeline")
    p.add_argument("--instance", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--r", type=int, help="use alternating_fit at this side")
    p.add_argument("--skip-rescale", action="store_true")
    p.add_argument("--unbalance", type=float,
                   help="apply an adversarial congruence of this condition number")
    _add_common(p, tol=0.05, seed=True)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
