"""Command-line entry point binding all modules into pipelines.

Subcommands: slack, fact, rescale, round, reconstruct, check, bounds,
pipeline.  Every run emits a manifest (command line, seed, version, input
hashes, wall time) inside its JSON report.  Only ``fact fit``, ``check
derivatives`` and ``pipeline`` (for ``--unbalance``) draw random numbers
and take ``--seed``; every other seed, ``rescale run``'s included, is
null.  Exit codes: 0 success, 1 verdict failure, 2 precondition error,
3 numeric error.
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
from .errors import NumericError, PreconditionError, ResourceError
from .factorization import (
    FIT_MAX_SIDE,
    VERIFY_TOL,
    diagonal_embed,
    fit_factorization,
    verify_factorization,
)
from .pipeline import PipelineConfig, run_pipeline
from .polytopes import BUILTIN_MAX_N, build_slack, builtin_instance
from .rescaling import RescaleConfig, rescale
from .rounding import GridParams, build_rounded_system, grid_delta, reconstruct
from . import symmat

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_PRECONDITION = 2
EXIT_NUMERIC = 3

# Largest cost of one ``check derivatives`` run.  A pair draws,
# decomposes and exponentiates dense side x side matrices, so its time is
# modelled as (side + 40)^3 units: the cube of the side plus a fixed
# overhead.  Measured per-pair times on one Intel Xeon core with one BLAS
# thread: 0.63 ms at side 1, 0.73 at 6, 1.1 at 12, 2.0 at 25, 5.8 at 50,
# 14 at 100 and 66 at 200: 4.8 to 9.1 ns per unit.  So the cap is a run of
# at most about 9 s, such as 10^4 pairs at the default side 6 or 72 pairs
# at side 200.
DERIVATIVES_MAX_COST = 10**9


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
    fit = fit_factorization(s, args.r, seed=args.seed)
    if fit.factorization is None:
        report = {
            "found": False,
            "note": "no factorization found at this side; not a nonexistence proof",
        }
    else:
        report = serialize.factorization_to_json(fit.factorization)
        report["found"] = True
    report["residual"] = fit.residual
    report["steps"] = fit.steps
    report["manifest"] = _manifest(args, [args.slack], t0)
    _emit(report, args)
    return EXIT_OK if fit.factorization is not None else EXIT_VERDICT


def _cmd_rescale_run(args) -> int:
    t0 = time.perf_counter()
    s = _load_slack(args.slack)
    f = _load_fact(args.fact)
    cfg = RescaleConfig(tol=args.tol, max_iters=args.max_iters)
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
        "diagnostics": res.diagnostics,
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
    if args.n != system.a.shape[1]:
        raise PreconditionError(
            f"--n {args.n} disagrees with the system's dimension {system.a.shape[1]}"
        )
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
    if args.pairs < 1:
        raise PreconditionError(f"--pairs must be at least 1, got {args.pairs}")
    if args.pairs * (args.side + 40) ** 3 > DERIVATIVES_MAX_COST:
        raise ResourceError(
            f"--pairs {args.pairs} at --side {args.side} refused: the run would cost "
            f"--pairs * (--side + 40)^3 above {DERIVATIVES_MAX_COST:.0e}"
        )
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
        rescale_cfg=RescaleConfig(tol=args.tol),
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
    b.add_argument(
        "--n", type=int, default=2,
        help="size of the builtin, its dimension or moment_polygon's vertex count: at most "
        + ", ".join(f"{limit} for {name}" for name, limit in BUILTIN_MAX_N.items())
        + "; crosspoly_01 takes 2 or 3 and segment 1",
    )
    b.add_argument("--file", help="polytope JSON instead of a builtin")
    _add_common(b)
    b.set_defaults(func=_cmd_slack_build)

    p = sub.add_parser("fact", help="build and verify factorizations")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    fv = fsub.add_parser("verify")
    fv.add_argument("--slack", required=True)
    fv.add_argument("--fact", required=True)
    _add_common(fv, tol=VERIFY_TOL)
    fv.set_defaults(func=_cmd_fact_verify)
    fe = fsub.add_parser("embed")
    fe.add_argument("--slack", required=True)
    _add_common(fe)
    fe.set_defaults(func=_cmd_fact_embed)
    ff = fsub.add_parser("fit")
    ff.add_argument("--slack", required=True)
    ff.add_argument("--r", type=int, required=True,
                    help=f"side of the fitted factors, 1 to {FIT_MAX_SIDE}")
    _add_common(ff, seed=True)
    ff.set_defaults(func=_cmd_fact_fit)

    p = sub.add_parser("rescale", help="rescale a factorization")
    rsub = p.add_subparsers(dest="subcommand", required=True)
    rr = rsub.add_parser("run")
    rr.add_argument("--slack", required=True)
    rr.add_argument("--fact", required=True)
    rr.add_argument("--max-iters", type=int, default=RescaleConfig.max_iters)
    rr.add_argument(
        "--trace",
        help="write a CSV trace here: header iteration,phi,lmax with "
        "lmax = max(lmax_u, lmax_v); one row per phi_trajectory entry, "
        "row 0 being the balanced input and, when rescale starts at the "
        "geometric mean of the two side averages, row 1 that start, both "
        "before any descent step; floats written with repr so they "
        "round-trip exactly",
    )
    _add_common(rr, tol=RescaleConfig.tol)
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
    cost = f"--pairs * (--side + 40)^3 at most {DERIVATIVES_MAX_COST:.0e}"
    cd.add_argument("--pairs", type=int, default=200, help=f"sampled pairs, {cost}")
    cd.add_argument("--side", type=int, default=6,
                    help=f"side of the sampled matrices, {cost}")
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
    p.add_argument("--n", type=int, default=2,
                   help="dimension of the builtin, 1 to 4 (the sweep covers {0,1}^n)")
    p.add_argument("--r", type=int,
                   help="factorize by a Levenberg-Marquardt fit at this side, 1 to "
                   f"{FIT_MAX_SIDE}, instead of the diagonal embedding; a fit that "
                   'misses its residual target ends the run at "factorization not found"')
    p.add_argument("--skip-rescale", action="store_true")
    p.add_argument("--unbalance", type=float,
                   help="apply an adversarial congruence of this condition number")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the --unbalance congruence; the --r fit draws at a fixed seed")
    _add_common(p, tol=RescaleConfig.tol)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy's generators take non-negative seeds only.
        if getattr(args, "seed", 0) < 0:
            raise PreconditionError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
