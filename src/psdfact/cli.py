"""Command-line entry point binding all modules into pipelines.

Subcommands: slack, fact, rescale, round, reconstruct, check, bounds,
pipeline.  Each handler returns its report and exit code; ``main`` times
the handler, stamps the report with a manifest (command line, seed,
version, input hashes, wall time) and writes it as JSON, or as one CSV
row for ``bounds eval --format csv``.  ``main`` names the flag behind a
refused argument: ``error: --FLAG VALUE: message``.  ``reconstruct``
takes only ``--system``, whose grid fixes the dimension.  Only ``fact
fit``, ``check derivatives`` and ``pipeline`` (for ``--unbalance``) draw
random numbers and take ``--seed``; every other seed, ``rescale run``'s
included, is null.  Exit codes: 0 success, 1 verdict failure, 2
precondition error, 3 numeric error.

The stages chain file to file: ``slack build``, ``fact embed`` or ``fact
fit``, ``rescale run``, ``round run``, ``reconstruct``.  A stage that
``pipeline`` also runs gives the keys of its ``pipeline`` report from the
same function:
- ``fact fit``: found, residual, steps, and reason if not found (``fit_report``);
- ``rescale run``: certificate, iterations, start, reduced_dim, lmax_u,
  lmax_v, target_lmax (``rescale_report``);
- ``round run``: delta, Delta, grid_step, budget, selected_rows,
  zeroed_factors, error_fnorm, error_bound, error_bound_ok, entry_bound,
  entry_bound_ok, max_error_fnorm, warm_budget_ok, warm_budget_value
  (``round_report``).
Beside them, ``fact fit`` and ``rescale run`` write, as ``fact embed``
does, a factorization file (r, U, V) that ``--fact`` reads, ``rescale
run`` with phi_trajectory, the (r, r) transform and transform_pinv, and
diagnostics; ``round run`` writes the system file (grid, selected in
ascending order, a, b, U) that ``--system`` reads; ``reconstruct``
writes accepted, rejected, inconclusive, points and complete.
``serialize`` gives the arrays' layout.  ``rescale run`` and ``round
run`` refuse a factorization that misses its slack matrix, which ``fact
verify`` fails.  ``round run`` exits 1 when error_bound_ok,
entry_bound_ok or warm_budget_ok is false, as on a factorization that
was not rescaled; it still writes the system file.
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
from .derivatives import dplus_opnorm_additive, dplus_opnorm_congruence
from .errors import NumericError, PreconditionError, ResourceError
from .factorization import (
    FIT_MAX_SIDE,
    VERIFY_TOL,
    check_reproduces,
    diagonal_embed,
    fit_factorization,
    fit_report,
    verify_factorization,
)
from .pipeline import PipelineConfig, run_pipeline
from .polytopes import BUILTIN_MAX_N, BUILTIN_NAMES, build_slack, builtin_instance
from .rescaling import rescale, rescale_report
from .rounding import GridParams, build_rounded_system, grid_delta, reconstruct, round_report
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
# Step of the differences (f(eps) - f(0)) / eps that ``check derivatives`` takes.
FD_EPS = 1e-6


def _manifest(args, argv: list[str], t0: float) -> dict:
    """Command line ``argv``, seed, version, hashes of the input files and wall time since ``t0``."""
    paths = (getattr(args, flag, None) for flag in _READERS)
    return {
        "command": " ".join(argv),
        "seed": getattr(args, "seed", None),  # None for commands that draw no random numbers
        "version": __version__,
        "input_hashes": {str(path): serialize.sha256_file(path) for path in paths if path},
        "wall_time_s": time.perf_counter() - t0,
    }


def _open_out(args, flag: str):
    """Open the file given to ``--flag`` for writing; an error names the flag and the file."""
    path = getattr(args, flag)
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise PreconditionError(f"--{flag} {path}: {exc.strerror or exc}") from None


def _write(text: str, args) -> None:
    """Write to ``--out`` or standard output; a reader that closed early ends output quietly."""
    if getattr(args, "out", None):
        with _open_out(args, "out") as fh:
            fh.write(text)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _fields(record) -> dict:
    """A record's fields by name, the keys of its JSON report."""
    return {name: getattr(record, name) for name in record.__slots__}


def _bounds_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["formula", "inputs", "log2_value", "decimal"])
    writer.writerow([report["formula"], json.dumps(report["inputs"]),
                     repr(report["log2_value"]), report["decimal"]])
    return buf.getvalue()


def _polytope_with_points(obj):
    h, v = serialize.polytope_from_json(obj)
    if v is None:
        raise PreconditionError("polytope file carries no points")
    return h, v


# Each input-file flag and the reader of its JSON.
_READERS = {
    "file": _polytope_with_points,
    "slack": serialize.slack_from_json,
    "fact": serialize.factorization_from_json,
    "system": serialize.system_from_json,
}


def _load(args, flag: str):
    """Read the file given to ``--flag``; an error names the flag and the file."""
    path = getattr(args, flag)
    try:
        return _READERS[flag](serialize.load_json(path))
    except PreconditionError as exc:
        raise type(exc)(f"--{flag} {path}: {exc}") from None


# The flag that passes each library argument a refusal may name.
_FLAGS = {"name": "--instance", "instance": "--instance", "n": "--n", "r": "--r", "v": "--file",
          "s": "--slack", "f": "--fact", "system": "--system", "tol": "--tol", "delta": "--delta",
          "worst_case": "--worst-case", "unbalance": "--unbalance", "big_r": "--R", "d": "--d"}


# --------------------------------------------------------------------------
# Subcommand handlers: each returns its report and exit code.


def _cmd_slack_build(args):
    if args.file:
        h, v = _load(args, "file")
    elif args.instance:
        h, v = builtin_instance(args.instance, args.n)
    else:
        raise PreconditionError("pass --instance NAME or --file polytope.json")
    return serialize.slack_to_json(build_slack(h, v)), EXIT_OK


def _cmd_fact_verify(args):
    s = _load(args, "slack")
    rep = verify_factorization(_load(args, "fact"), s, args.tol)
    return _fields(rep), EXIT_OK if rep.passed else EXIT_VERDICT


def _cmd_fact_embed(args):
    return serialize.factorization_to_json(diagonal_embed(_load(args, "slack"))), EXIT_OK


def _cmd_fact_fit(args):
    fit = fit_factorization(_load(args, "slack"), args.r, seed=args.seed)
    report = fit_report(fit)
    if fit.factorization is None:
        report["note"] = ("no factorization found at this side; a nonexistence proof only when "
                          "the reason is a lower bound")
    else:
        report.update(serialize.factorization_to_json(fit.factorization))
    return report, EXIT_OK if fit.factorization is not None else EXIT_VERDICT


def _cmd_rescale_run(args):
    s = _load(args, "slack")
    f = _load(args, "fact")
    res = rescale(f, s)
    report = {
        **serialize.factorization_to_json(res.factorization),
        **rescale_report(res),
        "phi_trajectory": list(res.phi_trajectory),
        "transform": res.transform.tolist(),
        "transform_pinv": res.transform_pinv.tolist(),
        "diagnostics": res.diagnostics,
    }
    if args.trace:
        with _open_out(args, "trace") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "phi", "lmax"])
            # The loop re-balances before recording, so lmax_u == lmax_v up
            # to round-off; the larger is what the certificate compares.
            for i, (phi, lmaxes) in enumerate(
                zip(res.phi_trajectory, res.lmax_trajectory)
            ):
                writer.writerow([i, repr(phi), repr(max(lmaxes))])
    return report, EXIT_OK if res.certificate else EXIT_VERDICT


def _cmd_round_run(args):
    s = _load(args, "slack")
    f = _load(args, "fact")
    if s.h is None:
        raise PreconditionError(
            f"--slack {args.slack}: slack file lacks polytope provenance needed for rounding")
    h = s.h
    scale = {"max": 1.0, "max/10": 0.1}.get(args.delta)
    if scale is None:
        try:
            scale = float(args.delta) / grid_delta(h.dim, f.side)
        except ValueError:
            raise PreconditionError(f"--delta {args.delta!r} is not a number") from None
    grid = GridParams.for_slack(n=h.dim, r=f.side, delta_eff=s.max_entry, scale=scale,
                                worst_case=args.worst_case)
    check_reproduces(f, s)
    system = build_rounded_system(h, f, grid)
    report = {**serialize.system_to_json(system), **round_report(system, f.col_factors)}
    bounds_ok = all(report[key] for key in ("error_bound_ok", "entry_bound_ok", "warm_budget_ok"))
    return report, EXIT_OK if bounds_ok else EXIT_VERDICT


def _cmd_reconstruct(args):
    recon = reconstruct(_load(args, "system"))
    report = recon.to_json()
    report["complete"] = recon.complete
    return report, EXIT_OK if recon.complete else EXIT_VERDICT


def _cmd_check_derivatives(args):
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
    for pair in range(args.pairs):
        gap = 0.1 + 0.4 * rng.random()
        x = _random_gapped_psd(rng, args.side, gap)
        z = symmat.as_symmetric(rng.standard_normal((args.side, args.side)))
        z /= max(symmat.operator_norm(z), 1e-12)
        tol = 1e-4 / gap

        def congruence_norm(eps):
            e = symmat.matrix_exponential(eps * z)
            return symmat.operator_norm(e @ x @ e)

        add = _fd_check(lambda eps: symmat.operator_norm(x + eps * z),
                        dplus_opnorm_additive(x, z))
        con = _fd_check(congruence_norm, dplus_opnorm_congruence(x, z))
        worst = max(worst, add[2], con[2])
        rows.append([pair, gap] + add + con + [tol, add[2] <= tol and con[2] <= tol])
    passed = all(row[-1] for row in rows)
    header = ["pair", "gap", "additive_analytic", "additive_fd", "additive_dev",
              "congruence_analytic", "congruence_fd", "congruence_dev", "tol", "pass"]
    if args.report:
        with _open_out(args, "report") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    report = {
        "pairs": args.pairs,
        "worst_deviation": worst,
        "passed": passed,
    }
    return report, EXIT_OK if passed else EXIT_VERDICT


def _fd_check(f, analytic: float) -> list:
    """The analytic slope, the difference (f(FD_EPS) - f(0)) / FD_EPS and their distance."""
    fd = (f(FD_EPS) - f(0.0)) / FD_EPS
    return [analytic, fd, abs(fd - analytic)]


def _random_gapped_psd(rng, side, gap):
    lam = np.empty(side)
    lam[0] = 1.0
    if side > 1:
        lam[1:] = rng.random(side - 1) * (1.0 - gap)
    q, _ = np.linalg.qr(rng.standard_normal((side, side)))
    return symmat.as_symmetric(symmat.from_spectrum(lam, q))


FORMULAS = {
    "xc01": lambda args: bounds.xc01_lower_bound(args.n),
    "coeff": lambda args: bounds.worst_case_coeff_bound(args.n),
    "counting": lambda args: bounds.counting_capacity(args.n, args.R),
    "polygon": lambda args: bounds.polygon_bound(args.d),
    "polygon-params": lambda args: bounds.polygon_params_report(args.d),
}


def _cmd_bounds_eval(args):
    return _fields(FORMULAS[args.formula](args)), EXIT_OK


def _cmd_pipeline(args):
    cfg = PipelineConfig(r=args.r, skip_rescale=args.skip_rescale, unbalance=args.unbalance,
                         seed=args.seed)
    report = run_pipeline(args.instance, args.n, cfg)
    return report, EXIT_OK if report["verdict"] == "match" else EXIT_VERDICT


# --------------------------------------------------------------------------
# Parser


INSTANCE_HELP = "builtin polytope: " + ", ".join(BUILTIN_NAMES)
FACT_HELP = "factorization file: r, and the stacks U (m, r, r) and V (n, r, r) as nested lists"
SYSTEM_HELP = "system file: grid, selected, and a (k, n), b (k,) and U (k, r, r) as nested lists"


def _add_common(p, seed=False):
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdfact",
        description="Slack matrices, semidefinite factorizations, rescaling, rounding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slack", help="build slack matrices")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    b = ssub.add_parser("build")
    b.add_argument("--instance", help=INSTANCE_HELP)
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
    fv.add_argument("--fact", required=True, help=FACT_HELP)
    fv.add_argument("--tol", type=float, default=VERIFY_TOL)
    _add_common(fv)
    fv.set_defaults(func=_cmd_fact_verify)
    fe = fsub.add_parser("embed")
    fe.add_argument("--slack", required=True)
    _add_common(fe)
    fe.set_defaults(func=_cmd_fact_embed)
    ff = fsub.add_parser("fit")
    ff.add_argument("--slack", required=True)
    ff.add_argument("--r", type=int, required=True,
                    help=f"side of the fitted factors, 1 to {FIT_MAX_SIDE}; a side with "
                    "r (r + 1) / 2 below the rank of the slack matrix is refused at once")
    _add_common(ff, seed=True)
    ff.set_defaults(func=_cmd_fact_fit)

    p = sub.add_parser("rescale", help="rescale a factorization")
    rsub = p.add_subparsers(dest="subcommand", required=True)
    rr = rsub.add_parser(
        "run", help="rescale toward lmax <= sqrt(d Delta); the output is a factorization file",
        description="Rescale a factorization by a PSD congruence toward lmax <= sqrt(d Delta); "
        "exit 1 when the bound is not certified.  The output is a factorization file: (r, U, "
        "V) beside the rescale report, which --fact of round run reads.")
    rr.add_argument("--slack", required=True)
    rr.add_argument("--fact", required=True, help=FACT_HELP)
    rr.add_argument(
        "--trace",
        help="write a CSV trace here: header iteration,phi,lmax with "
        "lmax = max(lmax_u, lmax_v); one row per phi_trajectory entry, "
        "row 0 being the balanced input and, when rescale starts at the "
        "geometric mean of the two side averages, row 1 that start, both "
        "before any descent step; floats written with repr so they "
        "round-trip exactly",
    )
    _add_common(rr)
    rr.set_defaults(func=_cmd_rescale_run)

    p = sub.add_parser("round", help="select a subsystem and round it")
    osub = p.add_subparsers(dest="subcommand", required=True)
    orun = osub.add_parser("run")
    orun.add_argument("--slack", required=True)
    orun.add_argument("--fact", required=True, help=FACT_HELP)
    orun.add_argument("--delta", default="max", help='"max", "max/10", or a value')
    orun.add_argument("--worst-case", action="store_true")
    _add_common(orun)
    orun.set_defaults(func=_cmd_round_run)

    p = sub.add_parser("reconstruct", help="sweep {0,1}^n through the membership oracle")
    p.add_argument("--system", required=True, help=SYSTEM_HELP)
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
    be.add_argument("--formula", required=True, choices=tuple(FORMULAS))
    be.add_argument("--n", type=int, default=2)
    be.add_argument("--R", type=int, default=1)
    be.add_argument("--d", type=int, default=4)
    be.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(be)
    be.set_defaults(func=_cmd_bounds_eval)

    p = sub.add_parser("pipeline", help="full slack->reconstruct pipeline")
    p.add_argument("--instance", required=True, help=INSTANCE_HELP)
    p.add_argument("--n", type=int, default=2,
                   help="dimension of the builtin, 1 to 4 (the sweep covers {0,1}^n)")
    p.add_argument("--r", type=int,
                   help="factorize by a Levenberg-Marquardt fit at this side, 1 to "
                   f"{FIT_MAX_SIDE}, instead of the diagonal embedding; a side below the "
                   "polytope's dimension + 1, or a fit that misses its residual target, ends "
                   'the run at "factorization not found"')
    p.add_argument("--skip-rescale", action="store_true")
    p.add_argument("--unbalance", type=float,
                   help="apply an adversarial congruence of this condition number")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the --unbalance congruence; the --r fit draws at a fixed seed")
    _add_common(p)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        # numpy's generators take non-negative seeds only.
        if getattr(args, "seed", 0) < 0:
            raise PreconditionError(f"--seed must be >= 0, got {args.seed}")
        t0 = time.perf_counter()
        report, code = args.func(args)
        if getattr(args, "format", "json") == "csv":
            text = _bounds_csv(report)
        else:
            report["manifest"] = _manifest(args, argv, t0)
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        _write(text, args)
        return code
    except PreconditionError as exc:
        # Name the flag behind a refused argument when this command has one
        # (rescale's arg="s" in pipeline, which has no --slack, goes unnamed);
        # a switch that is set has no value to show.
        flag = _FLAGS.get(exc.arg)
        value = flag and getattr(args, flag.lstrip("-").replace("-", "_"), None)
        named = "" if value is None else f"{flag}: " if value is True else f"{flag} {value}: "
        print(f"error: {named}{exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
