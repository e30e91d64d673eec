"""End-to-end pipeline: slack -> factorize -> rescale -> round -> reconstruct.

Runs a builtin instance through every stage and reports whether the
reconstructed lattice points coincide with the original vertex set.  The
``skip_rescale`` and ``unbalance`` knobs exist to demonstrate what breaks
when the rounding stage is fed an unrescaled factorization: the rounding
error stays within its bound, but the entry bound and the warm budget
fail, and true vertices lose their bounded-norm witnesses.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .factorization import (
    FitResult,
    PsdFactorization,
    check_reproduces,
    congruence,
    diagonal_embed,
    fit_factorization,
    fit_report,
)
from .polytopes import build_slack, builtin_instance
from .record import Record
from .rescaling import rescale, rescale_report
from .rounding import GridParams, build_rounded_system, reconstruct, round_report
from . import symmat


class PipelineConfig(Record):
    """``r`` is None for the diagonal embedding, otherwise the side of
    fit_factorization; ``unbalance`` is the condition number of an
    adversarial congruence.  ``membership_cfg`` is set by
    perfbench/workloads.py only; run_pipeline does not read it."""

    __slots__ = ("r", "skip_rescale", "unbalance", "seed", "membership_cfg")

    def __init__(self, r: int | None = None, skip_rescale: bool = False,
                 unbalance: float | None = None, seed: int = 0, membership_cfg=None):
        # Written so that NaN fails the check.
        if unbalance is not None and not 0.0 < unbalance < np.inf:
            raise PreconditionError(f"unbalance must be finite and > 0, got {unbalance!r}",
                                    arg="unbalance")
        self._set_fields(r, skip_rescale, unbalance, seed, membership_cfg)


def _unbalance_congruence(f: PsdFactorization, t: float, seed: int) -> PsdFactorization:
    """Apply a random ill-conditioned PSD congruence (for demonstrations)."""
    r = f.side
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    diag = np.ones(r)
    diag[0] = np.sqrt(t)
    if r > 1:
        diag[1] = 1.0 / np.sqrt(t)
    a = symmat.as_symmetric(symmat.from_spectrum(diag, q))
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # 1 / sqrt(t) is lost against entries of order sqrt(t).
        raise PreconditionError("the congruence is numerically singular", arg="unbalance") from None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return congruence(f, a, a_inv)
    except PreconditionError:
        # Entries of A U_i A grow like t and overflow near the float range.
        raise PreconditionError("the congruent factors overflow", arg="unbalance") from None


def run_pipeline(instance: str, n: int, cfg: PipelineConfig = PipelineConfig()) -> dict:
    """Full pipeline on a builtin instance; returns a stage-by-stage report.

    The reconstruction sweeps {0,1}^n, so a dimension above 4 is refused
    before the instance is built, and an instance whose vertices are not
    all 0/1 points is refused with PreconditionError.  So is an
    ``unbalance`` congruence after which the factorization fails
    ``check_reproduces``.
    """
    # n is the dimension of every builtin but moment_polygon, whose n
    # counts the vertices of a polygon.
    if (2 if instance == "moment_polygon" else n) > 4:
        raise PreconditionError("the reconstruction pipeline supports n <= 4", arg="n")
    h, v = builtin_instance(instance, n)
    if not ((v.points == 0) | (v.points == 1)).all():
        raise PreconditionError(
            f"instance {instance!r} has vertices outside {{0,1}}^{h.dim}, "
            "which the reconstruction sweep cannot find", arg="instance")
    s = build_slack(h, v)
    report: dict = {
        "instance": instance,
        "n": h.dim,
        "stages": {},
    }
    report["stages"]["slack"] = {
        "shape": list(s.shape),
        "max_entry": s.max_entry,
    }

    if cfg.r is None:
        f = diagonal_embed(s)
        report["stages"]["factorize"] = {"method": "diagonal_embed", "r": f.side}
    else:
        # A polytope of dimension d has PSD rank at least d + 1 (Gouveia,
        # Robinson and Thomas, "Polytopes of minimum positive semidefinite
        # rank", 2013), so a smaller side is refused before any step.  The
        # bound needs S to be a polytope's own slack matrix, as a builtin's
        # is, so it is not fit_factorization's, which refuses a side below 1.
        dim = int(np.linalg.matrix_rank(v.points[1:] - v.points[0])) if v.n_points > 1 else 0
        if 1 <= cfg.r <= dim:
            fit = FitResult(factorization=None, trace=(), reason=(
                f"side {cfg.r} is below the PSD-rank lower bound {dim + 1} of a "
                f"{dim}-dimensional polytope"))
        else:
            fit = fit_factorization(s, cfg.r)
        report["stages"]["factorize"] = {"method": "levenberg_marquardt", "r": cfg.r,
                                         **fit_report(fit)}
        if fit.factorization is None:
            report["verdict"] = "factorization not found"
            return report
        f = fit.factorization

    if cfg.unbalance is not None:
        f = _unbalance_congruence(f, cfg.unbalance, cfg.seed)
        # The congruence can lose the slack matrix to round-off.
        residual = check_reproduces(f, s, arg="unbalance")
        report["stages"]["factorize"]["unbalanced"] = True
        report["stages"]["factorize"]["residual_after_unbalance"] = residual

    if cfg.skip_rescale:
        working = f
        report["stages"]["rescale"] = {"skipped": True}
    else:
        res = rescale(f, s)
        working = res.factorization
        report["stages"]["rescale"] = {"skipped": False, **rescale_report(res)}

    grid = GridParams.for_slack(n=h.dim, r=working.side, delta_eff=s.max_entry)
    system = build_rounded_system(h, working, grid)
    report["stages"]["round"] = round_report(system, working.col_factors)

    # Each vertex starts from its own column factor.
    recon = reconstruct(system, warm_starts=(v.points, working.col_factors)).to_json()
    report["stages"]["reconstruct"] = recon
    if recon["inconclusive"]:
        report["verdict"] = "incomplete"
    elif recon["accepted"] == sorted(v.points.tolist()):
        report["verdict"] = "match"
    else:
        report["verdict"] = "mismatch"
    return report
