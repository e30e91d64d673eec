"""End-to-end pipeline: slack -> factorize -> rescale -> round -> reconstruct.

Runs a builtin instance through every stage and reports whether the
reconstructed lattice points coincide with the original vertex set.  The
``skip_rescale`` and ``unbalance`` knobs exist to demonstrate what breaks
when the rounding stage is fed an unrescaled factorization: the rounding
error and entry bounds fail and true vertices lose their bounded-norm
witnesses.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError
from .factorization import (
    VERIFY_TOL,
    FitResult,
    PsdFactorization,
    congruence,
    diagonal_embed,
    fit_factorization,
    max_residual,
    residual_budget,
)
from .polytopes import build_slack, builtin_instance
from .record import Record
from .rescaling import rescale
from .rounding import GridParams, build_rounded_system, reconstruct
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
        raise PreconditionError(
            f"--unbalance {t:g} makes the congruence numerically singular"
        ) from None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return congruence(f, a, a_inv)
    except PreconditionError:
        # Entries of A U_i A grow like t and overflow near the float range.
        raise PreconditionError(f"--unbalance {t:g} overflows the congruent factors") from None


def run_pipeline(instance: str, n: int, cfg: PipelineConfig = PipelineConfig()) -> dict:
    """Full pipeline on a builtin instance; returns a stage-by-stage report.

    The reconstruction sweeps {0,1}^n, so a dimension above 4 is refused
    before the instance is built, and an instance whose vertices are not
    all 0/1 points is refused with PreconditionError.  So is an
    ``unbalance`` congruence after which the factorization misses the
    slack matrix by more than ``residual_budget(s, VERIFY_TOL)``.
    """
    # n is the dimension of every builtin but moment_polygon, whose n
    # counts the vertices of a polygon.
    if (2 if instance == "moment_polygon" else n) > 4:
        raise PreconditionError(f"reconstruction pipeline supports n <= 4, got --n {n}")
    h, v = builtin_instance(instance, n)
    if not ((v.points == 0) | (v.points == 1)).all():
        raise PreconditionError(
            f"instance {instance!r} has vertices outside {{0,1}}^{h.dim}, "
            "which the reconstruction sweep cannot find"
        )
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
        # rank", 2013), so a smaller side is refused before any step.
        dim = int(np.linalg.matrix_rank(v.points[1:] - v.points[0])) if v.n_points > 1 else 0
        if cfg.r < dim + 1:
            fit = FitResult(factorization=None, trace=(), reason=(
                f"side {cfg.r} is below the PSD-rank lower bound {dim + 1} of a "
                f"{dim}-dimensional polytope"))
        else:
            fit = fit_factorization(s, cfg.r)
        found = fit.factorization is not None
        report["stages"]["factorize"] = {
            "method": "levenberg_marquardt",
            "r": cfg.r,
            "found": found,
            "residual": fit.residual,
            "steps": fit.steps,
        }
        if not found:
            report["stages"]["factorize"]["reason"] = fit.reason
            report["verdict"] = "factorization not found"
            return report
        f = fit.factorization

    if cfg.unbalance is not None:
        f = _unbalance_congruence(f, cfg.unbalance, cfg.seed)
        residual = max_residual(f, s)[0]
        budget = residual_budget(s, VERIFY_TOL)
        # Written so that a NaN residual fails the check.
        if not residual <= budget:
            raise PreconditionError(
                f"--unbalance {cfg.unbalance:g} loses the slack matrix to round-off "
                f"(max residual {residual:.3g} above {budget:.3g})"
            )
        report["stages"]["factorize"]["unbalanced"] = True
        report["stages"]["factorize"]["residual_after_unbalance"] = residual

    if cfg.skip_rescale:
        working = f
        report["stages"]["rescale"] = {"skipped": True}
    else:
        res = rescale(f, s)
        working = res.factorization
        report["stages"]["rescale"] = {
            "skipped": False,
            "certificate": res.certificate,
            "iterations": res.iterations,
            "start": res.diagnostics["start"],
            "reduced_dim": res.reduced_dim,
            "lmax_u": res.lmax_u,
            "lmax_v": res.lmax_v,
            "target_lmax": res.target,
        }

    grid = GridParams.for_slack(n=h.dim, r=working.side, delta_eff=s.max_entry)
    system = build_rounded_system(h, working, grid)
    max_error = max(system.error_fnorm, default=0.0)
    budget_margin = max_error * working.side * math.sqrt(grid.big_delta)
    report["stages"]["round"] = {
        "delta": grid.delta,
        "Delta": grid.big_delta,
        "grid_step": grid.step,
        "budget": grid.budget,
        "selected_rows": list(system.selected),
        "zeroed_factors": list(system.zeroed),
        "error_bound_ok": max_error <= grid.error_bound,
        # The padding rows are zero, so they never exceed the bound.
        "entry_bound_ok": bool(np.abs(system.factors).max() <= grid.entry_bound),
        "max_error_fnorm": max_error,
        "warm_budget_ok": bool(budget_margin <= grid.budget),
        "warm_budget_value": float(budget_margin),
    }

    # Each vertex starts from its own column factor.
    recon = reconstruct(system, h.dim, warm_starts=(v.points, working.col_factors)).to_json()
    report["stages"]["reconstruct"] = recon
    if recon["inconclusive"]:
        report["verdict"] = "incomplete"
    elif recon["accepted"] == sorted(v.points.tolist()):
        report["verdict"] = "match"
    else:
        report["verdict"] = "mismatch"
    return report
