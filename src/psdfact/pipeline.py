"""End-to-end pipeline: slack -> factorize -> rescale -> round -> reconstruct.

Runs a builtin instance through every stage and reports whether the
reconstructed lattice points coincide with the original vertex set.  The
``skip_rescale`` and ``unbalance`` knobs exist to demonstrate what breaks
when the rounding stage is fed an unrescaled factorization: the rounding
error and entry bounds fail and true vertices lose their bounded-norm
witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .factorization import (
    FitFailure,
    PsdFactorization,
    alternating_fit,
    congruence,
    diagonal_embed,
    verify_factorization,
)
from .polytopes import build_slack, builtin_instance
from .rescaling import RescaleConfig, rescale
from .rounding import (
    GridParams,
    MembershipConfig,
    build_rounded_system,
    reconstruct,
)
from . import symmat


@dataclass(frozen=True)
class PipelineConfig:
    r: int | None = None  # None: diagonal embedding; otherwise alternating fit
    skip_rescale: bool = False
    unbalance: float | None = None  # condition number of an adversarial congruence
    seed: int = 0
    rescale_cfg: RescaleConfig = field(default_factory=RescaleConfig)
    membership_cfg: MembershipConfig = field(default_factory=MembershipConfig)

    def __post_init__(self):
        # Written so that NaN fails the check.
        if self.unbalance is not None and not 0.0 < self.unbalance < np.inf:
            raise PreconditionError(f"unbalance must be finite and > 0, got {self.unbalance!r}")


def _unbalance_congruence(f: PsdFactorization, t: float, seed: int) -> PsdFactorization:
    """Apply a random ill-conditioned PSD congruence (for demonstrations)."""
    r = f.side
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    diag = np.ones(r)
    diag[0] = np.sqrt(t)
    if r > 1:
        diag[1] = 1.0 / np.sqrt(t)
    a = symmat.as_symmetric((q * diag) @ q.T)
    return congruence(f, a, np.linalg.inv(a))


def run_pipeline(instance: str, n: int, cfg: PipelineConfig = PipelineConfig()) -> dict:
    """Full pipeline on a builtin instance; returns a stage-by-stage report."""
    h, v = builtin_instance(instance, n)
    if h.dim > 4:
        raise PreconditionError("reconstruction pipeline supports n <= 4")
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
        fit = alternating_fit(s, cfg.r)
        if isinstance(fit, FitFailure):
            report["stages"]["factorize"] = {
                "method": "alternating_fit",
                "r": cfg.r,
                "found": False,
                "residual": fit.residual,
            }
            report["verdict"] = "factorization not found"
            return report
        f = fit
        report["stages"]["factorize"] = {"method": "alternating_fit", "r": f.side, "found": True}

    if cfg.unbalance is not None:
        f = _unbalance_congruence(f, cfg.unbalance, cfg.seed)
        check = verify_factorization(f, s)
        report["stages"]["factorize"]["unbalanced"] = True
        report["stages"]["factorize"]["residual_after_unbalance"] = check.max_abs_residual

    if cfg.skip_rescale:
        working = f
        report["stages"]["rescale"] = {"skipped": True}
    else:
        res = rescale(f, s, cfg.rescale_cfg)
        working = res.factorization
        report["stages"]["rescale"] = {
            "skipped": False,
            "certificate": res.certificate,
            "iterations": res.iterations,
            "reduced_dim": res.reduced_dim,
            "lmax_u": res.lmax_u,
            "lmax_v": res.lmax_v,
            "target_lmax": res.target,
            "line_search_candidates": res.diagnostics["line_search_candidates"],
        }

    grid = GridParams.for_slack(n=h.dim, r=working.side, delta_eff=s.max_entry)
    system = build_rounded_system(h, working, grid)
    max_error = max(system.error_fnorm, default=0.0)
    budget_margin = max_error * working.side * np.sqrt(grid.big_delta)
    report["stages"]["round"] = {
        "delta": grid.delta,
        "Delta": grid.big_delta,
        "grid_step": grid.step,
        "budget": grid.budget,
        "selected_rows": list(system.selected),
        "error_bound_ok": max_error <= grid.error_bound,
        # The padding rows are zero, so they never exceed the bound.
        "entry_bound_ok": bool(np.max(np.abs(system.factors)) <= grid.entry_bound),
        "max_error_fnorm": max_error,
        "warm_budget_ok": bool(budget_margin <= grid.budget),
        "warm_budget_value": float(budget_margin),
    }

    warm = {tuple(int(x) for x in point): working.col_factors[j]
            for j, point in enumerate(v.points)}
    recon = reconstruct(system, h.dim, cfg.membership_cfg, warm_start_map=warm)
    accepted = sorted(ver.point for ver in recon.accepted)
    expected = sorted(tuple(int(x) for x in p) for p in v.points)
    report["stages"]["reconstruct"] = recon.to_json()
    if not recon.complete:
        report["verdict"] = "incomplete"
    elif accepted == expected:
        report["verdict"] = "match"
    else:
        report["verdict"] = "mismatch"
    return report
