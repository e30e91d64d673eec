"""Calculators for the quantitative extension-complexity bounds.

Everything is evaluated in the log2 domain so the astronomically large
quantities (coefficient bounds like (n+1)^((n+1)/2), capacity counts like
2^(2^n)) never overflow.  Reports carry an explicit assumption list; in
particular every report notes that logs are base 2, since the source
asymptotics are base-free.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError
from .record import Record

_LOG_BASE_NOTE = "log = log2 throughout; the asymptotic statements are base-free"


class BoundReport(Record):
    __slots__ = ("formula", "inputs", "log2_value", "decimal", "assumptions", "extras")
    _defaults = {"extras": dict}


def _finite(flag: str, compute) -> tuple:
    """The floats ``compute()`` returns, all finite.

    A float overflow inside ``compute`` or an infinite result raises
    PreconditionError naming the command-line flag ``--flag`` of the input
    that is too large.
    """
    try:
        values = compute()
    except OverflowError:
        values = (math.inf,)
    if not all(math.isfinite(v) for v in values):
        raise PreconditionError(f"--{flag} is too large: the bound overflows a float")
    return values


def _decimal(log2_value: float) -> str | None:
    if log2_value < 64.0:
        return f"{2.0 ** log2_value:.6g}"
    return None


def _report(formula, inputs, log2_value, assumptions, extras=None) -> BoundReport:
    assumptions = tuple(assumptions) + (_LOG_BASE_NOTE,)
    return BoundReport(
        formula=formula,
        inputs=dict(inputs),
        log2_value=float(log2_value),
        decimal=_decimal(float(log2_value)),
        assumptions=assumptions,
        extras=dict(extras or {}),
    )


def xc01_lower_bound(n: int) -> BoundReport:
    """2^(n/4) / (3 n log2 n)^(1/4): the 0/1-polytope lower bound."""
    if n < 2:
        raise PreconditionError("needs n >= 2", arg="n")
    (log2_value,) = _finite("n", lambda: (n / 4.0 - math.log2(3.0 * n * math.log2(n)) / 4.0,))
    return _report(
        "xc01_lower_bound",
        {"n": n},
        log2_value,
        ("asymptotic lower bound, constants as stated",),
    )


def worst_case_coeff_bound(n: int) -> BoundReport:
    """log2 of (n+1)^((n+1)/2), the worst-case facet coefficient size.

    Also reports the comparison against n log2 n, which holds from n = 3 on.
    """
    if n < 1:
        raise PreconditionError("needs n >= 1", arg="n")
    log2_value, rhs = _finite("n", lambda: (
        (n + 1) / 2.0 * math.log2(n + 1),
        n * math.log2(n) if n > 1 else 0.0,
    ))
    return _report(
        "worst_case_coeff_bound",
        {"n": n},
        log2_value,
        ("0/1 polytopes admit integral descriptions within this coefficient bound",),
        extras={
            "n_log2_n": rhs,
            "le_n_log2_n": bool(log2_value <= rhs),
        },
    )


def counting_capacity(n: int, big_r: int) -> BoundReport:
    """Both sides of the counting inequality 2^(2^n) - 1 <= Delta^(2 (n+R^2+1)(n+R^2)).

    Pure calculator: the o(1) exponent correction is dropped and recorded
    as an assumption; Delta is the worst case (n+1)^((n+1)/2).
    """
    if n < 1:
        raise PreconditionError("needs n >= 1", arg="n")
    if big_r < 0:
        raise PreconditionError("needs R >= 0", arg="big_r")
    if n < 10:
        left = math.log2(2.0 ** (2**n) - 1.0)
    else:
        # From n = 10 on, log2(2^(2^n) - 1) rounds to 2^n, taken here
        # without forming 2^n as an integer.
        (left,) = _finite("n", lambda: (math.ldexp(1.0, n),))
    log2_delta = (n + 1) / 2.0 * math.log2(n + 1)
    m = n + big_r**2
    (right,) = _finite("R", lambda: (2.0 * (m + 1) * m * log2_delta,))
    return _report(
        "counting_capacity",
        {"n": n, "R": big_r},
        right,
        (
            "o(1) term in the exponent dropped",
            "Delta = (n+1)^((n+1)/2), the worst-case coefficient bound",
        ),
        extras={
            "left_log2": float(left),
            "right_log2": float(right),
            "dominant": "right" if right >= left else "left",
        },
    )


def polygon_bound(d: int) -> BoundReport:
    """(d / log2 d)^(1/4): the integral-polygon lower bound, constant-free."""
    if d < 3:
        raise PreconditionError("needs d >= 3", arg="d")
    log2_value = (math.log2(d) - math.log2(math.log2(d))) / 4.0
    return _report(
        "polygon_bound",
        {"d": d},
        log2_value,
        ("constant-free: the multiplicative constant c' is unspecified",),
    )


def polygon_params_report(d: int) -> BoundReport:
    """Parameters of the d-gon instance on the parabola: N = 4 d^2 and the vertex box [2d] x [4d^2].

    Two Delta readings coexist in the source material: the general grid
    formula ((n+1) N)^(2n) gives (12 d^2)^4 at n=2, N=4d^2, while the
    polygon count is estimated with (12 d^2)^2.  Both are reported; no
    silent choice is made.
    """
    if d < 3:
        raise PreconditionError("needs d >= 3", arg="d")
    n = 2
    (base,) = _finite("d", lambda: (math.log2(12.0 * d * d),))
    return _report(
        "polygon_instance_params",
        {"d": d},
        2 * n * base,
        (
            "Delta carries two readings: ((n+1)N)^(2n) = (12 d^2)^4 and the "
            "quadratic variant (12 d^2)^2; both are reported, none chosen",
        ),
        extras={
            "N": 4 * d * d,
            "box": [2 * d, 4 * d * d],
            "delta_log2_general": 2 * n * base,
            "delta_log2_quadratic": 2 * base,
        },
    )
