"""JSON interchange for polytopes, slack matrices, factorizations and rounded systems.

Every numeric array is written as ``ndarray.tolist()``, one nested list
shaped like the array, and read by ``_array`` against the shape its file
declares: a slack file's ``entries`` (m, n) by ``shape``; a factorization
file's ``U`` (m, r, r) and ``V`` (n, r, r) by ``r``; a system file's ``a``
(k, n), ``b`` (k,) and ``U`` (k, r, r) by the length k of ``selected`` and
the n and r of ``grid``.  A polytope file keeps its hand-written layout:
``n``, ``rows`` of {a, b} and ``points``, integers read against ``n``.

``sha256_file`` gives the input hashes that the CLI's run manifest
records, so results can be reproduced bit for bit.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import PreconditionError
from .factorization import PsdFactorization
from .polytopes import HPolytope, SlackMatrix, VPolytope, build_slack
from .rounding import GridParams, RoundedSystem


_REQUIRED = object()


def _field(obj, name: str, convert, default=_REQUIRED):
    """``convert(obj[name])``; a missing or malformed field raises PreconditionError naming it."""
    if not isinstance(obj, dict):
        raise PreconditionError(f"expected a JSON object with field {name!r}")
    value = obj.get(name, default)
    if value is _REQUIRED:
        raise PreconditionError(f"missing field {name!r}")
    try:
        return convert(value)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"malformed field {name!r}: {exc!r}") from None


def _numbers(value):
    """``value`` itself when every leaf of it, through nested lists, is a JSON number.

    Booleans, strings and nulls are refused, since numpy reads true as 1,
    "1" as 1.0 and null as NaN.
    """
    stack = [value]
    while stack:
        leaf = stack.pop()
        if isinstance(leaf, list):
            stack.extend(leaf)
        elif isinstance(leaf, bool) or not isinstance(leaf, (int, float)):
            raise ValueError(f"expected JSON numbers, got {leaf!r}")
    return value


def _array(*shape):
    """Converter of nested lists of JSON numbers to a float array of ``shape``, None any length.

    An empty list takes the declared lengths below it: [] read as
    (None, 3, 3) is (0, 3, 3), and [[], []] read as (None, 0, 0) is (2, 0, 0).
    """
    def convert(value):
        _numbers(value)
        try:
            arr = np.asarray(value, dtype=float)
        except ValueError:
            raise ValueError("nested lists of unequal lengths") from None
        if arr.size == 0 and arr.ndim < len(shape):
            arr = arr.reshape(arr.shape + tuple(d or 0 for d in shape[arr.ndim:]))
        if arr.ndim != len(shape) or any(d not in (None, got) for d, got in zip(shape, arr.shape)):
            want = ", ".join("any" if d is None else str(d) for d in shape)
            raise ValueError(f"shape {arr.shape}, expected ({want})")
        return arr
    return convert


def _float(value) -> float:
    return float(_numbers(value))


def _size(value) -> int:
    """A length or index: an integer in [0, 2^62), 2.0 included; booleans, fractions refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
            0 <= value < 2**62 and value == int(value)):
        raise ValueError(f"expected an integer in [0, 2^62), got {value!r}")
    return int(value)


def _sizes(value) -> tuple:
    return tuple(map(_size, value))


def _bool(value) -> bool:
    """A JSON boolean; 0, 1 and strings are refused."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def polytope_to_json(h: HPolytope, v: VPolytope | None) -> dict:
    return {
        "n": h.dim,
        "rows": [{"a": a, "b": b} for a, b in zip(h.a.tolist(), h.b.tolist())],
        "points": [] if v is None else v.points.tolist(),
    }


def polytope_from_json(obj: dict) -> tuple[HPolytope, VPolytope | None]:
    """Load a polytope; ``HPolytope`` and ``VPolytope`` check that its numbers are integers."""
    n = _field(obj, "n", _size)

    def inequalities(rows):
        a = np.asarray([_field(r, "a", _numbers) for r in rows]).reshape(len(rows), n)
        return a, np.asarray([_field(r, "b", _numbers) for r in rows])

    def points(pts):
        pts = pts or []
        return np.asarray(_numbers(pts)).reshape(len(pts), n)

    a, b = _field(obj, "rows", inequalities, default=[])
    pts = _field(obj, "points", points, default=None)
    return HPolytope(a=a, b=b), (VPolytope(points=pts) if len(pts) else None)


def slack_to_json(s: SlackMatrix) -> dict:
    return {
        "shape": list(s.shape),
        "entries": s.floats.tolist(),
        "max_entry": s.max_entry,
        "polytope": None if s.h is None else polytope_to_json(s.h, s.v),
    }


def slack_from_json(obj: dict) -> SlackMatrix:
    """Load a slack matrix; with a polytope and its points, the entries must be their slacks."""
    entries = _field(obj, "entries", _array(*_field(obj, "shape", _sizes)))
    h, v = _field(obj, "polytope", lambda p: polytope_from_json(p) if p else (None, None),
                  default=None)
    if h is None or v is None:
        return SlackMatrix(entries)
    want = build_slack(h, v).floats
    if entries.shape != want.shape:
        raise PreconditionError(
            f"entries have shape {entries.shape}, the polytope's slack matrix {want.shape}")
    bad = np.argwhere(entries != want)
    if len(bad):
        i, j = bad[0]
        raise PreconditionError(
            f"entry ({i}, {j}) is {float(entries[i, j])}, but the polytope's slack is "
            f"{float(want[i, j])}")
    return SlackMatrix(entries=entries, h=h, v=v)


def factorization_to_json(f: PsdFactorization) -> dict:
    return {"r": f.side, "U": f.row_factors.tolist(), "V": f.col_factors.tolist()}


def factorization_from_json(obj: dict) -> PsdFactorization:
    r = _field(obj, "r", _size)
    rows, cols = (_field(obj, name, _array(None, r, r)) for name in ("U", "V"))
    # The constructor would symmetrize a factor; a file must not need it, so
    # a finite factor that is not exactly symmetric is refused.  A
    # non-finite one is left to the constructor.
    for stack, label in ((rows, "row factor"), (cols, "column factor")):
        bad = [k for k, m in enumerate(stack) if np.isfinite(m).all() and (m != m.T).any()]
        if bad:
            raise PreconditionError(f"{label} {bad[0]} is not exactly symmetric")
    return PsdFactorization.from_factors(rows, cols)


def grid_to_json(g: GridParams) -> dict:
    return {
        "n": g.n,
        "r": g.r,
        "delta": g.delta,
        "Delta": g.big_delta,
        "worst_case": g.worst_case,
    }


def grid_from_json(obj: dict) -> GridParams:
    return GridParams(
        n=_field(obj, "n", _size),
        r=_field(obj, "r", _size),
        delta=_field(obj, "delta", _float),
        big_delta=_field(obj, "Delta", _float),
        worst_case=_field(obj, "worst_case", _bool, default=False),
    )


def system_to_json(sys: RoundedSystem) -> dict:
    return {
        "grid": grid_to_json(sys.grid),
        "selected": list(sys.selected),
        "a": sys.a.tolist(),
        "b": sys.b.tolist(),
        "U": sys.factors.tolist(),
    }


def system_from_json(obj: dict) -> RoundedSystem:
    """Load a ``RoundedSystem``: one row per entry of ``selected``, at most n + r^2 of them."""
    grid = _field(obj, "grid", grid_from_json)
    selected = _field(obj, "selected", _sizes)
    k, n, r = len(selected), grid.n, grid.r
    if k > n + r**2:
        raise PreconditionError(f"the rounded system has {k} rows, above n + r^2 = {n + r**2}")
    a = _field(obj, "a", _array(k, n))
    b = _field(obj, "b", _array(k))
    factors = _field(obj, "U", _array(k, r, r))
    # The oracle's eigvalsh reads one triangle, so factors must be exactly
    # symmetric.  Its slacks b - a.x over x in {0,1}^n stay finite when
    # |b| + sum_j |a_j| does.
    finite = np.isfinite(a).all(axis=1) & np.isfinite(b) & np.isfinite(factors).all(axis=(1, 2))
    with np.errstate(over="ignore"):
        bounded = np.isfinite(np.abs(b) + np.abs(a).sum(axis=1))
    symmetric = (factors == factors.swapaxes(1, 2)).all(axis=(1, 2))
    for ok, defect in ((finite, "has non-finite entries"),
                       (bounded, "has |b| + sum_j |a_j| beyond the float range"),
                       (symmetric, "has a factor U that is not exactly symmetric")):
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise PreconditionError(f"row {bad[0]} of the rounded system {defect}")
    return RoundedSystem(a=a, b=b, factors=factors, grid=grid, selected=selected)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_json(path):
    """Parse a JSON file; an unreadable or malformed file raises PreconditionError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read JSON file: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"not valid JSON: {exc}") from None
