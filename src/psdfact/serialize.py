"""JSON interchange for matrices, polytopes, factorizations.

``sha256_file`` gives the input hashes that the CLI's run manifest
records, so results can be reproduced bit for bit.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import PreconditionError
from .factorization import PsdFactorization
from .polytopes import HPolytope, SlackMatrix, VPolytope, as_int, build_slack
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


def _floats(value) -> np.ndarray:
    return np.asarray(_numbers(value), dtype=float)


def _float(value) -> float:
    return float(_numbers(value))


def _int(obj, name: str) -> int:
    """``obj[name]`` as one integer: ``as_int`` refuses fractions, booleans, strings, lists."""
    return as_int(_field(obj, name, lambda value: value), f"malformed field {name!r}")


def _bool(value) -> bool:
    """A JSON boolean; 0, 1 and strings are refused."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=float)
    return {"side": int(m.shape[0]), "entries": [float(x) for x in m.ravel()]}


def matrix_from_json(obj: dict) -> np.ndarray:
    side = _int(obj, "side")
    entries = _field(obj, "entries", _floats)
    if entries.size != side * side:
        raise PreconditionError(
            f"matrix payload has {entries.size} entries, expected {side * side}"
        )
    return entries.reshape(side, side)


def polytope_to_json(h: HPolytope, v: VPolytope | None) -> dict:
    out = {
        "n": h.dim,
        "rows": [
            {"a": [int(x) for x in a], "b": int(b)}
            for a, b in zip(h.a.tolist(), h.b.tolist())
        ],
    }
    out["points"] = [] if v is None else [[int(x) for x in p] for p in v.points.tolist()]
    return out


def polytope_from_json(obj: dict) -> tuple[HPolytope, VPolytope | None]:
    """Load a polytope; ``HPolytope`` and ``VPolytope`` check that its numbers are integers."""
    n = _int(obj, "n")

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
    out = {
        "shape": [int(x) for x in s.shape],
        "entries": s.floats.tolist(),
        "max_entry": s.max_entry,
    }
    out["polytope"] = polytope_to_json(s.h, s.v) if s.h is not None else None
    return out


def slack_from_json(obj: dict) -> SlackMatrix:
    """Load a slack matrix; with a polytope and its points, the entries must be their slacks."""
    entries = _field(obj, "entries", _floats)
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
    return {
        "r": f.side,
        "U": [matrix_to_json(u) for u in f.row_factors],
        "V": [matrix_to_json(v) for v in f.col_factors],
    }


def factorization_from_json(obj: dict) -> PsdFactorization:
    rows = _field(obj, "U", lambda ms: [matrix_from_json(m) for m in ms])
    cols = _field(obj, "V", lambda ms: [matrix_from_json(m) for m in ms])
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
        n=_int(obj, "n"),
        r=_int(obj, "r"),
        delta=_field(obj, "delta", _float),
        big_delta=_field(obj, "Delta", _float),
        worst_case=_field(obj, "worst_case", _bool, default=False),
    )


def system_to_json(sys: RoundedSystem) -> dict:
    return {
        "grid": grid_to_json(sys.grid),
        "selected": list(sys.selected),
        "rows": [
            {
                "a": [float(x) for x in a],
                "b": float(b),
                "U": matrix_to_json(u),
            }
            for a, b, u in zip(sys.a, sys.b, sys.factors)
        ],
    }


def system_from_json(obj: dict) -> RoundedSystem:
    """Load a ``RoundedSystem``: one row per entry of ``selected``, at most n + r^2 of them."""
    grid = _field(obj, "grid", grid_from_json)
    selected = tuple(as_int(i, "malformed field 'selected'") for i in _field(obj, "selected", list))
    count = _field(obj, "rows", len)
    if count > grid.n + grid.r**2:
        raise PreconditionError(
            f"the rounded system has {count} rows, above n + r^2 = {grid.n + grid.r**2}")
    if count != len(selected):
        raise PreconditionError(
            f"the rounded system has {count} rows, but 'selected' lists {len(selected)}")

    def selected_rows(rows):
        k = len(rows)
        a = np.asarray([_field(r, "a", _numbers) for r in rows], dtype=float).reshape(k, grid.n)
        b = np.asarray([_field(r, "b", _numbers) for r in rows], dtype=float).reshape(k)
        factors = np.asarray([matrix_from_json(r["U"]) for r in rows]).reshape(k, grid.r, grid.r)
        return a, b, factors

    a, b, factors = _field(obj, "rows", selected_rows)
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
