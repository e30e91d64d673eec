"""Integer polytopes given by inequalities and points, and slack matrices.

H-representations are always inputs (hand-written for the builtins);
facet enumeration is deliberately not provided.  Slack entries are exact
64-bit integers with an overflow guard.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, PreconditionError, ResourceError
from .record import Record

# Guard so that b - a.x plus intermediate sums stay well inside int64.
_INT_GUARD = 2**62

BUILTIN_NAMES = ("cube", "simplex", "crosspoly_01", "segment", "point", "moment_polygon")

# Largest moment_polygon vertex count: its d x d slack matrix has a diagonal
# embedding of d^3 floats, 128 MiB at d = 256.
MOMENT_POLYGON_MAX_D = 256
# Largest n of each builtin family whose arrays grow with n, checked before
# anything is allocated.  The diagonal embedding holds 2^n (2n)^2 floats
# for cube n and (n + 1)^3 for simplex n, at most 2^24 (128 MiB) as for
# moment_polygon.  point n embeds into one factor of side 1, but its
# 2n x n inequality matrix is written out in full by ``slack build``;
# n = 256 keeps it at 2^17 entries.  crosspoly_01 and segment take fixed
# sizes only.
BUILTIN_MAX_N = {"cube": 14, "simplex": 255, "point": 256, "moment_polygon": MOMENT_POLYGON_MAX_D}


def as_int_array(a, name: str) -> np.ndarray:
    """``a`` as a new int64 array.

    Any other dtype must hold integers of magnitude below _INT_GUARD,
    checked before the cast, which wraps 1e30 or 2^63 around; strings and
    Python ints beyond 64 bits are refused.
    """
    arr = np.asarray(a)
    kind = arr.dtype.kind
    if arr.dtype != np.int64 and (
            kind not in "iuf" or (kind == "f" and not (arr == np.round(arr)).all())
            or not np.abs(arr).max(initial=0) < _INT_GUARD):
        raise PreconditionError(f"{name} must have integer entries of magnitude below 2^62")
    return arr.astype(np.int64)


class HPolytope(Record):
    """Inequality description a_i . x <= b_i with integer coefficients."""

    __slots__ = ("a", "b")  # (m, n) and (m,) int64

    def __init__(self, a, b):
        a = as_int_array(a, "a")
        b = as_int_array(b, "b")
        if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
            raise DimensionError("inequality rows and offsets disagree")
        rows = {tuple(row) + (off,) for row, off in zip(a.tolist(), b.tolist())}
        if len(rows) != a.shape[0]:
            raise PreconditionError("duplicate inequality rows")
        self._set_fields(a, b)

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]


class VPolytope(Record):
    """Point description: distinct integer points, one per row."""

    __slots__ = ("points",)  # (j, n) int64

    def __init__(self, points):
        pts = as_int_array(points, "points")
        if pts.ndim != 2:
            raise DimensionError("points must be a 2-d array")
        if len({tuple(p) for p in pts.tolist()}) != pts.shape[0]:
            raise PreconditionError("duplicate points")
        self._set_fields(pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


class SlackMatrix(Record):
    """Nonnegative matrix of inequality slacks, with optional provenance.

    The constructor converts the entries to floats once: ``floats`` is that
    read-only (m, n) array and ``max_entry`` its largest entry, 0.0 when
    the matrix is empty.
    """

    __slots__ = ("entries", "h", "v", "floats", "max_entry")

    def __init__(self, entries, h: HPolytope | None = None, v: VPolytope | None = None):
        entries = np.asarray(entries)
        if entries.ndim != 2:
            raise DimensionError("slack entries must be a 2-d array")
        floats = entries.astype(float)
        floats.flags.writeable = False
        # min and max propagate NaN, so NaN fails the first check.
        low, high = (float(floats.min()), float(floats.max())) if floats.size else (0.0, 0.0)
        if not (math.isfinite(low) and math.isfinite(high)):
            raise PreconditionError("slack entries must be finite")
        if low < 0:
            raise PreconditionError("slack entries must be nonnegative")
        self._set_fields(entries, h, v, floats, high)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def build_slack(h: HPolytope, v: VPolytope) -> SlackMatrix:
    """Exact integer slack matrix S[i, j] = b_i - a_i . x_j.

    Every point must satisfy every inequality; a negative slack raises an
    error naming the offending (row, point) pair.
    """
    if h.dim != v.dim:
        raise DimensionError(f"dimension mismatch: rows in R^{h.dim}, points in R^{v.dim}")
    bound = (
        int(abs(h.a).max(initial=0))
        * max(h.dim, 1)
        * int(abs(v.points).max(initial=0))
        + int(abs(h.b).max(initial=0))
    )
    if bound >= _INT_GUARD:
        raise PreconditionError("coefficients too large for 64-bit slack computation", arg="v")
    s = h.b[:, None] - h.a @ v.points.T
    try:
        return SlackMatrix(entries=s, h=h, v=v)
    except PreconditionError:
        # Integer slacks are finite, so a negative one was refused.
        i, j = np.argwhere(s < 0)[0]
        raise PreconditionError(f"point {j} violates inequality {i}: slack {int(s[i, j])}",
                                arg="v") from None


def cube_points(n: int, batch: int):
    """The points of {0,1}^n in lexicographic order, as int64 arrays of up to ``batch`` rows."""
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    for first in range(0, 1 << n, batch):
        idx = np.arange(first, min(first + batch, 1 << n), dtype=np.int64)
        yield (idx[:, None] >> shifts) & 1


def enumerate_01_vertices(h: HPolytope, max_dim: int = 24) -> VPolytope:
    """All points of {0,1}^n satisfying every inequality (brute force, 2^16 points at a time)."""
    n = h.dim
    if n > max_dim:
        raise ResourceError(f"2^{n} enumeration refused (n > {max_dim})")
    chunks = cube_points(n, 1 << min(n, 16))
    return VPolytope(points=np.concatenate(
        [pts[np.all(h.a @ pts.T <= h.b[:, None], axis=0)] for pts in chunks]))


def _cube(n: int) -> tuple[HPolytope, VPolytope]:
    eye = np.eye(n, dtype=np.int64)
    a = np.concatenate([-eye, eye], axis=0)
    b = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    # Every point of {0,1}^n is a vertex, in the lexicographic order of
    # ``cube_points``.
    return HPolytope(a=a, b=b), VPolytope(points=next(cube_points(n, 1 << n)))


def _simplex(n: int) -> tuple[HPolytope, VPolytope]:
    eye = np.eye(n, dtype=np.int64)
    a = np.concatenate([-eye, np.ones((1, n), dtype=np.int64)], axis=0)
    b = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(1, dtype=np.int64)])
    pts = np.concatenate([np.zeros((1, n), dtype=np.int64), eye], axis=0)
    return HPolytope(a=a, b=b), VPolytope(points=pts)


def _crosspoly_01(n: int) -> tuple[HPolytope, VPolytope]:
    # Vertices e_k and 1 - e_k inside the unit cube; the hand-written facet
    # list 0 <= x <= 1, 1 <= sum(x) <= n-1 is exact only for n in {2, 3}.
    if n not in (2, 3):
        raise PreconditionError("crosspoly_01 has a hand-written H-rep for n in {2, 3} only",
                                arg="n")
    eye = np.eye(n, dtype=np.int64)
    ones = np.ones((1, n), dtype=np.int64)
    a = np.concatenate([-eye, eye, -ones, ones], axis=0)
    b = np.concatenate(
        [
            np.zeros(n, dtype=np.int64),
            np.ones(n, dtype=np.int64),
            np.asarray([-1], dtype=np.int64),
            np.asarray([n - 1], dtype=np.int64),
        ]
    )
    pts = np.concatenate([eye, 1 - eye], axis=0)
    if n == 2:  # 1 - e_k duplicates e_k when n = 2
        pts = eye
    return HPolytope(a=a, b=b), VPolytope(points=pts)


def _segment(n: int) -> tuple[HPolytope, VPolytope]:
    if n != 1:
        raise PreconditionError("segment is one-dimensional; pass n=1", arg="n")
    return _cube(1)


def _point(n: int) -> tuple[HPolytope, VPolytope]:
    eye = np.eye(n, dtype=np.int64)
    a = np.concatenate([-eye, eye], axis=0)
    b = np.zeros(2 * n, dtype=np.int64)
    pts = np.zeros((1, n), dtype=np.int64)
    return HPolytope(a=a, b=b), VPolytope(points=pts)


def _moment_polygon(d: int) -> tuple[HPolytope, VPolytope]:
    """d-gon with vertices (z, z^2) for even z in [2d], for d >= 3.

    Edges between consecutive vertices carry the inequality
    -y + (z1+z2) x - z1 z2 <= 0; the top chord closes the polygon.
    """
    if d < 3:
        raise PreconditionError("moment_polygon needs d >= 3", arg="n")
    z = np.arange(1, d + 1, dtype=np.int64) * 2
    pts = np.stack([z, z * z], axis=1)
    rows = []
    offs = []
    for z1, z2 in zip(z[:-1], z[1:]):
        rows.append([int(z1 + z2), -1])
        offs.append(int(z1 * z2))
    rows.append([-int(z[0] + z[-1]), 1])
    offs.append(-int(z[0] * z[-1]))
    h = HPolytope(a=np.asarray(rows, dtype=np.int64), b=np.asarray(offs, dtype=np.int64))
    return h, VPolytope(points=pts)


def builtin_instance(name: str, n: int) -> tuple[HPolytope, VPolytope]:
    """Hand-written H- and V-representations of the test instances.

    For ``moment_polygon`` the second argument is the vertex count d.  An
    n above the family's ``BUILTIN_MAX_N`` is refused before anything is
    allocated, and an unknown name is refused with ``arg="name"``.
    """
    builders = {
        "cube": _cube,
        "simplex": _simplex,
        "crosspoly_01": _crosspoly_01,
        "segment": _segment,
        "point": _point,
        "moment_polygon": _moment_polygon,
    }
    if name not in builders:
        raise PreconditionError(
            f"unknown instance {name!r}; choose from {', '.join(BUILTIN_NAMES)}", arg="name"
        )
    if n < 1:
        raise PreconditionError("dimension must be positive", arg="n")
    if n > BUILTIN_MAX_N.get(name, n):
        raise ResourceError(f"{name} above n = {BUILTIN_MAX_N[name]} refused", arg="n")
    return builders[name](n)
