"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library code paths they check:
operator norms come from power iteration, exponentials from a truncated
series, reconstructions from explicit rank-one sums.
"""

import numpy as np

from psdfact import symmat
from psdfact.factorization import PsdFactorization, diagonal_embed
from psdfact.pipeline import _unbalance_congruence
from psdfact.polytopes import SlackMatrix, build_slack, builtin_instance


def rng(seed):
    return np.random.default_rng(seed)


def random_symmetric(gen, n, scale=1.0):
    a = gen.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


def random_psd(gen, n, rank=None, scale=1.0):
    rank = n if rank is None else rank
    b = gen.standard_normal((n, rank)) * scale
    return b @ b.T / max(rank, 1)


def random_psd_with_gap(gen, n, gap, top=1.0):
    """PSD matrix with top eigenvalue ``top`` and spectral gap >= ``gap``."""
    lam = np.empty(n)
    lam[0] = top
    if n > 1:
        lam[1:] = gen.random(n - 1) * (top - gap)
    q = random_orthogonal(gen, n)
    return (q * lam) @ q.T


def random_orthogonal(gen, n):
    q, r = np.linalg.qr(gen.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def unbalanced_cube(t=100.0, seed=3):
    """Diagonal embedding of the unit square hit with a rotated congruence."""
    s = build_slack(*builtin_instance("cube", 2))
    f = diagonal_embed(s)
    q = random_orthogonal(rng(seed), f.side)
    diag = np.ones(f.side)
    diag[0], diag[1] = np.sqrt(t), 1.0 / np.sqrt(t)
    a = symmat.as_symmetric(q @ np.diag(diag) @ q.T)
    a_inv = np.linalg.inv(a)
    rows = [symmat.as_symmetric(a @ u @ a) for u in f.row_factors]
    cols = [symmat.as_symmetric(a_inv @ v @ a_inv) for v in f.col_factors]
    return PsdFactorization.from_factors(rows, cols), s


def two_row_embedding(cols=100):
    """Diagonal embedding of S = [[1, 0, ..., 0], [1, 1, ..., 1]], 2 x cols.

    phi is 1 at the input and sqrt(cols) at rescale's geometric-mean start,
    against d Delta = 2, so after a congruence rescale's descent loop still
    runs: from the input when the congruence is mild, else from the mean.
    """
    entries = np.zeros((2, cols))
    entries[0, 0] = 1.0
    entries[1] = 1.0
    s = SlackMatrix(entries)
    return diagonal_embed(s), s


def corner_diagonal(m=100):
    """Factors u_i = diag(1, [i = 0]) and v_j = diag([j = 0], 1), m of each.

    phi is 1 at the input and m at rescale's geometric-mean start, against
    d Delta = 4, so after a congruence rescale's descent loop still runs.
    """
    f = PsdFactorization.from_factors(
        [np.diag([1.0, float(i == 0)]) for i in range(m)],
        [np.diag([float(j == 0), 1.0]) for j in range(m)],
    )
    return f, SlackMatrix(f.products())


def loop_from_input():
    """``two_row_embedding`` after a mild congruence: tau is above the
    target and below the mean's phi, so rescale keeps the input and its
    loop takes 2 steps."""
    f, s = two_row_embedding()
    return _unbalance_congruence(f, 2.0, 1), s


def loop_from_mean():
    """``corner_diagonal`` after a 1e2 congruence: the mean start lowers
    phi from 1e4 to 100 and rescale's loop takes 4 steps from there."""
    f, s = corner_diagonal()
    return _unbalance_congruence(f, 100.0, 0), s


def power_iteration_norm(a, iters=20000, tol=1e-14, seed=123):
    """Operator norm of symmetric a via power iteration on a^2.

    Squaring makes the dominant eigenvalue |lambda|_max^2 regardless of
    sign, so this also covers indefinite matrices.
    """
    gen = np.random.default_rng(seed)
    n = a.shape[0]
    x = gen.standard_normal(n)
    x /= np.linalg.norm(x)
    a2 = a @ a
    last = 0.0
    for _ in range(iters):
        y = a2 @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        x = y / norm
        val = float(x @ a2 @ x)
        if abs(val - last) <= tol * max(val, 1.0):
            last = val
            break
        last = val
    return float(np.sqrt(last))


def series_expm(a, terms=20):
    """Truncated power series for exp(a)."""
    n = a.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out
