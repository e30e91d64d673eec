import numpy as np
import pytest

from psdfact import rescaling, symmat
from psdfact.errors import PreconditionError
from psdfact.rescaling import (
    MVEE_VOL_TOL,
    MVEE_WEIGHT_FLOOR,
    _fold_symmetric,
    _mvee_weights,
    john_decompose,
)

from helpers import random_orthogonal, rng


def check_invariants(jd, tol=1e-6):
    t = jd.ellipsoid_map
    assert jd.weights.min() >= 0.0
    assert abs(jd.weights.sum() - 1.0) <= 1e-9
    gap = np.linalg.norm(jd.moment_matrix() - (t @ t.T) / jd.dim)
    assert gap <= tol
    radii = np.linalg.norm(jd.points @ np.linalg.pinv(t).T, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=tol)


def mvee_reference(points):
    """(points, weights, T) from the MVEE solver on any set: fold, weight, square root."""
    pts = _fold_symmetric(points)
    _, sig, vt = np.linalg.svd(pts, full_matrices=False)
    basis = vt[sig > symmat.RANK_TOL * sig[0]].T
    k = basis.shape[1]
    y = pts @ basis
    u = _mvee_weights(y, min(1e-8, 2.0 * MVEE_VOL_TOL / k))
    kept = u > MVEE_WEIGHT_FLOOR
    w = u[kept] / u[kept].sum()
    yk = y[kept]
    return pts[kept], w, basis @ symmat.sqrt_psd(k * ((yk * w[:, None]).T @ yk))


def decompose(points):
    """``john_decompose``, checked byte for byte against ``mvee_reference``."""
    jd = john_decompose(points)
    ref_pts, ref_w, ref_t = mvee_reference(points)
    assert jd.points.tobytes() == ref_pts.tobytes()
    assert jd.weights.tobytes() == ref_w.tobytes()
    assert jd.ellipsoid_map.tobytes() == ref_t.tobytes()
    return jd


class TestJohnDecompose:
    def test_segment(self):
        jd = decompose([[1.0, 0.0], [-1.0, 0.0]])
        assert jd.dim == 1
        assert jd.points.shape == (1, 2)
        np.testing.assert_allclose(jd.weights, [1.0])
        np.testing.assert_allclose(jd.moment_matrix(), [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
        check_invariants(jd)

    def test_cross(self):
        jd = decompose([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert jd.dim == 2
        np.testing.assert_allclose(sorted(jd.weights), [0.5, 0.5], atol=1e-7)
        np.testing.assert_allclose(jd.moment_matrix(), np.eye(2) / 2.0, atol=1e-7)
        np.testing.assert_allclose(jd.ellipsoid_map @ jd.ellipsoid_map.T, np.eye(2), atol=1e-6)
        check_invariants(jd)

    def test_circle_sample(self):
        angles = np.arange(40) * (2.0 * np.pi / 40.0)
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        jd = decompose(pts)
        np.testing.assert_allclose(jd.moment_matrix(), np.eye(2) / 2.0, atol=1e-3)
        np.testing.assert_allclose(jd.ellipsoid_map @ jd.ellipsoid_map.T, np.eye(2), atol=1e-3)
        check_invariants(jd)

    def test_rank_deficient_set_in_3d(self):
        # four points spanning a 2-d plane inside R^3
        q = random_orthogonal(rng(1), 3)[:, :2]
        base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
        jd = decompose(base @ q.T)
        assert jd.dim == 2
        check_invariants(jd)

    def test_random_cloud_invariants(self):
        gen = rng(2)
        pts = gen.standard_normal((30, 4))
        jd = decompose(np.concatenate([pts, -pts], axis=0))
        assert jd.dim == 4
        check_invariants(jd)
        # contact set of a full-dimensional MVEE needs at least dim points
        assert jd.points.shape[0] >= 4

    def test_input_read_as_symmetric_generators(self):
        # passing only one representative per antipodal pair changes nothing
        a = decompose([[1.0, 0.0], [0.0, 1.0]])
        b = decompose([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        np.testing.assert_allclose(a.moment_matrix(), b.moment_matrix(), atol=1e-9)

    def test_duplicates_folded(self):
        jd = decompose([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        assert jd.points.shape == (1, 2)

    def test_fold_matches_row_by_row_flip(self):
        # zero leading coordinates, antipodal pairs, duplicates and zero rows
        gen = rng(4)
        pts = gen.integers(-2, 3, size=(200, 4)).astype(float)
        pts[::7] = 0.0
        pts = np.vstack([pts, -pts[:50], gen.standard_normal((20, 4))])
        expected = pts.copy()
        for row in expected:
            nz = np.nonzero(row)[0]
            if nz.size and row[nz[0]] < 0:
                row *= -1.0
        expected = np.unique(expected, axis=0)
        expected = expected[np.linalg.norm(expected, axis=1) > 0]
        out = _fold_symmetric(pts)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_zero_span_rejected(self):
        with pytest.raises(PreconditionError):
            john_decompose(np.zeros((3, 2)))

    def test_ellipse_from_anisotropic_cross(self):
        jd = decompose([[2.0, 0.0], [0.0, 0.5]])
        np.testing.assert_allclose(
            jd.ellipsoid_map @ jd.ellipsoid_map.T, np.diag([4.0, 0.25]), atol=1e-6
        )
        check_invariants(jd)


@pytest.fixture()
def mvee_calls(monkeypatch):
    calls = []

    def spy(y, eps_g):
        calls.append(y.shape)
        return _mvee_weights(y, eps_g)

    monkeypatch.setattr(rescaling, "_mvee_weights", spy)
    return calls


def independent_set(gen, k, ambient):
    """k independent points with mixed signs; small integers make rows share
    leading coordinates, so the row order rests on later ones too."""
    while True:
        pts = gen.integers(-2, 3, size=(k, ambient)).astype(float)
        if np.linalg.matrix_rank(pts) == k:
            return pts * gen.choice([1.0, 0.5, 3.0])


class TestClosedForm:
    """The MVEE solver reaches the closed-form answers.

    With Y the k folded points of an independent set in an orthonormal
    basis of their span, log det(Y^T diag(u) Y) = 2 log|det Y| + sum log u_i
    is largest on the simplex at u = 1/k, so the solver's uniform start
    already passes its optimality test.
    """

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ambient", [1, 2, 3, 5, 8])
    def test_independent_set_has_uniform_weights(self, seed, ambient, mvee_calls):
        gen = rng(100 + seed)
        for k in range(1, ambient + 1):
            pts = independent_set(gen, k, ambient)
            jd = decompose(pts)
            assert jd.dim == k
            np.testing.assert_allclose(jd.weights, 1.0 / k, rtol=1e-14, atol=0)
            check_invariants(jd)
        assert len(mvee_calls) == ambient

    def test_orthonormal_set_gives_projection_over_k(self):
        q = random_orthogonal(rng(7), 6)
        jd = decompose(-q[:, :4].T)
        np.testing.assert_allclose(jd.moment_matrix(), q[:, :4] @ q[:, :4].T / 4, atol=1e-15)

    @pytest.mark.parametrize("points", [
        [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],  # duplicate
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]],  # antipodal pair
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],  # zero row
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],  # more points than dimensions
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, -1.0, 0.0]],  # dependent, fewer than ambient
        [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]],  # zero row beside one point
    ], ids=["duplicate", "antipode", "zero-row", "overcomplete", "dependent", "zero-and-one"])
    def test_other_sets_take_the_mvee_path(self, points, mvee_calls):
        jd = decompose(points)
        assert len(mvee_calls) == 1
        check_invariants(jd)
