import numpy as np
import pytest

from psdfact.errors import PreconditionError
from psdfact.rescaling import _fold_symmetric, john_decompose

from helpers import random_orthogonal, rng


def check_invariants(jd, tol=1e-6):
    t = jd.ellipsoid_map
    assert jd.weights.min() >= 0.0
    assert abs(jd.weights.sum() - 1.0) <= 1e-9
    gap = np.linalg.norm(jd.moment_matrix() - (t @ t.T) / jd.dim)
    assert gap <= tol
    radii = np.linalg.norm(jd.points @ np.linalg.pinv(t).T, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=tol)


class TestJohnDecompose:
    def test_segment(self):
        jd = john_decompose([[1.0, 0.0], [-1.0, 0.0]])
        assert jd.dim == 1
        assert jd.points.shape == (1, 2)
        np.testing.assert_allclose(jd.weights, [1.0])
        np.testing.assert_allclose(jd.moment_matrix(), [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
        check_invariants(jd)

    def test_cross(self):
        jd = john_decompose([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert jd.dim == 2
        np.testing.assert_allclose(sorted(jd.weights), [0.5, 0.5], atol=1e-7)
        np.testing.assert_allclose(jd.moment_matrix(), np.eye(2) / 2.0, atol=1e-7)
        np.testing.assert_allclose(jd.ellipsoid_map @ jd.ellipsoid_map.T, np.eye(2), atol=1e-6)
        check_invariants(jd)

    def test_circle_sample(self):
        angles = np.arange(40) * (2.0 * np.pi / 40.0)
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        jd = john_decompose(pts)
        np.testing.assert_allclose(jd.moment_matrix(), np.eye(2) / 2.0, atol=1e-3)
        np.testing.assert_allclose(jd.ellipsoid_map @ jd.ellipsoid_map.T, np.eye(2), atol=1e-3)
        check_invariants(jd)

    def test_rank_deficient_set_in_3d(self):
        # four points spanning a 2-d plane inside R^3
        q = random_orthogonal(rng(1), 3)[:, :2]
        base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
        jd = john_decompose(base @ q.T)
        assert jd.dim == 2
        check_invariants(jd)

    def test_random_cloud_invariants(self):
        gen = rng(2)
        pts = gen.standard_normal((30, 4))
        jd = john_decompose(np.concatenate([pts, -pts], axis=0))
        assert jd.dim == 4
        check_invariants(jd)
        # contact set of a full-dimensional MVEE needs at least dim points
        assert jd.points.shape[0] >= 4

    def test_input_read_as_symmetric_generators(self):
        # passing only one representative per antipodal pair changes nothing
        a = john_decompose([[1.0, 0.0], [0.0, 1.0]])
        b = john_decompose([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        np.testing.assert_allclose(a.moment_matrix(), b.moment_matrix(), atol=1e-9)

    def test_duplicates_folded(self):
        jd = john_decompose([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
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
        jd = john_decompose([[2.0, 0.0], [0.0, 0.5]])
        np.testing.assert_allclose(
            jd.ellipsoid_map @ jd.ellipsoid_map.T, np.diag([4.0, 0.25]), atol=1e-6
        )
        check_invariants(jd)
