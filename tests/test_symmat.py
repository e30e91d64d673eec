import numpy as np
import pytest

from psdfact import symmat
from psdfact.errors import (
    ConvergenceError,
    DimensionError,
    NotPsdError,
    NumericError,
    PreconditionError,
)

from helpers import (
    power_iteration_norm,
    random_psd,
    random_symmetric,
    rng,
    series_expm,
)


class TestSpectralDecompose:
    def test_diagonal(self):
        dec = symmat.spectral_decompose(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0])
        # eigenvectors are e1, e2 up to sign
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-14)

    def test_zero(self):
        dec = symmat.spectral_decompose(np.zeros((2, 2)))
        np.testing.assert_allclose(dec.eigenvalues, [0.0, 0.0])

    def test_random_reconstruction(self):
        m = random_symmetric(rng(1), 5)
        dec = symmat.spectral_decompose(m)
        # oracle: explicit rank-one re-multiplication
        rebuilt = sum(
            lam * np.outer(v, v)
            for lam, v in zip(dec.eigenvalues, dec.eigenvectors.T)
        )
        assert np.linalg.norm(rebuilt - m) <= 1e-10

    def test_sorted_descending(self):
        dec = symmat.spectral_decompose(random_symmetric(rng(2), 7))
        assert np.all(np.diff(dec.eigenvalues) <= 0)

    def test_orthonormal_columns(self):
        dec = symmat.spectral_decompose(random_symmetric(rng(3), 9))
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-10

    def test_reconstruction_residual_up_to_side_50(self):
        for seed, n in [(4, 10), (5, 25), (6, 50)]:
            m = random_symmetric(rng(seed), n, scale=3.0)
            dec = symmat.spectral_decompose(m)
            res = np.linalg.norm(dec.reconstruct() - m)
            assert res <= 1e-10 * (1.0 + np.linalg.norm(m))

    def test_stack_matches_each_slice(self):
        stack = np.stack([random_symmetric(rng(20 + k), 5) for k in range(4)])
        stack[2] = 0.0
        dec = symmat.spectral_decompose(stack)
        assert dec.eigenvalues.shape == (4, 5) and dec.eigenvectors.shape == (4, 5, 5)
        rebuilt = dec.reconstruct()
        for k, m in enumerate(stack):
            one = symmat.spectral_decompose(m)
            assert dec.eigenvalues[k].tobytes() == one.eigenvalues.tobytes()
            assert dec.eigenvectors[k].tobytes() == one.eigenvectors.tobytes()
            assert rebuilt[k].tobytes() == one.reconstruct().tobytes()

    def test_stack_raises_when_one_slice_fails(self, monkeypatch):
        eigh = np.linalg.eigh

        def shift_slice_1(m):
            lam, vec = eigh(m)
            lam = lam.copy()
            lam[1] += 1.0
            return lam, vec

        monkeypatch.setattr(symmat.np.linalg, "eigh", shift_slice_1)
        with pytest.raises(ConvergenceError):
            symmat.spectral_decompose(np.stack([np.eye(3), 2.0 * np.eye(3), 3.0 * np.eye(3)]))

    def test_top_cluster_merges_degenerate_eigenvalues(self):
        gen = rng(7)
        q, _ = np.linalg.qr(gen.standard_normal((3, 3)))
        m = symmat.as_symmetric((q * [2.0, 2.0, 1.0]) @ q.T)
        basis = symmat.spectral_decompose(m).top_cluster()
        assert basis.shape == (3, 2)
        # the cluster spans the same plane as the first two columns of q
        proj = basis @ basis.T
        expect = q[:, :2] @ q[:, :2].T
        assert np.max(np.abs(proj - expect)) <= 1e-8

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            symmat.spectral_decompose(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(PreconditionError):
            symmat.as_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestOperatorNorm:
    def test_diagonal(self):
        assert symmat.operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_absolute_value(self):
        assert symmat.operator_norm(np.diag([-5.0, 2.0])) == pytest.approx(5.0)

    def test_against_power_iteration(self):
        m = random_psd(rng(21), 6)
        assert abs(symmat.operator_norm(m) - power_iteration_norm(m)) <= 1e-9

    def test_indefinite_against_power_iteration(self):
        m = random_symmetric(rng(22), 6)
        assert abs(symmat.operator_norm(m) - power_iteration_norm(m)) <= 1e-9

    def test_psd_quadratic_form_nonnegative(self):
        gen = rng(23)
        m = random_psd(gen, 8)
        x = gen.standard_normal((1000, 8))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        vals = np.einsum("ki,ij,kj->k", x, m, x)
        assert np.all(vals >= -1e-12)
        assert np.max(vals) <= symmat.operator_norm(m) + 1e-12


class TestMatrixExponential:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(symmat.matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = symmat.matrix_exponential(np.diag([1.0, -2.0]))
        np.testing.assert_allclose(out, np.diag([np.e, np.exp(-2.0)]), rtol=1e-14)

    def test_against_series_oracle(self):
        m = random_symmetric(rng(31), 5)
        m /= max(symmat.operator_norm(m), 1.0)  # ||m|| <= 1
        assert np.max(np.abs(symmat.matrix_exponential(m) - series_expm(m))) <= 1e-10

    def test_inverse_pair(self):
        for seed in range(3):
            m = random_symmetric(rng(40 + seed), 6)
            m *= 2.0 / max(symmat.operator_norm(m), 1e-12)  # ||m|| = 2
            prod = symmat.matrix_exponential(m) @ symmat.matrix_exponential(-m)
            assert np.max(np.abs(prod - np.eye(6))) <= 1e-9

    def test_overflow_cap(self):
        with pytest.raises(NumericError):
            symmat.matrix_exponential(np.diag([800.0, 0.0]))


class TestSubspaces:
    def test_image_of_rank_one(self):
        b = symmat.image_basis(np.diag([1.0, 0.0]))
        assert b.shape == (2, 1)
        np.testing.assert_allclose(np.abs(b), [[1.0], [0.0]], atol=1e-14)

    def test_image_of_identity(self):
        assert symmat.image_basis(np.eye(4)).shape == (4, 4)

    def test_not_psd_rejected(self):
        with pytest.raises(NotPsdError):
            symmat.image_basis(np.diag([1.0, -1.0]))
