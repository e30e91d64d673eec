import warnings

import numpy as np
import pytest

from psdfact import symmat
from psdfact.derivatives import dplus_opnorm_additive, dplus_opnorm_congruence
from psdfact.factorization import PsdFactorization
from psdfact.errors import (
    ConvergenceError,
    DimensionError,
    NotPsdError,
    NumericError,
    PreconditionError,
)

from helpers import (
    power_iteration_norm,
    random_orthogonal,
    random_psd,
    random_symmetric,
    rng,
    series_expm,
)


class TestSpectralDecompose:
    def test_diagonal(self):
        lam, vec = symmat.spectral_decompose(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(lam, [3.0, 1.0])
        # eigenvectors are e1, e2 up to sign
        np.testing.assert_allclose(np.abs(vec), np.eye(2), atol=1e-14)

    def test_zero(self):
        lam, _ = symmat.spectral_decompose(np.zeros((2, 2)))
        np.testing.assert_allclose(lam, [0.0, 0.0])

    def test_random_reconstruction(self):
        m = random_symmetric(rng(1), 5)
        lams, vec = symmat.spectral_decompose(m)
        # oracle: explicit rank-one re-multiplication
        rebuilt = sum(lam * np.outer(v, v) for lam, v in zip(lams, vec.T))
        assert np.linalg.norm(rebuilt - m) <= 1e-10

    def test_sorted_descending(self):
        lam, _ = symmat.spectral_decompose(random_symmetric(rng(2), 7))
        assert np.all(np.diff(lam) <= 0)

    def test_orthonormal_columns(self):
        _, vec = symmat.spectral_decompose(random_symmetric(rng(3), 9))
        gram = vec.T @ vec
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-10

    def test_reconstruction_residual_up_to_side_50(self):
        for seed, n in [(4, 10), (5, 25), (6, 50)]:
            m = random_symmetric(rng(seed), n, scale=3.0)
            res = np.linalg.norm(symmat.from_spectrum(*symmat.spectral_decompose(m)) - m)
            assert res <= 1e-10 * (1.0 + np.linalg.norm(m))

    def test_stack_matches_each_slice(self):
        stack = np.stack([random_symmetric(rng(20 + k), 5) for k in range(4)])
        stack[2] = 0.0
        lam, vec = symmat.spectral_decompose(stack)
        assert lam.shape == (4, 5) and vec.shape == (4, 5, 5)
        rebuilt = symmat.from_spectrum(lam, vec)
        for k, m in enumerate(stack):
            one_lam, one_vec = symmat.spectral_decompose(m)
            assert lam[k].tobytes() == one_lam.tobytes()
            assert vec[k].tobytes() == one_vec.tobytes()
            assert rebuilt[k].tobytes() == symmat.from_spectrum(one_lam, one_vec).tobytes()

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
        basis = symmat.top_cluster(*symmat.spectral_decompose(m))
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


class TestInnerProducts:
    """``inner_products`` agrees with einsum's contraction of the two stacks."""

    @staticmethod
    def einsum(a, b):
        return np.einsum("irs,jrs->ij", a, b)

    @pytest.mark.parametrize("k,l,side", [(5, 7, 4), (1, 1, 3), (1, 6, 2), (9, 1, 5)])
    def test_matches_einsum(self, k, l, side):
        gen = rng(k * 100 + l * 10 + side)
        a = gen.standard_normal((k, side, side))
        b = gen.standard_normal((l, side, side))
        got, want = symmat.inner_products(a, b), self.einsum(a, b)
        assert got.shape == (k, l)
        scale = np.abs(a).reshape(k, -1).sum(axis=1)[:, None] * np.abs(b).reshape(l, -1).max(axis=1)
        assert (np.abs(got - want) <= 1e-12 * scale).all()

    @pytest.mark.parametrize("a_shape,b_shape", [((0, 3, 3), (4, 3, 3)), ((4, 3, 3), (0, 3, 3)),
                                                 ((0, 3, 3), (0, 3, 3)), ((5, 0, 0), (2, 0, 0))])
    def test_empty_stack_and_side_zero(self, a_shape, b_shape):
        a, b = np.ones(a_shape), np.ones(b_shape)
        got = symmat.inner_products(a, b)
        assert got.shape == (a_shape[0], b_shape[0])
        np.testing.assert_array_equal(got, self.einsum(a, b))

    def test_overflow_is_silent(self):
        a = np.full((2, 2, 2), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = symmat.inner_products(a, a)
        assert np.isinf(got).all()


class TestEigClip:
    def test_clips_only_the_matrices_outside(self):
        gen = rng(5)
        q = np.array([random_orthogonal(gen, 3) for _ in range(4)])
        lam = np.array([[0.5, 1.0, 1.5],    # inside [0, 2]
                        [-1.0, 0.5, 1.0],   # below 0
                        [0.5, 1.0, 3.0],    # above 2
                        [-2.0, 1.0, 5.0]])  # both
        stack = (q * lam[:, None, :]) @ q.swapaxes(1, 2)
        got = symmat.eig_clip(stack, 2.0)
        want = (q * np.clip(lam, 0.0, 2.0)[:, None, :]) @ q.swapaxes(1, 2)
        np.testing.assert_allclose(got, want, atol=1e-13)
        np.testing.assert_allclose(got[0], symmat.as_symmetric(stack[0]), atol=1e-14)
        spectra = np.linalg.eigvalsh(symmat.as_symmetric(got))
        assert (spectra >= -1e-13).all() and (spectra <= 2.0 + 1e-13).all()

    def test_no_cap_clips_below_only(self):
        stack = np.array([np.diag([-1.0, 4.0]), np.diag([3.0, 2.0])])
        np.testing.assert_allclose(symmat.eig_clip(stack),
                                   [np.diag([0.0, 4.0]), np.diag([3.0, 2.0])], atol=1e-15)


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


class TestPsdFloor:
    """Every PSD test shares one floor, -PSD_TOL * (1 + max(lambda_max, 0))."""

    CALLERS = {
        "from_factors": lambda m: PsdFactorization.from_factors([m], [m]),
        "sqrt_psd": symmat.sqrt_psd,
        "image_basis": symmat.image_basis,
        "dplus_opnorm_additive": lambda m: dplus_opnorm_additive(m, np.eye(len(m))),
        "dplus_opnorm_congruence": lambda m: dplus_opnorm_congruence(m, np.eye(len(m))),
    }

    @pytest.mark.parametrize("lmax", [1e-3, 2.0, 1e3])
    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_accepts_inside_and_refuses_outside(self, caller, lmax):
        floor = -symmat.PSD_TOL * (1.0 + lmax)
        self.CALLERS[caller](np.diag([lmax, 0.9 * floor]))
        with pytest.raises(PreconditionError, match="not PSD: min eigenvalue"):
            self.CALLERS[caller](np.diag([lmax, 1.1 * floor]))
