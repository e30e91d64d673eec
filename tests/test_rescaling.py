import numpy as np
import pytest

from psdfact import symmat
from psdfact.derivatives import dplus_opnorm_congruence
from psdfact.errors import PreconditionError
from psdfact.factorization import (
    PsdFactorization,
    congruence,
    diagonal_embed,
    max_operator_norm,
    potential,
    verify_factorization,
)
from psdfact.polytopes import SlackMatrix, build_slack, builtin_instance
from psdfact.rescaling import (
    DEFAULT_EPS_GRID,
    RescaleConfig,
    balance_scalar,
    descent_step,
    perturbation_direction,
    reduce_to_common_space,
    rescale,
)

from helpers import random_psd, rng, unbalanced_cube


def adversarial_instance():
    s = SlackMatrix.from_entries(np.array([[1.0]]))
    f = PsdFactorization.from_factors(
        [np.diag([100.0, 0.0])], [np.diag([0.01, 5.0])]
    )
    return f, s


class TestReduce:
    def test_rank_one_row_side(self):
        f, s = adversarial_instance()
        reduced, w = reduce_to_common_space(f)
        assert w.dim == 1
        np.testing.assert_allclose(np.abs(w.basis), [[1.0], [0.0]], atol=1e-12)
        np.testing.assert_allclose(reduced.row_factors[0], [[100.0]], atol=1e-12)
        np.testing.assert_allclose(reduced.col_factors[0], [[0.01]], atol=1e-12)
        assert verify_factorization(reduced, s).max_abs_residual <= 1e-12

    def test_full_rank_is_identity_reduction(self):
        s = build_slack(*builtin_instance("cube", 2))
        f = diagonal_embed(s)
        reduced, w = reduce_to_common_space(f)
        assert w.dim == f.side
        assert verify_factorization(reduced, s).max_abs_residual <= 1e-10

    def test_residual_preserved(self):
        f, s = unbalanced_cube()
        before = verify_factorization(f, s).max_abs_residual
        a = random_psd(rng(8), f.side) + np.eye(f.side)
        reduced, _ = reduce_to_common_space(f)
        for out in (reduced, congruence(f, a, np.linalg.inv(a))):
            after = verify_factorization(out, s).max_abs_residual
            assert abs(after - before) <= 1e-10 * (1.0 + s.max_entry)

    def test_zero_products_give_dim_zero(self):
        f = PsdFactorization.from_factors(
            [np.diag([1.0, 0.0])], [np.diag([0.0, 1.0])]
        )
        reduced, w = reduce_to_common_space(f)
        assert w.dim == 0
        assert reduced.side == 0

    def test_empty_side_rejected(self):
        f = PsdFactorization.from_factors([np.eye(2)], [])
        with pytest.raises(PreconditionError):
            reduce_to_common_space(f)


class TestBalance:
    def test_forced_by_formula(self):
        f = PsdFactorization.from_factors([4.0 * np.eye(2)], [1.0 * np.eye(2)])
        out = balance_scalar(f)
        assert max_operator_norm(out.row_factors) == pytest.approx(2.0)
        assert max_operator_norm(out.col_factors) == pytest.approx(2.0)

    def test_already_balanced_is_identity(self):
        f = PsdFactorization.from_factors([2.0 * np.eye(2)], [2.0 * np.eye(2)])
        out = balance_scalar(f)
        for a, b in zip(out.row_factors, f.row_factors):
            np.testing.assert_allclose(a, b)

    def test_random_postcondition(self):
        gen = rng(5)
        rows = [symmat.as_symmetric(m @ m.T) for m in gen.standard_normal((3, 4, 4))]
        cols = [symmat.as_symmetric(m @ m.T) for m in gen.standard_normal((2, 4, 4))]
        f = PsdFactorization.from_factors(rows, cols)
        out = balance_scalar(f)
        phi = potential(f)
        lu = max_operator_norm(out.row_factors)
        lv = max_operator_norm(out.col_factors)
        assert lu == pytest.approx(lv, rel=1e-10)
        assert lu == pytest.approx(np.sqrt(phi), rel=1e-10)
        assert potential(out) == pytest.approx(phi, rel=1e-10)

    def test_inconsistent_zero_side(self):
        f = PsdFactorization.from_factors([np.zeros((2, 2))], [np.eye(2)])
        with pytest.raises(PreconditionError):
            balance_scalar(f)


class TestPerturbationDirection:
    def test_single_top_eigenvector(self):
        u = np.diag([2.0, 0.5])
        v = np.diag([0.5, 2.0])
        f = PsdFactorization.from_factors([u], [v])
        z = perturbation_direction(f)
        np.testing.assert_allclose(z, np.diag([1.0, 0.0]), atol=1e-9)

    def test_orthogonal_top_eigenvectors(self):
        f = PsdFactorization.from_factors(
            [np.diag([2.0, 0.5]), np.diag([0.5, 2.0])],
            [np.diag([2.0, 0.5])],
        )
        z = perturbation_direction(f)
        np.testing.assert_allclose(z, np.eye(2) / 2.0, atol=1e-7)

    def test_full_eigenspace_ball(self):
        f = PsdFactorization.from_factors([2.0 * np.eye(2)], [2.0 * np.eye(2)])
        z = perturbation_direction(f, rng=np.random.default_rng(0))
        np.testing.assert_allclose(z, np.eye(2) / 2.0, atol=5e-3)

    def test_unbalanced_rejected(self):
        f = PsdFactorization.from_factors([4.0 * np.eye(2)], [np.eye(2)])
        with pytest.raises(PreconditionError, match="balanced"):
            perturbation_direction(f)


class TestDescentStep:
    def test_zero_direction_stalls(self):
        f = PsdFactorization.from_factors([np.eye(2)], [np.eye(2)])
        out, eps = descent_step(f, np.zeros((2, 2)))
        assert eps is None and out is f

    def test_one_dimensional_stall_at_target(self):
        # reduced-and-balanced scalar instance: congruence cannot move phi
        f = PsdFactorization.from_factors([np.array([[1.0]])], [np.array([[1.0]])])
        out, eps = descent_step(f, np.array([[1.0]]))
        assert eps is None
        assert potential(out) == pytest.approx(1.0)

    def test_adversarial_strictly_decreases(self):
        f, _ = adversarial_instance()
        f = balance_scalar(f)
        z = perturbation_direction(f)
        phi0 = potential(f)
        out, eps = descent_step(f, z)
        assert eps is not None
        assert potential(out) < phi0 * (1.0 - 1e-12)

    def test_residual_preserved_through_step(self):
        f, s = unbalanced_cube()
        f = balance_scalar(f)
        z = perturbation_direction(f, rng=np.random.default_rng(1))
        out, eps = descent_step(f, z)
        assert eps is not None
        assert verify_factorization(out, s).max_abs_residual <= 1e-8 * (1.0 + s.max_entry)

    @staticmethod
    def reference_step(f, z, eps_grid=DEFAULT_EPS_GRID):
        """One congruence and one potential per grid value; strict < keeps the first."""
        z = symmat.as_symmetric(z)
        z_norm = symmat.operator_norm(z)
        dec = symmat.spectral_decompose(z)
        lam, q = dec.eigenvalues, dec.eigenvectors
        best_phi, best_eps, best = np.inf, None, None
        for rel in sorted(eps_grid):
            eps = rel / z_norm
            shrink = symmat.as_symmetric((q * np.exp(-eps * lam)) @ q.T)
            grow = symmat.as_symmetric((q * np.exp(eps * lam)) @ q.T)
            cand = congruence(f, shrink, grow)
            phi = potential(cand)
            if phi < best_phi:
                best_phi, best_eps, best = phi, eps, cand
        return best_phi, best_eps, best

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_per_candidate_reference(self, seed):
        f, _ = unbalanced_cube(t=100.0, seed=seed)
        f = balance_scalar(f)
        z = perturbation_direction(f, rng=np.random.default_rng(seed))
        best_phi, best_eps, best = self.reference_step(f, z)
        assert best_phi < potential(f) * (1.0 - 1e-12)
        out, eps = descent_step(f, z)
        assert eps == best_eps
        expected = balance_scalar(best)
        assert out.row_factors.tobytes() == expected.row_factors.tobytes()
        assert out.col_factors.tobytes() == expected.col_factors.tobytes()

    def test_tie_goes_to_smallest_eps(self):
        # Z = diag(1, 0): the tight factors diag(0, 2) and diag(0, 1) lie in
        # its kernel, so phi is exactly 2 * 1 once diag(3, 0) has shrunk
        # below 2 (eps >= log(1.5) / 2) -- for eps = 1/4 and eps = 1/2.
        f = PsdFactorization.from_factors(
            [np.diag([3.0, 0.0]), np.diag([0.0, 2.0])],
            [np.diag([0.0, 1.0]), np.diag([0.1, 0.0])],
        )
        z = np.diag([1.0, 0.0])
        best_phi, best_eps, _ = self.reference_step(f, z)
        assert best_phi == 2.0 and best_eps == 0.25
        out, eps = descent_step(f, z)
        assert eps == 0.25
        assert potential(out) == pytest.approx(2.0, rel=1e-12)


class TestRescale:
    def test_trivial_scalar_instance(self):
        s = SlackMatrix.from_entries(np.array([[1.0]]))
        f = PsdFactorization.from_factors([np.eye(1)], [np.eye(1)])
        res = rescale(f, s)
        assert res.certificate
        assert res.iterations == 0
        np.testing.assert_allclose(res.transform, np.eye(1), atol=1e-12)

    def test_adversarial_reduces_to_scalar(self):
        f, s = adversarial_instance()
        res = rescale(f, s)
        assert res.reduced_dim == 1
        assert res.certificate
        assert res.lmax_u == pytest.approx(1.0, rel=1e-9)
        assert res.lmax_v == pytest.approx(1.0, rel=1e-9)

    def test_unit_square_certificate(self):
        s = build_slack(*builtin_instance("cube", 2))
        f = diagonal_embed(s)
        res = rescale(f, s)
        d = res.reduced_dim
        target = np.sqrt(d * s.max_entry) * 1.05
        assert res.certificate
        assert res.lmax_u <= target and res.lmax_v <= target

    def test_unbalanced_cube_descends_to_certificate(self):
        f, s = unbalanced_cube(t=100.0)
        assert potential(f) > 4.0 * s.max_entry * 1.05  # starts above target
        res = rescale(f, s)
        assert res.certificate
        assert res.iterations >= 1
        # monotone trajectory
        traj = np.asarray(res.phi_trajectory)
        assert np.all(np.diff(traj) <= 1e-9 * traj[:-1])
        # preservation, re-verified from scratch
        rep = verify_factorization(res.factorization, s)
        assert rep.max_abs_residual <= 1e-8 * (1.0 + s.max_entry)

    def test_trajectory_records_balanced_norms(self):
        f, s = unbalanced_cube(t=100.0)
        res = rescale(f, s)
        assert res.iterations >= 1
        assert len(res.phi_trajectory) == len(res.lmax_trajectory)
        for phi, (lmax_u, lmax_v) in zip(res.phi_trajectory, res.lmax_trajectory):
            assert phi == lmax_u * lmax_v
            assert lmax_u == pytest.approx(lmax_v, rel=1e-9)

    def test_certificate_soundness_recomputed(self):
        f, s = unbalanced_cube(t=30.0, seed=11)
        res = rescale(f, s)
        if res.certificate:
            target = np.sqrt(res.reduced_dim * s.max_entry) * 1.05
            assert max_operator_norm(res.factorization.row_factors) <= target
            assert max_operator_norm(res.factorization.col_factors) <= target

    def test_transform_inverse_pair(self):
        f, s = unbalanced_cube(t=50.0, seed=7)
        res = rescale(f, s)
        prod = res.transform @ res.transform_pinv
        d = res.reduced_dim
        # A A+ is the projector onto the reduced subspace (identity here)
        assert np.linalg.matrix_rank(prod, tol=1e-6) == d

    def test_zero_slack_short_circuit(self):
        s = build_slack(*builtin_instance("point", 2))
        f = diagonal_embed(s)
        res = rescale(f, s)
        assert res.reduced_dim == 0
        assert res.iterations == 0
        np.testing.assert_allclose(res.transform, np.eye(f.side))
        # the identity transform leaves the nonzero side at norm 1, which
        # cannot meet the degenerate target sqrt(0 * Delta) = 0
        assert not res.certificate
        assert verify_factorization(res.factorization, s).passed

    def test_rejects_wrong_factorization(self):
        s = SlackMatrix.from_entries(np.array([[1.0, 2.0], [2.0, 1.0]]))
        f = diagonal_embed(SlackMatrix.from_entries(np.array([[1.0, 0.0], [0.0, 1.0]])))
        with pytest.raises(PreconditionError):
            rescale(f, s)

    def test_descent_direction_slope_bound(self):
        # at a balanced non-optimal point the chosen Z must push every
        # tight row factor down at rate at least 2 mu / d (up to 1e-6)
        f = PsdFactorization.from_factors(
            [np.diag([2.0, 0.5]), np.diag([0.5, 2.0])],
            [np.diag([2.0, 0.5])],
        )
        mu = 2.0
        d = 2
        z = perturbation_direction(f)
        for u in f.row_factors:
            if symmat.operator_norm(u) < mu * (1 - 1e-6):
                continue
            analytic = dplus_opnorm_congruence(u, -z)
            assert analytic <= -2.0 * mu / d + 1e-6
            eps = 1e-7
            e = symmat.matrix_exponential(-eps * z)
            fd = (symmat.operator_norm(e @ u @ e) - symmat.operator_norm(u)) / eps
            assert fd <= -2.0 * mu / d + 1e-6

    def test_deterministic_under_seed(self):
        f, s = unbalanced_cube(t=100.0)
        r1 = rescale(f, s, RescaleConfig(seed=5))
        r2 = rescale(f, s, RescaleConfig(seed=5))
        assert r1.iterations == r2.iterations
        assert r1.certificate == r2.certificate
        np.testing.assert_array_equal(
            np.asarray(r1.phi_trajectory), np.asarray(r2.phi_trajectory)
        )
