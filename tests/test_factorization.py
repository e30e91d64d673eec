import numpy as np
import pytest

from psdfact.errors import DimensionError, PreconditionError, ResourceError
from psdfact.factorization import (
    FIT_MAX_ENTRIES,
    FIT_MAX_STEPS,
    VERIFY_TOL,
    PsdFactorization,
    congruence,
    diagonal_embed,
    fit_factorization,
    max_operator_norm,
    operator_norms,
    potential,
    side_extremes,
    top_norms,
    verify_factorization,
)
from psdfact.polytopes import HPolytope, SlackMatrix, VPolytope, build_slack, builtin_instance
from psdfact.rescaling import (
    balance_scalar,
    descent_step,
    perturbation_direction,
    reduce_to_common_space,
    rescale,
)
from psdfact.serialize import factorization_from_json, factorization_to_json

from helpers import random_orthogonal, random_psd, random_symmetric, rng


def unit_square_slack():
    return build_slack(*builtin_instance("cube", 2))


class TestVerify:
    def test_one_by_one_exact(self):
        s = SlackMatrix(np.array([[1.0]]))
        f = PsdFactorization.from_factors([np.array([[1.0]])], [np.array([[1.0]])])
        rep = verify_factorization(f, s)
        assert rep.passed and rep.max_abs_residual == 0.0

    def test_perturbed_entry_fails(self):
        s = SlackMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]))
        f = diagonal_embed(s)
        bad = SlackMatrix(s.entries + np.array([[0, 1], [0, 0]]))
        rep = verify_factorization(f, bad, tol=1e-8)
        assert not rep.passed
        assert rep.max_abs_residual >= 1.0 - 1e-8
        assert rep.residual_location == (0, 1)

    def test_diagonal_embed_unit_square_exact(self):
        s = unit_square_slack()
        rep = verify_factorization(diagonal_embed(s), s)
        assert rep.passed
        assert rep.max_abs_residual <= 1e-12

    def test_report_potential_is_product(self):
        s = unit_square_slack()
        rep = verify_factorization(diagonal_embed(s), s)
        assert rep.potential == pytest.approx(rep.lmax_u * rep.lmax_v)

    def test_index_mismatch(self):
        s = SlackMatrix(np.ones((2, 2)))
        f = PsdFactorization.from_factors([np.eye(1)], [np.eye(1)])
        with pytest.raises(DimensionError):
            verify_factorization(f, s)


class TestDiagonalEmbed:
    def test_scalar(self):
        s = SlackMatrix(np.array([[2.0]]))
        f = diagonal_embed(s)
        assert f.side == 1
        np.testing.assert_allclose(f.row_factors[0], [[1.0]])
        np.testing.assert_allclose(f.col_factors[0], [[2.0]])

    def test_identity_2x2(self):
        s = SlackMatrix(np.eye(2))
        f = diagonal_embed(s)
        assert f.side == 2
        for i in range(2):
            expect = np.zeros((2, 2))
            expect[i, i] = 1.0
            np.testing.assert_allclose(f.row_factors[i], expect)
            np.testing.assert_allclose(f.col_factors[i], expect)
        assert verify_factorization(f, s).max_abs_residual == 0.0

    def test_side_is_shorter_index_set(self):
        s = SlackMatrix(np.ones((5, 3)))
        assert diagonal_embed(s).side == 3

    def test_unit_square_residual_zero(self):
        s = unit_square_slack()
        f = diagonal_embed(s)
        assert f.side == 4
        assert verify_factorization(f, s).max_abs_residual == 0.0


class TestNormsAndPotential:
    def test_max_operator_norm(self):
        mats = [np.diag([2.0, 0.0]), np.diag([0.0, 3.0])]
        assert max_operator_norm(mats) == pytest.approx(3.0)

    def test_constant_factors(self):
        f = PsdFactorization.from_factors(
            [2.0 * np.eye(2)] * 3, [3.0 * np.eye(2)] * 2
        )
        assert potential(f) == pytest.approx(6.0)

    def test_matches_per_matrix_oracle(self):
        gen = rng(3)
        rows = [random_psd(gen, 3) for _ in range(4)]
        cols = [random_psd(gen, 3) for _ in range(5)]
        f = PsdFactorization.from_factors(rows, cols)
        oracle = max(np.max(np.abs(np.linalg.eigvalsh(m))) for m in rows)
        assert max_operator_norm(f.row_factors) == pytest.approx(oracle)

    def test_empty_list_rejected(self):
        with pytest.raises(PreconditionError):
            max_operator_norm([])

    def test_spectrum_ends_match_the_largest_absolute_eigenvalue(self):
        gen = rng(8)
        for side in range(1, 7):
            stack = np.stack([random_symmetric(gen, side, scale=10.0) for _ in range(20)]
                             + [np.zeros((side, side)), -np.eye(side)])
            reference = np.abs(np.linalg.eigvalsh(stack)).max(axis=-1, initial=0.0)
            assert operator_norms(stack).tobytes() == reference.tobytes()

    def test_zero_factor_has_positive_zero_norm(self):
        norms = operator_norms(np.zeros((2, 3, 3)))
        assert norms.tolist() == [0.0, 0.0] and not np.signbit(norms).any()

    def test_side_zero_has_norm_zero(self):
        assert operator_norms(np.zeros((3, 0, 0))).tolist() == [0.0] * 3

    def test_top_norms_match_each_side_alone(self):
        gen = rng(9)
        f = PsdFactorization.from_factors([random_psd(gen, 3) for _ in range(4)],
                                          [random_psd(gen, 3) for _ in range(5)])
        assert top_norms(side_extremes(f), f.n_rows) == (
            operator_norms(f.row_factors).max(), operator_norms(f.col_factors).max())

    def test_potential_invariant_under_scalar_swap(self):
        gen = rng(4)
        f = PsdFactorization.from_factors(
            [random_psd(gen, 3) for _ in range(2)],
            [random_psd(gen, 3) for _ in range(2)],
        )
        base = potential(f)
        for s in (0.1, 2.0, 37.5):
            scaled = PsdFactorization.from_factors(
                [s * u for u in f.row_factors],
                [v / s for v in f.col_factors],
            )
            assert potential(scaled) == pytest.approx(base, rel=1e-12)

    def test_psd_validation(self):
        with pytest.raises(PreconditionError, match="not PSD"):
            PsdFactorization.from_factors([np.diag([1.0, -0.5])], [np.eye(2)])

    def test_side_mismatch(self):
        with pytest.raises(DimensionError):
            PsdFactorization.from_factors([np.eye(2)], [np.eye(3)])


class TestStackedRepresentation:
    def test_non_finite_factor_rejected(self):
        bad = np.eye(2)
        bad[0, 1] = np.nan
        with pytest.raises(PreconditionError, match="non-finite"):
            PsdFactorization(row_factors=[np.eye(2)], col_factors=[bad])

    def test_empty_side_takes_the_other_sides_shape(self):
        f = PsdFactorization(row_factors=[], col_factors=[np.eye(3)] * 2)
        assert f.row_factors.shape == (0, 3, 3)
        assert f.col_factors.shape == (2, 3, 3)
        assert f.side == 3 and f.n_rows == 0
        assert f.products().shape == (0, 2)


class TestSymmetricStacks:
    """The constructor stores the symmetric part, which is all that <U, V> sees."""

    # Symmetric part [[1, -2], [-2, 1]], eigenvalues -1 and 3; eigvalsh of
    # the lower triangle alone would read [[1, 0], [0, 1]].
    SKEW = np.array([[1.0, -4.0], [0.0, 1.0]])

    def test_from_factors_refuses_the_symmetric_part(self):
        with pytest.raises(PreconditionError, match="row factor 0 is not PSD: min eigenvalue -1"):
            PsdFactorization.from_factors([self.SKEW], [np.eye(2)])

    def test_top_norms_read_the_symmetric_part(self):
        f = PsdFactorization([self.SKEW], [np.eye(2)])
        assert np.array_equal(f.row_factors, [[[1.0, -2.0], [-2.0, 1.0]]])
        assert top_norms(side_extremes(f), f.n_rows) == (3.0, 1.0)

    def test_diagonal_embed_keeps_its_bytes(self):
        s = build_slack(*builtin_instance("cube", 3))
        entries = s.floats  # 6 x 8: the rows are the shorter side
        eye = np.eye(6)
        rows, cols = eye[:, :, None] * eye, entries.T[:, :, None] * eye
        f = diagonal_embed(s)
        assert f.row_factors.tobytes() == rows.tobytes()
        assert f.col_factors.tobytes() == cols.tobytes()

    def test_exactly_symmetric_stack_is_kept_as_given(self):
        # (a + a^T) / 2 would overflow here: a RuntimeWarning fails the test
        # under the suite's filterwarnings = error.
        rows = np.diag([1e308, 1e308])[None]
        cols = np.eye(2)[None]
        f = PsdFactorization(rows, cols)
        assert f.row_factors is rows and f.col_factors is cols


class TestAlternatingFit:
    """fit_factorization: Levenberg-Marquardt on square-root factors."""

    def test_unit_square_r4_succeeds(self):
        s = unit_square_slack()
        fit = fit_factorization(s, 4)
        assert isinstance(fit.factorization, PsdFactorization)
        assert verify_factorization(fit.factorization, s, tol=VERIFY_TOL).passed
        assert fit.residual <= VERIFY_TOL / 10 * (1 + s.max_entry)
        assert 0 < fit.steps <= FIT_MAX_STEPS

    def test_identity_r1_fails(self, monkeypatch):
        # rank-1 PSD factorization of the identity is impossible: side 1
        # reaches rank 1 * 2 / 2 = 1 < rank I = 2, so the fit is refused
        # before anything is drawn.
        def no_generator(*args, **kwargs):
            raise AssertionError("a random generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        fit = fit_factorization(SlackMatrix(np.eye(2)), 1)
        assert fit.factorization is None
        assert fit.trace == () and fit.steps == 0 and fit.residual is None
        assert "lower bound" in fit.reason and "rank S = 2" in fit.reason

    def test_unit_square_r2_runs_and_fails(self):
        # r = 2 passes the rank bound (3 <= 3), but the square has PSD rank 3.
        fit = fit_factorization(unit_square_slack(), 2)
        assert fit.factorization is None
        assert fit.residual > 0.1
        assert 0 < len(fit.trace) <= FIT_MAX_STEPS
        assert fit.steps == len(fit.trace) and fit.residual == fit.trace[-1]
        assert fit.reason.startswith("stalled")

    def test_nested_pair_below_the_dimension_bound_is_fit(self):
        # Points inside the square 0 <= x, y <= 4 span R^2, yet the disk of
        # radius 2 about (2, 2), a 2 x 2 spectrahedron, lies between their
        # triangle and the square, so this slack matrix has PSD rank 2: the
        # bound d + 1 holds only for a polytope's own slack matrix.
        h = HPolytope(a=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[4, 0, 4, 0])
        s = build_slack(h, VPolytope(points=[[1, 1], [2, 1], [1, 2]]))
        fit = fit_factorization(s, 2)
        assert fit.reason is None and fit.steps > 0
        assert verify_factorization(fit.factorization, s).passed

    def test_all_ones_r1_succeeds(self):
        # With the noise, S has numerical rank 2 > 1, but lies within the
        # fit's target of a rank-1 matrix, so the rank bound must not refuse it.
        for noise in (0.0, 1e-12):
            s = SlackMatrix(np.ones((3, 3)) + noise * np.arange(9).reshape(3, 3) ** 2)
            fit = fit_factorization(s, 1)
            assert isinstance(fit.factorization, PsdFactorization)
            assert verify_factorization(fit.factorization, s).passed

    def test_deterministic_under_seed(self):
        s = unit_square_slack()
        a, b = fit_factorization(s, 4, seed=9), fit_factorization(s, 4, seed=9)
        assert a.trace == b.trace
        for stack_a, stack_b in ((a.factorization.row_factors, b.factorization.row_factors),
                                 (a.factorization.col_factors, b.factorization.col_factors)):
            np.testing.assert_array_equal(stack_a, stack_b)

    def test_invalid_side(self):
        with pytest.raises(PreconditionError):
            fit_factorization(unit_square_slack(), 0)

    def test_empty_slack_refused(self):
        with pytest.raises(PreconditionError, match="no entries"):
            fit_factorization(SlackMatrix(np.zeros((1, 0))), 2)

    def test_entry_cap_checked_before_any_draw(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("a random generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(AssertionError, match="generator"):
            fit_factorization(SlackMatrix(np.ones((32, 32))), 1)
        with pytest.raises(ResourceError, match=str(FIT_MAX_ENTRIES)):
            fit_factorization(SlackMatrix(np.ones((32, 33))), 1)


def raw_unbalanced_cube():
    """The unit square's embedding under a congruence, built from unsymmetrised products."""
    s = unit_square_slack()
    f = diagonal_embed(s)
    q = random_orthogonal(rng(3), f.side)
    a = (q * np.array([10.0, 0.1, 1.0, 1.0])) @ q.T
    a_inv = (q / np.array([10.0, 0.1, 1.0, 1.0])) @ q.T
    rows, cols = a @ f.row_factors @ a, a_inv @ f.col_factors @ a_inv
    # Really asymmetric, so the exact symmetry of what is built from it is the program's doing.
    assert not np.array_equal(rows, rows.swapaxes(1, 2))
    return PsdFactorization(row_factors=rows, col_factors=cols), s, a, a_inv


def balanced_reduced():
    raw, _, _, _ = raw_unbalanced_cube()
    return balance_scalar(reduce_to_common_space(raw)[0])


def descent_winner():
    f = balanced_reduced()
    winner, eps = descent_step(f, perturbation_direction(f))
    assert eps is not None
    return winner


BUILDERS = {
    "PsdFactorization": lambda: raw_unbalanced_cube()[0],
    "diagonal_embed": lambda: diagonal_embed(unit_square_slack()),
    "congruence": lambda: congruence(
        diagonal_embed(unit_square_slack()), *raw_unbalanced_cube()[2:]),
    "reduce_to_common_space": lambda: reduce_to_common_space(raw_unbalanced_cube()[0])[0],
    "balance_scalar": balanced_reduced,
    "descent_step": descent_winner,
    "rescale": lambda: rescale(*raw_unbalanced_cube()[:2]).factorization,
    "alternating_fit": lambda: fit_factorization(
        build_slack(*builtin_instance("point", 1)), 2).factorization,
    "factorization_from_json": lambda: factorization_from_json(
        factorization_to_json(diagonal_embed(unit_square_slack()))),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_built_factorization_is_exactly_symmetric(builder):
    # operator_norms takes exactly symmetric stacks and does not symmetrise them.
    f = BUILDERS[builder]()
    assert isinstance(f, PsdFactorization)
    for stack in (f.row_factors, f.col_factors):
        assert np.array_equal(stack, stack.swapaxes(1, 2))

