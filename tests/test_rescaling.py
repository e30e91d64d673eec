import math

import numpy as np
import pytest

from psdfact import rescaling, symmat
from psdfact.derivatives import dplus_opnorm_congruence
from psdfact.errors import NumericError, PreconditionError
from psdfact.factorization import (
    VERIFY_TOL,
    PsdFactorization,
    congruence,
    diagonal_embed,
    fit_factorization,
    max_operator_norm,
    potential,
    residual_budget,
    side_extremes,
    top_norms,
    verify_factorization,
)
from psdfact.pipeline import PipelineConfig, _unbalance_congruence, run_pipeline
from psdfact.polytopes import SlackMatrix, build_slack, builtin_instance
from psdfact.rescaling import (
    DEFAULT_EPS_GRID,
    balance_scalar,
    descent_step,
    mean_congruence,
    perturbation_direction,
    reduce_to_common_space,
    rescale,
)

from helpers import (
    corner_diagonal,
    loop_from_input,
    loop_from_mean,
    random_orthogonal,
    random_psd,
    rng,
    two_row_embedding,
    unbalanced_cube,
)


def adversarial_instance():
    s = SlackMatrix(np.array([[1.0]]))
    f = PsdFactorization.from_factors(
        [np.diag([100.0, 0.0])], [np.diag([0.01, 5.0])]
    )
    return f, s


def geometric_congruence(f, cond=1e4, seed=0):
    """``f`` hit with a seeded congruence whose spectrum is geometric with
    condition ``cond`` and determinant 1."""
    q = random_orthogonal(rng(seed), f.side)
    lam = cond ** (0.5 - np.arange(f.side) / (f.side - 1))
    a = symmat.as_symmetric((q * lam) @ q.T)
    a_inv = symmat.as_symmetric((q / lam) @ q.T)
    return congruence(f, a, a_inv)


def unbalanced_moment_polygon(d=6, cond=1e4, seed=0):
    """Diagonal embedding of the moment polygon with d vertices, hit with
    ``geometric_congruence``."""
    s = build_slack(*builtin_instance("moment_polygon", d))
    return geometric_congruence(diagonal_embed(s), cond, seed), s


def no_mean_start(monkeypatch):
    """Make rescale keep its input, as it does when the mean is singular."""
    monkeypatch.setattr(rescaling, "mean_congruence", lambda means: None)


# Inputs for the loop tests, and whether the descent loop runs on them.
# The unbalanced square and moment polygon certify at the geometric-mean
# start; the two constructed families, after a congruence, need the loop.
LOOP_INPUTS = [
    (lambda: unbalanced_cube(t=100.0), False),
    (unbalanced_moment_polygon, False),
    (loop_from_input, True),
    (loop_from_mean, True),
]
LOOP_IDS = ["cube", "moment_polygon", "two_row", "corner_diagonal"]


def reference_common_space(f):
    """P_{Im(mean U)}(Im(mean V)) by the two-sided construction.

    Orthonormal bases B_u and B_v of the images of both side-averages, then
    the left singular vectors of B_u B_u^T B_v, each cut at image_basis's
    round-off tolerance.
    """
    def image(m):
        lam, vec = np.linalg.eigh(m)
        return vec[:, lam > symmat.IMAGE_TOL * np.abs(lam).max(initial=0.0)]

    b_u, b_v = (image(side.mean(axis=0)) for side in (f.row_factors, f.col_factors))
    if not b_u.shape[1] or not b_v.shape[1]:
        return np.zeros((f.side, 0))
    u, sig, _ = np.linalg.svd(b_u @ b_u.T @ b_v, full_matrices=False)
    return u[:, sig > symmat.IMAGE_TOL * sig[0]]


REDUCE_INSTANCES = (
    [("cube", n) for n in range(1, 5)] + [("simplex", n) for n in range(1, 5)]
    + [("crosspoly_01", 2), ("crosspoly_01", 3), ("segment", 1), ("point", 1), ("point", 2)]
    + [("moment_polygon", d) for d in (3, 6, 8, 12)]
)


class TestReduce:
    def test_overflowing_side_sum_names_f(self):
        # The row factors sum to 2e308.  Under the suite's filterwarnings =
        # error, a numpy RuntimeWarning would fail this test.
        f = PsdFactorization([[[1e308]], [[1e308]]], [[[1.0]]])
        with pytest.raises(PreconditionError, match="up to 1e[+]308 overflow") as info:
            reduce_to_common_space(f)
        assert info.value.arg == "f"

    def test_projected_hand_example(self):
        # Im(mean U) = span{e1, e2}, Im(mean V) = span{(1,0,1)}: the common space is span{e1}
        v = np.array([1.0, 0.0, 1.0])
        f = PsdFactorization.from_factors(
            [np.diag([2.0, 0.0, 0.0]), np.diag([0.0, 2.0, 0.0])], [np.outer(v, v)]
        )
        reduced, o, _, _ = reduce_to_common_space(f)
        assert o.shape == (3, 1)
        np.testing.assert_allclose(np.abs(o), [[1.0], [0.0], [0.0]], atol=1e-12)
        np.testing.assert_allclose(reduced.products(), f.products(), atol=1e-12)

    @pytest.mark.parametrize("instance, n", REDUCE_INSTANCES,
                             ids=[f"{name}-{n}" for name, n in REDUCE_INSTANCES])
    def test_matches_two_sided_reference(self, instance, n):
        f = diagonal_embed(build_slack(*builtin_instance(instance, n)))
        inputs = [f] + [_unbalance_congruence(f, t, seed)
                        for t in (1e2, 1e3, 1e4) for seed in range(3)]
        for g in inputs:
            _, o, _, _ = reduce_to_common_space(g)
            ref = reference_common_space(g)
            assert o.shape == ref.shape
            assert np.abs(o @ o.T - ref @ ref.T).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("ku, kv", [(4, 3), (3, 4), (2, 2), (6, 4), (4, 6)])
    def test_matches_two_sided_reference_on_partial_images(self, ku, kv):
        # Factors confined to random subspaces of dimensions ku and kv in R^6,
        # so the common space is a proper subspace that neither image contains;
        # at ku or kv = 6 one average is nonsingular and the other is not.
        gen = rng(ku * 10 + kv)
        b_u, b_v = (random_orthogonal(gen, 6)[:, :k] for k in (ku, kv))
        f = PsdFactorization.from_factors(
            [b_u @ random_psd(gen, ku) @ b_u.T for _ in range(5)],
            [b_v @ random_psd(gen, kv) @ b_v.T for _ in range(4)],
        )
        _, o, _, _ = reduce_to_common_space(f)
        ref = reference_common_space(f)
        assert o.shape == ref.shape == (6, min(ku, kv))
        assert np.abs(o @ o.T - ref @ ref.T).max() <= 1e-12

    def test_rank_one_row_side(self):
        f, s = adversarial_instance()
        reduced, o, _, _ = reduce_to_common_space(f)
        assert o.shape[1] == 1
        np.testing.assert_allclose(np.abs(o), [[1.0], [0.0]], atol=1e-12)
        np.testing.assert_allclose(reduced.row_factors[0], [[100.0]], atol=1e-12)
        np.testing.assert_allclose(reduced.col_factors[0], [[0.01]], atol=1e-12)
        assert verify_factorization(reduced, s).max_abs_residual <= 1e-12

    @pytest.mark.parametrize("cond", [None, 1e4])
    def test_nonsingular_averages_take_the_identity_basis(self, cond, monkeypatch):
        f = diagonal_embed(build_slack(*builtin_instance("cube", 3)))
        if cond is not None:
            f = _unbalance_congruence(f, cond, 0)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        reduced, o, ends, means = reduce_to_common_space(f)
        assert calls == []
        assert np.array_equal(o, np.eye(f.side))
        assert reduced is f
        averages = [symmat.as_symmetric(side.mean(axis=0)) for side in (f.row_factors, f.col_factors)]
        assert np.array_equal(means, averages)
        assert np.array_equal(ends, np.linalg.eigvalsh(means)[:, [0, -1]])
        assert ends[:, 0].min() > 0.0

    def test_full_rank_is_identity_reduction(self):
        s = build_slack(*builtin_instance("cube", 2))
        f = diagonal_embed(s)
        reduced, o, _, _ = reduce_to_common_space(f)
        assert o.shape[1] == f.side
        assert verify_factorization(reduced, s).max_abs_residual <= 1e-10

    def test_residual_preserved(self):
        f, s = unbalanced_cube()
        before = verify_factorization(f, s).max_abs_residual
        a = random_psd(rng(8), f.side) + np.eye(f.side)
        reduced, _, _, _ = reduce_to_common_space(f)
        for out in (reduced, congruence(f, a, np.linalg.inv(a))):
            after = verify_factorization(out, s).max_abs_residual
            assert abs(after - before) <= 1e-10 * (1.0 + s.max_entry)

    def test_zero_products_give_dim_zero(self):
        f = PsdFactorization.from_factors(
            [np.diag([1.0, 0.0])], [np.diag([0.0, 1.0])]
        )
        reduced, o, _, _ = reduce_to_common_space(f)
        assert o.shape[1] == 0
        assert reduced.side == 0

    def test_empty_side_rejected(self):
        f = PsdFactorization.from_factors([np.eye(2)], [])
        with pytest.raises(PreconditionError):
            reduce_to_common_space(f)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("make", [two_row_embedding, corner_diagonal],
                             ids=["two_row", "corner_diagonal"])
    def test_congruence_keeps_the_common_space(self, make, seed):
        # A 1e4 congruence spreads each average's spectrum past 1e8; a cut at
        # RANK_TOL of the top eigenvalue dropped a real direction on seeds 1,
        # 3 and 5, and rescale exited with "drifted off the slack matrix".
        f, s = make()
        res = rescale(_unbalance_congruence(f, 1e4, seed), s)
        assert res.reduced_dim == reduce_to_common_space(f)[1].shape[1]
        assert res.certificate


class TestZeroStep:
    """With no accepted step, rescale returns the start it measured."""

    @staticmethod
    def input_epilogue(f):
        """Transform, pseudo-inverse and factorization of the epilogue at the
        input start: the measured reduced stacks, balanced by the scalar
        c^2 = sqrt(p_v / p_u) and lifted by O when the common space is proper."""
        reduced, o, _, _ = reduce_to_common_space(f)
        p_u, p_v = top_norms(side_extremes(reduced), reduced.n_rows)
        sv = np.ones(o.shape[1]) * (p_v / p_u) ** 0.25
        t = symmat.as_symmetric((o * sv) @ o.T)
        t_pinv = symmat.as_symmetric((o / sv) @ o.T)
        c2 = math.sqrt(p_v / p_u)
        rows, cols = reduced.row_factors * c2, reduced.col_factors / c2
        if reduced is not f:
            rows, cols = o @ rows @ o.T, o @ cols @ o.T
        return t, t_pinv, PsdFactorization(rows, cols)

    def assert_matches_input_epilogue(self, res, f):
        assert res.iterations == 0 and res.diagnostics["start"] == "input"
        assert res.diagnostics["psd_repaired"] == 0
        t, t_pinv, g = self.input_epilogue(f)
        for got, want in ((res.transform, t), (res.transform_pinv, t_pinv),
                          (res.factorization.row_factors, g.row_factors),
                          (res.factorization.col_factors, g.col_factors)):
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def cube3():
        s = build_slack(*builtin_instance("cube", 3))
        return diagonal_embed(s), s

    def test_target_met_at_start(self):
        f, s = self.cube3()
        res = rescale(f, s)
        assert not res.diagnostics["stalled"]
        self.assert_matches_input_epilogue(res, f)

    def test_stall_at_the_first_step(self, monkeypatch):
        f, s = loop_from_input()
        monkeypatch.setattr(rescaling, "descent_step", lambda fw, z, **kwargs: (fw, None))
        res = rescale(f, s)
        assert res.diagnostics["stalled"]
        assert res.diagnostics["start"] == "input"
        self.assert_matches_input_epilogue(res, f)

    def test_each_stack_measured_once(self, monkeypatch):
        f, s = self.cube3()
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        res = rescale(f, s)
        assert res.iterations == 0
        # The two side averages, which a nonsingular common space leaves
        # unreduced, and the reduced stacks, which are returned scaled:
        # both sides of a factorization go through one eigvalsh.
        assert len(calls) == 2
        # The averages, then the stacks of the mean start, which are
        # returned: the averages' top norms put tau above the target, so
        # the start is formed first, and the input factors that can reach
        # their side's top norm join its eigvalsh to give tau.
        f, s = unbalanced_cube()
        calls.clear()
        res = rescale(f, s)
        assert res.iterations == 0 and res.diagnostics["start"] == "mean"
        assert len(calls) == 2


FIT_INSTANCES = [("cube", 2), ("cube", 3), ("simplex", 2), ("crosspoly_01", 2), ("segment", 1),
                 ("point", 1), ("point", 2)]
# The grid's builtins, embedded and fitted, whose slack matrix is not zero:
# the point's takes the zero start.
SCREEN_CASES = [pytest.param(kind, i, n, id=f"{kind}-{i}-{n}")
                for kind, instances in (("embedded", REDUCE_INSTANCES), ("fitted", FIT_INSTANCES))
                for i, n in instances if i not in ("moment_polygon", "point")]


def grid_inputs(instance, n):
    """The diagonal embedding of a builtin, plain and after congruences of
    condition 1e2, 1e3 and 1e4 at seeds 0-2."""
    s = build_slack(*builtin_instance(instance, n))
    f = diagonal_embed(s)
    return s, [f] + [_unbalance_congruence(f, t, seed) for t in (1e2, 1e3, 1e4)
                     for seed in range(3)]


def fitted_inputs(instance, n):
    """The fits of side 1-4 that are found, plain and after a 1e4 congruence."""
    s = build_slack(*builtin_instance(instance, n))
    fits = [fit_factorization(s, r).factorization for r in range(1, 5)]
    return s, [g for f in fits if f is not None for g in (f, _unbalance_congruence(f, 1e4, 0))]


def loop_inputs(make):
    """A loop family, after congruences of condition 1e4 at seeds 0-5."""
    f, s = make()
    return s, [_unbalance_congruence(f, 1e4, seed) for seed in range(6)]


def made_input(make):
    """The loop input ``make`` builds, as it is."""
    f, s = make()
    return s, [f]


RETURNED_CASES = (
    [pytest.param(grid_inputs, (i, n), id=f"grid-{i}-{n}")
     for i, n in REDUCE_INSTANCES if i != "moment_polygon"]
    + [pytest.param(fitted_inputs, (i, n), id=f"fitted-{i}-{n}") for i, n in FIT_INSTANCES]
    + [pytest.param(made_input, (make,), id=make.__name__)
       for make in (loop_from_input, loop_from_mean)]
    + [pytest.param(loop_inputs, (make,), id=make.__name__)
       for make in (two_row_embedding, corner_diagonal)]
)


class TestReturnedFactorization:
    """The returned factorization is the congruence by the returned transform,
    its top norms are lmax_u and lmax_v, and every factor is PSD."""

    @pytest.mark.parametrize("inputs, args", RETURNED_CASES)
    def test_matches_the_congruence_and_its_norms(self, inputs, args):
        s, factorizations = inputs(*args)
        budget = residual_budget(s, VERIFY_TOL)
        for f in factorizations:
            res = rescale(f, s)
            g = congruence(f, res.transform, res.transform_pinv)
            for got, want in ((res.factorization.row_factors, g.row_factors),
                              (res.factorization.col_factors, g.col_factors)):
                assert np.abs(got - want).max(initial=0.0) <= budget
            norms = [symmat.operator_norms(side).max(initial=0.0)
                     for side in (res.factorization.row_factors, res.factorization.col_factors)]
            np.testing.assert_allclose([res.lmax_u, res.lmax_v], norms, rtol=1e-12, atol=0.0)
            for side in (res.factorization.row_factors, res.factorization.col_factors):
                assert not symmat.not_psd(np.linalg.eigvalsh(side)).any()

    def test_zero_slack_gets_the_zero_factorization(self):
        # A fit of the point's zero slack matrix has nonzero factors whose
        # products are 0 only up to the fit's residual.
        s = build_slack(*builtin_instance("point", 2))
        for r in range(1, 5):
            f = fit_factorization(s, r).factorization
            assert np.abs(f.row_factors).max() > 0.0
            res = rescale(f, s)
            assert res.certificate and res.iterations == 0 and res.reduced_dim == 0
            assert res.diagnostics["start"] == "zero"
            for side in (res.factorization.row_factors, res.factorization.col_factors,
                         res.transform, res.transform_pinv):
                assert not side.any()
            assert res.factorization.side == f.side


def screen_inputs(kind, instance, n):
    """The diagonal embedding of a builtin, or its fits of side 1-4 that are
    found, after congruences of condition 1e2 and 1e4: seeds 0-2 for the
    embedding, seed 0 for the fits."""
    s = build_slack(*builtin_instance(instance, n))
    if kind == "fitted":
        fits = [fit_factorization(s, r).factorization for r in range(1, 5)]
        return s, [_unbalance_congruence(f, t, 0) for f in fits if f is not None
                   for t in (1e2, 1e4)]
    f = diagonal_embed(s)
    return s, [_unbalance_congruence(f, t, seed) for t in (1e2, 1e4) for seed in range(3)]


def rank_one_row(seed=1):
    """One row factor x x^T + 1e-9 I, which its average equals bit for bit,
    and the column factors x x^T, 100 y y^T and 100 z z^T, for a seeded
    orthonormal basis (x, y, z).  The row factor's Frobenius norm exceeds
    its top eigenvalue by about 1e-18 relative, less than round-off: at
    seed 1 the computed norm falls below the average's top norm."""
    q = random_orthogonal(rng(seed), 3)
    x = q[:, :1] @ q[:, :1].T
    f = PsdFactorization([x + 1e-9 * np.eye(3)],
                         [x] + [100.0 * q[:, k:k + 1] @ q[:, k:k + 1].T for k in (1, 2)])
    return f, SlackMatrix(f.products())


class TestScreen:
    """When the averages' top norms put tau above the target, rescale
    measures the input only through the factors whose Frobenius norm can
    reach their side's top norm; tau is the full measurement's, bit for bit."""

    @staticmethod
    def assert_screened_tau(f, s):
        reduced, _, mean_ends, _ = reduce_to_common_space(f)
        p_u, p_v = top_norms(side_extremes(reduced), reduced.n_rows)
        res = rescale(f, s)
        floor = top_norms(mean_ends, 1)
        assert floor[0] * floor[1] > res.diagnostics["target_phi"]
        assert res.diagnostics["tau"] == p_u * p_v
        assert res.lmax_trajectory[0] == (math.sqrt(p_u * p_v),) * 2
        return res, floor

    @pytest.mark.parametrize("kind, instance, n", SCREEN_CASES)
    def test_tau_is_the_full_measurement(self, kind, instance, n):
        s, factorizations = screen_inputs(kind, instance, n)
        assert factorizations
        for f in factorizations:
            self.assert_screened_tau(f, s)

    def test_norm_below_the_floor_by_round_off(self):
        # Without the SCREEN_TOL margin the only row factor is screened out.
        f, s = rank_one_row()
        res, floor = self.assert_screened_tau(f, s)
        assert res.diagnostics["start"] == "mean"
        scaled = f.row_factors[0] / floor[0]
        assert 1.0 - 1e-15 < (scaled * scaled).sum() < 1.0


def _cube4_congruence():
    """Cube n=4's diagonal embedding after a seeded 1e4 congruence: the mean start."""
    s = build_slack(*builtin_instance("cube", 4))
    return geometric_congruence(diagonal_embed(s)), s


def _padded_cube4_congruence():
    """``_cube4_congruence`` with a zero row and column on every factor: a
    mean start on a proper common space."""
    f, s = _cube4_congruence()
    pad = [(0, 0), (0, 1), (0, 1)]
    return PsdFactorization(np.pad(f.row_factors, pad), np.pad(f.col_factors, pad)), s


def _point2():
    s = build_slack(*builtin_instance("point", 2))
    return diagonal_embed(s), s


# One input per path of rescale's epilogue, with the start it takes and
# whether its common space is proper.
EPILOGUE_PATHS = {
    "input": (TestZeroStep.cube3, "input", False),
    "mean": (_cube4_congruence, "mean", False),
    "lifted-input": (adversarial_instance, "input", True),
    "lifted-mean": (_padded_cube4_congruence, "mean", True),
    "zero": (_point2, "zero", True),
    "loop-input": (loop_from_input, "input", False),
    "loop-mean": (loop_from_mean, "mean", False),
}


class TestEpiloguePaths:
    @pytest.mark.parametrize("path", sorted(EPILOGUE_PATHS))
    def test_never_writes_the_callers_stacks(self, path):
        make, start, lifted = EPILOGUE_PATHS[path]
        f, s = make()
        before = [side.copy() for side in (f.row_factors, f.col_factors)]
        for side in (f.row_factors, f.col_factors):
            side.flags.writeable = False
        res = rescale(f, s)
        assert res.diagnostics["start"] == start
        assert (res.reduced_dim < f.side) == lifted
        assert (res.iterations > 0) == path.startswith("loop")
        for side, want in zip((f.row_factors, f.col_factors), before):
            assert side.tobytes() == want.tobytes()
        assert res.factorization.row_factors is not f.row_factors
        assert res.factorization.col_factors is not f.col_factors

    @pytest.mark.parametrize("path", sorted(EPILOGUE_PATHS))
    def test_factored_transform(self, path):
        # The pair as rescale formed it before it kept the transform
        # factored: one stacked product, symmetrized.
        f, s = EPILOGUE_PATHS[path][0]()
        res = rescale(f, s)
        w, sv = res.transform_basis, res.transform_scales
        assert w.shape == (f.side, res.reduced_dim) and sv.shape == (res.reduced_dim,)
        np.testing.assert_allclose(w.T @ w, np.eye(res.reduced_dim), atol=1e-12)
        want = symmat.as_symmetric(np.array([w * sv, w / sv]) @ w.T)
        for got, pair in ((res.transform, want[0]), (res.transform_pinv, want[1])):
            assert got.shape == (f.side, f.side)
            assert got.tobytes() == pair.tobytes()


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

    @pytest.mark.parametrize("exponent", [154, 160, 200, 300])
    @pytest.mark.parametrize("flip", [False, True], ids=["big-row", "big-col"])
    def test_norms_whose_ratio_leaves_the_float_range(self, exponent, flip):
        # U = [t], V = [1 / t] factor S = [[1]] exactly, but lmax_v / lmax_u
        # = t^-2 underflows, or overflows when flipped, or at t = 1e154 and
        # 1e160 is subnormal; a RuntimeWarning fails the test.
        big, small = float(f"1e{exponent}"), float(f"1e-{exponent}")
        u, v = (small, big) if flip else (big, small)
        f = PsdFactorization([[[u]]], [[[v]]])
        out = balance_scalar(f)
        assert out.row_factors[0, 0, 0] == out.col_factors[0, 0, 0] == 1.0
        res = rescale(f, SlackMatrix(np.array([[1.0]])))
        assert res.lmax_u == res.lmax_v == 1.0 and res.certificate
        g = res.factorization
        assert g.row_factors[0, 0, 0] == g.col_factors[0, 0, 0] == 1.0
        assert res.transform[0, 0] * res.transform_pinv[0, 0] == pytest.approx(1.0, rel=1e-15)
        assert res.transform[0, 0] ** 2 * u == pytest.approx(1.0, rel=1e-15)

    def test_norms_too_far_apart_to_balance(self):
        # c^2 = sqrt(1e300 / 5e-324) is beyond the float range.
        f = PsdFactorization([[[5e-324]]], [[[1e300]]])
        with pytest.raises(PreconditionError, match="too far apart"):
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
        z = perturbation_direction(f)
        np.testing.assert_allclose(z, np.eye(2) / 2.0, atol=1e-7)

    def test_unbalanced_rejected(self):
        f = PsdFactorization.from_factors([4.0 * np.eye(2)], [np.eye(2)])
        with pytest.raises(PreconditionError, match="balanced"):
            perturbation_direction(f)


class TestDescentStep:
    def test_zero_direction_stalls(self):
        f = PsdFactorization.from_factors([np.eye(2)], [np.eye(2)])
        out, eps = descent_step(f, np.zeros((2, 2)))
        assert eps is None and out is f

    @pytest.mark.parametrize("v", [np.zeros((2, 2)), np.eye(2)], ids=["zero", "one-zero-side"])
    def test_zero_potential_stalls(self, v):
        # No step lowers a potential of 0: every candidate's is 0 as well.
        f = PsdFactorization.from_factors([np.zeros((2, 2))], [v])
        out, eps = descent_step(f, np.eye(2))
        assert eps is None and out is f

    def test_nan_potential_stalls(self):
        f = PsdFactorization.from_factors([np.eye(2)], [np.diag([2.0, 1.0])])
        out, eps = descent_step(f, np.diag([1.0, 0.0]), phi0=float("nan"))
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
        z = perturbation_direction(f)
        out, eps = descent_step(f, z)
        assert eps is not None
        assert verify_factorization(out, s).max_abs_residual <= 1e-8 * (1.0 + s.max_entry)

    @staticmethod
    def reference_step(f, z, eps_grid=DEFAULT_EPS_GRID):
        """One congruence and one potential per grid value; strict < keeps the first."""
        z = symmat.as_symmetric(z)
        z_norm = symmat.operator_norm(z)
        lam, q = symmat.spectral_decompose(z)
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
        z = perturbation_direction(f)
        best_phi, best_eps, best = self.reference_step(f, z)
        assert best_phi < potential(f) * (1.0 - 1e-12)
        out, eps = descent_step(f, z)
        assert eps == best_eps
        expected = balance_scalar(best)
        assert out.row_factors.tobytes() == expected.row_factors.tobytes()
        assert out.col_factors.tobytes() == expected.col_factors.tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_pruned_search_matches_reference_along_rescale(self, seed, monkeypatch):
        steps = []

        def spy(f, z, *args, **kwargs):
            out = descent_step(f, z, *args, **kwargs)
            steps.append((f, z, out))
            return out

        monkeypatch.setattr(rescaling, "descent_step", spy)
        # Mild congruences of the two-row embedding start the loop from the input.
        f, s = two_row_embedding()
        for t in (2.0, 2.6):
            rescale(_unbalance_congruence(f, t, seed), s)
        assert steps
        below_largest = 0
        for f_k, z, (out, eps) in steps:
            best_phi, best_eps, best = self.reference_step(f_k, z)
            if eps is None:
                assert out is f_k
                assert best_phi > potential(f_k) * (1.0 - 1e-12)
                continue
            assert eps == best_eps
            expected = balance_scalar(best)
            assert out.row_factors.tobytes() == expected.row_factors.tobytes()
            assert out.col_factors.tobytes() == expected.col_factors.tobytes()
            below_largest += eps < max(DEFAULT_EPS_GRID) / symmat.operator_norm(z)
        # the largest eps does not always win, so smaller winners are compared too
        assert below_largest >= 1

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
        s = SlackMatrix(np.array([[1.0]]))
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
        for make, loop in (LOOP_INPUTS[0], *LOOP_INPUTS[2:]):
            f, s = make()
            d = reduce_to_common_space(f)[1].shape[1]
            assert potential(f) > d * s.max_entry * 1.05  # starts above target
            res = rescale(f, s)
            assert res.certificate
            assert (res.iterations >= 1) == loop
            # monotone trajectory
            traj = np.asarray(res.phi_trajectory)
            assert np.all(np.diff(traj) <= 1e-9 * traj[:-1])
            # preservation, re-verified from scratch
            rep = verify_factorization(res.factorization, s)
            assert rep.max_abs_residual <= 1e-8 * (1.0 + s.max_entry)

    @pytest.mark.parametrize("make, steps", [(loop_from_input, 2), (loop_from_mean, 4)],
                             ids=["two_row", "corner_diagonal"])
    def test_loop_families_take_their_steps(self, make, steps):
        res = rescale(*make())
        assert res.iterations == steps
        assert res.certificate

    def test_trajectory_records_balanced_norms(self):
        for make, loop in LOOP_INPUTS:
            res = rescale(*make())
            assert (res.iterations >= 1) == loop
            # the input, the mean start when kept, then one entry per step
            mean = res.diagnostics["start"] == "mean"
            assert len(res.lmax_trajectory) == 1 + mean + res.iterations
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
        assert res.diagnostics["start"] == "zero"
        # The common space is {0}, so the transform O diag(sv) O^T is the
        # zero matrix: every rescaled factor is 0 and meets the target
        # sqrt(0 * Delta) = 0.
        zero = np.zeros((f.side, f.side))
        np.testing.assert_array_equal(res.transform, zero)
        np.testing.assert_array_equal(res.transform_pinv, zero)
        assert res.lmax_u == res.lmax_v == 0.0
        assert res.certificate
        assert verify_factorization(res.factorization, s).passed

    def test_rejects_wrong_factorization(self):
        s = SlackMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        f = diagonal_embed(SlackMatrix(np.array([[1.0, 0.0], [0.0, 1.0]])))
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

    def test_deterministic(self):
        f, s = unbalanced_cube(t=100.0)
        r1 = rescale(f, s)
        r2 = rescale(f, s)
        assert r1.iterations == r2.iterations
        assert r1.certificate == r2.certificate
        np.testing.assert_array_equal(
            np.asarray(r1.phi_trajectory), np.asarray(r2.phi_trajectory)
        )

    @pytest.mark.parametrize("rows, cols", [((100.0, 100.0, 1.0), (1.0, 1.0, 100.0)),
                                            ((50.0, 50.0, 50.0, 1.0), (1.0, 1.0, 1.0, 50.0))],
                             ids=["width2", "width3"])
    def test_degenerate_top_eigenspaces(self, rows, cols, monkeypatch):
        f = PsdFactorization.from_factors([np.diag(rows)], [np.diag(cols)])
        s = SlackMatrix(f.products())

        def assert_certified_and_repeatable():
            r1, r2 = rescale(f, s), rescale(f, s)
            assert r1.certificate and not r1.diagnostics["stalled"]
            assert r1.lmax_trajectory == r2.lmax_trajectory
            assert r1.iterations == r2.iterations
            for a, b in ((r1.transform, r2.transform),
                         (r1.factorization.row_factors, r2.factorization.row_factors),
                         (r1.factorization.col_factors, r2.factorization.col_factors)):
                assert a.tobytes() == b.tobytes()
            return r1

        # The mean start makes the one row and the one column factor equal,
        # at phi <= Delta.
        assert assert_certified_and_repeatable().iterations == 0
        # From the input, the one row factor is tight at every step, with a
        # top eigenspace of width 2 or 3, so every direction comes from a
        # whole eigenbasis.  No input of the two constructed families has
        # such a tight factor, so this one runs without the start.
        no_mean_start(monkeypatch)
        assert assert_certified_and_repeatable().iterations >= 1

    @pytest.mark.parametrize("make, loop", LOOP_INPUTS, ids=LOOP_IDS)
    def test_result_matches_last_state(self, make, loop):
        f, s = make()
        res = rescale(f, s)
        assert (res.iterations >= 1) == loop
        t, t_pinv = res.transform, res.transform_pinv
        np.testing.assert_array_equal(t, t.T)
        np.testing.assert_array_equal(t_pinv, t_pinv.T)
        assert np.linalg.eigvalsh(t)[0] >= -1e-12 * np.linalg.eigvalsh(t)[-1]
        _, o, _, _ = reduce_to_common_space(f)
        np.testing.assert_allclose(t @ t_pinv, o @ o.T, atol=1e-9)
        phi = max_operator_norm(res.factorization.row_factors) * max_operator_norm(
            res.factorization.col_factors
        )
        assert phi == pytest.approx(res.phi_trajectory[-1], rel=1e-9)

    def test_blow_up_guard_raises(self, monkeypatch):
        # A step of eps = 1000 drives exp(-eps Z) far past any condition cap.
        monkeypatch.setattr(rescaling, "descent_step", lambda f, z, **_: (f, 1e3))
        for make in (loop_from_input, loop_from_mean):
            f, s = make()
            with pytest.raises(NumericError, match="diagnostic cap"):
                rescale(f, s)

    def test_stall_ends_the_loop(self, monkeypatch):
        # A stall is not retried and not counted as an iteration.
        monkeypatch.setattr(rescaling, "descent_step", lambda f, z, **_: (f, None))
        for make, start in ((loop_from_input, "input"), (loop_from_mean, "mean")):
            res = rescale(*make())
            assert res.diagnostics["stalled"]
            assert res.iterations == 0
            assert res.diagnostics["start"] == start
            # the input, and the mean start when kept
            assert len(res.lmax_trajectory) == 1 + (start == "mean")
            assert not res.certificate


class TestMeanStart:
    """rescale starts at the geometric-mean congruence when it helps."""

    @pytest.mark.parametrize("seed", range(4))
    def test_closed_form_equalizes_the_averages(self, seed):
        gen = rng(seed)
        d = 1 + seed
        means = np.stack([random_psd(gen, d) + 0.1 * np.eye(d) for _ in range(2)])
        sv, rt = mean_congruence(means)
        assert sv[0] == 1.0 and np.all(sv > 0)
        p = (rt.T * sv) @ rt
        p_inv = (rt.T / sv) @ rt
        np.testing.assert_allclose(p @ p_inv, np.eye(d), atol=1e-12)
        # P mU P and P^-1 mV P^-1 agree up to the free scale of P
        left, right = p @ means[0] @ p, p_inv @ means[1] @ p_inv
        np.testing.assert_allclose(left / np.linalg.norm(left), right / np.linalg.norm(right),
                                   atol=1e-12)
        # X = P^2 solves X mU X = mV up to that scale
        x = p @ p
        sol = x @ means[0] @ x
        np.testing.assert_allclose(sol / np.linalg.norm(sol),
                                   means[1] / np.linalg.norm(means[1]), atol=1e-12)

    def test_refused_when_the_balanced_average_is_singular(self):
        # Least eigenvalues at 2e-9 of the largest in a common direction put
        # that of mU^1/2 mV mU^1/2 near 4e-18 of its largest, within
        # round-off of 0: no start is formed from a non-positive G.
        refused = 0
        for seed in range(50):
            q = random_orthogonal(rng(seed), 3)
            means = np.stack([symmat.as_symmetric((q * lam) @ q.T)
                              for lam in ([1.0, 0.5, 2e-9], [1.0, 0.3, 2e-9])])
            polar = mean_congruence(means)
            if polar is None:
                refused += 1
            else:
                assert np.all(polar[0] > 0) and np.all(np.isfinite(polar[1]))
        assert refused >= 1

    @pytest.mark.parametrize("instance, n, seed",
                             [("cube", 4, 6), ("moment_polygon", 8, 0), ("moment_polygon", 8, 1)],
                             ids=["cube-4-seed6", "moment_polygon-8-seed0", "moment_polygon-8-seed1"])
    def test_certifies_where_the_loop_stalls(self, instance, n, seed):
        # The descent loop alone ran 500 steps on each of these without a
        # certificate, ending at phi / Delta = 51.0, 27.4 and 81.6.
        s = build_slack(*builtin_instance(instance, n))
        f = _unbalance_congruence(diagonal_embed(s), 1e4, seed)
        res = rescale(f, s)
        assert res.diagnostics["start"] == "mean"
        assert res.iterations == 0
        assert res.certificate
        assert res.lmax_u * res.lmax_v <= res.reduced_dim * s.max_entry

    @pytest.mark.parametrize("instance, n", [("simplex", 4), ("cube", 4), ("moment_polygon", 12)])
    def test_congruence_invariance(self, instance, n):
        # (B mU B^T) # (B^-T mV B^-1) is the congruence of mU # mV, so the
        # start undoes B.  Round-off grows with cond(B)^2 * 2.2e-16 = 2.2e-8.
        s = build_slack(*builtin_instance(instance, n))
        f = diagonal_embed(s)
        base = rescale(f, s)
        for seed in range(3):
            res = rescale(geometric_congruence(f, 1e4, seed), s)
            assert res.certificate
            assert res.lmax_u == pytest.approx(base.lmax_u, rel=2e-8)
            assert res.lmax_v == pytest.approx(base.lmax_v, rel=2e-8)

    def test_skipped_when_the_input_meets_the_target(self, monkeypatch):
        def refuse(means):
            raise AssertionError("mean start formed for an input within the target")

        monkeypatch.setattr(rescaling, "mean_congruence", refuse)
        s = build_slack(*builtin_instance("cube", 3))
        res = rescale(diagonal_embed(s), s)
        assert res.certificate
        assert res.diagnostics["start"] == "input"

    def test_kept_only_when_it_lowers_phi(self, monkeypatch):
        calls = []

        def spy(means):
            calls.append(means)
            return mean_congruence(means)

        monkeypatch.setattr(rescaling, "mean_congruence", spy)
        f, s = loop_from_input()
        res = rescale(f, s)
        assert len(calls) == 1
        assert res.diagnostics["start"] == "input"
        tau = res.diagnostics["tau"]
        assert res.lmax_trajectory[0] == (np.sqrt(tau),) * 2
        assert res.phi_trajectory[1] < tau

    def test_pipeline_matches_where_the_loop_stalled(self):
        # The loop alone left 8 vertices of this run inconclusive.
        rep = run_pipeline("cube", 4, PipelineConfig(unbalance=1e3, seed=0))
        assert rep["stages"]["rescale"]["start"] == "mean"
        assert rep["stages"]["rescale"]["certificate"]
        assert rep["stages"]["rescale"]["iterations"] == 0
        assert rep["verdict"] == "match"
