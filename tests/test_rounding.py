import itertools
import json

import numpy as np
import pytest

from psdfact import rounding, symmat
from psdfact.errors import DimensionError, PreconditionError, ResourceError
from psdfact.factorization import PsdFactorization, diagonal_embed
from psdfact.polytopes import HPolytope, build_slack, builtin_instance
from psdfact.pipeline import PipelineConfig, run_pipeline
from psdfact.rescaling import rescale
from psdfact.rounding import (
    MEMBER_RTOL,
    GridParams,
    MembershipConfig,
    RoundedSystem,
    build_rounded_system,
    grid_delta,
    membership_test,
    reconstruct,
    round_factor,
    zeroed_factors,
    round_to_grid,
    select_subsystem,
)

from helpers import random_orthogonal, random_psd, rng


class TestGridDelta:
    def test_n2_r2(self):
        assert grid_delta(2, 2) == 1.0 / 768.0

    def test_n1_r1(self):
        assert grid_delta(1, 1) == 1.0 / 32.0

    def test_n3_r4(self):
        assert grid_delta(3, 4) == 1.0 / 19456.0

    def test_positivity_guard(self):
        with pytest.raises(PreconditionError):
            grid_delta(0, 1)


class TestRoundToGrid:
    def test_nearest_multiple(self):
        # 1.13 sits between 1.0 and 1.25 on the 0.25 grid; 0.12 < 0.13
        assert round_to_grid(1.13, 0.25) == pytest.approx(1.25)

    def test_tie_rounds_toward_plus_infinity(self):
        assert round_to_grid(0.125, 0.25) == pytest.approx(0.25)
        assert round_to_grid(-0.125, 0.25) == pytest.approx(0.0)

    def test_exact_multiples_fixed(self):
        vals = np.array([0.0, 0.5, -0.75])
        np.testing.assert_allclose(round_to_grid(vals, 0.25), vals)


def small_grid(n=2, r=2, big_delta=1.0, scale=1.0):
    return GridParams(n=n, r=r, delta=grid_delta(n, r) * scale, big_delta=big_delta)


def reference_round_factor(u, step):
    """Single-matrix rounding as written before factors were rounded as a stack."""
    m = symmat.as_symmetric(u)
    lam, vec = np.linalg.eigh(m)
    lam, vec = round_to_grid(lam[::-1], step), round_to_grid(vec[:, ::-1], step)
    rounded = (vec * lam) @ vec.T
    return round_to_grid((rounded + rounded.T) / 2.0, step)


class TestRoundFactor:
    def test_on_grid_fixed_point(self):
        g = small_grid()
        u = np.diag(round_to_grid([0.3, 0.7], g.step))
        np.testing.assert_array_equal(round_factor(u, g), u)

    def test_entries_are_grid_multiples(self):
        gen = rng(1)
        g = small_grid(n=3, r=4)
        for _ in range(20):
            b = gen.standard_normal((4, 4))
            u = b @ b.T / 4.0
            u *= np.sqrt(g.r * g.big_delta) / max(symmat.operator_norm(u), 1e-12)
            rounded = round_factor(u, g)
            offsets = rounded / g.step - np.round(rounded / g.step)
            assert np.max(np.abs(offsets * g.step)) <= 1e-12

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("scale", [1.0, 0.1])
    def test_error_bound_holds(self, r, scale):
        gen = rng(100 * r + int(scale * 10))
        g = GridParams(n=3, r=r, delta=grid_delta(3, r) * scale, big_delta=1.0)
        bound = 4.0 * g.delta * r**2 / np.sqrt(g.big_delta)
        for _ in range(100):
            b = gen.standard_normal((r, r))
            u = b @ b.T / r
            u *= gen.random() * np.sqrt(r * g.big_delta) / max(symmat.operator_norm(u), 1e-12)
            rounded = round_factor(u, g)
            assert np.linalg.norm(rounded - u) <= bound

    def test_entry_magnitude_bound(self):
        gen = rng(9)
        g = small_grid(n=2, r=3, big_delta=4.0)
        cap = 8.0 * 3**1.5 * np.sqrt(4.0)
        assert g.entry_bound == pytest.approx(cap)
        for _ in range(50):
            b = gen.standard_normal((3, 3))
            u = b @ b.T
            u *= np.sqrt(3 * 4.0) / max(symmat.operator_norm(u), 1e-12)
            assert np.max(np.abs(round_factor(u, g))) <= g.entry_bound

    def test_error_bound_property(self):
        g = small_grid(n=3, r=4, big_delta=9.0, scale=0.5)
        assert g.error_bound == pytest.approx(4.0 * g.delta * 16 / 3.0)

    def test_rounded_factor_stays_near_psd(self):
        gen = rng(10)
        g = small_grid(n=2, r=4)
        b = gen.standard_normal((4, 4))
        u = b @ b.T / 4.0
        u *= 2.0 / symmat.operator_norm(u)
        lam = np.linalg.eigvalsh(round_factor(u, g))
        assert lam[0] >= -4.0 * g.step

    def test_degenerate_grid_reports_the_zeroed_factor(self):
        g = small_grid(n=2, r=2, big_delta=1.0)
        tiny = np.eye(2)[None] * g.step / 10.0
        assert zeroed_factors(tiny, round_factor(tiny, g)) == [0]

    def test_stack_matches_each_matrix(self):
        # Slice 1 is zero and slice 2 has a grid step above twice its top
        # eigenvalue; only slice 2 is reported as zeroed, and every slice
        # rounds exactly as the single-matrix reference does.
        gen = rng(12)
        g = small_grid(n=3, r=4, big_delta=2.0)
        b = gen.standard_normal((6, 4, 4))
        stack = b @ b.swapaxes(1, 2) / 4.0
        stack[1] = 0.0
        stack[2] = np.eye(4) * g.step / 10.0
        rounded = round_factor(stack, g)
        assert zeroed_factors(stack, rounded) == [2]
        assert rounded.shape == stack.shape
        for u, got in zip(stack, rounded):
            assert got.tobytes() == reference_round_factor(u, g.step).tobytes()

    def test_delta_cap_enforced(self):
        with pytest.raises(PreconditionError):
            GridParams(n=2, r=2, delta=1.0, big_delta=1.0)

    @pytest.mark.parametrize("big_delta", [float("inf"), json.loads("1e400")],
                             ids=["inf", "1e400"])
    def test_infinite_big_delta_refused(self, big_delta):
        # An infinite cap turns the oracle's cap * trace into inf * 0 = NaN.
        with pytest.raises(PreconditionError, match="Delta must be finite"):
            GridParams(n=2, r=2, delta=grid_delta(2, 2), big_delta=big_delta)


class TestSelectSubsystem:
    def test_standard_basis_rows_all_selected(self):
        h, _ = builtin_instance("simplex", 3)
        f = PsdFactorization.from_factors(
            [np.eye(2) * (i + 1) for i in range(4)], [np.eye(2)]
        )
        picked = select_subsystem(h, f)
        assert sorted(picked) == [0, 1, 2, 3]

    def test_duplicate_row_never_selected(self):
        h = HPolytope(
            a=np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int64),
            b=np.array([1, 2, 1], dtype=np.int64),
        )
        u = np.eye(2)
        f = PsdFactorization.from_factors([u, u, u], [np.eye(2)])
        picked = select_subsystem(h, f)
        # rows 0 and 1 have identical (a, vec(U)); only one may appear
        assert len(set(picked) & {0, 1}) == 1

    def test_empty_system_refused(self):
        h = HPolytope(a=np.zeros((0, 2), dtype=np.int64), b=np.zeros(0, dtype=np.int64))
        f = PsdFactorization.from_factors([np.eye(2)], [np.eye(2)])
        with pytest.raises(PreconditionError, match="empty inequality system"):
            select_subsystem(h, f)

    def test_misaligned_rows_refused(self):
        h, _ = builtin_instance("cube", 2)
        f = PsdFactorization.from_factors([np.eye(2)] * 3, [np.eye(2)])
        with pytest.raises(DimensionError, match="misaligned"):
            select_subsystem(h, f)

    def test_unit_square_matches_exhaustive_max_volume(self):
        h, v = builtin_instance("cube", 2)
        s = build_slack(h, v)
        f = diagonal_embed(s)
        picked = select_subsystem(h, f)
        vecs = np.concatenate(
            [h.a.astype(float), np.stack([u.reshape(-1) for u in f.row_factors])],
            axis=1,
        )

        def vol(subset):
            m = vecs[list(subset)]
            return float(np.sqrt(max(np.linalg.det(m @ m.T), 0.0)))

        rank = np.linalg.matrix_rank(vecs)
        assert len(picked) == rank
        best = max(
            (vol(c) for c in itertools.combinations(range(4), rank)), default=0.0
        )
        assert vol(picked) == pytest.approx(best, rel=1e-9)

    def test_at_most_n_plus_r2(self):
        h, v = builtin_instance("crosspoly_01", 3)
        f = diagonal_embed(build_slack(h, v))
        picked = select_subsystem(h, f)
        assert len(picked) <= 3 + f.side**2

    @staticmethod
    def reference_selection(h, f):
        """Pivoted Gram-Schmidt through np.linalg.norm and np.outer."""
        vecs = np.concatenate([h.a.astype(float), f.row_factors.reshape(f.n_rows, -1)], axis=1)
        threshold = symmat.RANK_TOL * max(float(np.linalg.norm(vecs, axis=1).max()), 1.0)
        selected = []
        while True:
            res_norms = np.linalg.norm(vecs, axis=1)
            res_norms[selected] = 0.0
            j = int(np.argmax(res_norms))
            if res_norms[j] <= threshold:
                return selected
            q = vecs[j] / res_norms[j]
            selected.append(j)
            vecs = vecs - np.outer(vecs @ q, q)

    def test_matches_the_reference_on_random_stacks(self):
        from psdfact.polytopes import HPolytope

        gen = rng(21)
        for _ in range(200):
            m, n, r = (int(k) for k in gen.integers(1, 9, size=3))
            rank = int(gen.integers(1, r + 1))
            rows = [random_psd(gen, r, rank=rank) for _ in range(m)]
            f = PsdFactorization.from_factors(rows, [np.eye(r)])
            h = HPolytope(a=gen.integers(-2, 3, size=(m, n)), b=np.arange(m))
            assert select_subsystem(h, f) == self.reference_selection(h, f)

    # The rows, in pivot order, that the pipeline selects on each builtin
    # 0/1 instance from its rescaled diagonal embedding.
    PIPELINE_ROWS = {
        ("cube", 1): [0, 1], ("cube", 2): [0, 1, 2, 3], ("cube", 3): [0, 1, 2, 3, 4, 5],
        ("cube", 4): [0, 1, 2, 3, 4, 5, 6, 7],
        ("simplex", 1): [0, 1], ("simplex", 2): [2, 0, 1], ("simplex", 3): [3, 0, 1, 2],
        ("simplex", 4): [4, 0, 1, 2, 3],
        ("crosspoly_01", 2): [0, 1, 2], ("crosspoly_01", 3): [6, 7, 0, 1],
        ("segment", 1): [0, 1],
        ("point", 1): [0], ("point", 2): [0, 1], ("point", 3): [0, 1, 2],
        ("point", 4): [0, 1, 2, 3],
    }

    @pytest.mark.parametrize("instance, n", sorted(PIPELINE_ROWS))
    def test_pipeline_rows_pinned(self, instance, n):
        """The selection on every builtin 0/1 instance, dependent rows left out.

        crosspoly_01 has rows that are combinations of others: on n = 2 the
        rows 1 <= x1 + x2 <= 1 lie in the span of the bounds.  A selection
        that downdates the residual norms instead of recomputing them must
        recompute a norm once cancellation sets in, as LAPACK's pivoted QR
        (xGEQP3) does: a dependent row's downdated norm stops near
        sqrt(eps) times its length, far above the RANK_TOL cut, and a pure
        downdate selects all 6 rows of crosspoly_01 n = 2.
        """
        h, v = builtin_instance(instance, n)
        s = build_slack(h, v)
        f = rescale(diagonal_embed(s), s).factorization
        assert select_subsystem(h, f) == self.PIPELINE_ROWS[(instance, n)]


class TestBuildRoundedSystem:
    def test_selected_rows_rounded_and_padded(self):
        h, v = builtin_instance("simplex", 3)
        s = build_slack(h, v)
        f = rescale(diagonal_embed(s), s).factorization
        g = GridParams.for_slack(n=3, r=f.side, delta_eff=s.max_entry)
        system = build_rounded_system(h, f, g)
        k = len(system.selected)
        assert system.n_rows == 3 + f.side**2
        np.testing.assert_array_equal(system.a[:k], h.a[list(system.selected)])
        np.testing.assert_array_equal(system.b[:k], h.b[list(system.selected)])
        assert not system.a[k:].any() and not system.b[k:].any()
        assert not system.factors[k:].any()
        assert len(system.error_fnorm) == k
        for slot, i in enumerate(system.selected):
            u = symmat.as_symmetric(f.row_factors[i])
            assert system.factors[slot].tobytes() == round_factor(u, g).tobytes()
            assert system.error_fnorm[slot] == float(np.linalg.norm(system.factors[slot] - u))
            assert system.error_fnorm[slot] <= g.error_bound

    @pytest.mark.parametrize("n, r", [(2, 5), (3, 4)])
    def test_grid_that_does_not_match_its_inputs_refused(self, n, r):
        # The diagonal embedding of the unit square has side 4.  A grid of
        # another side or dimension used to build a system whose sweep died
        # in a reshape.
        h, v = builtin_instance("cube", 2)
        s = build_slack(h, v)
        g = GridParams.for_slack(n=n, r=r, delta_eff=s.max_entry)
        with pytest.raises(DimensionError, match="grid n, r"):
            build_rounded_system(h, diagonal_embed(s), g)

    @staticmethod
    def reference_error_fnorm(f, g, selected):
        """One 2-D np.linalg.norm per selected factor: the batched product's reference."""
        u = symmat.as_symmetric(f.row_factors[list(selected)])
        return tuple(float(np.linalg.norm(d)) for d in round_factor(u, g) - u)

    @pytest.mark.parametrize("instance, n", [("cube", 4), ("simplex", 4), ("crosspoly_01", 3),
                                             ("moment_polygon", 12)])
    def test_error_fnorm_matches_per_factor_norm_on_builtins(self, instance, n):
        h, v = builtin_instance(instance, n)
        s = build_slack(h, v)
        for f in (diagonal_embed(s), rescale(diagonal_embed(s), s).factorization):
            g = GridParams.for_slack(n=h.dim, r=f.side, delta_eff=s.max_entry)
            system = build_rounded_system(h, f, g)
            assert system.error_fnorm == self.reference_error_fnorm(f, g, system.selected)

    def test_error_fnorm_matches_per_factor_norm_on_random_stacks(self):
        from psdfact.polytopes import HPolytope

        gen = rng(20)
        for _ in range(200):
            m, n, r = (int(k) for k in gen.integers(1, 9, size=3))
            rows = [random_psd(gen, r, scale=float(gen.uniform(0.01, 100.0)))
                    for _ in range(m)]
            f = PsdFactorization.from_factors(rows, [np.eye(r)])
            # Distinct offsets keep the rows distinct.
            h = HPolytope(a=gen.integers(-3, 4, size=(m, n)), b=np.arange(m))
            g = GridParams.for_slack(n=n, r=r, delta_eff=float(gen.integers(1, 50)),
                                     scale=float(gen.uniform(0.1, 1.0)))
            system = build_rounded_system(h, f, g)
            assert system.error_fnorm == self.reference_error_fnorm(f, g, system.selected)


def rounded_unit_square():
    h, v = builtin_instance("cube", 2)
    s = build_slack(h, v)
    res = rescale(diagonal_embed(s), s)
    g = GridParams.for_slack(n=2, r=res.factorization.side, delta_eff=s.max_entry)
    system = build_rounded_system(h, res.factorization, g)
    return h, v, s, res, g, system


def rounded_instance(instance, n):
    h, v = builtin_instance(instance, n)
    s = build_slack(h, v)
    res = rescale(diagonal_embed(s), s)
    g = GridParams.for_slack(n=n, r=res.factorization.side, delta_eff=s.max_entry)
    return h, v, res, build_rounded_system(h, res.factorization, g)


def verdicts(report):
    """Every point of a ReconstructionReport as a MembershipVerdict, in order."""
    return [report.verdict(k) for k in range(len(report.codes))]


def numpy_dual_margin(system, x, lam):
    """lambda.c - cap tr((sum_i lambda_i U_i)_+) - budget, with plain numpy."""
    c = system.b - system.a @ np.asarray(x, dtype=float)
    s = sum(l * u for l, u in zip(lam, system.factors))
    positive = np.linalg.eigvalsh(s).clip(min=0.0).sum()
    return float(lam @ c - system.grid.witness_cap * positive - system.grid.budget)


class TestDualValues:
    def test_zero_multipliers_take_no_spectrum(self, monkeypatch):
        _, _, _, _, _, system = rounded_unit_square()
        m = system.n_rows
        u_flat = system.factors.reshape(m, -1)
        gen = rng(5)
        lam = gen.standard_normal((6, m))
        lam /= np.abs(lam).sum(axis=1, keepdims=True)
        lam[[1, 4]] = 0.0
        const = gen.standard_normal((6, m))
        cap = system.grid.witness_cap
        expected = np.einsum("bi,bi->b", lam, const) - cap * np.clip(
            np.linalg.eigvalsh((lam @ u_flat).reshape(-1, system.grid.r, system.grid.r)),
            0.0, None).sum(axis=1)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        r = system.grid.r
        values = rounding._dual_values(lam, const, u_flat, cap)
        assert shapes == [(4, r, r)]
        assert values[[1, 4]].tolist() == [0.0, 0.0]
        keep = [0, 2, 3, 5]
        assert values[keep].tobytes() == expected[keep].tobytes()
        shapes.clear()
        assert rounding._dual_values(np.zeros((3, m)), const[:3], u_flat, cap).tolist() == [0.0] * 3
        assert shapes == []


def numpy_violation(system, x, y):
    """max_i |b_i - a_i.x - <U_i, Y>| - budget, with plain numpy."""
    e = [b - a @ np.asarray(x, dtype=float) - np.sum(u * y)
         for a, b, u in zip(system.a, system.b, system.factors)]
    return float(np.max(np.abs(e)) - system.grid.budget)


class TestMembership:
    def test_vertices_accepted_with_warm_start(self):
        _, v, _, res, _, system = rounded_unit_square()
        for j, x in enumerate(v.points):
            verdict = membership_test(
                x.astype(float), system, warm_start=res.factorization.col_factors[j]
            )
            assert verdict.verdict == "member-with-witness"
            assert verdict.iterations == 1
            assert verdict.violation <= 0.0
            assert numpy_violation(system, x, verdict.witness) <= 0.0
            assert symmat.operator_norm(verdict.witness) <= system.grid.witness_cap * (1 + 1e-9)
            assert verdict.dual is None and verdict.dual_margin <= 0.0

    def test_vertices_accepted_cold(self):
        _, v, _, _, _, system = rounded_unit_square()
        for x in v.points:
            verdict = membership_test(x.astype(float), system)
            assert verdict.verdict == "member-with-witness"
            assert numpy_violation(system, x, verdict.witness) <= system.grid.budget * MEMBER_RTOL
            assert np.linalg.eigvalsh(verdict.witness)[0] >= -1e-12

    def test_warm_start_residual_within_budget(self):
        # with the maximal delta the warm-started objective is zero at once
        _, v, _, res, g, system = rounded_unit_square()
        u_stack = np.stack(system.factors)
        for j, x in enumerate(v.points):
            y = res.factorization.col_factors[j]
            e = system.b - system.a @ x.astype(float) - np.einsum("irs,rs->i", u_stack, y)
            assert np.max(np.abs(e)) <= g.budget + 1e-12

    def test_point_of_another_length_is_refused(self):
        _, _, _, _, _, system = rounded_unit_square()
        with pytest.raises(DimensionError, match=r"point must have shape \(2,\), got \(3,\)"):
            membership_test(np.array([0.0, 1.0, 0.0]), system)
        # A point off the lattice is still decided.
        assert membership_test(np.array([0.5, 0.5]), system).verdict in rounding.VERDICTS

    def test_warm_start_of_another_side_is_refused(self):
        _, _, _, _, g, system = rounded_unit_square()
        assert g.r == 4
        with pytest.raises(DimensionError,
                           match=r"warm start must have shape \(4, 4\), got \(3, 3\)"):
            membership_test(np.array([0.0, 1.0]), system, warm_start=np.eye(3))

    def test_outside_point_rejected_on_point_instance(self):
        h, v = builtin_instance("point", 1)
        s = build_slack(h, v)
        res = rescale(diagonal_embed(s), s)
        g = GridParams.for_slack(n=1, r=res.factorization.side, delta_eff=s.max_entry)
        system = build_rounded_system(h, res.factorization, g)
        inside = membership_test(np.array([0.0]), system)
        outside = membership_test(np.array([1.0]), system)
        assert inside.verdict == "member-with-witness"
        assert outside.verdict == "rejected"
        assert outside.violation > 0.0
        assert outside.witness is None
        assert np.abs(outside.dual).sum() == pytest.approx(1.0)
        recomputed = numpy_dual_margin(system, [1.0], outside.dual)
        assert recomputed > 0.0
        assert outside.dual_margin == pytest.approx(recomputed, rel=1e-9, abs=1e-12)

    def test_pipeline_membership_seed_changes_no_report(self):
        # The benchmark's sweep and accept workloads vary this seed.
        reports = [run_pipeline("simplex", 3,
                                PipelineConfig(membership_cfg=MembershipConfig(seed=k)))
                   for k in (0, 5)]
        assert reports[0] == reports[1]

    def test_inconclusive_at_the_cap_reports_both_values(self, monkeypatch):
        # crosspoly_01 n=3 needs hundreds of iterations for its vertices
        # from a cold start; with a cap of 5 they stay live.
        monkeypatch.setattr(rounding, "MEMBER_MAX_ITERS", 5)
        _, _, _, system = rounded_instance("crosspoly_01", 3)
        verdict = membership_test(np.array([0.0, 1.0, 1.0]), system)
        assert verdict.verdict == "inconclusive"
        assert verdict.iterations == 5
        assert verdict.violation > 0.0
        assert verdict.dual_margin <= 0.0
        assert verdict.witness is not None and verdict.dual is not None


def hand_system(rows, factors):
    """A RoundedSystem with n = 1, r = 2, cap 1 and budget 0.05, from
    (a_i, b_i) rows and diagonal factors."""
    g = GridParams(n=1, r=2, delta=grid_delta(1, 2), big_delta=0.5)
    return rounding.RoundedSystem(
        a=np.array([a for a, _ in rows], dtype=float),
        b=np.array([b for _, b in rows], dtype=float),
        factors=np.array([np.diag(f) for f in factors], dtype=float),
        grid=g,
    )


class TestSingleRowDuals:
    # At x = 1 row 0 reads x <= 0 with U_0 = 0, so -e_0 has value 1; at
    # x = 0 row 0 has slack 5 against cap tr(U_0) = 1, so +e_0 has value 4.
    # In both, row 1's large slack and large factor make the hinge dual
    # at Y = 0 mix the two rows with a negative value.
    CASES = {
        "violated-row": ([([1.0], 0.0), ([0.0], 5.0)], [(0.0, 0.0), (5.0, 5.0)], 1.0, -1.0),
        "slack-above-cap": ([([0.0], 5.0), ([0.0], 50.0)], [(0.5, 0.5), (50.0, 50.0)], 0.0, 1.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejects_at_iteration_1_with_one_row(self, case):
        rows, factors, x, sign = self.CASES[case]
        system = hand_system(rows, factors)
        c = system.b - system.a @ [x]
        push = np.maximum(np.abs(c) - system.grid.budget, 0.0) * np.sign(c)
        assert numpy_dual_margin(system, [x], push / np.abs(push).sum()) < 0.0
        verdict = membership_test(np.array([x]), system)
        assert verdict.verdict == "rejected"
        assert verdict.iterations == 1
        np.testing.assert_array_equal(verdict.dual, [sign, 0.0])
        recomputed = numpy_dual_margin(system, [x], verdict.dual)
        assert recomputed > 0.0
        assert verdict.dual_margin == pytest.approx(recomputed, rel=1e-12)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flipped_sign_is_caught_by_revalidation(self, case, monkeypatch):
        rows, factors, x, _ = self.CASES[case]
        screen = rounding._single_row_duals

        def flipped(*args):
            lam, value = screen(*args)
            return -lam, value

        monkeypatch.setattr(rounding, "_single_row_duals", flipped)
        verdict = membership_test(np.array([x]), hand_system(rows, factors))
        assert verdict.verdict != "rejected"
        assert verdict.dual_margin <= 0.0

    @pytest.mark.parametrize("instance,n", [
        ("cube", 1), ("cube", 2), ("cube", 3), ("cube", 4), ("simplex", 1), ("simplex", 2),
        ("simplex", 3), ("simplex", 4), ("crosspoly_01", 2), ("crosspoly_01", 3),
        ("segment", 1), ("point", 1), ("point", 2)])
    def test_cold_sweep_never_rejects_a_vertex(self, instance, n):
        _, v, _, system = rounded_instance(instance, n)
        report = reconstruct(system)
        vertices = {tuple(p) for p in v.points.tolist()}
        assert not vertices & set(map(tuple, report.rejected))
        for ver in verdicts(report):
            if ver.point in vertices:
                assert ver.dual_margin <= 0.0


class TestReconstruct:
    def test_unit_square(self):
        h, v, _, res, _, system = rounded_unit_square()
        report = reconstruct(system, warm_starts=(v.points, res.factorization.col_factors))
        assert report.complete
        assert report.accepted == sorted(v.points.tolist())

    def test_single_point_instance(self):
        h, v = builtin_instance("point", 2)
        s = build_slack(h, v)
        res = rescale(diagonal_embed(s), s)
        g = GridParams.for_slack(n=2, r=res.factorization.side, delta_eff=s.max_entry)
        system = build_rounded_system(h, res.factorization, g)
        report = reconstruct(system)
        assert report.complete
        assert report.accepted == [[0, 0]]
        assert len(report.rejected) == 3

    def test_simplex_n3(self):
        h, v = builtin_instance("simplex", 3)
        s = build_slack(h, v)
        res = rescale(diagonal_embed(s), s)
        g = GridParams.for_slack(n=3, r=res.factorization.side, delta_eff=s.max_entry)
        system = build_rounded_system(h, res.factorization, g)
        report = reconstruct(system)
        assert report.complete
        assert report.accepted == sorted(v.points.tolist())

    def test_crosspoly_cold_is_complete_and_correct(self):
        _, v, _, system = rounded_instance("crosspoly_01", 3)
        report = reconstruct(system)
        assert report.complete
        assert report.accepted == sorted(v.points.tolist())
        assert report.rejected == [[0, 0, 0], [1, 1, 1]]
        tol = system.grid.budget * MEMBER_RTOL
        for ver in verdicts(report):
            if ver.verdict == "member-with-witness":
                assert numpy_violation(system, ver.point, ver.witness) <= tol
            else:
                assert numpy_dual_margin(system, ver.point, ver.dual) > 0.0

    @pytest.mark.parametrize("n", [3, 4])
    def test_cube_vertices_never_dual_certified(self, n):
        # weak duality: a true vertex's dual value never exceeds the budget,
        # neither at the first lambda (from the residual at Y = 0) nor at
        # the best one the cold sweep saw
        _, _, _, system = rounded_instance("cube", n)
        report = reconstruct(system)
        assert len(report.accepted) == 2**n
        budget = system.grid.budget
        for ver in verdicts(report):
            assert ver.dual_margin <= 0.0
            c = system.b - system.a @ np.asarray(ver.point, dtype=float)
            push = np.maximum(np.abs(c) - budget, 0.0) * np.sign(c)
            if np.abs(push).sum() > 0.0:
                assert numpy_dual_margin(system, ver.point, push / np.abs(push).sum()) <= 0.0

    @pytest.mark.parametrize("n", [3, 4])
    def test_unbalanced_simplex_rejects_every_non_vertex(self, n):
        rep = run_pipeline("simplex", n, PipelineConfig(unbalance=1e4))
        rec = rep["stages"]["reconstruct"]
        assert rep["verdict"] == "match"
        assert len(rec["rejected"]) == 2**n - (n + 1)
        assert rec["inconclusive"] == []
        for entry in rec["points"]:
            if entry["verdict"] == "rejected":
                assert entry["dual_margin"] > 0.0

    # (point, verdict initial, iterations) of the warm-started simplex n=3 sweep:
    # the vertices keep their warm starts and every non-vertex violates a
    # selected row, so single-row duals reject it at iteration 1.
    SIMPLEX3 = [((0, 0, 0), "m", 1), ((0, 0, 1), "m", 1), ((0, 1, 0), "m", 1),
                ((0, 1, 1), "r", 1), ((1, 0, 0), "m", 1), ((1, 0, 1), "r", 1),
                ((1, 1, 0), "r", 1), ((1, 1, 1), "r", 1)]

    @staticmethod
    def sweep(instance, n, monkeypatch, warm=True):
        """The pipeline's sweep, warm-started unless ``warm`` is false, and
        how many spectral norms it took."""
        _, v, res, system = rounded_instance(instance, n)
        orders = []
        norm = np.linalg.norm

        def counting_norm(x, ord=None, *args, **kwargs):
            orders.append(ord)
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        report = reconstruct(system, warm_starts=(v.points, res.factorization.col_factors)
                             if warm else None)
        return report, orders.count(2)

    def test_warm_started_vertices_take_no_step_norm(self, monkeypatch):
        report, spectral = self.sweep("cube", 3, monkeypatch)
        assert len(report.accepted) == 8
        assert all(ver.iterations == 1 for ver in verdicts(report))
        assert spectral == 0

    def test_warm_simplex_sweep_decides_every_point_at_iteration_1(self, monkeypatch):
        report, spectral = self.sweep("simplex", 3, monkeypatch)
        assert spectral == 0
        got = [(ver.point, ver.verdict[0], ver.iterations) for ver in verdicts(report)]
        assert got == self.SIMPLEX3

    def test_gradient_steps_take_one_step_norm(self, monkeypatch):
        # from cold starts the vertices need gradient steps
        report, spectral = self.sweep("simplex", 3, monkeypatch, warm=False)
        assert spectral == 1
        assert [ver.verdict[0] for ver in verdicts(report)] == [m for _, m, _ in self.SIMPLEX3]
        assert max(ver.iterations for ver in verdicts(report)
                   if ver.verdict == "member-with-witness") > 1

    @pytest.mark.parametrize("instance,n,warm", [
        ("simplex", 3, True), ("crosspoly_01", 2, True), ("simplex", 3, False),
        ("cube", 3, True)])
    def test_membership_test_matches_the_sweep(self, instance, n, warm):
        # One point at a time, from its warm start, the oracle gives each
        # point's column of the batched sweep; floats may differ in the last
        # bits, as a batch of one takes other BLAS paths.
        _, v, res, system = rounded_instance(instance, n)
        starts = (v.points, res.factorization.col_factors) if warm else None
        report = reconstruct(system, warm_starts=starts)
        vertices = {tuple(p): j for j, p in enumerate(v.points.tolist())}
        for ver in verdicts(report):
            j = vertices.get(ver.point)
            one = membership_test(np.array(ver.point, dtype=float), system,
                                  warm_start=res.factorization.col_factors[j]
                                  if warm and j is not None else None)
            assert (one.verdict, one.iterations) == (ver.verdict, ver.iterations), ver.point
            assert one.violation == pytest.approx(ver.violation, rel=1e-12, abs=0.0)
            assert one.dual_margin == pytest.approx(ver.dual_margin, rel=1e-12, abs=0.0)

    def test_batches_give_the_one_batch_verdicts(self, monkeypatch):
        _, v, res, system = rounded_instance("simplex", 3)
        starts = (v.points, res.factorization.col_factors)
        whole = reconstruct(system, warm_starts=starts)
        monkeypatch.setattr(rounding, "MEMBER_BATCH", 3)
        batched = reconstruct(system, warm_starts=starts)
        for name in ("points", "codes", "iterations"):
            np.testing.assert_array_equal(getattr(batched, name), getattr(whole, name))
        assert batched.to_json()["accepted"] == sorted(v.points.tolist())

    def test_lexicographic_order(self):
        _, _, _, _, _, system = rounded_unit_square()
        report = reconstruct(system)
        seen = report.accepted
        assert seen == sorted(seen)
        assert [ver.point for ver in verdicts(report)] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_report_lists_every_point(self):
        _, _, _, system = rounded_instance("simplex", 3)
        rec = reconstruct(system).to_json()
        cube = list(itertools.product((0, 1), repeat=3))
        assert [tuple(e["point"]) for e in rec["points"]] == cube
        for e in rec["points"]:
            assert set(e) == {"point", "verdict", "violation", "dual_margin", "iterations"}
            listed = {"member-with-witness": "accepted", "rejected": "rejected",
                      "inconclusive": "inconclusive"}[e["verdict"]]
            assert e["point"] in rec[listed]

    def test_dimension_guard(self):
        # The sweep's dimension is the system's own.
        n = rounding.RECONSTRUCT_MAX_DIM + 1
        g = GridParams(n=n, r=1, delta=grid_delta(n, 1), big_delta=1.0)
        system = RoundedSystem(np.zeros((n + 1, n)), np.zeros(n + 1), np.zeros((n + 1, 1, 1)), g)
        with pytest.raises(ResourceError, match=f"2\\^{n} membership sweep") as exc:
            reconstruct(system)
        assert exc.value.arg == "system"

    @pytest.mark.parametrize("case", ["too-few-factors", "wrong-side", "wrong-dimension"])
    def test_warm_start_shapes_refused(self, case):
        _, v, _, res, _, system = rounded_unit_square()
        points, factors = v.points, res.factorization.col_factors
        if case == "too-few-factors":
            factors = factors[:-1]
        elif case == "wrong-side":
            factors = factors[:, :-1, :-1]
        else:
            points = points[:, :1]
        with pytest.raises(DimensionError, match="warm starts must pair"):
            reconstruct(system, warm_starts=(points, factors))

    def test_warm_start_outside_the_cube_refused(self):
        _, v, _, res, _, system = rounded_unit_square()
        points = v.points.copy()
        points[0, 0] = 2
        with pytest.raises(PreconditionError, match=r"must lie in \{0,1\}\^n"):
            reconstruct(system, warm_starts=(points, res.factorization.col_factors))


class TestWorstCaseDelta:
    def test_worst_case_flag(self):
        g = GridParams.for_slack(n=2, r=2, delta_eff=1.0, worst_case=True)
        assert g.worst_case
        assert g.big_delta == pytest.approx(3.0**1.5)

    def test_worst_case_dimension_guard(self):
        with pytest.raises(PreconditionError):
            GridParams.for_slack(n=13, r=2, delta_eff=1.0, worst_case=True)
