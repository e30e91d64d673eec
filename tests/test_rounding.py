import itertools

import numpy as np
import pytest

from psdfact import rounding, symmat
from psdfact.errors import PreconditionError, ResourceError
from psdfact.factorization import PsdFactorization, diagonal_embed
from psdfact.polytopes import build_slack, builtin_instance
from psdfact.pipeline import PipelineConfig, run_pipeline
from psdfact.rescaling import rescale
from psdfact.rounding import (
    MEMBER_RTOL,
    GridParams,
    MembershipConfig,
    build_rounded_system,
    grid_delta,
    membership_test,
    reconstruct,
    round_factor,
    round_to_grid,
    select_subsystem,
)

from helpers import random_orthogonal, rng


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

    def test_degenerate_grid_warns(self):
        g = small_grid(n=2, r=2, big_delta=1.0)
        tiny = np.eye(2) * g.step / 10.0
        with pytest.warns(RuntimeWarning, match="grid step"):
            round_factor(tiny, g)

    def test_stack_matches_each_matrix(self):
        # Slice 1 is zero and slice 2 has a grid step above twice its top
        # eigenvalue; the stack warns once and rounds every slice exactly
        # as the single-matrix reference does.
        gen = rng(12)
        g = small_grid(n=3, r=4, big_delta=2.0)
        b = gen.standard_normal((6, 4, 4))
        stack = b @ b.swapaxes(1, 2) / 4.0
        stack[1] = 0.0
        stack[2] = np.eye(4) * g.step / 10.0
        with pytest.warns(RuntimeWarning, match="grid step") as caught:
            rounded = round_factor(stack, g)
        assert len(caught) == 1
        assert rounded.shape == stack.shape
        for u, got in zip(stack, rounded):
            assert got.tobytes() == reference_round_factor(u, g.step).tobytes()

    def test_delta_cap_enforced(self):
        with pytest.raises(PreconditionError):
            GridParams(n=2, r=2, delta=1.0, big_delta=1.0)


class TestSelectSubsystem:
    def test_standard_basis_rows_all_selected(self):
        h, _ = builtin_instance("simplex", 3)
        f = PsdFactorization.from_factors(
            [np.eye(2) * (i + 1) for i in range(4)], [np.eye(2)]
        )
        picked = select_subsystem(h, f)
        assert sorted(picked) == [0, 1, 2, 3]

    def test_duplicate_row_never_selected(self):
        from psdfact.polytopes import HPolytope

        h = HPolytope(
            a=np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int64),
            b=np.array([1, 2, 1], dtype=np.int64),
        )
        u = np.eye(2)
        f = PsdFactorization.from_factors([u, u, u], [np.eye(2)])
        picked = select_subsystem(h, f)
        # rows 0 and 1 have identical (a, vec(U)); only one may appear
        assert len(set(picked) & {0, 1}) == 1

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


def numpy_dual_margin(system, x, lam):
    """lambda.c - cap tr((sum_i lambda_i U_i)_+) - budget, with plain numpy."""
    c = system.b - system.a @ np.asarray(x, dtype=float)
    s = sum(l * u for l, u in zip(lam, system.factors))
    positive = np.linalg.eigvalsh(s).clip(min=0.0).sum()
    return float(lam @ c - system.grid.witness_cap * positive - system.grid.budget)


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

    def test_seed_changes_no_verdict(self):
        _, _, _, system = rounded_instance("simplex", 3)
        for x in itertools.product((0.0, 1.0), repeat=3):
            a = membership_test(np.array(x), system, MembershipConfig(seed=0))
            b = membership_test(np.array(x), system, MembershipConfig(seed=5))
            assert ((a.verdict, a.iterations, a.dual_margin)
                    == (b.verdict, b.iterations, b.dual_margin))

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


class TestReconstruct:
    def test_unit_square(self):
        h, v, _, res, _, system = rounded_unit_square()
        warm = {
            tuple(int(a) for a in p): res.factorization.col_factors[j]
            for j, p in enumerate(v.points)
        }
        report = reconstruct(system, 2, warm_start_map=warm)
        assert report.complete
        got = sorted(ver.point for ver in report.accepted)
        assert got == sorted(tuple(int(a) for a in p) for p in v.points)

    def test_single_point_instance(self):
        h, v = builtin_instance("point", 2)
        s = build_slack(h, v)
        res = rescale(diagonal_embed(s), s)
        g = GridParams.for_slack(n=2, r=res.factorization.side, delta_eff=s.max_entry)
        system = build_rounded_system(h, res.factorization, g)
        report = reconstruct(system, 2)
        assert report.complete
        assert [ver.point for ver in report.accepted] == [(0, 0)]
        assert len(report.rejected) == 3

    def test_simplex_n3(self):
        h, v = builtin_instance("simplex", 3)
        s = build_slack(h, v)
        res = rescale(diagonal_embed(s), s)
        g = GridParams.for_slack(n=3, r=res.factorization.side, delta_eff=s.max_entry)
        system = build_rounded_system(h, res.factorization, g)
        report = reconstruct(system, 3)
        assert report.complete
        got = sorted(ver.point for ver in report.accepted)
        assert got == sorted(tuple(int(a) for a in p) for p in v.points)

    def test_crosspoly_cold_is_complete_and_correct(self):
        _, v, _, system = rounded_instance("crosspoly_01", 3)
        report = reconstruct(system, 3)
        assert report.complete
        assert sorted(ver.point for ver in report.accepted) == sorted(
            tuple(int(a) for a in p) for p in v.points)
        assert sorted(ver.point for ver in report.rejected) == [(0, 0, 0), (1, 1, 1)]
        tol = system.grid.budget * MEMBER_RTOL
        for ver in report.accepted:
            assert numpy_violation(system, ver.point, ver.witness) <= tol
        for ver in report.rejected:
            assert numpy_dual_margin(system, ver.point, ver.dual) > 0.0

    @pytest.mark.parametrize("n", [3, 4])
    def test_cube_vertices_never_dual_certified(self, n):
        # weak duality: a true vertex's dual value never exceeds the budget,
        # neither at the first lambda (from the residual at Y = 0) nor at
        # the best one the cold sweep saw
        _, _, _, system = rounded_instance("cube", n)
        report = reconstruct(system, n)
        assert len(report.accepted) == 2**n
        budget = system.grid.budget
        for ver in report.accepted:
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

    def test_lexicographic_order(self):
        _, _, _, _, _, system = rounded_unit_square()
        report = reconstruct(system, 2)
        seen = [ver.point for ver in report.accepted]
        assert seen == sorted(seen)
        assert [ver.point for ver in report.verdicts] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_report_lists_every_point(self):
        _, _, _, system = rounded_instance("simplex", 3)
        rec = reconstruct(system, 3).to_json()
        cube = list(itertools.product((0, 1), repeat=3))
        assert [tuple(e["point"]) for e in rec["points"]] == cube
        for e in rec["points"]:
            assert set(e) == {"point", "verdict", "violation", "dual_margin", "iterations"}
            listed = {"member-with-witness": "accepted", "rejected": "rejected",
                      "inconclusive": "inconclusive"}[e["verdict"]]
            assert e["point"] in rec[listed]

    def test_dimension_guard(self):
        _, _, _, _, _, system = rounded_unit_square()
        with pytest.raises(ResourceError):
            reconstruct(system, 21)


class TestWorstCaseDelta:
    def test_worst_case_flag(self):
        g = GridParams.for_slack(n=2, r=2, delta_eff=1.0, worst_case=True)
        assert g.worst_case
        assert g.big_delta == pytest.approx(3.0**1.5)

    def test_worst_case_dimension_guard(self):
        with pytest.raises(PreconditionError):
            GridParams.for_slack(n=13, r=2, delta_eff=1.0, worst_case=True)
