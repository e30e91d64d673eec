import itertools

import numpy as np
import pytest

from psdfact import polytopes
from psdfact.errors import DimensionError, PreconditionError, ResourceError
from psdfact.polytopes import (
    HPolytope,
    SlackMatrix,
    VPolytope,
    build_slack,
    builtin_instance,
    enumerate_01_vertices,
)


class TestBuildSlack:
    def test_unit_square(self):
        h, v = builtin_instance("cube", 2)
        s = build_slack(h, v)
        assert s.shape == (4, 4)
        assert set(np.unique(s.entries)) == {0, 1}
        # every inequality is tight somewhere and slack somewhere
        assert np.all(s.entries.min(axis=1) == 0)
        assert np.all(s.entries.max(axis=1) == 1)
        assert np.all(s.entries.min(axis=0) == 0)
        assert np.all(s.entries.max(axis=0) == 1)
        assert s.max_entry == 1.0

    def test_single_point_against_cube_rows(self):
        h, _ = builtin_instance("cube", 3)
        v = VPolytope(points=np.zeros((1, 3), dtype=np.int64))
        s = build_slack(h, v)
        # slacks alternate 0 (for x_k >= 0) and 1 (for x_k <= 1)
        np.testing.assert_array_equal(s.entries[:, 0], [0, 0, 0, 1, 1, 1])

    def test_simplex_by_full_enumeration(self):
        h, v = builtin_instance("simplex", 3)
        s = build_slack(h, v)
        # oracle: evaluate all 16 pairs by hand
        for i, (a, b) in enumerate(zip(h.a, h.b)):
            for j, x in enumerate(v.points):
                expected = int(b) - int(np.dot(a, x))
                assert s.entries[i, j] == expected
                assert expected >= 0
        assert s.entries.sum() == sum(
            int(b) - int(np.dot(a, x))
            for a, b in zip(h.a, h.b)
            for x in v.points
        )

    def test_point_outside_named(self):
        h = HPolytope(a=np.array([[1, 0]], dtype=np.int64), b=np.array([0], dtype=np.int64))
        v = VPolytope(points=np.array([[1, 0]], dtype=np.int64))
        with pytest.raises(PreconditionError, match="point 0 violates inequality 0"):
            build_slack(h, v)

    def test_dimension_mismatch(self):
        h, _ = builtin_instance("cube", 2)
        v = VPolytope(points=np.zeros((1, 3), dtype=np.int64))
        with pytest.raises(DimensionError):
            build_slack(h, v)

    def test_overflow_guard(self):
        big = 2**40
        h = HPolytope(a=np.array([[-big]], dtype=np.int64), b=np.array([big], dtype=np.int64))
        v = VPolytope(points=np.array([[2**30]], dtype=np.int64))
        with pytest.raises(PreconditionError, match="64-bit"):
            build_slack(h, v)

    def test_entries_exact_integers(self):
        h, v = builtin_instance("moment_polygon", 5)
        s = build_slack(h, v)
        assert s.entries.dtype == np.int64
        assert np.all(s.entries >= 0)


class TestEnumerate01:
    def test_cube_all_points(self):
        h, _ = builtin_instance("cube", 2)
        v = enumerate_01_vertices(h)
        assert v.n_points == 4

    def test_sum_le_zero(self):
        h = HPolytope(a=np.array([[1, 1]], dtype=np.int64), b=np.array([0], dtype=np.int64))
        v = enumerate_01_vertices(h)
        np.testing.assert_array_equal(v.points, [[0, 0]])

    def test_random_inequalities_match_naive_filter(self):
        gen = np.random.default_rng(5)
        a = gen.integers(-3, 4, size=(3, 3))
        b = gen.integers(0, 6, size=3)
        h = HPolytope(a=a, b=b)
        got = {tuple(p) for p in enumerate_01_vertices(h).points.tolist()}
        naive = {
            pt
            for pt in itertools.product((0, 1), repeat=3)
            if all(int(np.dot(ai, pt)) <= int(bi) for ai, bi in zip(a, b))
        }
        assert got == naive

    def test_cube_counts_scale(self):
        for n in range(1, 7):
            h, _ = builtin_instance("cube", n)
            assert enumerate_01_vertices(h).n_points == 2**n

    def test_resource_guard(self):
        h, _ = builtin_instance("cube", 3)
        with pytest.raises(ResourceError):
            enumerate_01_vertices(h, max_dim=2)


class TestBuiltins:
    def test_cube_counts(self):
        h, v = builtin_instance("cube", 2)
        assert h.n_rows == 4 and v.n_points == 4

    def test_cube_facet_vertex_closed_forms(self):
        for n in (2, 3, 4):
            h, v = builtin_instance("cube", n)
            assert h.n_rows == 2 * n
            assert v.n_points == 2**n

    def test_simplex_counts(self):
        h, v = builtin_instance("simplex", 3)
        assert h.n_rows == 4 and v.n_points == 4

    def test_crosspoly_01_matches_enumeration(self):
        h, v = builtin_instance("crosspoly_01", 3)
        got = {tuple(p) for p in enumerate_01_vertices(h).points.tolist()}
        assert got == {tuple(p) for p in v.points.tolist()}
        assert v.n_points == 6

    def test_segment(self):
        h, v = builtin_instance("segment", 1)
        np.testing.assert_array_equal(v.points, [[0], [1]])
        assert build_slack(h, v).max_entry == 1.0

    def test_point_instance_zero_slack(self):
        h, v = builtin_instance("point", 2)
        s = build_slack(h, v)
        assert s.max_entry == 0.0
        assert s.shape == (4, 1)

    def test_moment_polygon_convex_independent(self):
        _, v = builtin_instance("moment_polygon", 4)
        pts = v.points.astype(float)
        assert v.n_points == 4
        # oracle: consecutive-edge cross products keep one sign strictly
        crosses = []
        for p, q, r in zip(pts, pts[1:], pts[2:]):
            u, w = q - p, r - q
            crosses.append(u[0] * w[1] - u[1] * w[0])
        assert all(c > 0 for c in crosses)

    def test_moment_polygon_slack_nonneg(self):
        h, v = builtin_instance("moment_polygon", 8)
        s = build_slack(h, v)
        assert np.all(s.entries >= 0)
        # each of the d edges is tight at exactly two vertices
        assert np.all((s.entries == 0).sum(axis=1) == 2)

    def test_moment_polygon_size_limit(self):
        d = polytopes.MOMENT_POLYGON_MAX_D
        h, v = builtin_instance("moment_polygon", d)
        assert h.n_rows == v.n_points == d
        with pytest.raises(ResourceError, match="--n"):
            builtin_instance("moment_polygon", d + 1)

    @pytest.mark.parametrize("name", sorted(polytopes.BUILTIN_MAX_N))
    def test_size_limit_checked_before_anything_is_built(self, name, monkeypatch):
        limit = polytopes.BUILTIN_MAX_N[name]

        class Built(Exception):
            pass

        def no_builder(n):
            raise Built

        # Every array of a builtin is made by its builder; none is made here.
        monkeypatch.setattr(polytopes, f"_{name}", no_builder)
        with pytest.raises(Built):
            builtin_instance(name, limit)
        for n in (limit + 1, 10**300):
            with pytest.raises(ResourceError, match="--n"):
                builtin_instance(name, n)

    def test_builtins_nonnegative_integral_through_n6(self):
        cases = [("cube", range(1, 7)), ("simplex", range(1, 7)), ("crosspoly_01", (2, 3))]
        for name, dims in cases:
            for n in dims:
                h, v = builtin_instance(name, n)
                s = build_slack(h, v)
                assert s.entries.dtype == np.int64
                assert np.all(s.entries >= 0)

    def test_unknown_name(self):
        with pytest.raises(PreconditionError, match="unknown instance") as info:
            builtin_instance("dodecahedron", 3)
        assert info.value.arg == "name"

    def test_crosspoly_requires_small_n(self):
        with pytest.raises(PreconditionError):
            builtin_instance("crosspoly_01", 4)


class TestValidation:
    def test_duplicate_rows_rejected(self):
        with pytest.raises(PreconditionError, match="duplicate"):
            HPolytope(a=np.array([[1, 0], [1, 0]], dtype=np.int64),
                      b=np.array([1, 1], dtype=np.int64))

    def test_duplicate_points_rejected(self):
        with pytest.raises(PreconditionError, match="duplicate"):
            VPolytope(points=np.array([[0, 1], [0, 1]], dtype=np.int64))

    def test_nonintegral_rejected(self):
        with pytest.raises(PreconditionError):
            HPolytope(a=np.array([[0.5, 0.0]]), b=np.array([1.0]))

    def test_negative_slack_entries_rejected(self):
        with pytest.raises(PreconditionError):
            SlackMatrix(np.array([[1.0, -0.25]]))

    def test_entries_without_provenance(self):
        s = SlackMatrix(np.array([[1.5, 0.0], [2.0, 3.0]]))
        assert s.h is None and s.max_entry == 3.0
