import numpy as np
import pytest

from psdfact import serialize
from psdfact.factorization import PsdFactorization, diagonal_embed
from psdfact.polytopes import SlackMatrix, build_slack, builtin_instance
from psdfact.rescaling import rescale
from psdfact.rounding import GridParams, build_rounded_system


class TestPolytopeJson:
    def test_roundtrip(self):
        h, v = builtin_instance("simplex", 3)
        h2, v2 = serialize.polytope_from_json(serialize.polytope_to_json(h, v))
        np.testing.assert_array_equal(h2.a, h.a)
        np.testing.assert_array_equal(h2.b, h.b)
        np.testing.assert_array_equal(v2.points, v.points)

    def test_points_optional(self):
        h, _ = builtin_instance("cube", 2)
        h2, v2 = serialize.polytope_from_json(serialize.polytope_to_json(h, None))
        assert v2 is None
        np.testing.assert_array_equal(h2.a, h.a)


class TestSlackAndFactorization:
    def test_slack_roundtrip_with_provenance(self):
        s = build_slack(*builtin_instance("cube", 2))
        s2 = serialize.slack_from_json(serialize.slack_to_json(s))
        np.testing.assert_array_equal(s2.floats, s.floats)
        assert s2.h is not None
        np.testing.assert_array_equal(s2.h.a, s.h.a)

    def test_factorization_roundtrip(self):
        s = build_slack(*builtin_instance("cube", 2))
        f = diagonal_embed(s)
        obj = serialize.factorization_to_json(f)
        # Each stack is one nested list shaped like the array.
        assert obj == {"r": 4, "U": f.row_factors.tolist(), "V": f.col_factors.tolist()}
        f2 = serialize.factorization_from_json(obj)
        assert f2.side == f.side
        np.testing.assert_array_equal(f2.row_factors, f.row_factors)
        np.testing.assert_array_equal(f2.col_factors, f.col_factors)

    # An empty list takes the shape its file declares.
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_roundtrip(self, shape):
        s = SlackMatrix(np.zeros(shape))
        s2 = serialize.slack_from_json(serialize.slack_to_json(s))
        assert s2.shape == shape
        f = diagonal_embed(s)
        f2 = serialize.factorization_from_json(serialize.factorization_to_json(f))
        assert f2.row_factors.shape == f.row_factors.shape
        assert f2.col_factors.shape == f.col_factors.shape

    def test_empty_side_keeps_its_declared_r(self):
        f = PsdFactorization(np.zeros((0, 3, 3)), [np.eye(3)])
        f2 = serialize.factorization_from_json(serialize.factorization_to_json(f))
        assert f2.row_factors.shape == (0, 3, 3)
        np.testing.assert_array_equal(f2.col_factors, f.col_factors)

    def test_system_roundtrip(self):
        h, v = builtin_instance("cube", 2)
        s = build_slack(h, v)
        res = rescale(diagonal_embed(s), s)
        g = GridParams.for_slack(n=2, r=res.factorization.side, delta_eff=s.max_entry)
        system = build_rounded_system(h, res.factorization, g)
        obj = serialize.system_to_json(system)
        assert set(obj) == {"grid", "selected", "a", "b", "U"}
        assert obj["U"] == system.factors.tolist()
        system2 = serialize.system_from_json(obj)
        np.testing.assert_array_equal(system2.a, system.a)
        np.testing.assert_array_equal(system2.b, system.b)
        assert system2.grid.step == system.grid.step
        assert system2.selected == system.selected
        for a, b in zip(system2.factors, system.factors):
            np.testing.assert_array_equal(a, b)


class TestManifest:
    def test_hash_stable(self, tmp_path):
        p = tmp_path / "y.bin"
        p.write_bytes(b"abc123")
        assert serialize.sha256_file(p) == serialize.sha256_file(p)
