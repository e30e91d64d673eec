import numpy as np
import pytest

from psdfact import serialize
from psdfact.errors import PreconditionError
from psdfact.factorization import diagonal_embed
from psdfact.polytopes import build_slack, builtin_instance
from psdfact.rescaling import rescale
from psdfact.rounding import GridParams, build_rounded_system

from helpers import random_symmetric, rng


class TestMatrixJson:
    def test_roundtrip(self):
        m = random_symmetric(rng(1), 4)
        back = serialize.matrix_from_json(serialize.matrix_to_json(m))
        np.testing.assert_array_equal(back, m)

    def test_schema_fields(self):
        obj = serialize.matrix_to_json(np.eye(2))
        assert obj == {"side": 2, "entries": [1.0, 0.0, 0.0, 1.0]}

    def test_payload_size_checked(self):
        with pytest.raises(PreconditionError):
            serialize.matrix_from_json({"side": 2, "entries": [1.0, 2.0]})


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
        np.testing.assert_array_equal(s2.as_float(), s.as_float())
        assert s2.h is not None
        np.testing.assert_array_equal(s2.h.a, s.h.a)

    def test_factorization_roundtrip(self):
        s = build_slack(*builtin_instance("cube", 2))
        f = diagonal_embed(s)
        f2 = serialize.factorization_from_json(serialize.factorization_to_json(f))
        assert f2.side == f.side
        for a, b in zip(f2.row_factors, f.row_factors):
            np.testing.assert_array_equal(a, b)

    def test_system_roundtrip(self):
        h, v = builtin_instance("cube", 2)
        s = build_slack(h, v)
        res = rescale(diagonal_embed(s), s)
        g = GridParams.for_slack(n=2, r=res.factorization.side, delta_eff=s.max_entry)
        system = build_rounded_system(h, res.factorization, g)
        system2 = serialize.system_from_json(serialize.system_to_json(system))
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
