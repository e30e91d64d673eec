import math

import pytest

from psdfact import bounds
from psdfact.errors import PreconditionError


class TestXc01LowerBound:
    def test_n16(self):
        rep = bounds.xc01_lower_bound(16)
        value = 2.0**rep.log2_value
        # direct arithmetic: 16 / (3*16*4)^(1/4)
        assert value == pytest.approx(16.0 / 192.0**0.25, rel=1e-12)
        assert 4.25 <= value <= 4.35

    def test_n4(self):
        value = 2.0 ** bounds.xc01_lower_bound(4).log2_value
        assert value == pytest.approx(2.0 / 24.0**0.25, rel=1e-12)
        assert value == pytest.approx(0.90, abs=5e-3)

    def test_n64(self):
        value = 2.0 ** bounds.xc01_lower_bound(64).log2_value
        assert value == pytest.approx(2.0**16 / (3 * 64 * 6) ** 0.25, rel=1e-12)

    def test_guard(self):
        with pytest.raises(PreconditionError):
            bounds.xc01_lower_bound(1)


class TestWorstCaseCoeff:
    def test_n3(self):
        assert bounds.worst_case_coeff_bound(3).log2_value == pytest.approx(4.0)

    def test_n7(self):
        assert bounds.worst_case_coeff_bound(7).log2_value == pytest.approx(12.0)

    def test_n15_comparison(self):
        rep = bounds.worst_case_coeff_bound(15)
        assert rep.log2_value == pytest.approx(32.0)
        assert rep.extras["n_log2_n"] == pytest.approx(15 * math.log2(15))
        assert rep.extras["le_n_log2_n"]

    def test_comparison_fails_below_n3(self):
        assert not bounds.worst_case_coeff_bound(2).extras["le_n_log2_n"]

    def test_log_domain_matches_big_integer_through_n12(self):
        for n in range(1, 13):
            rep = bounds.worst_case_coeff_bound(n)
            exact = math.log2((n + 1) ** (n + 1)) / 2.0
            assert abs(rep.log2_value - exact) <= 1e-12 * max(exact, 1.0)


class TestCountingCapacity:
    def test_n2_r1(self):
        rep = bounds.counting_capacity(2, 1)
        assert rep.extras["left_log2"] == pytest.approx(math.log2(2.0**4 - 1.0))
        # right side: 2 * (n+R^2+1)(n+R^2) * log2 Delta with Delta = 3^1.5
        expect = 2.0 * 4 * 3 * 1.5 * math.log2(3.0)
        assert rep.extras["right_log2"] == pytest.approx(expect, rel=1e-12)

    def test_n10_r4(self):
        rep = bounds.counting_capacity(10, 4)
        log2_delta = 5.5 * math.log2(11.0)
        expect = 2.0 * 27 * 26 * log2_delta
        assert rep.extras["right_log2"] == pytest.approx(expect, rel=1e-12)
        assert rep.extras["left_log2"] == pytest.approx(1024.0)

    def test_r0_degenerate_but_defined(self):
        rep = bounds.counting_capacity(3, 0)
        expect = 2.0 * 4 * 3 * bounds.worst_case_coeff_bound(3).log2_value
        assert rep.extras["right_log2"] == pytest.approx(expect, rel=1e-12)

    def test_records_o1_assumption(self):
        rep = bounds.counting_capacity(2, 1)
        assert any("o(1)" in a for a in rep.assumptions)

    def test_left_side_matches_exact_integers(self):
        # math.log2 of the exact integer 2^(2^n) - 1, rounded once; from
        # n = 10 on that is 2^n.
        for n in range(1, 21):
            rep = bounds.counting_capacity(n, 1)
            assert rep.extras["left_log2"] == math.log2(2 ** (2**n) - 1), n

    def test_largest_n_whose_left_side_is_a_float(self):
        rep = bounds.counting_capacity(1023, 1)
        assert rep.extras["left_log2"] == 2.0**1023
        with pytest.raises(PreconditionError, match="overflows a float") as exc:
            bounds.counting_capacity(1024, 1)
        assert exc.value.arg == "n"


class TestPolygon:
    def test_bound_d8(self):
        rep = bounds.polygon_bound(8)
        assert 2.0**rep.log2_value == pytest.approx((8.0 / 3.0) ** 0.25, rel=1e-12)
        assert 2.0**rep.log2_value == pytest.approx(1.278, abs=2e-3)
        assert any("constant-free" in a for a in rep.assumptions)

    def test_params_d4(self):
        p = bounds.polygon_params_report(4).extras
        assert p["N"] == 64
        assert p["box"] == [8, 64]

    def test_params_d8(self):
        p = bounds.polygon_params_report(8).extras
        assert p["N"] == 4 * 64
        assert p["box"] == [16, 256]

    def test_both_delta_readings_reported(self):
        rep = bounds.polygon_params_report(4)
        base = math.log2(12.0 * 16.0)
        assert rep.extras["delta_log2_general"] == pytest.approx(4 * base)
        assert rep.extras["delta_log2_quadratic"] == pytest.approx(2 * base)
        assert rep.log2_value == rep.extras["delta_log2_general"]


class TestReports:
    def test_every_report_carries_log_base_note(self):
        reps = [
            bounds.xc01_lower_bound(8),
            bounds.worst_case_coeff_bound(5),
            bounds.counting_capacity(4, 2),
            bounds.polygon_bound(16),
            bounds.polygon_params_report(5),
        ]
        for rep in reps:
            assert any("log2" in a for a in rep.assumptions)

    def test_decimal_rendering_below_64_bits(self):
        assert bounds.worst_case_coeff_bound(3).decimal == "16"
        assert bounds.counting_capacity(10, 4).decimal is None
