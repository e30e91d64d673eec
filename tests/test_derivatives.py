import numpy as np
import pytest

from psdfact import symmat
from psdfact.derivatives import dplus_opnorm_additive, dplus_opnorm_congruence
from psdfact.errors import PreconditionError

from helpers import random_orthogonal, random_psd_with_gap, random_symmetric, rng


def fd_slope_additive(x, z, eps):
    return (symmat.operator_norm(x + eps * z) - symmat.operator_norm(x)) / eps


def fd_slope_congruence(x, z, eps):
    e = symmat.matrix_exponential(eps * z)
    return (symmat.operator_norm(e @ x @ e) - symmat.operator_norm(x)) / eps


class TestAdditive:
    def test_simple_eigenspace(self):
        assert dplus_opnorm_additive(np.diag([2.0, 1.0]), np.diag([5.0, -3.0])) == pytest.approx(5.0)

    def test_identity_base(self):
        z = random_symmetric(rng(1), 4)
        expect = float(np.max(np.linalg.eigvalsh(z)))
        assert dplus_opnorm_additive(np.eye(4), z) == pytest.approx(expect, rel=1e-12)

    def test_matches_finite_differences(self):
        gen = rng(2)
        for _ in range(20):
            x = random_psd_with_gap(gen, 5, gap=0.5)
            z = random_symmetric(gen, 5)
            z /= max(symmat.operator_norm(z), 1e-12)
            analytic = dplus_opnorm_additive(x, z)
            assert abs(fd_slope_additive(x, z, 1e-6) - analytic) <= 1e-4

    def test_zero_matrix_rejected(self):
        with pytest.raises(PreconditionError):
            dplus_opnorm_additive(np.zeros((2, 2)), np.eye(2))

    def test_not_psd_rejected(self):
        with pytest.raises(PreconditionError):
            dplus_opnorm_additive(np.diag([1.0, -1.0]), np.eye(2))

    def test_degenerate_top_eigenvalue(self):
        # exactly repeated top eigenvalue: derivative sees the 2-dim cluster
        gen = rng(3)
        for _ in range(10):
            q = random_orthogonal(gen, 4)
            x = symmat.as_symmetric((q * [3.0, 3.0, 1.0, 0.5]) @ q.T)
            z = random_symmetric(gen, 4)
            basis = q[:, :2]
            expect = float(np.max(np.linalg.eigvalsh(
                symmat.as_symmetric(basis.T @ z @ basis))))
            assert dplus_opnorm_additive(x, z) == pytest.approx(expect, abs=1e-7)


class TestCongruence:
    def test_diagonal_formula(self):
        # top eigenspace is e1; derivative = 2 * lambda1 * z11 = 4 z1
        for z1, z2 in [(0.7, -0.3), (-1.2, 2.0)]:
            got = dplus_opnorm_congruence(np.diag([2.0, 1.0]), np.diag([z1, z2]))
            assert got == pytest.approx(4.0 * z1)

    def test_zero_direction(self):
        assert dplus_opnorm_congruence(np.diag([2.0, 1.0]), np.zeros((2, 2))) == 0.0

    def test_matches_finite_differences(self):
        gen = rng(4)
        for _ in range(20):
            x = random_psd_with_gap(gen, 5, gap=0.5)
            z = random_symmetric(gen, 5)
            z /= max(symmat.operator_norm(z), 1e-12)
            analytic = dplus_opnorm_congruence(x, z)
            assert abs(fd_slope_congruence(x, z, 1e-6) - analytic) <= 1e-4

    def test_relation_to_additive(self):
        # congruence derivative equals the additive derivative along XZ + ZX
        gen = rng(5)
        for _ in range(20):
            x = random_psd_with_gap(gen, 4, gap=0.3)
            z = random_symmetric(gen, 4)
            lhs = dplus_opnorm_congruence(x, z)
            rhs = dplus_opnorm_additive(x, x @ z + z @ x)
            assert abs(lhs - rhs) <= 1e-8
