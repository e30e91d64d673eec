"""The chain's verdicts commute with the symmetries of {0,1}^n and with row and point order.

A symmetry of the cube is a signed coordinate permutation x -> M x + s,
M = D P with P a permutation and D a diagonal of signs, and s the 0/1
vector that is 1 where D is -1.  It maps the polytope a x <= b onto
(a M^T) y <= b + (a M^T) s and each vertex x onto M x + s, and keeps the
integers integral.  Each run maps a grid builtin by a seeded symmetry,
shuffles its rows and its points, and runs the stages as ``run_pipeline``
does, plain and after a 1e4 congruence.  The accepted and rejected lists
must be the builtin's own, mapped, with no point inconclusive, and the
rescale stage's reduced dimension, certificate and start the builtin's
own.  The number of selected rows is not compared: under a congruence it
can turn on round-off.
"""

import numpy as np
import pytest

from psdfact.factorization import diagonal_embed
from psdfact.pipeline import _unbalance_congruence
from psdfact.polytopes import HPolytope, VPolytope, build_slack, builtin_instance
from psdfact.rescaling import rescale
from psdfact.rounding import GridParams, build_rounded_system, reconstruct

import grid_fixture

MAPS = 5


def outcome(h, v, unbalanced):
    """The accepted and rejected lists of the chain that ``run_pipeline`` runs, and its
    rescale stage's reduced dimension, certificate and start."""
    s = build_slack(h, v)
    f = diagonal_embed(s)
    if unbalanced:
        f = _unbalance_congruence(f, 1e4, 0)
    res = rescale(f, s)
    working = res.factorization
    grid = GridParams.for_slack(n=h.dim, r=working.side, delta_eff=s.max_entry)
    report = reconstruct(build_rounded_system(h, working, grid),
                         warm_starts=(v.points, working.col_factors))
    assert report.complete
    return (report.accepted, report.rejected,
            (res.reduced_dim, res.certificate, res.diagnostics["start"]))


def random_symmetry(gen, n):
    """A signed permutation M and its shift s, so that x -> M x + s maps {0,1}^n onto itself."""
    signs = gen.choice([-1, 1], size=n)
    return signs[:, None] * np.eye(n, dtype=np.int64)[gen.permutation(n)], (signs < 0).astype(int)


@pytest.mark.parametrize("unbalanced", [False, True], ids=["plain", "u1e4"])
@pytest.mark.parametrize("instance,n", grid_fixture.GRID_INSTANCES,
                         ids=[f"{name}-{n}" for name, n in grid_fixture.GRID_INSTANCES])
def test_verdicts_map_under_cube_symmetries(instance, n, unbalanced):
    h, v = builtin_instance(instance, n)
    accepted, rejected, rescaled = outcome(h, v, unbalanced)
    gen = np.random.default_rng([grid_fixture.GRID_INSTANCES.index((instance, n)), unbalanced])
    for _ in range(MAPS):
        m, shift = random_symmetry(gen, h.dim)
        a = h.a @ m.T
        rows = gen.permutation(h.n_rows)
        mapped_h = HPolytope(a=a[rows], b=(h.b + a @ shift)[rows])
        mapped_v = VPolytope((v.points @ m.T + shift)[gen.permutation(v.n_points)])

        def mapped(points):
            return sorted((np.reshape(points, (-1, h.dim)) @ m.T + shift).tolist())

        assert outcome(mapped_h, mapped_v, unbalanced) == (
            mapped(accepted), mapped(rejected), rescaled)
