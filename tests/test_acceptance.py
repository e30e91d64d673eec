"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; any assertion failure marks the criterion red.
"""

import itertools
import math
import time

import numpy as np
import pytest

from psdfact import symmat
from psdfact.bounds import polygon_params_report, worst_case_coeff_bound, xc01_lower_bound
from psdfact.derivatives import dplus_opnorm_additive, dplus_opnorm_congruence
from psdfact.factorization import PsdFactorization, diagonal_embed, verify_factorization
from psdfact.pipeline import PipelineConfig, _unbalance_congruence, run_pipeline
from psdfact.polytopes import SlackMatrix, build_slack, builtin_instance, enumerate_01_vertices
from psdfact.rescaling import john_decompose, rescale
from psdfact.rounding import (REJECTED, GridParams, build_rounded_system, grid_delta, reconstruct,
                              round_factor)

from helpers import (loop_from_input, loop_from_mean, random_orthogonal, random_psd_with_gap,
                     random_symmetric, rng)


def rescale_suite():
    """The fixed instance suite for the rescaling guarantee."""
    cases = []
    for name, n in [("cube", 2), ("cube", 3), ("simplex", 2), ("simplex", 3),
                    ("crosspoly_01", 3)]:
        s = build_slack(*builtin_instance(name, n))
        cases.append((f"{name}-n{n}", diagonal_embed(s), s))
    gen = rng(2024)
    for k in range(20):
        m = int(gen.integers(1, 9))
        n = int(gen.integers(1, 9))
        entries = gen.integers(0, 10, size=(m, n)).astype(float)
        if entries.max() == 0:
            entries[0, 0] = 1.0
        s = SlackMatrix(entries)
        cases.append((f"random-{k}", diagonal_embed(s), s))
    adv = PsdFactorization.from_factors(
        [np.diag([100.0, 0.0])], [np.diag([0.01, 5.0])]
    )
    cases.append(("adversarial-2x2", adv, SlackMatrix(np.array([[1.0]]))))
    return cases


@pytest.fixture(scope="module")
def rescale_results():
    out = []
    for label, f, s in rescale_suite():
        t0 = time.perf_counter()
        res = rescale(f, s)
        out.append((label, f, s, res, time.perf_counter() - t0))
    return out


def test_criterion_1_rescaling_guarantee(rescale_results):
    worst_ratio = 0.0
    for label, _, s, res, elapsed in rescale_results:
        target = math.sqrt(res.reduced_dim * s.max_entry) * 1.05
        assert res.certificate, f"{label}: certificate false"
        assert res.lmax_u <= target, f"{label}: lmax_u {res.lmax_u} > {target}"
        assert res.lmax_v <= target, f"{label}: lmax_v {res.lmax_v} > {target}"
        assert res.iterations <= 500, f"{label}: {res.iterations} iterations"
        assert elapsed < 10.0, f"{label}: {elapsed:.1f}s"
        if target > 0:
            worst_ratio = max(worst_ratio, res.lmax_u / target, res.lmax_v / target)
    print(f"\n[acceptance 1] rescaling guarantee lmax <= sqrt(d*Delta)*1.05 on "
          f"{len(rescale_results)} instances: PASS (worst lmax/target {worst_ratio:.3f})")


def test_criterion_2_factorization_preservation(rescale_results):
    worst = 0.0
    for label, _, s, res, _ in rescale_results:
        rep = verify_factorization(res.factorization, s, tol=1e-8)
        bound = 1e-8 * (1.0 + s.max_entry)
        assert rep.max_abs_residual <= bound, (
            f"{label}: residual {rep.max_abs_residual} > {bound}"
        )
        worst = max(worst, rep.max_abs_residual)
    print(f"[acceptance 2] factorization preservation <= 1e-8*(1+Delta): PASS "
          f"(worst residual {worst:.3g})")


def test_criterion_3_derivative_lemmas():
    gen = rng(7)
    eps = 1e-6
    worst = 0.0
    for _ in range(200):
        gap = 0.1 + 0.8 * gen.random()
        top = 0.2 + 0.8 * gen.random()
        x = random_psd_with_gap(gen, 6, gap=gap * top, top=top)
        z = random_symmetric(gen, 6)
        z /= max(symmat.operator_norm(z), 1e-12)
        tol = 1e-4 / (gap * top)

        analytic = dplus_opnorm_additive(x, z)
        fd = (symmat.operator_norm(x + eps * z) - symmat.operator_norm(x)) / eps
        assert abs(fd - analytic) <= tol
        worst = max(worst, abs(fd - analytic))

        analytic_c = dplus_opnorm_congruence(x, z)
        e = symmat.matrix_exponential(eps * z)
        fd_c = (symmat.operator_norm(e @ x @ e) - symmat.operator_norm(x)) / eps
        assert abs(fd_c - analytic_c) <= tol
        worst = max(worst, abs(fd_c - analytic_c))

        relation = dplus_opnorm_additive(x, x @ z + z @ x)
        assert abs(analytic_c - relation) <= 1e-8
    print(f"[acceptance 3] derivative lemmas, 200 gapped pairs: PASS "
          f"(worst FD deviation {worst:.3g})")


def test_criterion_4_john_identity():
    # every decomposition emitted inside rescale() is validated at source
    # (john_decompose raises if the identity or boundary checks fail), so
    # criterion 1 running green covers the emitted ones; the standalone
    # examples are checked explicitly here.
    checks = []

    jd = john_decompose([[1.0, 0.0], [-1.0, 0.0]])
    assert jd.dim == 1 and np.allclose(jd.weights, [1.0])
    checks.append(np.linalg.norm(
        jd.moment_matrix() - jd.ellipsoid_map @ jd.ellipsoid_map.T / jd.dim))

    jd = john_decompose([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert np.allclose(sorted(jd.weights), [0.5, 0.5], atol=1e-7)
    assert np.allclose(jd.moment_matrix(), np.eye(2) / 2.0, atol=1e-7)
    checks.append(np.linalg.norm(
        jd.moment_matrix() - jd.ellipsoid_map @ jd.ellipsoid_map.T / jd.dim))

    angles = np.arange(40) * (2.0 * np.pi / 40.0)
    jd = john_decompose(np.stack([np.cos(angles), np.sin(angles)], axis=1))
    assert np.allclose(jd.moment_matrix(), np.eye(2) / 2.0, atol=1e-3)
    checks.append(np.linalg.norm(
        jd.moment_matrix() - jd.ellipsoid_map @ jd.ellipsoid_map.T / jd.dim))

    for gap in checks:
        assert gap <= 1e-6
    assert abs(jd.weights.sum() - 1.0) <= 1e-9
    print(f"[acceptance 4] John identity sum p zz^T = TT^T/k: PASS "
          f"(worst standalone gap {max(checks):.3g}; emitted ones validated in-loop)")


def test_criterion_5_rounding_bound():
    total = 0
    for r in (2, 3, 4):
        for scale in (1.0, 0.1):
            gen = rng(1000 + 10 * r + int(scale * 10))
            g = GridParams(n=3, r=r, delta=grid_delta(3, r) * scale, big_delta=1.0)
            bound = 4.0 * g.delta * r**2 / math.sqrt(g.big_delta)
            for _ in range(100):
                b = gen.standard_normal((r, r))
                u = b @ b.T / r
                u *= gen.random() * math.sqrt(r * g.big_delta) / max(
                    symmat.operator_norm(u), 1e-12)
                err = float(np.linalg.norm(round_factor(u, g) - u))
                assert err <= bound, f"r={r} scale={scale}: {err} > {bound}"
                total += 1
    print(f"[acceptance 5] rounding error <= 4*delta*r^2/sqrt(Delta) on {total} "
          f"matrices: PASS (0 violations)")


@pytest.fixture(scope="module")
def pipeline_results():
    out = {}
    for instance, n in [("cube", 2), ("simplex", 3), ("point", 2), ("crosspoly_01", 3)]:
        t0 = time.perf_counter()
        rep = run_pipeline(instance, n, PipelineConfig(seed=0))
        out[(instance, n)] = (rep, time.perf_counter() - t0)
    return out


def test_criterion_6_end_to_end_reconstruction(pipeline_results):
    for (instance, n), (rep, elapsed) in pipeline_results.items():
        assert rep["verdict"] == "match", f"{instance} n={n}: {rep['verdict']}"
        assert rep["stages"]["reconstruct"]["inconclusive"] == []
        assert elapsed < 60.0, f"{instance} n={n}: {elapsed:.1f}s"
    times = ", ".join(f"{k[0]} n={k[1]} {v[1]:.2f}s" for k, v in pipeline_results.items())
    print(f"[acceptance 6] end-to-end reconstruction X-bar = X: PASS ({times})")


def test_criterion_7_bound_calculators():
    xc = 2.0 ** xc01_lower_bound(16).log2_value
    assert 4.25 <= xc <= 4.35

    assert grid_delta(2, 2) == 1.0 / 768.0

    for n in range(1, 13):
        rep = worst_case_coeff_bound(n)
        exact = math.log2((n + 1) ** (n + 1)) / 2.0
        assert abs(rep.log2_value - exact) <= 1e-12 * max(exact, 1.0)

    for d in (4, 8):
        p = polygon_params_report(d).extras
        assert p["N"] == 4 * d * d
        assert p["box"] == [2 * d, 4 * d * d]
    print(f"[acceptance 7] bound calculators: PASS (xc01(16) = {xc:.4f}, "
          f"grid_delta(2,2) = 1/768, coeff log2 exact through n=12, polygon boxes ok)")


def test_criterion_8_determinism(rescale_results, pipeline_results):
    for label, f, s, res, _ in rescale_results:
        res2 = rescale(f, s)
        assert res2.certificate == res.certificate, label
        assert res2.iterations == res.iterations, label
        np.testing.assert_array_equal(
            np.asarray(res2.phi_trajectory), np.asarray(res.phi_trajectory), err_msg=label
        )
    for (instance, n), (rep, _) in pipeline_results.items():
        rep2 = run_pipeline(instance, n, PipelineConfig(seed=0))
        assert rep2["verdict"] == rep["verdict"]
        assert rep2["stages"]["reconstruct"] == rep["stages"]["reconstruct"]
        if not rep["stages"]["rescale"].get("skipped", False):
            assert (rep2["stages"]["rescale"]["iterations"]
                    == rep["stages"]["rescale"]["iterations"])
            assert (rep2["stages"]["rescale"]["certificate"]
                    == rep["stages"]["rescale"]["certificate"])
    print("[acceptance 8] determinism under fixed seed: PASS "
          "(identical certificates, iteration counts, verdicts)")


# Every instance the plain pipeline reconstructs, and the oracle iterations
# its rejections take.  On crosspoly_01 n=2 the violated sum rows are
# combinations of the three selected rows, so no single row certifies
# rejection and projected gradient still runs.
ONE_ROW_SWEEPS = {("cube", n): 1 for n in (1, 2, 3, 4)}
ONE_ROW_SWEEPS.update({("simplex", n): 1 for n in (1, 2, 3, 4)})
ONE_ROW_SWEEPS.update({("crosspoly_01", 2): 2, ("crosspoly_01", 3): 1, ("segment", 1): 1,
                       ("point", 1): 1, ("point", 2): 1})


def test_criterion_9_single_row_rejection(monkeypatch):
    rejected = 0
    for (instance, n), iterations in ONE_ROW_SWEEPS.items():
        rep = run_pipeline(instance, n)
        rec = rep["stages"]["reconstruct"]
        h, _ = builtin_instance(instance, n)
        vertices = sorted(enumerate_01_vertices(h).points.tolist())
        cube = [list(p) for p in itertools.product((0, 1), repeat=n)]
        assert sorted(rec["accepted"]) == vertices, f"{instance} n={n}"
        assert sorted(rec["rejected"]) == [p for p in cube if p not in vertices]
        for entry in rec["points"]:
            if entry["verdict"] == "rejected":
                assert entry["iterations"] == iterations, f"{instance} n={n}: {entry}"
                rejected += 1
    # Warm-started vertices are decided by their witnesses, so the sweep
    # values no dual, single-row or hinge: the one eigvalsh re-validates
    # the witnesses.
    h, v = builtin_instance("cube", 3)
    s = build_slack(h, v)
    f = rescale(diagonal_embed(s), s).factorization
    system = build_rounded_system(h, f, GridParams.for_slack(n=3, r=f.side, delta_eff=s.max_entry))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    assert len(reconstruct(system, warm_starts=(v.points, f.col_factors)).accepted) == 8
    assert len(calls) == 1
    print(f"[acceptance 9] single-row rejection on {len(ONE_ROW_SWEEPS)} instances: PASS "
          f"({rejected} rejections, 1 eigvalsh on the warm cube n=3 sweep)")


def test_rejections_are_certified_by_one_selected_row(monkeypatch):
    # The one-row duals are tried before any hinge dual, so every point that
    # one of them rejects keeps it: lambda = +-e_k, and every row of the
    # system is a selected row.  On crosspoly_01 n=2 no single row rejects,
    # as ONE_ROW_SWEEPS says.
    sweeps = []

    def recording(system, warm_starts=None):
        report = reconstruct(system, warm_starts)
        sweeps.append((system, report))
        return report

    monkeypatch.setattr("psdfact.pipeline.reconstruct", recording)
    others, rejected = [], 0
    for instance, n in ONE_ROW_SWEEPS:
        if (instance, n) == ("crosspoly_01", 2):
            continue
        sweeps.clear()
        assert run_pipeline(instance, n)["verdict"] == "match"
        [(system, report)] = sweeps
        assert report.duals.shape[1] == system.n_rows == len(system.selected)
        for k in np.flatnonzero(report.codes == REJECTED):
            rows = np.flatnonzero(report.duals[k])
            rejected += 1
            if not (len(rows) == 1 and abs(report.duals[k, rows[0]]) == 1.0):
                others.append((instance, n, report.points[k].tolist()))
    assert rejected and not others


def test_cube4_pipeline_spectral_calls(monkeypatch):
    # Both sides of a factorization share one eigvalsh, the nonsingular
    # common space needs no eigh, rescale returns the factorization it
    # measured, the subsystem's rows are certified independent by one
    # eigvalsh of their Gram matrix, the factors are rounded entrywise
    # with no spectrum, and the rounding error norms are one batched
    # product.  In the sweep, zero duals take no spectrum.  Each
    # eigvalsh of the sweep measures one stack: the factors of the
    # single-row duals when the witnesses of iteration 1 leave points
    # open, the nonzero hinge duals of one iteration, the witnesses, and
    # the re-validated duals when one is nonzero.  Every contraction of
    # two factor stacks is a BLAS product, so einsum only values hinge
    # duals and re-validates: on these three every point is decided by a
    # witness or a single-row dual, so iteration 1 values no hinge dual
    # and the one einsum is re-validation's.
    calls = {"eigh": 0, "eigvalsh": 0, "svd": 0, "norm": 0, "einsum": 0}
    for name in calls:
        module = np if name == "einsum" else np.linalg
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    expected = {("cube", 4): {"eigh": 1, "eigvalsh": 4, "svd": 0, "norm": 0, "einsum": 1},
                ("simplex", 4): {"eigh": 1, "eigvalsh": 6, "svd": 0, "norm": 0, "einsum": 1},
                ("segment", 1): {"eigh": 1, "eigvalsh": 4, "svd": 0, "norm": 0, "einsum": 1}}
    for (instance, n), want in expected.items():
        calls.update(dict.fromkeys(calls, 0))
        assert run_pipeline(instance, n)["verdict"] == "match"
        assert calls == want, (instance, n)


def test_cube4_rescale_work_per_call(monkeypatch):
    # The mean start's stacks are validated once, when its congruence
    # builds them, and are balanced in place; the side averages of exactly
    # symmetric stacks need no symmetrizing; the transform stays factored.
    # What is left: the symmetrizing in mean_congruence, one eigvalsh of
    # the averages, the two eigh and the SVD of the mean congruence, and
    # one eigvalsh of the start.  The averages' top norms put tau above the
    # target, so the mean is sure to be tried and the input is measured in
    # that same eigvalsh, but only its factors whose Frobenius norm reaches
    # their side average's top norm: 10 of 24, so the two calls take
    # 2 + 24 + 10 matrices, where a full measurement of the input would add
    # 24 more.
    # The input start does none of the symmetrizing.
    s = build_slack(*builtin_instance("cube", 4))
    embedded = diagonal_embed(s)
    unbalanced = _unbalance_congruence(embedded, 1e4, 0)
    calls = {"PsdFactorization": 0, "as_symmetric": 0, "eigvalsh": 0, "matrices": 0, "eigh": 0,
             "svd": 0}

    for key, module, name in (("PsdFactorization", PsdFactorization, "__init__"),
                              ("as_symmetric", symmat, "as_symmetric"),
                              ("eigvalsh", np.linalg, "eigvalsh"), ("eigh", np.linalg, "eigh"),
                              ("svd", np.linalg, "svd")):
        original = getattr(module, name)

        def counting(*args, _key=key, _original=original, **kwargs):
            calls[_key] += 1
            if _key == "eigvalsh":
                calls["matrices"] += len(args[0])
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    res = rescale(unbalanced, s)
    assert res.diagnostics["start"] == "mean" and res.iterations == 0 and res.certificate
    assert calls == {"PsdFactorization": 1, "as_symmetric": 1, "eigvalsh": 2, "matrices": 36,
                     "eigh": 2, "svd": 1}
    calls.update(dict.fromkeys(calls, 0))
    res = rescale(embedded, s)
    assert res.diagnostics["start"] == "input" and res.iterations == 0 and res.certificate
    assert calls["as_symmetric"] == 0


@pytest.mark.parametrize("make, start, steps, built", [(loop_from_input, "input", 2, 5),
                                                       (loop_from_mean, "mean", 4, 7)])
def test_descent_loop_builds_one_factorization_per_step(make, start, steps, built, monkeypatch):
    # descent_step builds each winner balanced, so an accepted step makes one
    # factorization.  The other three: the mean start, tried on both inputs,
    # the balanced loop start and the epilogue's polar congruence, whose
    # stacks the result balances in place.
    f, s = make()
    calls = []
    original = PsdFactorization.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PsdFactorization, "__init__", counting)
    res = rescale(f, s)
    assert res.diagnostics["start"] == start and res.iterations == steps and res.certificate
    assert len(calls) == built
