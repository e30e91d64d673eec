import argparse
import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import psdfact
from psdfact import cli, pipeline, serialize
from psdfact.cli import DERIVATIVES_MAX_COST, FORMULAS, build_parser, main
from psdfact.errors import NumericError
from psdfact.factorization import FIT_MAX_SIDE, VERIFY_TOL, PsdFactorization, diagonal_embed
from psdfact.pipeline import _unbalance_congruence
from psdfact.polytopes import SlackMatrix, build_slack, builtin_instance
from psdfact.rescaling import DESCENT_MAX_ITERS, rescale
from psdfact.rounding import GridParams, RoundedSystem, grid_delta

import grid_fixture
from helpers import loop_from_input, loop_from_mean, unbalanced_cube


# A system file's arrays, each with one entry per selected row.
SYSTEM_ROWS = ("a", "b", "U")
# A polytope file with no inequality: its slack matrix is 0 x 2.
ZERO_ROW_POLYTOPE = {"n": 1, "rows": [], "points": [[0], [1]]}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def child_env():
    """Environment in which a child ``python -m psdfact`` imports the same
    package as this process, installed or not."""
    src = str(Path(psdfact.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def unrescaled_system(tmp_path, instance, n):
    """Rounded system of an instance's diagonal embedding, written by the CLI."""
    slack, fact, system = (tmp_path / f for f in ("slack.json", "fact.json", "system.json"))
    assert main(["slack", "build", "--instance", instance, "--n", str(n),
                 "--out", str(slack)]) == 0
    assert main(["fact", "embed", "--slack", str(slack), "--out", str(fact)]) == 0
    assert main(["round", "run", "--slack", str(slack), "--fact", str(fact),
                 "--out", str(system)]) == 0
    return system


class TestSlack:
    def test_build_cube(self, capsys):
        code, rep = run_cli(["slack", "build", "--instance", "cube", "--n", "3"], capsys)
        assert code == 0
        assert rep["shape"] == [6, 8]
        assert rep["max_entry"] == 1.0
        assert "manifest" in rep

    def test_build_to_file(self, tmp_path, capsys):
        out = tmp_path / "slack.json"
        code, _ = run_cli(
            ["slack", "build", "--instance", "cube", "--n", "2", "--out", str(out)], capsys
        )
        assert code == 0
        assert json.loads(out.read_text())["shape"] == [4, 4]

    def test_unknown_instance_precondition_exit(self, capsys):
        code = main(["slack", "build", "--instance", "nope", "--n", "2"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: --instance nope: unknown instance 'nope'; choose from cube, ")

    def test_pipeline_names_an_unknown_instance(self, capsys):
        code = main(["pipeline", "--instance", "nope", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            "error: --instance nope: unknown instance 'nope'; choose from cube, ")


class TestFactAndRescale:
    @pytest.fixture()
    def square_files(self, tmp_path, capsys):
        slack = tmp_path / "slack.json"
        fact = tmp_path / "fact.json"
        assert main(["slack", "build", "--instance", "cube", "--n", "2",
                     "--out", str(slack)]) == 0
        assert main(["fact", "embed", "--slack", str(slack), "--out", str(fact)]) == 0
        capsys.readouterr()
        return slack, fact

    def test_verify(self, square_files, capsys):
        slack, fact = square_files
        code, rep = run_cli(["fact", "verify", "--slack", str(slack), "--fact", str(fact)], capsys)
        assert code == 0
        assert rep["passed"] is True
        assert rep["max_abs_residual"] == 0.0
        assert set(rep) == {"max_abs_residual", "residual_location", "lmax_u", "lmax_v",
                            "potential", "tol", "passed", "manifest"}

    def test_verify_mismatch_exits_1(self, square_files, tmp_path, capsys):
        slack, fact = square_files
        obj = json.loads(fact.read_text())
        obj["U"][0][0][0] += 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, rep = run_cli(["fact", "verify", "--slack", str(slack), "--fact", str(bad)], capsys)
        assert code == 1
        assert rep["passed"] is False

    def test_rescale_run_with_trace(self, square_files, tmp_path, capsys):
        slack, fact = square_files
        out = tmp_path / "res.json"
        trace = tmp_path / "trace.csv"
        code = main(["rescale", "run", "--slack", str(slack), "--fact", str(fact),
                     "--out", str(out), "--trace", str(trace)])
        capsys.readouterr()
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["certificate"] is True
        assert rep["iterations"] <= DESCENT_MAX_ITERS
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iteration,phi,lmax"
        assert len(lines) == len(rep["phi_trajectory"]) + 1

    @staticmethod
    def write_inputs(tmp_path, f, s):
        """Slack and factorization JSON files for ``rescale run``."""
        slack, fact = tmp_path / "slack.json", tmp_path / "fact.json"
        slack.write_text(json.dumps(serialize.slack_to_json(s)))
        fact.write_text(json.dumps(serialize.factorization_to_json(f)))
        return slack, fact

    def test_rescale_trace_on_descending_run(self, tmp_path, capsys):
        # The unbalanced square certifies at the mean start (row 1); from
        # the mean start the corner-diagonal input still takes loop steps.
        for k, (make, loop) in enumerate(((unbalanced_cube, False), (loop_from_mean, True))):
            f, s = make()
            slack, fact = self.write_inputs(tmp_path, f, s)
            out = tmp_path / f"res{k}.json"
            trace = tmp_path / f"trace{k}.csv"
            code = main(["rescale", "run", "--slack", str(slack), "--fact", str(fact),
                         "--out", str(out), "--trace", str(trace)])
            capsys.readouterr()
            assert code == 0
            rep = json.loads(out.read_text())
            assert (rep["iterations"] > 0) == loop
            assert rep["diagnostics"]["start"] == "mean"
            with open(trace, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 2 + rep["iterations"]
            assert [int(row["iteration"]) for row in rows] == list(range(len(rows)))
            assert [float(row["phi"]) for row in rows] == rep["phi_trajectory"]
            phis = [float(row["phi"]) for row in rows]
            assert all(b < a for a, b in zip(phis, phis[1:]))
            for row in rows:
                assert float(row["lmax"]) ** 2 == pytest.approx(float(row["phi"]), rel=1e-9)
            # the CLI runs rescale as the library does, so the library call
            # reproduces the same trajectory
            res = rescale(f, s)
            assert [float(row["lmax"]) for row in rows] == [max(p) for p in res.lmax_trajectory]

    def test_rescale_run_is_deterministic(self, tmp_path, capsys):
        s = build_slack(*builtin_instance("cube", 3))
        cube = _unbalance_congruence(diagonal_embed(s), 1e3, 0), s
        # The cube certifies at the mean start; the two-row input takes loop steps.
        for (f, s), loop in ((cube, False), (loop_from_input(), True)):
            slack, fact = self.write_inputs(tmp_path, f, s)
            # One --out path, so the manifest's command line is the same too.
            out = tmp_path / "res.json"
            texts = []
            for _ in range(2):
                assert main(["rescale", "run", "--slack", str(slack), "--fact", str(fact),
                             "--out", str(out)]) == 0
                texts.append(out.read_text())
            capsys.readouterr()
            assert (json.loads(texts[0])["iterations"] > 0) == loop
            first, second = ([line for line in text.splitlines() if '"wall_time_s"' not in line]
                             for text in texts)
            assert first == second

    def test_fit_small(self, tmp_path, capsys):
        slack = tmp_path / "s.json"
        assert main(["slack", "build", "--instance", "point", "--n", "1",
                     "--out", str(slack)]) == 0
        code, rep = run_cli(["fact", "fit", "--slack", str(slack), "--r", "1"], capsys)
        assert code == 0
        assert rep["found"] is True
        assert rep["residual"] <= VERIFY_TOL and rep["steps"] >= 1

    def test_fit_not_found_reports_residual_and_steps(self, tmp_path, capsys):
        # The unit square has PSD rank 3; side 2 passes the rank bound and fails.
        slack = tmp_path / "s.json"
        assert main(["slack", "build", "--instance", "cube", "--n", "2",
                     "--out", str(slack)]) == 0
        code, rep = run_cli(["fact", "fit", "--slack", str(slack), "--r", "2"], capsys)
        assert code == 1
        assert rep["found"] is False
        assert rep["residual"] > 0.1 and rep["steps"] >= 1
        assert rep["reason"].startswith("stalled")

    def test_fit_below_the_rank_bound_is_refused(self, tmp_path, capsys):
        # No side-1 PSD factorization of the 2 x 2 identity exists.
        slack = tmp_path / "s.json"
        slack.write_text(json.dumps({"shape": [2, 2], "entries": [[1.0, 0.0], [0.0, 1.0]]}))
        code, rep = run_cli(["fact", "fit", "--slack", str(slack), "--r", "1"], capsys)
        assert code == 1
        assert rep["found"] is False
        assert rep["residual"] is None and rep["steps"] == 0
        assert "rank S = 2" in rep["reason"]

    def test_fit_output_passes_verify(self, tmp_path, capsys):
        # The loader refuses factors that are not exactly symmetric, so fit
        # must write exactly symmetric ones.
        slack, fact = tmp_path / "s.json", tmp_path / "f.json"
        assert main(["slack", "build", "--instance", "cube", "--n", "2",
                     "--out", str(slack)]) == 0
        assert main(["fact", "fit", "--slack", str(slack), "--r", "3", "--out", str(fact)]) == 0
        code, rep = run_cli(["fact", "verify", "--slack", str(slack), "--fact", str(fact)],
                            capsys)
        assert code == 0
        assert rep["passed"] is True


class TestLoaderErrors:
    """Every JSON loader maps a bad file to exit code 2 without a traceback."""

    @pytest.fixture()
    def files(self, tmp_path):
        slack = tmp_path / "slack.json"
        fact = tmp_path / "fact.json"
        assert main(["slack", "build", "--instance", "cube", "--n", "2",
                     "--out", str(slack)]) == 0
        assert main(["fact", "embed", "--slack", str(slack), "--out", str(fact)]) == 0
        truncated = tmp_path / "truncated.json"
        truncated.write_text(fact.read_text()[:40])
        return {"slack": slack, "fact": fact, "truncated": truncated,
                "missing": tmp_path / "missing.json"}

    # loader: (argv, a file of the wrong kind, the flag the error names)
    COMMANDS = {
        "slack": (["fact", "embed", "--slack", "{bad}"], "fact", "--slack"),
        "fact": (["fact", "verify", "--slack", "{slack}", "--fact", "{bad}"], "slack", "--fact"),
        "system": (["reconstruct", "--system", "{bad}"], "slack", "--system"),
        "polytope": (["slack", "build", "--file", "{bad}"], "fact", "--file"),
    }

    @pytest.mark.parametrize("loader", sorted(COMMANDS))
    @pytest.mark.parametrize("defect", ["missing", "truncated", "wrong-kind"])
    def test_bad_file_exits_2(self, files, loader, defect, capsys):
        argv, wrong_kind, flag = self.COMMANDS[loader]
        bad = files[wrong_kind if defect == "wrong-kind" else defect]
        code = main([a.format(bad=bad, slack=files["slack"]) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert err.startswith(f"error: {flag} {bad}: ")

    @pytest.fixture()
    def non_psd_fact(self, files, tmp_path):
        # 5 (e0 e1^T + e1 e0^T) leaves every <U_0, V^j> with diagonal V^j as it was
        # and makes U_0 indefinite.
        obj = json.loads(files["fact"].read_text())
        obj["U"][0][0][1] += 5.0
        obj["U"][0][1][0] += 5.0
        path = tmp_path / "non_psd.json"
        path.write_text(json.dumps(obj))
        return path

    NON_PSD = {
        "fact-verify": ["fact", "verify", "--slack", "{slack}", "--fact", "{bad}"],
        "rescale-run": ["rescale", "run", "--slack", "{slack}", "--fact", "{bad}"],
        "round-run": ["round", "run", "--slack", "{slack}", "--fact", "{bad}"],
    }

    @pytest.mark.parametrize("case", sorted(NON_PSD))
    def test_non_psd_factor_exits_2(self, files, non_psd_fact, case, capsys):
        argv = [a.format(bad=non_psd_fact, slack=files["slack"]) for a in self.NON_PSD[case]]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert "row factor 0" in err

    @pytest.fixture()
    def asymmetric_fact(self, files, tmp_path):
        # Only entry (0, 1) of U_0 changes.  eigvalsh reads the lower triangle,
        # where U_0 is still PSD, but the symmetric part [[1, 2.5], [2.5, 0]]
        # that the program would use is not.
        obj = json.loads(files["fact"].read_text())
        obj["U"][0][0][1] = 5.0
        path = tmp_path / "asymmetric.json"
        path.write_text(json.dumps(obj))
        return path

    @pytest.mark.parametrize("case", sorted(NON_PSD))
    def test_asymmetric_factor_exits_2(self, files, asymmetric_fact, case, capsys):
        argv = [a.format(bad=asymmetric_fact, slack=files["slack"]) for a in self.NON_PSD[case]]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert "row factor 0 is not exactly symmetric" in err

    # case: (how the rounded cube n=2 system is spoilt, what the error says).
    # The system holds its 4 selected rows, one in each of its arrays a
    # (4, 2), b (4,) and U (4, 4, 4); n + r^2 = 2 + 4^2 = 18.
    INCONSISTENT_SYSTEMS = {
        "grid-r": (lambda obj: dict(obj, grid=dict(obj["grid"], r=3)),
                   "malformed field 'U': ValueError('shape (4, 4, 4), expected (4, 3, 3)')"),
        "a-length": (lambda obj: dict(obj, a=[row + [1.0] for row in obj["a"]]),
                     "malformed field 'a': ValueError('shape (4, 3), expected (4, 2)')"),
        "ragged-a": (lambda obj: dict(obj, a=[obj["a"][0] + [1.0]] + obj["a"][1:]),
                     "malformed field 'a': ValueError('nested lists of unequal lengths')"),
        "cut-rows": (lambda obj: dict(obj, **{key: obj[key][:3] for key in SYSTEM_ROWS}),
                     "malformed field 'a': ValueError('shape (3, 2), expected (4, 2)')"),
        "selected-too-long": (lambda obj: dict(obj, selected=obj["selected"] + [0]),
                              "malformed field 'a': ValueError('shape (4, 2), expected (5, 2)')"),
        "selected-missing": (lambda obj: {k: v for k, v in obj.items() if k != "selected"},
                             "missing field 'selected'"),
        # The zero rows that padded every system to n + r^2 rows.
        "padded": (lambda obj: dict(obj, a=obj["a"] + [[0.0] * 2] * 14, b=obj["b"] + [0.0] * 14,
                                    U=obj["U"] + [[[0.0] * 4] * 4] * 14),
                   "malformed field 'a': ValueError('shape (18, 2), expected (4, 2)')"),
        "above-n-plus-r2": (
            lambda obj: dict(obj, **{key: obj[key] * 5 for key in SYSTEM_ROWS + ("selected",)}),
            "has 20 rows, above n + r^2 = 18"),
        # These two reached the oracle, whose arithmetic made NaN or
        # overflowed, before the loader refused them.
        "infinite-Delta": (lambda obj: dict(obj, grid=dict(obj["grid"], Delta=float("inf"))),
                           "Delta must be finite"),
        "row-sum-overflow": (
            lambda obj: dict(obj, a=[[1e308, 1e308]] + obj["a"][1:], b=[0.0] + obj["b"][1:]),
            "row 0 of the rounded system has |b| + sum_j |a_j| beyond the float range"),
        **{f"Delta-{name}": (lambda obj, value=value: dict(obj, grid=dict(obj["grid"], Delta=value)),
                             "Delta must be positive")
           for name, value in (("zero", 0.0), ("negative", -1.0), ("nan", float("nan")))},
        # The witness cap sqrt(r Delta) was inf, and the oracle's inf * 0 a
        # RuntimeWarning, before every point was accepted.
        "Delta-times-r-overflow": (lambda obj: dict(obj, grid=dict(obj["grid"], Delta=1e308)),
                                   "r * Delta = 4 * 1e+308 below the float maximum"),
    }

    @pytest.mark.parametrize("case", sorted(INCONSISTENT_SYSTEMS))
    def test_inconsistent_system_exits_2(self, files, tmp_path, case, capsys):
        system = tmp_path / "system.json"
        assert main(["round", "run", "--slack", str(files["slack"]), "--fact", str(files["fact"]),
                     "--out", str(system)]) == 0
        spoil, phrase = self.INCONSISTENT_SYSTEMS[case]
        system.write_text(json.dumps(spoil(json.loads(system.read_text()))))
        capsys.readouterr()
        code = main(["reconstruct", "--system", str(system)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: --system {system}: ")
        assert phrase in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("words", [("rescale", "run"), ("round", "run")])
    @pytest.mark.parametrize("entry,residual", [(7.0, "6"), (1e308, "1e+308")])
    def test_factorization_missing_its_slack_matrix_exits_2(self, files, tmp_path, words, entry,
                                                            residual, capsys):
        # U_0 = entry e_0 e_0^T is PSD and exactly symmetric, and <U_0, V^j> =
        # entry S_0j.  round run took the 7, and reconstruct accepted every
        # point of the square; the 1e308 overflowed in its row selection.
        obj = json.loads(files["fact"].read_text())
        obj["U"][0][0][0] = entry
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        argv = ["--slack", str(files["slack"]), "--fact", str(bad)]
        assert main(["fact", "verify"] + argv) == 1
        capsys.readouterr()
        code = main(list(words) + argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: --fact {bad}: factorization does not reproduce the "
                                f"slack matrix (max residual {residual} above 2e-08)\n")

    # case: (argv with {bad}, the file it spoils, the path to an integer or
    # boolean field, the flag named, the JSON text put there).  JSON reads
    # 1e400 as inf.  The others were coerced: 2.9 to 2, true to 1, "false"
    # to True.
    INFINITE_INTEGERS = {
        "polytope-n": (["slack", "build", "--file", "{bad}"], "polytope", ["n"], "--file",
                       "1e400"),
        # A factorization file declares the side of every factor in its r.
        "matrix-side": (["fact", "verify", "--slack", "{slack}", "--fact", "{bad}"], "fact",
                        ["r"], "--fact", "1e400"),
        "system-grid-n": (["reconstruct", "--system", "{bad}"], "system",
                          ["grid", "n"], "--system", "1e400"),
        "polytope-n-fraction": (["slack", "build", "--file", "{bad}"], "polytope", ["n"],
                                "--file", "2.9"),
        "matrix-side-boolean": (["fact", "verify", "--slack", "{slack}", "--fact", "{bad}"],
                                "fact", ["r"], "--fact", "true"),
        "system-grid-r-fraction": (["reconstruct", "--system", "{bad}"], "system",
                                   ["grid", "r"], "--system", "2.5"),
        "system-n-fraction": (["reconstruct", "--system", "{bad}"], "system", ["grid", "n"],
                              "--system", "2.5"),
        "system-worst-case-string": (["reconstruct", "--system", "{bad}"], "system",
                                     ["grid", "worst_case"], "--system", '"false"'),
        "slack-shape-fraction": (["fact", "embed", "--slack", "{bad}"], "slack", ["shape"],
                                 "--slack", "[4, 3.5]"),
        "system-selected-negative": (["reconstruct", "--system", "{bad}"], "system",
                                     ["selected"], "--system", "[0, 1, 2, -1]"),
    }

    @staticmethod
    def spoilt(files, tmp_path, kind, path, value):
        """A copy of the cube n=2 file of ``kind`` with the JSON text ``value`` at ``path``."""
        sources = {"polytope": lambda: json.loads(files["slack"].read_text())["polytope"],
                   "slack": lambda: json.loads(files["slack"].read_text()),
                   "fact": lambda: json.loads(files["fact"].read_text())}
        if kind == "system":
            system = tmp_path / "system.json"
            assert main(["round", "run", "--slack", str(files["slack"]),
                         "--fact", str(files["fact"]), "--out", str(system)]) == 0
            sources["system"] = lambda: json.loads(system.read_text())
        obj = sources[kind]()
        field = obj
        for key in path[:-1]:
            field = field[key]
        field[path[-1]] = "HUGE"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj).replace('"HUGE"', value))
        return bad

    @pytest.mark.parametrize("case", sorted(INFINITE_INTEGERS))
    def test_infinite_integer_field_exits_2(self, files, tmp_path, case, capsys):
        argv, kind, path, flag, value = self.INFINITE_INTEGERS[case]
        bad = self.spoilt(files, tmp_path, kind, path, value)
        capsys.readouterr()
        code = main([a.format(bad=bad, slack=files["slack"]) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} {bad}: malformed field {path[-1]!r}")

    # case: (argv with {bad}, the file it spoils, the path to a number, the
    # flag and field named, the JSON text put there).  Each text reads as
    # the value already there, true as 1, and numpy coerced it: so each
    # file was loaded, and each command went on to exit 0.
    NON_NUMBERS = {
        "system-delta-string": (["reconstruct", "--system", "{bad}"], "system",
                                ["grid", "delta"], "--system", "delta", '"5.425347222222222e-05"'),
        "system-Delta-boolean": (["reconstruct", "--system", "{bad}"], "system",
                                 ["grid", "Delta"], "--system", "Delta", "true"),
        "system-a-string": (["reconstruct", "--system", "{bad}"], "system", ["a", 0],
                            "--system", "a", '["-1.0", "0.0"]'),
        "system-b-string": (["reconstruct", "--system", "{bad}"], "system", ["b", 0],
                            "--system", "b", '"0.0"'),
        "matrix-entry-string": (["fact", "verify", "--slack", "{slack}", "--fact", "{bad}"],
                                "fact", ["U", 1, 0, 0], "--fact", "U", '"0.0"'),
        "matrix-entry-boolean": (["fact", "verify", "--slack", "{slack}", "--fact", "{bad}"],
                                 "fact", ["U", 0, 0, 0], "--fact", "U", "true"),
        "slack-entry-string": (["fact", "embed", "--slack", "{bad}"], "slack", ["entries", 0, 0],
                               "--slack", "entries", '"0.0"'),
        "polytope-a-boolean": (["slack", "build", "--file", "{bad}"], "polytope",
                               ["rows", 2, "a", 0], "--file", "a", "true"),
        "polytope-b-boolean": (["slack", "build", "--file", "{bad}"], "polytope",
                               ["rows", 2, "b"], "--file", "b", "true"),
        "polytope-point-boolean": (["slack", "build", "--file", "{bad}"], "polytope",
                                   ["points", 1, 1], "--file", "points", "true"),
    }

    @pytest.mark.parametrize("case", sorted(NON_NUMBERS))
    def test_non_number_field_exits_2(self, files, tmp_path, case, capsys):
        argv, kind, path, flag, name, value = self.NON_NUMBERS[case]
        bad = self.spoilt(files, tmp_path, kind, path, value)
        capsys.readouterr()
        code = main([a.format(bad=bad, slack=files["slack"]) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} {bad}: malformed field {name!r}: ")
        assert "expected JSON numbers" in captured.err

    # case: (how the cube n=2 polytope is spoilt), each refused by slack build --file
    NON_INTEGER_POLYTOPES = {
        "fractional-a": lambda p: p["rows"][0].update(a=[1.5, 0]),
        "fractional-b": lambda p: p["rows"][2].update(b=1.9),
        "fractional-point": lambda p: p["points"].__setitem__(0, [0.7, 0]),
        "float-b-beyond-int64": lambda p: p["rows"][2].update(b=1e30),
        "int-b-beyond-int64": lambda p: p["rows"][2].update(b=10**23),
        "b-at-the-guard": lambda p: p["rows"][2].update(b=2.0**62),
    }

    @pytest.mark.parametrize("case", sorted(NON_INTEGER_POLYTOPES))
    def test_non_integer_polytope_exits_2(self, files, tmp_path, case, capsys):
        polytope = json.loads(files["slack"].read_text())["polytope"]
        self.NON_INTEGER_POLYTOPES[case](polytope)
        bad = tmp_path / "polytope.json"
        bad.write_text(json.dumps(polytope))
        capsys.readouterr()
        code = main(["slack", "build", "--file", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: --file {bad}: ")
        assert "must have integer entries of magnitude below 2^62" in captured.err

    # case: (how the cube n=2 slack file is spoilt, what the error says)
    CONTRADICTED_SLACKS = {
        "entry": (lambda obj: obj["entries"][0].__setitem__(0, 5.0),
                  "entry (0, 0) is 5.0, but the polytope's slack is 0.0"),
        "shape": (lambda obj: obj.update(shape=[1, 2], entries=[[0.0, 1.0]], polytope={
                      "n": 2, "rows": [{"a": [1, 0], "b": 1}], "points": [[0, 0]]}),
                  "entries have shape (1, 2), the polytope's slack matrix (1, 1)"),
        "declared-shape": (lambda obj: obj.update(shape=[4, 3]),
                           "malformed field 'entries': ValueError('shape (4, 4), expected (4, 3)')"),
    }

    @pytest.mark.parametrize("case", sorted(CONTRADICTED_SLACKS))
    def test_slack_contradicting_its_polytope_exits_2(self, files, tmp_path, case, capsys):
        spoil, phrase = self.CONTRADICTED_SLACKS[case]
        obj = json.loads(files["slack"].read_text())
        spoil(obj)
        bad = tmp_path / "slack.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        code = main(["fact", "embed", "--slack", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --slack {bad}: {phrase}\n"

    # case: (row named by the error, entry spoilt, value), on the rounded cube n=2 system
    MALFORMED_SYSTEMS = {
        "nan-in-U": (1, "U", float("nan")),
        "inf-in-a": (2, "a", float("inf")),
        "skew-U": (0, "skew", 5.0),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_SYSTEMS))
    def test_malformed_system_exits_2(self, files, tmp_path, case, capsys):
        system = tmp_path / "system.json"
        assert main(["round", "run", "--slack", str(files["slack"]), "--fact", str(files["fact"]),
                     "--out", str(system)]) == 0
        obj = json.loads(system.read_text())
        row, entry, value = self.MALFORMED_SYSTEMS[case]
        if entry == "skew":
            # A skew part on every factor changes no <U_i, Y> for symmetric Y.
            for u in obj["U"]:
                u[0][1] += value
                u[1][0] -= value
        elif entry == "U":
            obj["U"][row][0][0] = value
        else:
            obj["a"][row][0] = value
        system.write_text(json.dumps(obj))
        capsys.readouterr()
        code = main(["reconstruct", "--system", str(system)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert f"row {row} " in captured.err


class TestDeclaredShapes:
    """Every size a file declares is read, and an empty array takes its declared shape."""

    VERIFY = ["fact", "verify", "--slack", "{slack}", "--fact", "{file}"]
    # case: (the file from the cube n=2 factorization file, the commands run
    # in turn: argv, exit code, the error line's start after "error: ")
    CASES = {
        # No inequality: the slack matrix is 0 x 2, and its embedding has side 0.
        # Rescaling needs factors on both sides, and the refusal names --fact.
        "zero-row-slack": (lambda fact: ZERO_ROW_POLYTOPE, [
            (["slack", "build", "--file", "{file}", "--out", "{slack0}"], 0, ""),
            (["fact", "embed", "--slack", "{slack0}", "--out", "{fact0}"], 0, ""),
            (["fact", "verify", "--slack", "{slack0}", "--fact", "{fact0}"], 0, ""),
            (["rescale", "run", "--slack", "{slack0}", "--fact", "{fact0}"], 2,
             "--fact {fact0}: factorization must be nonempty on both sides")]),
        # reshape(len(rows), -1) read n off the rows, and the slack file said n = 2.
        "negative-n": (lambda fact: {"n": -1, "rows": [{"a": [1, 0], "b": 1}, {"a": [0, 1], "b": 1}],
                                     "points": [[0, 0], [1, 1]]},
                       [(["slack", "build", "--file", "{file}"], 2,
                         "--file {file}: malformed field 'n': ")]),
        "fact-r-99": (lambda fact: dict(fact, r=99), [
            (VERIFY, 2, "--fact {file}: malformed field 'U': "
                        "ValueError('shape (4, 4, 4), expected (any, 99, 99)')")]),
        "fact-r-junk": (lambda fact: dict(fact, r="junk"), [
            (VERIFY, 2, "--fact {file}: malformed field 'r': ")]),
        "fact-r-missing": (lambda fact: {k: v for k, v in fact.items() if k != "r"}, [
            (VERIFY, 2, "--fact {file}: missing field 'r'")]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_file(self, tmp_path, case, capsys):
        make, steps = self.CASES[case]
        paths = {name: str(tmp_path / f"{name}.json")
                 for name in ("file", "slack", "fact", "slack0", "fact0")}
        assert main(["slack", "build", "--instance", "cube", "--n", "2",
                     "--out", paths["slack"]]) == 0
        assert main(["fact", "embed", "--slack", paths["slack"], "--out", paths["fact"]]) == 0
        Path(paths["file"]).write_text(json.dumps(make(json.loads(Path(paths["fact"]).read_text()))))
        for argv, code, line in steps:
            capsys.readouterr()
            assert main([a.format(**paths) for a in argv]) == code, argv
            captured = capsys.readouterr()
            if code:
                assert captured.out == "" and captured.err.count("\n") == 1
                assert captured.err.startswith(f"error: {line.format(**paths)}")
            else:
                assert captured.err == ""

    def test_empty_slack_matrix_has_no_residual_location(self, tmp_path, capsys):
        # A 0 x 2 slack matrix has no cell, so no residual has a location.
        polytope, slack, fact = (str(tmp_path / f"{name}.json") for name in ("p", "s", "f"))
        Path(polytope).write_text(json.dumps(ZERO_ROW_POLYTOPE))
        assert main(["slack", "build", "--file", polytope, "--out", slack]) == 0
        assert main(["fact", "embed", "--slack", slack, "--out", fact]) == 0
        capsys.readouterr()
        code, rep = run_cli(["fact", "verify", "--slack", slack, "--fact", fact], capsys)
        assert code == 0 and rep["passed"] is True
        assert rep["max_abs_residual"] == 0.0 and rep["residual_location"] is None


class TestDefaults:
    """Each CLI default is read from the one place that defines it."""

    CASES = {
        "fact-verify-tol": (["fact", "verify", "--slack", "s", "--fact", "f"], "tol", VERIFY_TOL),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_default_is_the_config_default(self, case):
        argv, dest, want = self.CASES[case]
        assert getattr(build_parser().parse_args(argv), dest) == want


class TestBadArguments:
    """Arguments the parser accepts but the stage cannot use exit with code 2."""

    @pytest.fixture()
    def files(self, tmp_path):
        slack = tmp_path / "slack.json"
        fact = tmp_path / "fact.json"
        system = tmp_path / "system.json"
        assert main(["slack", "build", "--instance", "cube", "--n", "2",
                     "--out", str(slack)]) == 0
        assert main(["fact", "embed", "--slack", str(slack), "--out", str(fact)]) == 0
        assert main(["round", "run", "--slack", str(slack), "--fact", str(fact),
                     "--out", str(system)]) == 0
        # A loadable system of dimension 21, one above the sweep's limit.
        system21 = tmp_path / "system21.json"
        grid = GridParams(n=21, r=1, delta=grid_delta(21, 1), big_delta=1.0)
        system21.write_text(json.dumps(serialize.system_to_json(
            RoundedSystem(np.zeros((0, 21)), np.zeros(0), np.zeros((0, 1, 1)), grid))))
        return {"slack": slack, "fact": fact, "system": system, "system21": system21}

    RESCALE = ["rescale", "run", "--slack", "{slack}", "--fact", "{fact}"]
    VERIFY = ["fact", "verify", "--slack", "{slack}", "--fact", "{fact}"]
    FIT = ["fact", "fit", "--slack", "{slack}", "--r", "2"]
    BOUNDS = ["bounds", "eval", "--formula"]
    # case: (argv, the flag the error message must name; one-letter flags
    # with their dashes, since the bare letter occurs in most messages)
    COMMANDS = {
        "delta-abc": (["round", "run", "--slack", "{slack}", "--fact", "{fact}", "--delta", "abc"],
                      "delta"),
        "delta-nan": (["round", "run", "--slack", "{slack}", "--fact", "{fact}", "--delta", "nan"],
                      "delta"),
        "reconstruct-n21": (["reconstruct", "--system", "{system21}"], "--system"),
        "side-0": (["check", "derivatives", "--side", "0", "--pairs", "1"], "side"),
        "unbalance-0": (["pipeline", "--instance", "cube", "--unbalance", "0"], "unbalance"),
        "pipeline-r-0": (["pipeline", "--instance", "cube", "--r", "0"],
                         "--r 0: side must be at least 1"),
        "unbalance-neg": (["pipeline", "--instance", "cube", "--unbalance", "-5"], "unbalance"),
        "pairs-0": (["check", "derivatives", "--pairs", "0"], "pairs"),
        "pairs-neg": (["check", "derivatives", "--pairs", "-1"], "pairs"),
        "verify-tol-nan": (VERIFY + ["--tol", "nan"], "tol"),
        "verify-tol-neg": (VERIFY + ["--tol", "-1"], "tol"),
        "pipeline-not-01": (["pipeline", "--instance", "moment_polygon", "--n", "5"],
                            "instance"),
        "slack-build-polygon-257": (["slack", "build", "--instance", "moment_polygon",
                                     "--n", "257"], "--n"),
        "counting-n-1024": (BOUNDS + ["counting", "--n", "1024"], "--n"),
        "counting-n-1100": (BOUNDS + ["counting", "--n", "1100"], "--n"),
        "counting-R-201-digits": (BOUNDS + ["counting", "--n", "1000", "--R", str(10**200)], "--R"),
        "xc01-n-401-digits": (BOUNDS + ["xc01", "--n", str(10**400)], "--n"),
        "coeff-n-401-digits": (BOUNDS + ["coeff", "--n", str(10**400)], "--n"),
        "polygon-params-d-401-digits": (BOUNDS + ["polygon-params", "--d", str(10**400)], "--d"),
        "fit-seed-neg": (FIT + ["--seed", "-1"], "--seed"),
        "derivatives-seed-neg": (["check", "derivatives", "--seed", "-1"], "--seed"),
        "pipeline-seed-neg": (["pipeline", "--instance", "cube", "--unbalance", "10",
                               "--seed", "-1"], "--seed"),
        "unbalance-1e200": (["pipeline", "--instance", "cube", "--n", "2", "--unbalance", "1e200"],
                            "--unbalance"),
        "slack-build-simplex-100000": (["slack", "build", "--instance", "simplex",
                                        "--n", "100000"], "--n"),
        "pipeline-simplex-100000": (["pipeline", "--instance", "simplex", "--n", "100000"], "--n"),
        "slack-build-cube-301-digits": (["slack", "build", "--instance", "cube",
                                         "--n", str(10**300)], "--n"),
        "pairs-301-digits": (["check", "derivatives", "--pairs", str(10**300)], "--pairs"),
        # A 1e5 congruence loses the products of every builtin but point.
        "unbalance-1e5": (["pipeline", "--instance", "cube", "--n", "2", "--unbalance", "1e5"],
                          "--unbalance"),
        "unbalance-1e5-skip-rescale": (["pipeline", "--instance", "cube", "--n", "2",
                                        "--unbalance", "1e5", "--skip-rescale"], "--unbalance"),
    }

    @pytest.mark.parametrize("case", sorted(COMMANDS))
    def test_exits_2(self, files, case, capsys):
        argv, flag = self.COMMANDS[case]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([a.format(**files) for a in argv])
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert flag in captured.err

    # case: (argv without the size, its limit, the flag the error names).
    # check derivatives costs --pairs * (--side + 40)^3; at one pair the side
    # reaches 960, and at side 1 the pairs reach DERIVATIVES_MAX_COST // 41^3.
    LIMITS = {
        "side": (["check", "derivatives", "--pairs", "1", "--side"],
                 round(DERIVATIVES_MAX_COST ** (1 / 3)) - 40, "--side"),
        "fit-r": (["fact", "fit", "--slack", "{slack}", "--r"], FIT_MAX_SIDE, "--r"),
        "pipeline-r": (["pipeline", "--instance", "cube", "--r"], FIT_MAX_SIDE, "--r"),
        "pairs": (["check", "derivatives", "--side", "1", "--pairs"],
                  DERIVATIVES_MAX_COST // 41**3, "--pairs"),
    }

    @pytest.mark.parametrize("case", sorted(LIMITS))
    def test_size_limit_checked_before_any_draw(self, files, case, monkeypatch, capsys):
        argv, limit, flag = self.LIMITS[case]
        argv = [a.format(**files) for a in argv]

        class Drawn(Exception):
            pass

        def no_generator(*args, **kwargs):
            raise Drawn

        # Every matrix these commands draw comes from one generator; none is made.
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(Drawn):
            main(argv + [str(limit)])
        capsys.readouterr()
        assert main(argv + [str(limit + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and flag in captured.err

    def test_derivatives_cost_refused_before_any_draw(self, monkeypatch, capsys):
        # Each size is small enough alone; together they would run for minutes.
        def no_generator(*args, **kwargs):
            raise AssertionError("a random generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        assert main(["check", "derivatives", "--side", "200", "--pairs", "10000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "--side" in captured.err and "--pairs" in captured.err

    @pytest.mark.parametrize("argv", [[], ["--side", "200", "--pairs", "1"]],
                             ids=["defaults", "side-200"])
    def test_derivatives_within_cost_run(self, argv, capsys):
        assert main(["check", "derivatives"] + argv) == 0
        capsys.readouterr()

    def test_pipeline_refuses_its_dimension_before_building(self, monkeypatch, capsys):
        def no_instance(*args):
            raise AssertionError("builtin_instance called")

        monkeypatch.setattr(pipeline, "builtin_instance", no_instance)
        assert main(["pipeline", "--instance", "cube", "--n", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "--n" in captured.err

    # Commands that draw no random numbers take no --seed.
    SEEDLESS = {
        "slack-build": ["slack", "build", "--instance", "cube", "--n", "2"],
        "fact-verify": ["fact", "verify", "--slack", "{slack}", "--fact", "{fact}"],
        "fact-embed": ["fact", "embed", "--slack", "{slack}"],
        "round-run": ["round", "run", "--slack", "{slack}", "--fact", "{fact}"],
        "bounds-eval": ["bounds", "eval", "--formula", "coeff"],
        "reconstruct": ["reconstruct", "--system", "{system}"],
        "rescale-run": ["rescale", "run", "--slack", "{slack}", "--fact", "{fact}"],
    }

    @pytest.mark.parametrize("case", sorted(SEEDLESS))
    def test_seed_is_not_an_option(self, files, case, capsys):
        argv = [a.format(**files) for a in self.SEEDLESS[case]]
        assert main(argv) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    # The certificate tolerance and the descent cap are constants of
    # rescaling, which no command sets.
    CONSTANTS = {
        "rescale-run-tol": (RESCALE, ["--tol", "0.05"]),
        "rescale-run-max-iters": (RESCALE, ["--max-iters", "5"]),
        "pipeline-tol": (["pipeline", "--instance", "cube"], ["--tol", "0.05"]),
    }

    @pytest.mark.parametrize("case", sorted(CONSTANTS))
    def test_constant_is_not_an_option(self, files, case, capsys):
        argv, option = self.CONSTANTS[case]
        with pytest.raises(SystemExit) as exc:
            main([a.format(**files) for a in argv] + option)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


class TestErrorLinesNameTheInput:
    """An exit-2 line caused by an input file or a switch names it."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("inputs")
        paths = {name: tmp / f"{name}.json" for name in
                 ("cube13", "cube2", "fact2", "simplex2", "simplex_fact2", "bare", "pointless")}
        for name, instance, n in (("cube13", "cube", 13), ("cube2", "cube", 2),
                                  ("simplex2", "simplex", 2)):
            assert main(["slack", "build", "--instance", instance, "--n", str(n),
                         "--out", str(paths[name])]) == 0
        for slack, fact in (("cube2", "fact2"), ("simplex2", "simplex_fact2")):
            assert main(["fact", "embed", "--slack", str(paths[slack]),
                         "--out", str(paths[fact])]) == 0
        bare = json.loads(paths["cube2"].read_text())
        bare["polytope"] = None
        paths["bare"].write_text(json.dumps(bare))
        h, _ = builtin_instance("cube", 2)
        paths["pointless"].write_text(json.dumps(serialize.polytope_to_json(h, None)))
        texts = {
            "list": "[]",
            "nan_slack": '{"shape": [1, 2], "entries": [[1.0, NaN]], "polytope": null}',
            "flat_slack": '{"shape": [2], "entries": [1.0, 2.0], "polytope": null}',
            "mixed_fact": json.dumps({"r": 1, "U": [[[1.0]], [[1.0, 0.0], [0.0, 1.0]]],
                                      "V": [[[1.0]]]}),
            "violated": json.dumps({"n": 1, "rows": [{"a": [1], "b": 0}], "points": [[1]]}),
            # Each number is below 2^62, so the loader takes it; the slack
            # bound |a| n |x| + |b| is not.
            "huge_coefficients": json.dumps({"n": 2, "rows": [{"a": [4611686018427387903, 0],
                                                               "b": 4611686018427387903}],
                                             "points": [[1, 0]]}),
        }
        for name, text in texts.items():
            paths[name] = tmp / f"{name}.json"
            paths[name].write_text(text)
        return paths

    # case: (argv, the error line after "error: ")
    CASES = {
        "round-worst-case-n13": (
            ["round", "run", "--slack", "{cube13}", "--fact", "{fact2}", "--worst-case"],
            "--worst-case: worst-case Delta supported for n <= 12 only, got n = 13"),
        "round-without-provenance": (
            ["round", "run", "--slack", "{bare}", "--fact", "{fact2}"],
            "--slack {bare}: slack file lacks polytope provenance needed for rounding"),
        "fit-cube-13": (
            ["fact", "fit", "--slack", "{cube13}", "--r", "2"],
            "--slack {cube13}: slack matrix of 26 x 8192 = 212992 entries refused (above 1024)"),
        "slack-build-without-points": (
            ["slack", "build", "--file", "{pointless}"],
            "--file {pointless}: polytope file carries no points"),
        "slack-build-segment-n2": (
            ["slack", "build", "--instance", "segment", "--n", "2"],
            "--n 2: segment is one-dimensional; pass n=1"),
        "slack-build-polygon-n2": (
            ["slack", "build", "--instance", "moment_polygon", "--n", "2"],
            "--n 2: moment_polygon needs d >= 3"),
        "slack-build-from-a-list": (
            ["slack", "build", "--file", "{list}"],
            "--file {list}: expected a JSON object with field 'n'"),
        "embed-nan-entry": (
            ["fact", "embed", "--slack", "{nan_slack}"],
            "--slack {nan_slack}: slack entries must be finite"),
        "embed-flat-entries": (
            ["fact", "embed", "--slack", "{flat_slack}"],
            "--slack {flat_slack}: slack entries must be a 2-d array"),
        "verify-mixed-sides": (
            ["fact", "verify", "--slack", "{cube2}", "--fact", "{mixed_fact}"],
            "--fact {mixed_fact}: malformed field 'U': ValueError('nested lists of unequal "
            "lengths')"),
        "slack-build-violated-point": (
            ["slack", "build", "--file", "{violated}"],
            "--file {violated}: point 0 violates inequality 0: slack -1"),
        "slack-build-huge-coefficients": (
            ["slack", "build", "--file", "{huge_coefficients}"],
            "--file {huge_coefficients}: coefficients too large for 64-bit slack computation"),
        "pipeline-moment-polygon-3": (
            ["pipeline", "--instance", "moment_polygon", "--n", "3"],
            "--instance moment_polygon: instance 'moment_polygon' has vertices outside "
            "{{0,1}}^2, which the reconstruction sweep cannot find"),
        **{f"{words[0]}-index-sets": (
            list(words) + ["--slack", "{cube2}", "--fact", "{simplex_fact2}"],
            "--fact {simplex_fact2}: index sets disagree: factorization 3x3, slack 4x4")
           for words in (("fact", "verify"), ("rescale", "run"), ("round", "run"))},
        # Library refusals name their argument; main names its flag.
        "slack-build-cube-15": (
            ["slack", "build", "--instance", "cube", "--n", "15"],
            "--n 15: cube above n = 14 refused"),
        "fit-r-65": (
            ["fact", "fit", "--slack", "{cube2}", "--r", "65"], "--r 65: side above 64 refused"),
        "pipeline-n-5": (
            ["pipeline", "--instance", "cube", "--n", "5"],
            "--n 5: the reconstruction pipeline supports n <= 4"),
        "pipeline-unbalance-1e300": (
            ["pipeline", "--instance", "cube", "--n", "2", "--unbalance", "1e300"],
            "--unbalance 1e+300: the congruence is numerically singular"),
        "counting-n-1024": (
            ["bounds", "eval", "--formula", "counting", "--n", "1024"],
            "--n 1024: the bound overflows a float"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_line(self, files, case, capsys):
        argv, line = self.CASES[case]
        capsys.readouterr()
        code = main([a.format(**files) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {line.format(**files)}\n"

    # case: (slack entries, the input flag the error names, a phrase of it);
    # rescale run gets the slack and its diagonal embedding.
    HUGE = {
        "diagonal-10-5e307": (np.diag([5e307] * 10), "slack", "Delta = 5e+307 at d = 10"),
        "diagonal-2-1e308": (np.diag([1e308] * 2), "slack",
                             "Delta = 1e+308 at d = 2 overflows the certificate bound"),
        "full-2-1e308": ([[1e308, 1e308], [1e308, 0.0]], "fact", "overflow"),
    }

    @pytest.mark.parametrize("case", sorted(HUGE))
    def test_huge_slack_entries(self, tmp_path, case, capsys):
        # A numpy RuntimeWarning fails this test under the suite's
        # filterwarnings = error.
        entries, flag, phrase = self.HUGE[case]
        paths = {"slack": tmp_path / "slack.json", "fact": tmp_path / "fact.json"}
        entries = np.asarray(entries)
        paths["slack"].write_text(json.dumps({"shape": entries.shape, "entries": entries.tolist(),
                                              "polytope": None}))
        assert main(["fact", "embed", "--slack", str(paths["slack"]),
                     "--out", str(paths["fact"])]) == 0
        capsys.readouterr()
        code = main(["rescale", "run", "--slack", str(paths["slack"]),
                     "--fact", str(paths["fact"])])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: --{flag} {paths[flag]}: ")
        assert phrase in captured.err

    def test_huge_entries_with_singular_averages(self, tmp_path, capsys):
        # The side averages are singular, so the common space comes from
        # eigendecompositions, whose residual check squares entries of 1e200.
        s = SlackMatrix(np.diag([1e200, 1.0, 2.0]))
        slack, fact = TestFactAndRescale.write_inputs(tmp_path, diagonal_embed(s), s)
        code, rep = run_cli(["rescale", "run", "--slack", str(slack), "--fact", str(fact)],
                            capsys)
        assert code == 0
        assert rep["certificate"] is True

    @pytest.mark.parametrize("u, v", [(1e200, 1e-200), (1e-200, 1e200)])
    def test_norms_whose_ratio_leaves_the_float_range(self, tmp_path, u, v, capsys):
        # U = [u], V = [v] factor S = [[1]] exactly; the balancing scalar
        # sqrt(v / u) must not be read off the ratio, which underflows or
        # overflows.
        s = SlackMatrix(np.array([[1.0]]))
        f = PsdFactorization([[[u]]], [[[v]]])
        slack, fact = TestFactAndRescale.write_inputs(tmp_path, f, s)
        code, rep = run_cli(["rescale", "run", "--slack", str(slack), "--fact", str(fact)],
                            capsys)
        assert code == 0
        assert rep["certificate"] is True
        assert rep["lmax_u"] == rep["lmax_v"] == 1.0


def leaf_parsers(parser, words=()):
    """(subcommand words, parser) of every runnable subcommand under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_parsers(sub, words + (name,))
            return
    yield words, parser


# Options that name a file the command writes.
OUTPUT_FLAGS = ("--out", "--report", "--trace")


class TestBadInputSweep:
    """Every option that takes a value, fed bad values, ends at a documented exit code;
    an exit-2 line names the option."""

    # The valid runs each bad value is put into, one list per subcommand;
    # bounds eval runs every formula, so each reads its own inputs.
    BASE = {
        ("slack", "build"): [["--instance", "cube"]],
        ("fact", "verify"): [["--slack", "{slack}", "--fact", "{fact}"]],
        ("fact", "embed"): [["--slack", "{slack}"]],
        ("fact", "fit"): [["--slack", "{slack}", "--r", "3"]],
        ("rescale", "run"): [["--slack", "{slack}", "--fact", "{fact}"]],
        ("round", "run"): [["--slack", "{slack}", "--fact", "{fact}"]],
        ("reconstruct",): [["--system", "{system}"]],
        ("check", "derivatives"): [["--pairs", "1"]],
        ("bounds", "eval"): [["--formula", name] for name in FORMULAS],
        ("pipeline",): [["--instance", "cube"]],
    }
    FILE_FLAGS = {"--file": "polytope", "--slack": "slack", "--fact": "fact",
                  "--system": "system"}
    # Files of the right kind that break its invariants; each must exit 2.
    BAD_FILES = {"--system": ("system-r3", "system-cut")}
    VALUES = ["0", "-1", "nan", "inf", "1e308", "1" + "0" * 300, "abc", ""]

    # Every option that takes a value but names an output file.
    CASES = [
        (words, action.option_strings[0])
        for words, parser in leaf_parsers(build_parser())
        for action in parser._actions
        if action.option_strings and action.nargs != 0
        and action.option_strings[0] not in OUTPUT_FLAGS
    ]
    OUTPUT_CASES = [
        (words, action.option_strings[0])
        for words, parser in leaf_parsers(build_parser())
        for action in parser._actions
        if action.option_strings and action.option_strings[0] in OUTPUT_FLAGS
    ]

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("sweep")
        paths = {kind: tmp / f"{kind}.json" for kind in self.FILE_FLAGS.values()}
        paths["polytope"].write_text(json.dumps(
            serialize.polytope_to_json(*builtin_instance("cube", 2))))
        assert main(["slack", "build", "--file", str(paths["polytope"]),
                     "--out", str(paths["slack"])]) == 0
        assert main(["fact", "embed", "--slack", str(paths["slack"]),
                     "--out", str(paths["fact"])]) == 0
        assert main(["round", "run", "--slack", str(paths["slack"]), "--fact", str(paths["fact"]),
                     "--out", str(paths["system"])]) == 0
        # The unit square's system has side 4 and its 4 selected rows.
        system = json.loads(paths["system"].read_text())
        for kind, spoilt in (("system-r3", dict(system, grid=dict(system["grid"], r=3))),
                             ("system-cut", dict(system, **{key: system[key][:3]
                                                            for key in SYSTEM_ROWS}))):
            paths[kind] = tmp / f"{kind}.json"
            paths[kind].write_text(json.dumps(spoilt))
        paths["missing"] = tmp / "missing.json"
        return paths

    def test_every_subcommand_has_a_base_run(self):
        assert sorted(words for words, _ in leaf_parsers(build_parser())) == sorted(self.BASE)

    @pytest.mark.parametrize("words,flag", CASES,
                             ids=[" ".join(words) + " " + flag for words, flag in CASES])
    def test_bad_values(self, files, words, flag, capsys):
        bad_files = [str(files[kind]) for kind in self.BAD_FILES.get(flag, ())]
        values = self.VALUES + [str(files["missing"])] + [
            str(files[kind]) for kind in self.FILE_FLAGS.values()
            if kind != self.FILE_FLAGS.get(flag)] + bad_files
        capsys.readouterr()
        failures = []
        for base in self.BASE[words]:
            base = [a.format(**files) for a in base]
            for value in values:
                argv = list(words) + base
                if flag in argv:
                    argv[argv.index(flag) + 1] = value
                else:
                    argv += [flag, value]
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # the parser refused the value
                        code = exc.code
                    except Exception as exc:
                        code = f"raised {exc!r}"
                err = capsys.readouterr().err
                if caught:
                    failures.append((argv, f"warned {caught[0].message}"))
                elif code not in (0, 1, 2, 3):
                    failures.append((argv, code))
                elif "Traceback" in err or "Warning" in err:
                    failures.append((argv, err))
                elif code == 2 and flag not in err.splitlines()[-1]:
                    failures.append((argv, err))
                elif value in bad_files and code != 2:
                    failures.append((argv, code))
        assert failures == []

    @pytest.mark.parametrize("words,flag", OUTPUT_CASES,
                             ids=[" ".join(words) + " " + flag for words, flag in OUTPUT_CASES])
    def test_unwritable_output_path(self, files, words, flag, capsys):
        path = str(files["missing"].parent / "no-such-dir" / "x.out")
        capsys.readouterr()
        for base in self.BASE[words]:
            argv = list(words) + [a.format(**files) for a in base] + [flag, path]
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {flag} {path}: ")


class TestManifest:
    def test_command_is_the_argv_given_to_main(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["prog", "foo"])
        code, rep = run_cli(["bounds", "eval", "--formula", "coeff"], capsys)
        assert code == 0
        assert rep["manifest"]["command"] == "bounds eval --formula coeff"

    def test_fields(self, tmp_path, capsys):
        slack = tmp_path / "slack.json"
        assert main(["slack", "build", "--instance", "cube", "--n", "2",
                     "--out", str(slack)]) == 0
        code, rep = run_cli(["fact", "fit", "--slack", str(slack), "--r", "3", "--seed", "7"],
                            capsys)
        assert code == 0
        manifest = rep["manifest"]
        assert manifest["seed"] == 7
        assert manifest["version"] == psdfact.__version__
        (digest,) = manifest["input_hashes"].values()
        assert re.fullmatch("[0-9a-f]{64}", digest)
        assert manifest["wall_time_s"] >= 0


class TestRoundReconstruct:
    def test_round_then_reconstruct(self, tmp_path, capsys):
        # round run reads rescale run's output file as its --fact as it is.
        slack = tmp_path / "slack.json"
        fact = tmp_path / "fact.json"
        resc = tmp_path / "resc.json"
        system = tmp_path / "system.json"
        recon = tmp_path / "recon.json"
        assert main(["slack", "build", "--instance", "cube", "--n", "2",
                     "--out", str(slack)]) == 0
        assert main(["fact", "embed", "--slack", str(slack), "--out", str(fact)]) == 0
        assert main(["rescale", "run", "--slack", str(slack), "--fact", str(fact),
                     "--out", str(resc)]) == 0
        assert main(["round", "run", "--slack", str(slack), "--fact", str(resc),
                     "--delta", "max", "--out", str(system)]) == 0
        code = main(["reconstruct", "--system", str(system), "--out", str(recon)])
        capsys.readouterr()
        assert code == 0
        rep = json.loads(recon.read_text())
        assert rep["complete"] is True
        assert sorted(map(tuple, rep["accepted"])) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("instance,n", grid_fixture.GRID_INSTANCES,
                             ids=[f"{name}-{n}" for name, n in grid_fixture.GRID_INSTANCES])
    def test_chain_matches_the_pipeline(self, tmp_path, instance, n, capsys):
        # File to file, rescale-then-round as run_pipeline runs it: round
        # run reads rescale run's output as its --fact.  Each stage's report
        # holds the pipeline's report of that stage, value for value.  The
        # CLI's sweep starts every point from 0, the pipeline's each vertex
        # from its column factor; the verdicts are the same.
        stages = ("slack", "fact", "rescale", "round", "reconstruct")
        path = {stage: str(tmp_path / f"{stage}.json") for stage in stages}
        for stage, argv in zip(stages, (
                ["slack", "build", "--instance", instance, "--n", str(n)],
                ["fact", "embed", "--slack", path["slack"]],
                ["rescale", "run", "--slack", path["slack"], "--fact", path["fact"]],
                ["round", "run", "--slack", path["slack"], "--fact", path["rescale"]],
                ["reconstruct", "--system", path["round"]])):
            assert main(argv + ["--out", path[stage]]) == 0, argv
        capsys.readouterr()
        got = {stage: json.loads(Path(path[stage]).read_text()) for stage in stages[2:]}
        want = pipeline.run_pipeline(instance, n)["stages"]
        assert want["rescale"].pop("skipped") is False
        assert {"error_fnorm", "error_bound", "entry_bound"} <= set(want["round"])
        for stage in ("rescale", "round"):
            assert {key: got[stage][key] for key in want[stage]} == want[stage], stage
        lists = ("accepted", "rejected", "inconclusive")
        assert {key: got["reconstruct"][key] for key in lists} == {
            key: want["reconstruct"][key] for key in lists}

    ROUNDED_INSTANCES = grid_fixture.GRID_INSTANCES + [("moment_polygon", 5)]

    @pytest.mark.parametrize("instance,n", ROUNDED_INSTANCES,
                             ids=[f"{name}-{n}" for name, n in ROUNDED_INSTANCES])
    def test_round_run_meets_its_bounds(self, tmp_path, instance, n, capsys):
        # Every rounding bound holds on the diagonal embedding, and on its
        # rescaled factorization at each delta and Delta convention.
        slack, fact, resc = (str(tmp_path / f) for f in ("slack.json", "fact.json", "resc.json"))
        assert main(["slack", "build", "--instance", instance, "--n", str(n), "--out", slack]) == 0
        assert main(["fact", "embed", "--slack", slack, "--out", fact]) == 0
        assert main(["rescale", "run", "--slack", slack, "--fact", fact, "--out", resc]) == 0
        out = ["--out", str(tmp_path / "system.json")]
        assert main(["round", "run", "--slack", slack, "--fact", fact] + out) == 0
        for extra in ([], ["--worst-case"], ["--delta", "max/10"],
                      ["--worst-case", "--delta", "max/10"]):
            assert main(["round", "run", "--slack", slack, "--fact", resc] + out + extra) == 0

    def test_failed_rounding_bound_exits_1(self, tmp_path, capsys):
        # Cube n=3's embedding after a 1e4 congruence reproduces its slack
        # matrix but is not rescaled.  The entrywise rounding error is within
        # its bound at any norm, so what fails is what the argument needs
        # rescaling for: the entry bound, and the warm budget read from the
        # column factors.  The report and its system are still written.
        h, v = builtin_instance("cube", 3)
        s = build_slack(h, v)
        slack, fact, system = (tmp_path / f for f in ("slack.json", "fact.json", "system.json"))
        slack.write_text(json.dumps(serialize.slack_to_json(s)))
        fact.write_text(json.dumps(serialize.factorization_to_json(
            _unbalance_congruence(diagonal_embed(s), 1e4, 0))))
        assert main(["round", "run", "--slack", str(slack), "--fact", str(fact),
                     "--out", str(system)]) == 1
        rep = json.loads(system.read_text())
        assert [rep[key] for key in ("error_bound_ok", "entry_bound_ok", "warm_budget_ok")] == [
            True, False, False]
        assert len(rep["a"]) == len(rep["selected_rows"]) == len(rep["error_fnorm"])
        assert serialize.system_from_json(rep).n_rows == len(rep["a"])

    @pytest.mark.parametrize("delta,extra", [("5e-324", []), ("1e-320", []),
                                             ("5e-324", ["--worst-case"])],
                             ids=["5e-324", "1e-320", "zero-step"])
    def test_overflowing_grid_step_exits_2(self, tmp_path, delta, extra, capsys):
        # The snap divides the factor entries by the grid step.  At these
        # deltas that overflowed: a RuntimeWarning, a system file of
        # Infinity and NaN, and exit 1.  Over the worst-case Delta 3^1.5
        # the step underflows to 0.  A warning fails this test
        # (filterwarnings = error).
        slack, fact, system = (tmp_path / f for f in ("slack.json", "fact.json", "system.json"))
        assert main(["slack", "build", "--instance", "cube", "--n", "2",
                     "--out", str(slack)]) == 0
        assert main(["fact", "embed", "--slack", str(slack), "--out", str(fact)]) == 0
        capsys.readouterr()
        code = main(["round", "run", "--slack", str(slack), "--fact", str(fact),
                     "--delta", delta, "--out", str(system)] + extra)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not system.exists()
        assert captured.err.startswith(f"error: --delta {delta}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("side", ["U", "V"])
    def test_overflowing_factor_norms_exit_2(self, tmp_path, side, capsys):
        # Cube n=2's embedding with one side scaled by 1e155 and the other
        # by 1e-155 still reproduces its slack matrix.  The squared norms
        # of its row factors overflowed in the selection (a RuntimeWarning,
        # then LinAlgError from the Gram spectrum); those of its column
        # factors overflow in the warm budget.  A warning fails this test
        # (filterwarnings = error).
        slack, fact, scaled, system = (tmp_path / f for f in (
            "slack.json", "fact.json", "scaled.json", "system.json"))
        assert main(["slack", "build", "--instance", "cube", "--n", "2",
                     "--out", str(slack)]) == 0
        assert main(["fact", "embed", "--slack", str(slack), "--out", str(fact)]) == 0
        obj = json.loads(fact.read_text())
        other = "V" if side == "U" else "U"
        obj[side] = (np.array(obj[side]) * 1e155).tolist()
        obj[other] = (np.array(obj[other]) * 1e-155).tolist()
        scaled.write_text(json.dumps(obj))
        assert main(["fact", "verify", "--slack", str(slack), "--fact", str(scaled),
                     "--out", str(tmp_path / "verified.json")]) == 0
        capsys.readouterr()
        code = main(["round", "run", "--slack", str(slack), "--fact", str(scaled),
                     "--out", str(system)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not system.exists()
        assert captured.err.startswith(f"error: --fact {scaled}: ")
        assert "overflow" in captured.err and captured.err.count("\n") == 1

    # 5e-13 above grid_delta(2, 4) = 5.425347222222222e-05, cube n=2's
    # maximum; a relative slack of 1e-12 once let it through.
    ABOVE_MAX = "5.425347222224935e-05"

    @pytest.mark.parametrize("delta,code", [("max", 0), ("max/10", 0), (repr(grid_delta(2, 4)), 0),
                                            (ABOVE_MAX, 2)])
    def test_delta_above_the_maximum_exits_2(self, tmp_path, delta, code, capsys):
        slack, fact, resc, system = (str(tmp_path / f) for f in (
            "slack.json", "fact.json", "resc.json", "system.json"))
        assert main(["slack", "build", "--instance", "cube", "--n", "2", "--out", slack]) == 0
        assert main(["fact", "embed", "--slack", slack, "--out", fact]) == 0
        assert main(["rescale", "run", "--slack", slack, "--fact", fact, "--out", resc]) == 0
        capsys.readouterr()
        assert main(["round", "run", "--slack", slack, "--fact", resc, "--delta", delta,
                     "--out", system]) == code
        err = capsys.readouterr().err
        if code:
            assert err == f"error: --delta {delta}: delta must lie in (0, 5.43e-05]\n"
            assert not Path(system).exists()
        else:
            assert err == "" and json.loads(Path(system).read_text())["grid"]["r"] == 4

    def test_system_with_delta_above_the_maximum_exits_2(self, tmp_path, capsys):
        system = unrescaled_system(tmp_path, "cube", 2)
        obj = json.loads(system.read_text())
        assert obj["grid"]["delta"] == grid_delta(2, 4)
        obj["grid"]["delta"] = float(self.ABOVE_MAX)
        bad = tmp_path / "above.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["reconstruct", "--system", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --system {bad}: delta must lie in (0, 5.43e-05]\n"

    def test_chain_with_no_selected_row(self, tmp_path, capsys):
        # 0 x <= 0 holds everywhere, so the slack matrix is [[0]], no row is
        # selected and the system has no rows: both points of {0,1} are
        # members.  A NumPy warning fails this test (filterwarnings = error).
        stages = ("polytope", "slack", "fact", "rescale", "round", "reconstruct")
        path = {stage: str(tmp_path / f"{stage}.json") for stage in stages}
        Path(path["polytope"]).write_text(json.dumps(
            {"n": 1, "rows": [{"a": [0], "b": 0}], "points": [[0]]}))
        for stage, argv in zip(stages[1:], (
                ["slack", "build", "--file", path["polytope"]],
                ["fact", "embed", "--slack", path["slack"]],
                ["rescale", "run", "--slack", path["slack"], "--fact", path["fact"]],
                ["round", "run", "--slack", path["slack"], "--fact", path["rescale"]],
                ["reconstruct", "--system", path["round"]])):
            assert main(argv + ["--out", path[stage]]) == 0, argv
        system = json.loads(Path(path["round"]).read_text())
        assert system["selected"] == system["a"] == system["U"] == system["error_fnorm"] == []
        recon = json.loads(Path(path["reconstruct"]).read_text())
        assert recon["accepted"] == [[0], [1]] and recon["complete"] is True

    def test_report_lists_every_point(self, tmp_path, capsys):
        system = unrescaled_system(tmp_path, "crosspoly_01", 3)
        capsys.readouterr()
        code, rep = run_cli(["reconstruct", "--system", str(system)], capsys)
        assert code == 0 and rep["complete"] is True
        assert rep["rejected"] == [[0, 0, 0], [1, 1, 1]]
        assert [e["point"] for e in rep["points"]] == [
            [a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        for e in rep["points"]:
            assert (e["dual_margin"] > 0.0) == (e["verdict"] == "rejected")

    def test_output_into_closed_pipe(self, tmp_path):
        system = unrescaled_system(tmp_path, "cube", 2)
        # The reader end closes before the child writes anything.
        proc = subprocess.Popen(
            [sys.executable, "-m", "psdfact", "reconstruct", "--system", str(system)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        err = err.decode()
        assert "Traceback" not in err and "BrokenPipeError" not in err
        assert proc.returncode == 0

    def test_numeric_error_exits_3(self, tmp_path, monkeypatch, capsys):
        system = unrescaled_system(tmp_path, "cube", 2)

        def breaks_down(*args, **kwargs):
            raise NumericError("NaN/Inf in membership iterates")

        monkeypatch.setattr(cli, "reconstruct", breaks_down)
        capsys.readouterr()
        code = main(["reconstruct", "--system", str(system)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "numeric error: NaN/Inf in membership iterates\n"


    # 1e200 overflows ||U||^2 itself, 6e153 only 2 ||U||^2.
    @pytest.mark.parametrize("diagonal", [1e200, 6e153])
    def test_step_size_overflow_exits_3(self, tmp_path, diagonal, capsys):
        system = unrescaled_system(tmp_path, "cube", 2)
        obj = json.loads(system.read_text())
        u = obj["U"][0]
        for i in range(len(u)):
            u[i][i] = diagonal
        system.write_text(json.dumps(obj))
        capsys.readouterr()
        code = main(["reconstruct", "--system", str(system)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("numeric error: ") and captured.err.count("\n") == 1

    def test_dual_value_overflow_exits_3_without_warning(self, tmp_path, capsys):
        # One factor entry of 1e308 overflowed cap tr((U_0)_+) in the first
        # dual valuation, a RuntimeWarning before the step size was checked.
        # A warning fails this test (filterwarnings = error).
        slack, fact, resc, system = (str(tmp_path / f"{name}.json")
                                     for name in ("slack", "fact", "resc", "system"))
        for argv in (["slack", "build", "--instance", "cube", "--n", "2", "--out", slack],
                     ["fact", "embed", "--slack", slack, "--out", fact],
                     ["rescale", "run", "--slack", slack, "--fact", fact, "--out", resc],
                     ["round", "run", "--slack", slack, "--fact", resc, "--out", system]):
            assert main(argv) == 0, argv
        obj = json.loads(Path(system).read_text())
        obj["U"][0][0][0] = 1e308
        Path(system).write_text(json.dumps(obj))
        capsys.readouterr()
        code = main(["reconstruct", "--system", system])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "numeric error: the dual values overflow: the factors are too large\n"


class TestCheckAndBounds:
    def test_check_derivatives_small(self, tmp_path, capsys):
        report = tmp_path / "derivs.csv"
        code, rep = run_cli(["check", "derivatives", "--seed", "7", "--pairs", "25",
                             "--report", str(report)], capsys)
        assert code == 0
        assert rep["passed"] is True
        lines = report.read_text().strip().splitlines()
        assert len(lines) == 26

    def test_bounds_eval_json(self, capsys):
        code, rep = run_cli(["bounds", "eval", "--formula", "xc01", "--n", "16"], capsys)
        assert code == 0
        assert 4.25 <= float(rep["decimal"]) <= 4.35

    @pytest.mark.parametrize("formula", sorted(FORMULAS))
    def test_bounds_eval_report_keys(self, formula, capsys):
        code, rep = run_cli(["bounds", "eval", "--formula", formula, "--n", "4", "--d", "5"],
                            capsys)
        assert code == 0
        assert set(rep) == {"formula", "inputs", "log2_value", "decimal", "assumptions",
                            "extras", "manifest"}

    def test_bounds_eval_csv(self, capsys):
        code = main(["bounds", "eval", "--formula", "polygon", "--d", "64",
                     "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].startswith("formula,")


class TestPipeline:
    def test_cube_match(self, capsys):
        code, rep = run_cli(["pipeline", "--instance", "cube", "--n", "2"], capsys)
        assert code == 0
        assert rep["verdict"] == "match"
        assert rep["stages"]["reconstruct"]["inconclusive"] == []

    def test_skip_rescale_demo_fails(self, capsys):
        code, rep = run_cli(["pipeline", "--instance", "cube", "--n", "2",
                             "--skip-rescale", "--unbalance", "1e4"], capsys)
        assert code == 1
        # The rounding error is within its bound without rescaling; the
        # entry bound and the warm budget are not.
        assert rep["verdict"] != "match"
        round_ = rep["stages"]["round"]
        assert round_["error_bound_ok"] is True
        assert round_["entry_bound_ok"] is False and round_["warm_budget_ok"] is False

    def test_overflowing_unbalance_exits_2_without_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["pipeline", "--instance", "cube", "--n", "1", "--unbalance", "1e308"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--unbalance" in captured.err

    # (instance, n, r): fits that are not diagonal embeddings, from factor
    # sides 3 to 6, run through rescale, round and reconstruct.
    FITTED = [("cube", 2, 3), ("cube", 2, 4), ("simplex", 2, 3), ("simplex", 3, 4),
              ("crosspoly_01", 3, 4), ("cube", 3, 5), ("cube", 3, 6), ("crosspoly_01", 3, 5),
              ("cube", 3, 4)]

    @pytest.mark.parametrize("unbalance", [[], ["--unbalance", "1e4", "--seed", "0"],
                                           ["--unbalance", "1e4", "--seed", "1"],
                                           ["--unbalance", "1e4", "--seed", "2"]],
                             ids=["plain", "unbalanced-0", "unbalanced-1", "unbalanced-2"])
    @pytest.mark.parametrize("instance,n,r", FITTED)
    def test_fitted_factorization_matches(self, instance, n, r, unbalance, capsys):
        code, rep = run_cli(["pipeline", "--instance", instance, "--n", str(n),
                             "--r", str(r)] + unbalance, capsys)
        factorize = rep["stages"]["factorize"]
        assert factorize["method"] == "levenberg_marquardt" and factorize["found"] is True
        assert factorize["residual"] <= VERIFY_TOL and factorize["steps"] >= 1
        assert rep["stages"]["rescale"]["certificate"] is True
        assert rep["verdict"] == "match" and code == 0

    def test_zeroed_factor_is_reported(self, capsys):
        # The grid step exceeds twice the top eigenvalue of row 5's factor,
        # which rounds to zero: a report value, not a RuntimeWarning.
        code, rep = run_cli(["pipeline", "--instance", "crosspoly_01", "--n", "2", "--r", "2"],
                            capsys)
        assert code == 0 and rep["verdict"] == "match"
        assert rep["stages"]["round"]["zeroed_factors"] == [5]

    def test_fit_not_found_reports_residual_and_steps(self, capsys):
        # The unit square has PSD rank 3 > 2: side 2 is below the bound dim + 1.
        code, rep = run_cli(["pipeline", "--instance", "cube", "--n", "2", "--r", "2"], capsys)
        factorize = rep["stages"]["factorize"]
        assert code == 1 and rep["verdict"] == "factorization not found"
        assert factorize["found"] is False
        assert factorize["residual"] is None and factorize["steps"] == 0
        assert "lower bound 3 of a 2-dimensional polytope" in factorize["reason"]
        assert "rescale" not in rep["stages"]

    # (instance, n, r): every side below the PSD-rank lower bound dim + 1 of
    # the fitted grid, each refused before any step.
    BELOW_BOUND = [("cube", 2, r) for r in (1, 2)] + [("cube", 3, r) for r in (1, 2, 3)] + [
        ("simplex", 2, r) for r in (1, 2)] + [("simplex", 3, r) for r in (1, 2, 3)] + [
        ("crosspoly_01", 2, 1), ("segment", 1, 1)] + [("crosspoly_01", 3, r) for r in (1, 2, 3)]

    def test_sides_below_the_bound_end_at_once(self, monkeypatch, capsys):
        def no_generator(*args, **kwargs):
            raise AssertionError("a random generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        for instance, n, r in self.BELOW_BOUND:
            code, rep = run_cli(["pipeline", "--instance", instance, "--n", str(n),
                                 "--r", str(r)], capsys)
            factorize = rep["stages"]["factorize"]
            assert code == 1 and rep["verdict"] == "factorization not found", (instance, n, r)
            assert factorize["steps"] == 0 and "lower bound" in factorize["reason"]

    def test_deterministic_reports(self, capsys):
        _, rep1 = run_cli(["pipeline", "--instance", "simplex", "--n", "3"], capsys)
        _, rep2 = run_cli(["pipeline", "--instance", "simplex", "--n", "3"], capsys)
        rep1.pop("manifest")
        rep2.pop("manifest")
        assert rep1 == rep2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "psdfact", "bounds", "eval", "--formula", "coeff", "--n", "3"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["log2_value"] == 4.0
