import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psdfact
from psdfact import serialize
from psdfact.cli import main
from psdfact.rescaling import rescale

from helpers import unbalanced_cube


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

    def test_verify_mismatch_exits_1(self, square_files, tmp_path, capsys):
        slack, fact = square_files
        obj = json.loads(fact.read_text())
        obj["U"][0]["entries"][0] += 1.0
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
                     "--tol", "0.05", "--max-iters", "500",
                     "--out", str(out), "--trace", str(trace)])
        capsys.readouterr()
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["certificate"] is True
        assert rep["iterations"] <= 500
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iteration,phi,lmax"
        assert len(lines) == len(rep["phi_trajectory"]) + 1

    def test_rescale_trace_on_descending_run(self, tmp_path, capsys):
        f, s = unbalanced_cube()
        slack = tmp_path / "slack.json"
        fact = tmp_path / "fact.json"
        for obj, path in ((serialize.slack_to_json(s), slack),
                          (serialize.factorization_to_json(f), fact)):
            with open(path, "w") as fh:
                json.dump(obj, fh)
        out = tmp_path / "res.json"
        trace = tmp_path / "trace.csv"
        code = main(["rescale", "run", "--slack", str(slack), "--fact", str(fact),
                     "--out", str(out), "--trace", str(trace)])
        capsys.readouterr()
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["iterations"] > 0
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["iteration"]) for row in rows] == list(range(len(rows)))
        assert [float(row["phi"]) for row in rows] == rep["phi_trajectory"]
        for row in rows:
            assert float(row["lmax"]) ** 2 == pytest.approx(float(row["phi"]), rel=1e-9)
        # the CLI runs rescale with its default config, so the library
        # call reproduces the same trajectory
        res = rescale(f, s)
        assert [float(row["lmax"]) for row in rows] == [max(p) for p in res.lmax_trajectory]

    def test_fit_small(self, tmp_path, capsys):
        slack = tmp_path / "s.json"
        assert main(["slack", "build", "--instance", "point", "--n", "1",
                     "--out", str(slack)]) == 0
        code, rep = run_cli(["fact", "fit", "--slack", str(slack), "--r", "1"], capsys)
        assert code == 0
        assert rep["found"] is True


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

    COMMANDS = {
        "slack": (["fact", "embed", "--slack", "{bad}"], "fact"),
        "fact": (["fact", "verify", "--slack", "{slack}", "--fact", "{bad}"], "slack"),
        "system": (["reconstruct", "--system", "{bad}", "--n", "2"], "slack"),
        "polytope": (["slack", "build", "--file", "{bad}"], "fact"),
    }

    @pytest.mark.parametrize("loader", sorted(COMMANDS))
    @pytest.mark.parametrize("defect", ["missing", "truncated", "wrong-kind"])
    def test_bad_file_exits_2(self, files, loader, defect, capsys):
        argv, wrong_kind = self.COMMANDS[loader]
        bad = files[wrong_kind if defect == "wrong-kind" else defect]
        code = main([a.format(bad=bad, slack=files["slack"]) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


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
        return {"slack": slack, "fact": fact, "system": system}

    RESCALE = ["rescale", "run", "--slack", "{slack}", "--fact", "{fact}"]
    # case: (argv, the flag the error message must name)
    COMMANDS = {
        "delta-abc": (["round", "run", "--slack", "{slack}", "--fact", "{fact}", "--delta", "abc"],
                      "delta"),
        "delta-nan": (["round", "run", "--slack", "{slack}", "--fact", "{fact}", "--delta", "nan"],
                      "delta"),
        "reconstruct-n3": (["reconstruct", "--system", "{system}", "--n", "3"], "n"),
        "side-0": (["check", "derivatives", "--side", "0", "--pairs", "1"], "side"),
        "unbalance-0": (["pipeline", "--instance", "cube", "--unbalance", "0"], "unbalance"),
        "unbalance-neg": (["pipeline", "--instance", "cube", "--unbalance", "-5"], "unbalance"),
        "rescale-tol-nan": (RESCALE + ["--tol", "nan"], "tol"),
        "rescale-tol-neg": (RESCALE + ["--tol", "-1"], "tol"),
        "rescale-max-iters-neg": (RESCALE + ["--max-iters", "-1"], "max_iters"),
    }

    @pytest.mark.parametrize("case", sorted(COMMANDS))
    def test_exits_2(self, files, case, capsys):
        argv, flag = self.COMMANDS[case]
        capsys.readouterr()
        code = main([a.format(**files) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert flag in captured.err

    # Commands that draw no random numbers take no --seed.
    SEEDLESS = {
        "slack-build": ["slack", "build", "--instance", "cube", "--n", "2"],
        "fact-verify": ["fact", "verify", "--slack", "{slack}", "--fact", "{fact}"],
        "fact-embed": ["fact", "embed", "--slack", "{slack}"],
        "round-run": ["round", "run", "--slack", "{slack}", "--fact", "{fact}"],
        "bounds-eval": ["bounds", "eval", "--formula", "coeff"],
        "reconstruct": ["reconstruct", "--system", "{system}", "--n", "2"],
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


class TestRoundReconstruct:
    def test_round_then_reconstruct(self, tmp_path, capsys):
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
        rescaled = tmp_path / "rescaled.json"
        rescaled.write_text(json.dumps(json.loads(resc.read_text())["factorization"]))
        assert main(["round", "run", "--slack", str(slack), "--fact", str(rescaled),
                     "--delta", "max", "--out", str(system)]) == 0
        code = main(["reconstruct", "--system", str(system), "--n", "2",
                     "--out", str(recon)])
        capsys.readouterr()
        assert code == 0
        rep = json.loads(recon.read_text())
        assert rep["complete"] is True
        assert sorted(map(tuple, rep["accepted"])) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_report_lists_every_point(self, tmp_path, capsys):
        system = unrescaled_system(tmp_path, "crosspoly_01", 3)
        capsys.readouterr()
        code, rep = run_cli(["reconstruct", "--system", str(system), "--n", "3"], capsys)
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
            [sys.executable, "-m", "psdfact", "reconstruct", "--system", str(system), "--n", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        err = err.decode()
        assert "Traceback" not in err and "BrokenPipeError" not in err
        assert proc.returncode == 0


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
        assert rep["verdict"] != "match"
        assert rep["stages"]["round"]["warm_budget_ok"] is False
        assert rep["stages"]["round"]["error_bound_ok"] is False

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
