"""Every function in ``src/psdfact`` is entered by a run of the program, or says why not.

A fixed set of program runs goes through ``run_pipeline`` and ``cli.main``
in process under ``sys.setprofile``, which records each function entered.
Every ``def`` of the package, methods and nested functions included, is
found by ``ast`` and keyed by its file and first line (a decorated
function's first decorator), as its code object is; ``co_qualname`` would
need Python 3.11.  The check fails when a ``def`` is never entered and has
no entry in ``ALLOWED``, when an allowlisted function is entered, and
when an allowlisted name names no function.  A failure names each
function as ``module.qualified.name``.

The run set: ``run_pipeline`` on every grid builtin, plain and after a 1e4
congruence; the three runs that skip rescaling; fitted runs; and one
``cli.main`` run of each subcommand and of each flag that selects a
different path.  Run this file as a script to print what it found.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import psdfact
from psdfact.cli import FORMULAS, main
from psdfact.pipeline import PipelineConfig, run_pipeline

import grid_fixture

PACKAGE = Path(psdfact.__file__).resolve().parent

# Each function that no run enters, by module and qualified name, with its reason.
# The rescale descent loop runs only on inputs that the rescale start leaves
# above the target; no builtin is one, the loop tests' inputs are.
ALLOWED = {
    "factorization.max_operator_norm": "perfbench/tracing.py wraps it; no program run calls it",
    "rounding.membership_test": "perfbench/tracing.py wraps it; the one-point oracle for tests",
    "rescaling.descent_step": "the rescale descent loop's line search",
    "rescaling.perturbation_direction": "the descent loop's John direction",
    "rescaling.balance_scalar": "the descent loop's balancing of its start",
    "rescaling.john_decompose": "the John direction's decomposition; tests/test_john.py",
    "rescaling._fold_symmetric": "john_decompose's symmetric fold",
    "rescaling._mvee_weights": "john_decompose's MVEE solver",
    "rescaling._validate_john": "john_decompose's check of its own output",
    "rescaling.JohnDecomposition.moment_matrix": "john_decompose's moment matrix",
    "symmat.sqrt_psd": "john_decompose's ellipsoid map",
    "factorization.potential": "descent_step's measurement when it is given no phi0",
    "polytopes.enumerate_01_vertices": "the tests' reference for the builtins' vertex sets",
    "record._constructor": "runs at import, when each record class is defined",
    "record.Record.__init_subclass__": "runs at import, when each record class is defined",
    "record.Record.__setattr__": "runs only on misuse: a record is immutable",
    "record.Record.__delattr__": "runs only on misuse: a record is immutable",
    "errors.ConvergenceError.__init__": "runs only when a solver fails to converge",
}


def functions(root: Path = PACKAGE) -> dict[tuple[str, int], str]:
    """Every ``def`` under ``root``: (file, first line) -> ``module.qualified.name``."""
    found = {}

    def visit(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    # A second def on one first line would hide the first.
                    assert (path, first) not in found, (path, first)
                    found[(path, first)] = f"{module}.{name}"
                visit(child, path, module, name + ".")
            else:
                visit(child, path, module, prefix)

    for path in sorted(root.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), path.stem, "")
    return found


def findings(defs: dict, entered: set, allowed: dict) -> list[str]:
    """One line per function never entered without a reason, per allowlisted
    function entered, and per allowlisted name that names no function."""
    names = set(defs.values())
    lines = [f"{name}: never entered; delete it or give its reason in ALLOWED"
             for name in sorted(names - entered - set(allowed))]
    lines += [f"{name}: entered, but allowlisted" for name in sorted(set(allowed) & entered)]
    lines += [f"{name}: allowlisted, but no such function"
              for name in sorted(set(allowed) - names)]
    return lines


def pipeline_runs() -> None:
    for instance, n in grid_fixture.GRID_INSTANCES:
        run_pipeline(instance, n)
        run_pipeline(instance, n, PipelineConfig(unbalance=1e4, seed=0))
    for instance, n in grid_fixture.SKIP_RESCALE_INSTANCES:
        run_pipeline(instance, n, PipelineConfig(skip_rescale=True, unbalance=1e4, seed=0))
    run_pipeline("cube", 2, PipelineConfig(r=3))
    run_pipeline("cube", 2, PipelineConfig(r=1))
    # The one run that takes reduce_to_common_space's image path.
    run_pipeline("crosspoly_01", 2, PipelineConfig(r=4, unbalance=1e4, seed=0))


def cli_runs(tmp: Path) -> None:
    """One ``cli.main`` run of each subcommand and path-selecting flag, each at its exit code."""
    path = {name: str(tmp / name) for name in (
        "slack.json", "polytope.json", "from_file.json", "moment.json", "fact.json",
        "verified.json", "fitted.json", "rescaled.json", "trace.csv", "system.json",
        "system10.json", "recon.json", "derivatives.json", "derivatives.csv", "bounds.out")}
    slack, fact = path["slack.json"], path["fact.json"]

    def run(code, *argv):
        assert main(list(argv)) == code, argv

    run(0, "slack", "build", "--instance", "cube", "--n", "2", "--out", slack)
    polytope = json.loads(Path(slack).read_text())["polytope"]
    Path(path["polytope.json"]).write_text(json.dumps(polytope))
    run(0, "slack", "build", "--file", path["polytope.json"], "--out", path["from_file.json"])
    run(0, "slack", "build", "--instance", "moment_polygon", "--n", "5",
        "--out", path["moment.json"])
    run(0, "fact", "embed", "--slack", slack, "--out", fact)
    run(0, "fact", "verify", "--slack", slack, "--fact", fact, "--out", path["verified.json"])
    run(0, "fact", "fit", "--slack", slack, "--r", "3", "--out", path["fitted.json"])
    run(0, "rescale", "run", "--slack", slack, "--fact", fact, "--trace", path["trace.csv"],
        "--out", path["rescaled.json"])
    run(0, "round", "run", "--slack", slack, "--fact", path["rescaled.json"],
        "--out", path["system.json"])
    run(0, "round", "run", "--slack", slack, "--fact", path["rescaled.json"], "--worst-case",
        "--delta", "max/10", "--out", path["system10.json"])
    run(0, "reconstruct", "--system", path["system.json"], "--out", path["recon.json"])
    run(0, "check", "derivatives", "--pairs", "3", "--report", path["derivatives.csv"],
        "--out", path["derivatives.json"])
    for formula in FORMULAS:
        run(0, "bounds", "eval", "--formula", formula, "--out", path["bounds.out"])
    run(0, "bounds", "eval", "--formula", "xc01", "--format", "csv", "--out", path["bounds.out"])
    run(2, "pipeline", "--instance", "cube", "--n", "9")


def entered_functions(tmp: Path) -> set[str]:
    """The names of the package's functions that the run set enters."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            pipeline_runs()
            cli_runs(tmp)
    finally:
        sys.setprofile(previous)
    defs = functions()
    files = {name: str(Path(name).resolve()) for name in {code.co_filename for code in codes}}
    keys = {(files[code.co_filename], code.co_firstlineno) for code in codes}
    return {defs[key] for key in keys & defs.keys()}


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    return entered_functions(tmp_path_factory.mktemp("reach"))


def test_every_function_is_entered_or_has_a_reason(entered):
    faults = findings(functions(), entered, ALLOWED)
    assert not faults, "\n".join(faults)


def test_the_functions_are_keyed_one_to_one():
    # One name twice in a module would hide a function from the check.
    defs = functions()
    assert len(set(defs.values())) == len(defs)
    assert {"rounding.reconstruct", "rounding._decide.offer", "cli.main",
            "rounding.GridParams.step"} <= set(defs.values())


def test_findings_name_each_kind_of_fault():
    defs = {("a.py", 1): "a.f", ("a.py", 5): "a.g", ("a.py", 9): "a.C.h"}
    assert findings(defs, {"a.f", "a.g", "a.C.h"}, {}) == []
    assert findings(defs, {"a.f"}, {"a.g": "reason", "a.gone": "reason"}) == [
        "a.C.h: never entered; delete it or give its reason in ALLOWED",
        "a.gone: allowlisted, but no such function",
    ]
    assert findings(defs, {"a.f", "a.g", "a.C.h"}, {"a.g": "reason"}) == [
        "a.g: entered, but allowlisted"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entered = entered_functions(Path(tmp))
    print("\n".join(findings(functions(), entered, ALLOWED)) or "every function is reached")
