"""Every mutation of every input file ends in a documented exit code, with one line on a refusal.

The inputs are cube n=2's four files, each written by the CLI: the
polytope with its points (the slack file's ``polytope``), the slack
matrix, the rescaled factorization and the rounded system.  A mutation
sets one path of a file to one of ``VALUES``, or deletes it; a list is
entered only at its first and last element.  Each mutated file goes in
process through ``cli.main`` by a command that reads it (``READERS``), and
the run must:

- exit 0, 1, 2 or 3, with nothing raised out of ``main`` and no warning;
- on exit 2 or 3, print exactly one line on stderr;
- on exit 2, name a flag in that line (``error: --FLAG ...``).

The tier-1 test runs a sample: one value per path, and the path's
deletion, each through one reader, the readers taken in turn.  The k-th
leaf of a file takes ``VALUES[k % 8]``, and so does its k-th container, so
the eight sampled entries of a (k, r, r) factor stack take the eight
values between them.  Run this file as a script for the full sweep: every
value and the deletion of every path, through every reader.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from psdfact.cli import main

VALUES = (None, True, "1", -1, 1e308, float("nan"), [], 2**70)
DELETE = object()

# Each file and the commands that read it; {bad} is the mutated file.
READERS = {
    "polytope": [["slack", "build", "--file", "{bad}"]],
    "slack": [["fact", "embed", "--slack", "{bad}"],
              ["fact", "verify", "--slack", "{bad}", "--fact", "{fact}"],
              ["rescale", "run", "--slack", "{bad}", "--fact", "{fact}"],
              ["round", "run", "--slack", "{bad}", "--fact", "{fact}"]],
    "fact": [["fact", "verify", "--slack", "{slack}", "--fact", "{bad}"],
             ["rescale", "run", "--slack", "{slack}", "--fact", "{bad}"],
             ["round", "run", "--slack", "{slack}", "--fact", "{bad}"]],
    "system": [["reconstruct", "--system", "{bad}"]],
}


def write_inputs(tmp: Path) -> dict[str, Path]:
    """Cube n=2's polytope, slack, rescaled factorization and system files."""
    path = {name: tmp / f"{name}.json"
            for name in ("polytope", "slack", "embed", "fact", "system")}
    for argv in (["slack", "build", "--instance", "cube", "--n", "2", "--out", path["slack"]],
                 ["fact", "embed", "--slack", path["slack"], "--out", path["embed"]],
                 ["rescale", "run", "--slack", path["slack"], "--fact", path["embed"],
                  "--out", path["fact"]],
                 ["round", "run", "--slack", path["slack"], "--fact", path["fact"],
                  "--out", path["system"]]):
        assert main([str(a) for a in argv]) == 0, argv
    path["polytope"].write_text(json.dumps(json.loads(path["slack"].read_text())["polytope"]))
    return path


def paths(doc, prefix=()):
    """Every path of a JSON document, depth first; a list at its first and last element."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(doc, list) and doc:
        for i in sorted({0, len(doc) - 1}):
            yield from paths(doc[i], prefix + (i,))


def mutated(doc, path, value):
    """A copy of ``doc`` with ``path`` set to ``value``, or deleted for DELETE."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def full(doc):
    """Every value, and the deletion, of every path."""
    for path in paths(doc):
        for value in VALUES + ((DELETE,) if path else ()):
            yield path, value


def sample(doc):
    """One value per path, the k-th leaf's and the k-th container's VALUES[k % 8], and the
    path's deletion."""
    turn = {True: 0, False: 0}
    for path in paths(doc):
        node = doc
        for key in path:
            node = node[key]
        leaf = not isinstance(node, (dict, list))
        yield path, VALUES[turn[leaf] % len(VALUES)]
        turn[leaf] += 1
        if path:
            yield path, DELETE


def run(argv) -> tuple[object, str]:
    """``main(argv)``'s exit code, or what it raised, and its stderr; a warning raises."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except Exception as exc:  # any escape is a fault to report, not to stop the sweep
            code = exc
    return code, err.getvalue()


def fault(code, err: str) -> str | None:
    """What a run's exit code and stderr break of the rules, or None."""
    if code not in (0, 1, 2, 3):
        return f"raised or returned {code!r}"
    if code in (2, 3) and (err.count("\n") != 1 or not err.endswith("\n")):
        return f"exit {code} with stderr {err!r}"
    if code == 2 and not re.match(r"error: --[a-z]", err):
        return f"exit 2 names no flag: {err!r}"
    return None


def sweep(tmp: Path, every: bool) -> tuple[int, list[str]]:
    """Run the full sweep when ``every`` is true, else the sample; the run count and faults."""
    path = write_inputs(tmp)
    bad = tmp / "bad.json"
    out = str(tmp / "out.json")
    runs, faults = 0, []
    for name, readers in READERS.items():
        doc = json.loads(path[name].read_text())
        for k, (where, value) in enumerate((full if every else sample)(doc)):
            bad.write_text(json.dumps(mutated(doc, where, value)))
            for argv in readers if every else [readers[k % len(readers)]]:
                argv = [a.format(bad=bad, slack=path["slack"], fact=path["fact"])
                        for a in argv] + ["--out", out]
                runs += 1
                problem = fault(*run(argv))
                if problem:
                    shown = "deleted" if value is DELETE else f"= {value!r}"
                    faults.append(f"{name} {list(where)} {shown}, {' '.join(argv[:2])}: "
                                  f"{problem}")
    return runs, faults


def test_every_path_sampled_ends_in_a_documented_exit(tmp_path):
    runs, faults = sweep(tmp_path, every=False)
    assert runs > 300
    assert not faults, f"{len(faults)} of {runs} runs:\n" + "\n".join(faults[:20])


def test_the_sample_gives_every_value_to_a_factor_stack():
    doc = {"U": [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]], "r": 2}
    given = {repr(value) for where, value in sample(doc)
             if where[:1] == ("U",) and len(where) == 4 and value is not DELETE}
    assert given == set(map(repr, VALUES))


@pytest.mark.parametrize("code,err,want", [
    (2, "error: --system x: bad\n", None),
    (3, "numeric error: overflow\n", None),
    (2, "error: bad\n", "exit 2 names no flag: 'error: bad\\n'"),
    (3, "", "exit 3 with stderr ''"),
    (ValueError("x"), "", "raised or returned ValueError('x')")])
def test_fault_names_each_broken_rule(code, err, want):
    assert fault(code, err) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        total, found = sweep(Path(tmp), every=True)
    print("\n".join(found + [f"{total} runs, {len(found)} faults"]))
    sys.exit(1 if found else 0)
