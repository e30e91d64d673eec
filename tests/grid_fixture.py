"""The reproduction grid: pipeline runs whose discrete outcomes are pinned.

The grid is every builtin with a 0/1 vertex set (cube and simplex n=1-4,
crosspoly_01 n=2-3, segment n=1, point n=1-2), each plain and after
``--unbalance`` 1e2, 1e3 and 1e4 at seeds 0-2: 130 runs.  The fitted runs
factorize by ``--r`` 1-4 on cube, simplex and crosspoly_01 n=2-3, segment
n=1 and point n=1-2, plain and at ``--unbalance`` 1e4 seed 0, and at the
sides 5 and 6 of ``tests/test_cli.py``'s fitted runs.

Each run keeps only discrete values: the verdict and the three point
lists; the factorize side, steps and found flag; the rescale certificate,
start, iterations and reduced dimension; the three round booleans; and
``selected_rows`` on plain runs, since under a congruence it can turn on
round-off ties.  Floats are not pinned.

Run ``PYTHONPATH=src python tests/grid_fixture.py`` from the root of the
repository to rewrite ``tests/data/grid.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from psdfact.pipeline import PipelineConfig, run_pipeline

FIXTURE = Path(__file__).resolve().parent / "data" / "grid.json"
ABSENT = "<absent>"

GRID_INSTANCES = ([("cube", n) for n in (1, 2, 3, 4)] + [("simplex", n) for n in (1, 2, 3, 4)]
                  + [("crosspoly_01", 2), ("crosspoly_01", 3), ("segment", 1), ("point", 1),
                     ("point", 2)])
CONGRUENCES = [None] + [(t, seed) for t in (1e2, 1e3, 1e4) for seed in range(3)]
FIT_INSTANCES = [("cube", 2), ("cube", 3), ("simplex", 2), ("simplex", 3), ("crosspoly_01", 2),
                 ("crosspoly_01", 3), ("segment", 1), ("point", 1), ("point", 2)]
FIT_SIDES = [(instance, n, r) for instance, n in FIT_INSTANCES for r in (1, 2, 3, 4)] + [
    ("cube", 3, 5), ("cube", 3, 6), ("crosspoly_01", 3, 5)]


def runs() -> dict[str, tuple[str, int, PipelineConfig]]:
    """Every run of the grid and of the fitted runs, by label."""
    out = {}
    for instance, n in GRID_INSTANCES:
        for congruence in CONGRUENCES:
            out[_label(instance, n, None, congruence)] = (instance, n, _config(None, congruence))
    for instance, n, r in FIT_SIDES:
        for congruence in (None, (1e4, 0)):
            out[_label(instance, n, r, congruence)] = (instance, n, _config(r, congruence))
    return out


def _label(instance, n, r, congruence) -> str:
    parts = [instance, f"n{n}"] + ([f"r{r}"] if r is not None else [])
    if congruence is not None:
        parts.append(f"u{congruence[0]:g}s{congruence[1]}")
    return "-".join(parts)


def _config(r, congruence) -> PipelineConfig:
    if congruence is None:
        return PipelineConfig(r=r)
    return PipelineConfig(r=r, unbalance=congruence[0], seed=congruence[1])


def outcome(report: dict, plain: bool) -> dict:
    """The discrete values of one pipeline report."""
    stages = report["stages"]
    out = {"verdict": report["verdict"]}
    factorize = stages["factorize"]
    out["factorize"] = {k: factorize[k] for k in ("r", "found", "steps") if k in factorize}
    if "rescale" in stages:
        out["rescale"] = {k: stages["rescale"][k]
                          for k in ("certificate", "start", "iterations", "reduced_dim")}
    if "round" in stages:
        keys = ("error_bound_ok", "entry_bound_ok", "warm_budget_ok")
        out["round"] = {k: stages["round"][k] for k in keys + (("selected_rows",) if plain else ())}
    if "reconstruct" in stages:
        out["points"] = {k: stages["reconstruct"][k]
                         for k in ("accepted", "rejected", "inconclusive")}
    return out


def compute() -> dict[str, dict]:
    return {label: outcome(run_pipeline(instance, n, cfg), cfg.unbalance is None)
            for label, (instance, n, cfg) in runs().items()}


def differences(got: dict, want: dict) -> list[str]:
    """One line per run missing on either side and per changed field."""
    lines = [f"{label}: missing from the fixture" for label in sorted(set(got) - set(want))]
    lines += [f"{label}: not run" for label in sorted(set(want) - set(got))]
    for label in sorted(set(got) & set(want)):
        g, w = _flatten(got[label]), _flatten(want[label])
        lines += [f"{label}: {field}: {g.get(field, ABSENT)!r}, pinned {w.get(field, ABSENT)!r}"
                  for field in sorted(set(g) | set(w))
                  if g.get(field, ABSENT) != w.get(field, ABSENT)]
    return lines


def _flatten(outcome: dict) -> dict:
    flat = {}
    for key, value in outcome.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            flat[key] = value
    return flat


def main() -> int:
    # One run per line, so that a diff of the file names the changed runs.
    lines = [f"{json.dumps(label)}: {json.dumps(value, sort_keys=True)}"
             for label, value in sorted(compute().items())]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
