"""Steadiness check: run the benchmark repeatedly and print each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--runs 10] [--first-seed 0] [--workload NAME ...]
    python3 perfbench/steady.py --trace-twice [--first-seed 0]

The first form runs ``run.py --trace 0`` once per seed on each workload,
one run at a time, and prints for every end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  It also prints the share of failed
operations per run, which must be the same in every run.  The second form
makes two traced runs with one seed, reports every count that differs and
prints every per-layer metric of both runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = list(SPEC["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spreads(workload: str, seeds) -> None:
    results = []
    for seed in seeds:
        res = run_once(workload, seed, 0)
        results.append(res)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
        print(f"  {workload} seed={seed} attempted={res['attempted']} failed={res['failed']} {values}",
              flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{workload}: failed share {sorted(shares)}"
          f"{'' if len(shares) == 1 else '  <-- differs between runs'}")
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
        print(f"{workload}: {name:12s} median {med:.6g} {metric['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}  bound {bound}  {flag}", flush=True)


def trace_twice(seed: int) -> None:
    first, second = (run_once(SPEC["workloads"][0]["name"], seed, 1) for _ in range(2))
    differ = []
    for name, metric in first["metrics"].items():
        if metric["unit"] == "count" and metric["value"] != second["metrics"][name]["value"]:
            differ.append(f"{name}: {metric['value']} vs {second['metrics'][name]['value']}")
    print("\n".join(differ) if differ else "counts identical in both traced runs")
    for name, metric in first["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']} / {second['metrics'][name]['value']:.6g}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--trace-twice", action="store_true")
    args = parser.parse_args()
    if args.trace_twice:
        trace_twice(args.first_seed)
        return
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        spreads(workload, range(args.first_seed, args.first_seed + args.runs))


if __name__ == "__main__":
    main()
