"""Timed rounds, set-up probes and the traced run behind ``run.py``.

Imported by ``run.py`` only after psdfact has been imported from the
checkout's ``src/``.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
SETUP_REPEATS = 5
# Traced rounds per workload in a traced run; the calls of accept take
# milliseconds, so it gets enough rounds for stable medians.
TRACE_ROUNDS = {"sweep": 1, "rescale": 1, "accept": 25}

# Per-layer metrics measured on each workload under --trace 1, as
# "<workload>.<metric>".  Only layers the workload reaches are listed.
_ROUNDING = (
    "rounding.membership_test.calls", "rounding.membership_test.s",
    "rounding.membership.accept_s", "rounding.membership.pgd_iterations",
    "rounding.membership.decided_iter_ratio", "rounding.reconstruct.s",
    "rounding.build_rounded_system.s", "rounding.select_subsystem.s",
)
_PIPELINE_COMMON = (
    "rescaling.rescale.s", "rescaling.reduce_to_common_space.s",
    "factorization.max_operator_norm.calls", "factorization.max_operator_norm.s",
    "factorization.verify_factorization.calls", "factorization.verify_factorization.s",
    "factorization.diagonal_embed.s", "polytopes.build_slack.s",
    "symmat.eig_clip.calls", "symmat.eig_clip.s",
    "symmat.spectral_decompose.calls", "symmat.spectral_decompose.s",
    "symmat.operator_norm.calls", "symmat.as_symmetric.calls",
)
_BENCH = ("bench.pass_wall_s", "bench.cal_s", "bench.trace_overhead")
LAYER_METRICS = {
    "sweep": _ROUNDING + ("rounding.membership.reject_s", "rounding.membership.inconclusive_s")
    + _PIPELINE_COMMON + _BENCH,
    "rescale": (
        "rescaling.rescale.s", "rescaling.iterations",
        "rescaling.perturbation_direction.calls", "rescaling.perturbation_direction.self_s",
        "rescaling.john_decompose.calls", "rescaling.john_decompose.s",
        "rescaling.descent_step.calls", "rescaling.descent_step.s",
        "rescaling.line_search.candidates", "rescaling.reduce_to_common_space.s",
        "factorization.max_operator_norm.calls", "factorization.max_operator_norm.s",
        "factorization.verify_factorization.calls", "factorization.verify_factorization.s",
        "symmat.spectral_decompose.calls", "symmat.spectral_decompose.s",
        "symmat.operator_norm.calls", "symmat.as_symmetric.calls",
    ) + _BENCH,
    "accept": _ROUNDING + _PIPELINE_COMMON + _BENCH,
}


def unit_of(metric: str) -> str:
    if metric.endswith(("_ratio", "trace_overhead")):
        return "ratio"
    if metric.endswith(("_s", ".s")):
        return "s"
    return "count"


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes


def setup_probe(workload: str, seed: int, start: tuple[float, float]) -> None:
    """Finish set-up in this fresh process and print when it ran and its CPU time.

    ``start`` holds perf_counter and process_time from before psdfact and
    numpy were imported.
    """
    workloads.WORKLOADS[workload](seed)
    print(json.dumps({"t0": start[0], "t1": time.perf_counter(),
                      "cpu": time.process_time() - start[1]}))


def measure_setup(workload: str, seed: int, ticker: calibration.Ticker) -> float:
    """Median calibrated set-up seconds over SETUP_REPEATS fresh processes.

    One untimed process runs first so that bytecode caches are written.
    The probes inherit this process's CPU, so the ticker calibrates them.
    """
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    probes = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probes.append(json.loads(out.stdout.strip().splitlines()[-1]))
        ticker.drain()
    ticker.wait_past(probes[-1]["t1"])
    return statistics.median(p["cpu"] * ticker.scale(p["t0"], p["t1"]) for p in probes[1:])


# ---------------------------------------------------------------------------
# timed rounds


class Rounds:
    """Whole rounds of one workload's calls, timed against the ticker.

    A round calls every input once and then its first, cheapest input once
    more, so that every round checks that a repeated call reproduces the
    first call's key exactly.  In a traced round every call but that repeat
    is traced, so the pair gives the tracing overhead.  Each call is
    recorded with its wall interval and CPU seconds; ``calibrated()`` turns
    them into calibrated seconds.  Every output is checked.
    """

    def __init__(self, calls, ticker: calibration.Ticker):
        self.calls = calls
        self.ticker = ticker
        self.records = []  # (group, traced, t0, t1, cpu seconds)
        self.keys = {}
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def run_round(self, tracers=None) -> None:
        """One call per input and the repeat; with ``tracers``, traced.

        Each traced call's label, tracer and record index go to ``tracers``.
        """
        self.rounds += 1
        for n, call in enumerate(self.calls + self.calls[:1]):
            tracer = None
            if tracers is not None and n < len(self.calls):
                tracer = Tracer()
                tracer.install()
            try:
                t0, c0 = time.perf_counter(), time.process_time()
                out = call.run()
                c1, t1 = time.process_time(), time.perf_counter()
            finally:
                if tracer is not None:
                    tracer.uninstall()
            self.ticker.drain()
            self.attempted += 1
            try:
                if not call.check(out):
                    self.failed += 1
                key = call.key(out)
                if self.keys.setdefault(call.label, key) != key:
                    raise workloads.WrongAnswer(f"{call.label}: a repeated call gave another result")
            except workloads.WrongAnswer as exc:
                exc.attempted, exc.failed = self.attempted, self.failed + 1
                raise
            self.records.append((call.group, tracer is not None, t0, t1, c1 - c0))
            if tracer is not None:
                tracers.append((call.label, tracer, len(self.records) - 1))

    def calibrated(self, index: int) -> float:
        _, _, t0, t1, cpu = self.records[index]
        return cpu * self.ticker.scale(t0, t1)

    def by_group(self, traced: bool, calibrated: bool) -> dict[str, list[float]]:
        """Seconds per call of each input group, traced or untraced calls."""
        self.ticker.wait_past(self.records[-1][3])
        per_group = {}
        for i, (group, was_traced, t0, t1, _) in enumerate(self.records):
            if was_traced == traced:
                value = self.calibrated(i) if calibrated else t1 - t0
                per_group.setdefault(group, []).append(value)
        return per_group

    def pass_seconds(self, traced=False, calibrated=True) -> float:
        """Sum over input groups of the median seconds per call.

        Calibrated seconds by default; raw wall seconds otherwise.
        """
        per_group = self.by_group(traced, calibrated)
        return sum(statistics.median(v) for v in per_group.values())


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    with calibration.Ticker() as ticker:
        setup_s = measure_setup(workload, seed, ticker)
        rounds = Rounds(workloads.WORKLOADS[workload](seed), ticker)
        start = time.perf_counter()
        rounds.run_round()
        while True:
            now = time.perf_counter()
            if now + (now - start) / rounds.rounds > start + seconds:
                break
            rounds.run_round()
        pass_s = rounds.pass_seconds()
        calibrated = rounds.by_group(traced=False, calibrated=True)
        for group, wall in rounds.by_group(traced=False, calibrated=False).items():
            print(f"{group}: {len(wall)} calls, median {statistics.median(calibrated[group]):.4f} s "
                  f"calibrated, {statistics.median(wall):.4f} s wall", file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return {"attempted": rounds.attempted, "failed": rounds.failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# the traced run


def run_traced(seed: int) -> dict:
    """Traced rounds of every workload; per-layer metrics.

    Each workload runs TRACE_ROUNDS[workload] traced rounds, a fixed
    number, so that counts and the failed share are the same in every
    traced run.
    """
    metrics, dumps = {}, {}
    attempted = failed = 0
    with calibration.Ticker() as ticker:
        for name in WORKLOAD_NAMES:
            rounds = Rounds(workloads.WORKLOADS[name](seed), ticker)
            traced_rounds = []
            for _ in range(TRACE_ROUNDS[name]):
                tracers = []
                rounds.run_round(tracers)
                traced_rounds.append(tracers)
            attempted += rounds.attempted
            failed += rounds.failed
            metrics.update(_layer_metrics(name, rounds, traced_rounds))
            dumps[name] = {label: tracer.dump() for label, tracer, _ in traced_rounds[0]}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{seed}.json", "w") as fh:
        json.dump({"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "spans": dumps}, fh)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_metrics(workload: str, rounds: Rounds, traced_rounds) -> dict:
    """Counts from the traced rounds, which must agree, and median span times.

    A span's wall seconds are scaled by its call's calibrated seconds over
    the call's wall seconds.
    """
    rounds.ticker.wait_past(rounds.records[-1][3])
    per_round_counts, per_round_seconds = [], []
    for tracers in traced_rounds:
        counts, secs = {}, {}
        for _, tracer, index in tracers:
            _, _, t0, t1, _ = rounds.records[index]
            factor = rounds.calibrated(index) / (t1 - t0)
            for k, v in tracer.counts.items():
                counts[k] = counts.get(k, 0) + v
            for k, v in tracer.layer_seconds().items():
                secs[k] = secs.get(k, 0.0) + v * factor
        per_round_counts.append(counts)
        per_round_seconds.append(secs)
    if any(c != per_round_counts[0] for c in per_round_counts):
        raise workloads.WrongAnswer(f"{workload}: counts differ between traced rounds")
    values = dict(per_round_counts[0])
    total = values.get("rounding.membership.pgd_iterations", 0)
    if total:
        decided = values.get("rounding.membership.decided_iterations", 0)
        values["rounding.membership.decided_iter_ratio"] = decided / total
    for key in {k for s in per_round_seconds for k in s}:
        values[key] = statistics.median(s.get(key, 0.0) for s in per_round_seconds)
    values["bench.pass_wall_s"] = rounds.pass_seconds(traced=True, calibrated=False)
    values["bench.cal_s"] = rounds.ticker.mean_kernel()
    first = rounds.calls[0].group
    traced = statistics.median(rounds.by_group(traced=True, calibrated=True)[first])
    untraced = statistics.median(rounds.by_group(traced=False, calibrated=True)[first])
    values["bench.trace_overhead"] = traced / untraced
    return {f"{workload}.{m}": (values.get(m, 0), unit_of(m)) for m in LAYER_METRICS[workload]}


def main(args) -> int:
    try:
        if args.trace:
            result = run_traced(args.seed)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds)
    except workloads.WrongAnswer as exc:
        print(f"benchmark: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": getattr(exc, "attempted", 1),
                          "failed": getattr(exc, "failed", 1), "metrics": {}}))
        return 1
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0
