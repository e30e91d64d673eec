"""Spans and counts at the program's public functions, from outside the program.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``psdfact`` module namespace that binds it (``rescaling.rescale`` and
``pipeline.rescale`` are one function bound twice), and ``uninstall`` puts
the originals back.  A span records its name, start, end and parent; spans
stay in memory until the run writes them out.  Functions called far too
often for a span each are only counted.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (home module, function name); each gets a span per call.
SPANNED = (
    ("pipeline", "run_pipeline"),
    ("polytopes", "build_slack"),
    ("factorization", "diagonal_embed"),
    ("factorization", "verify_factorization"),
    ("factorization", "max_operator_norm"),
    ("rescaling", "rescale"),
    ("rescaling", "reduce_to_common_space"),
    ("rescaling", "perturbation_direction"),
    ("rescaling", "john_decompose"),
    ("rescaling", "descent_step"),
    ("rounding", "build_rounded_system"),
    ("rounding", "select_subsystem"),
    ("rounding", "reconstruct"),
    ("rounding", "membership_test"),
    ("symmat", "spectral_decompose"),
    ("symmat", "eig_clip"),
)
# Counted only: each runs 10^4-10^5 times per call into the program.
COUNTED = (
    ("symmat", "operator_norm"),
    ("symmat", "as_symmetric"),
)
VERDICT_SPLIT = {
    "member-with-witness": "rounding.membership.accept_s",
    "rejected": "rounding.membership.reject_s",
    "inconclusive": "rounding.membership.inconclusive_s",
}


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "psdfact" or name.startswith("psdfact."))]


class Tracer:
    """Collects spans and counts while installed; one instance per traced call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, int] = defaultdict(int)
        self.verdict_seconds: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = _program_modules()
        for targets, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for home, fname in targets:
                original = getattr(sys.modules[f"psdfact.{home}"], fname)
                wrapper = make(f"{home}.{fname}", original)
                for module in modules:
                    if module.__dict__.get(fname) is original:
                        self._patched.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()

    def _spanned(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            counts[name + ".calls"] += 1
            self._observe(name, fn, args, kwargs, out, end - start)
            return out

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, fn, args, kwargs, out, seconds) -> None:
        """Counts read off a traced call's arguments and result."""
        if name == "rounding.membership_test":
            self.verdict_seconds[VERDICT_SPLIT[out.verdict]] += seconds
            self.counts["rounding.membership.pgd_iterations"] += out.iterations
            if out.verdict != "inconclusive":
                self.counts["rounding.membership.decided_iterations"] += out.iterations
        elif name == "rescaling.rescale":
            self.counts["rescaling.iterations"] += out.iterations
        elif name == "rescaling.descent_step":
            grid = args[2] if len(args) > 2 else kwargs.get(
                "eps_grid", fn.__defaults__[0])
            self.counts["rescaling.line_search.candidates"] += len(grid)

    # -- summaries ----------------------------------------------------------

    def layer_seconds(self) -> dict[str, float]:
        """Total and self seconds per span name, and membership time by verdict."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            total[name + ".s"] += end - start
            total[name + ".self_s"] += end - start - child[idx]
        total.update(self.verdict_seconds)
        return dict(total)

    def dump(self) -> dict:
        return {
            "format": "spans are [name index, start s, end s, parent span index or -1]",
            "names": self.names,
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
        }
