"""The benchmark in perfbench/ binds program names and reads program outputs.

A change that renames a traced function or breaks a workload's check
fails here, in the test suite, rather than only in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

from psdfact.factorization import PsdFactorization

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("home, name", tracing.SPANNED + tracing.COUNTED)
def test_traced_name_is_a_program_function(home, name):
    module = importlib.import_module(f"psdfact.{home}")
    assert callable(getattr(module, name, None))


def run_traced(call):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return call.run()
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_first_call_passes_its_check_under_the_tracer(workload):
    call = workloads.WORKLOADS[workload](0)[0]
    assert call.check(run_traced(call)) is True


# The first call of every rescale group, so that one instance failing on its
# own fails here rather than only in a benchmark run.
RESCALE_GROUP_HEADS = [c.label for c in workloads.rescale_calls(0) if c.label.endswith("-c0")]


@pytest.mark.parametrize("label", RESCALE_GROUP_HEADS)
def test_first_call_of_each_rescale_group_passes_under_the_tracer(label):
    call = next(c for c in workloads.rescale_calls(0) if c.label == label)
    assert call.check(run_traced(call)) is True


# Run seeds at which rescale returned a column factor below the PSD floor,
# which the check and ``PsdFactorization.from_factors`` both refused.
PSD_LOSS_SEEDS = (47, 50, 53, 154, 159)


@pytest.mark.parametrize("seed", PSD_LOSS_SEEDS)
def test_rescale_calls_pass_their_checks_and_reload(seed):
    for call in workloads.rescale_calls(seed):
        res = call.run()
        assert call.check(res) is True, call.label
        PsdFactorization.from_factors(res.factorization.row_factors,
                                      res.factorization.col_factors)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_call_passes_its_check(workload, seed):
    # Every call the benchmark makes at these seeds, untraced as pass_s
    # runs it and traced as the per-layer run does, with the same key.
    for call in workloads.WORKLOADS[workload](seed):
        out = call.run()
        assert call.check(out) is True, call.label
        traced = run_traced(call)
        assert call.check(traced) is True, call.label
        assert call.key(traced) == call.key(out), call.label
