"""The benchmark in perfbench/ binds program names and reads program outputs.

A change that renames a traced function or breaks a workload's check
fails here, in the test suite, rather than only in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("home, name", tracing.SPANNED + tracing.COUNTED)
def test_traced_name_is_a_program_function(home, name):
    module = importlib.import_module(f"psdfact.{home}")
    assert callable(getattr(module, name, None))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_first_call_passes_its_check_under_the_tracer(workload):
    call = workloads.WORKLOADS[workload](0)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = call.run()
    finally:
        tracer.uninstall()
    assert call.check(out) is True
