"""One traced pass of each benchmark workload through the benchmark's own
hooks (``bench/harness.py``, workloads from ``bench/run.py``), so that a
change to a name or result the traced run reads fails here as well."""

import collections
import importlib.util
import os
from pathlib import Path
from unittest import mock

import pytest

from safefem import verify

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # run.py pins the BLAS thread count in os.environ when it is imported
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


harness = _load("harness")
WORKLOADS = _load("run").WORKLOADS


def test_verify_calls_are_verify_attributes():
    missing = [name for name in harness.VERIFY_CALLS if not hasattr(verify, name)]
    assert missing == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass(workload):
    tracer = harness.Tracer()
    cases = [(spec, verify.make_case(*spec[:3])) for spec in WORKLOADS[workload]]
    with harness.traced_verify(verify, tracer):
        tracer.pass_index = 0
        solves = harness.run_pass(verify, cases, tracer)
    assert [s.problems for s in solves] == [[] for _ in solves]

    spans = tracer.spans
    # one solver span inside each solve_case span
    solve_spans = [i for i, s in enumerate(spans) if s["name"] == "verify.solve_case"]
    solver_parents = collections.Counter(
        s["parent"] for s in spans if s["name"] == "solver.solve")
    assert len(solve_spans) == len(solves)
    assert solver_parents == collections.Counter(solve_spans)

    counts = collections.Counter()
    for s in spans:
        counts.update(s["counts"])
    assert set(counts) == set(harness.COUNT_METRICS)
    assert all(value > 0 for value in counts.values())
    assert min(tracer.self_times()) >= 0
