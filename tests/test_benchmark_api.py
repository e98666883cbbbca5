"""The benchmark's workloads run against the package, so that a changed
signature of a function they call fails here and not only in a benchmark
run."""

import importlib
import os

import linvariant
import linvariant.cocycles
import linvariant.pipeline

BENCHMARK = os.path.join(os.path.dirname(__file__), "..", "benchmark")


def test_first_operation_of_each_workload_checks_out(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARK)
    workloads = importlib.import_module("workloads")
    rows = workloads.slopes_p2(1, linvariant)
    assert any(row.ref is not None for row in rows)
    assert all(row.ref_problems == () for row in rows)
    spaces = workloads.dims_survey(1, linvariant)
    for ops in (rows, spaces):
        assert ops[0].run(linvariant) == []
