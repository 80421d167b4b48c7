"""Shared machinery for the figure/table regeneration benchmarks.

Every paper artifact (Figures 8-13, Tables 1-3) has one benchmark that runs
the corresponding experiment grid once (``benchmark.pedantic`` with a single
round -- the grid itself is the measurement), prints the same rows/series
the paper reports, and asserts the qualitative shape.

Workloads replay the paper's second-scale runs at a small time scale
(see ``BenchConfig``); absolute numbers are therefore not comparable to the
paper, shapes and ratios are (docs/benchmarks.md, "Methodology").
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.experiments import get_experiment
from repro.core.pe import reset_auto_names


def pytest_collection_modifyitems(items):
    """Tag every figure/table regeneration benchmark with the ``figure``
    marker so CI's fast lane can deselect them (``-m "not figure"``)."""
    this_dir = Path(__file__).resolve().parent
    for item in items:
        if Path(str(item.fspath)).resolve().parent == this_dir:
            item.add_marker(pytest.mark.figure)


@pytest.fixture(autouse=True)
def _deterministic_auto_names():
    """Benchmarks build many graphs per process; keep auto-names stable."""
    reset_auto_names()
    yield


@pytest.fixture
def run_experiment(benchmark, capsys):
    """Run one experiment grid under pytest-benchmark and print its report."""

    def runner(experiment_id: str, mutate=None):
        experiment = get_experiment(experiment_id)
        if mutate is not None:
            mutate(experiment)
        holder = {}

        def once():
            report, grids = experiment.run_and_report()
            holder["report"] = report
            holder["grids"] = grids
            return grids

        benchmark.pedantic(once, rounds=1, iterations=1)
        with capsys.disabled():
            print()
            print(holder["report"])
        return holder["grids"]

    return runner
