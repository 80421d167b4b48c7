"""Experiment definitions: one per figure/table of the paper's Section 5.

Each :class:`Experiment` bundles the platform, mapping set, process counts
and workload variants of one paper artifact, runs the grid through
:mod:`repro.bench.harness`, and renders the same rows/series the paper
reports.  The experiment ids are the paper's artifact numbers
(``fig08`` ... ``fig13``, ``table1`` ... ``table3``; docs/benchmarks.md,
"Figures and tables").

Process counts follow the published figures: {5, 7, 10, 12, 15} on server
and cloud, {4, 8, 16, 32, 64} on HPC, {8, 10, 12, 14, 16} for the
sentiment comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import BenchConfig, WorkflowFactory, run_cell, run_grid
from repro.core.partition import minimum_processes
from repro.metrics.ratios import RatioSummary, summarize_ratios
from repro.metrics.result import RunResult
from repro.metrics.tables import render_ratio_table, render_series, render_trace
from repro.platforms.profiles import get_platform
from repro.workflows import (
    build_internal_extinction_workflow,
    build_seismic_phase1_workflow,
    build_sentiment_workflow,
)

#: Server/cloud process axis (from the figures).
PROCS_SERVER = (5, 7, 10, 12, 15)
#: HPC process axis ("We employed 4, 8, 16, 32, and 64 CPUs").
PROCS_HPC = (4, 8, 16, 32, 64)
#: Sentiment comparison axis ("finer increments of 8, 10, 12, 14, and 16").
PROCS_SENTIMENT = (8, 10, 12, 14, 16)

#: The six techniques of Section 5 (Redis ones absent on HPC).
ALL_MAPPINGS = (
    "multi",
    "dyn_multi",
    "dyn_auto_multi",
    "dyn_redis",
    "dyn_auto_redis",
    "hybrid_redis",
)
MULTI_FAMILY = ("multi", "dyn_multi", "dyn_auto_multi")


def _galaxy(scale: int, heavy: bool) -> WorkflowFactory:
    return lambda: build_internal_extinction_workflow(scale=scale, heavy=heavy)


def _seismic(stations: int = 50, samples: int = 1200) -> WorkflowFactory:
    return lambda: build_seismic_phase1_workflow(stations=stations, samples=samples)


def _sentiment(articles: int = 400) -> WorkflowFactory:
    return lambda: build_sentiment_workflow(articles=articles)


def _min_procs(factory: WorkflowFactory) -> int:
    graph, _ = factory()
    return minimum_processes(graph)


def _skip_static_minimum(factory: WorkflowFactory) -> Callable[[str, int], bool]:
    """Skip static cells below the mapping's minimum process count.

    The paper's figures do the same ("multi initiates with 12 processes"
    for seismic; 14 for sentiment).
    """
    minimum = _min_procs(factory)

    def skip(mapping: str, processes: int) -> bool:
        return mapping in ("multi",) and processes < minimum

    return skip


GridsByWorkload = Dict[str, Dict[Tuple[str, int], RunResult]]


@dataclass
class Experiment:
    """One paper artifact: grid definition + reporting."""

    id: str
    title: str
    platform: str
    mappings: Sequence[str]
    processes: Sequence[int]
    workloads: Dict[str, WorkflowFactory]
    kind: str = "figure"  # "figure" | "table" | "trace"
    comparisons: Sequence[Tuple[str, str]] = field(default_factory=tuple)
    config: BenchConfig = field(default_factory=BenchConfig)

    def run(self, config: Optional[BenchConfig] = None) -> GridsByWorkload:
        """Execute every cell of the experiment."""
        config = config or self.config
        grids: GridsByWorkload = {}
        for label, factory in self.workloads.items():
            grids[label] = run_grid(
                factory,
                self.mappings,
                self.processes,
                get_platform(self.platform),
                config=config,
                skip=_skip_static_minimum(factory),
            )
        return grids

    def report(self, grids: GridsByWorkload) -> str:
        """Render the paper-style rows/series for collected grids."""
        blocks: List[str] = [f"### {self.id}: {self.title} [platform={self.platform}]"]
        if self.kind == "figure":
            for label, grid in grids.items():
                present = [m for m in self.mappings if any(k[0] == m for k in grid)]
                blocks.append(
                    render_series(label, grid, present, list(self.processes))
                )
        elif self.kind == "table":
            for label, grid in grids.items():
                summaries: Dict[str, RatioSummary] = {}
                for numerator, denominator in self.comparisons:
                    if not any(k[0] == numerator for k in grid):
                        continue
                    summaries[f"{self.platform}:{numerator}/{denominator}"] = (
                        summarize_ratios(grid, numerator, denominator)
                    )
                blocks.append(render_ratio_table(label, summaries))
        elif self.kind == "trace":
            for label, grid in grids.items():
                for (mapping, p), result in sorted(grid.items()):
                    if result.trace is not None:
                        blocks.append(
                            render_trace(f"{label} [{mapping}, p={p}]", result.trace)
                        )
        return "\n\n".join(blocks)

    def run_and_report(self, config: Optional[BenchConfig] = None) -> Tuple[str, GridsByWorkload]:
        grids = self.run(config)
        return self.report(grids), grids


def _experiments() -> Dict[str, Callable[[], Experiment]]:
    defs: Dict[str, Callable[[], Experiment]] = {}

    defs["fig08"] = lambda: Experiment(
        id="fig08",
        title="Internal Extinction of Galaxies on server (16 cores)",
        platform="server",
        mappings=ALL_MAPPINGS,
        processes=PROCS_SERVER,
        workloads={
            "1X standard": _galaxy(1, heavy=False),
            "5X standard": _galaxy(5, heavy=False),
            "1X heavy": _galaxy(1, heavy=True),
        },
    )
    defs["fig09"] = lambda: Experiment(
        id="fig09",
        title="Internal Extinction of Galaxies on cloud (8 cores)",
        platform="cloud",
        mappings=ALL_MAPPINGS,
        processes=PROCS_SERVER,
        workloads={
            "1X standard": _galaxy(1, heavy=False),
            "5X standard": _galaxy(5, heavy=False),
            "1X heavy": _galaxy(1, heavy=True),
        },
    )
    defs["fig10"] = lambda: Experiment(
        id="fig10",
        title="Internal Extinction of Galaxies on HPC (64 cores, no Redis)",
        platform="hpc",
        mappings=MULTI_FAMILY,
        processes=PROCS_HPC,
        workloads={
            "5X standard": _galaxy(5, heavy=False),
            "10X standard": _galaxy(10, heavy=False),
            "5X heavy": _galaxy(5, heavy=True),
        },
        config=BenchConfig(time_scale=0.01),
    )
    defs["fig11a"] = lambda: Experiment(
        id="fig11a",
        title="Seismic Cross-Correlation on server",
        platform="server",
        mappings=ALL_MAPPINGS,
        processes=PROCS_SERVER,
        workloads={"50 stations": _seismic()},
    )
    defs["fig11b"] = lambda: Experiment(
        id="fig11b",
        title="Seismic Cross-Correlation on cloud",
        platform="cloud",
        mappings=ALL_MAPPINGS,
        processes=PROCS_SERVER,
        workloads={"50 stations": _seismic()},
    )
    defs["fig11c"] = lambda: Experiment(
        id="fig11c",
        title="Seismic Cross-Correlation on HPC",
        platform="hpc",
        mappings=MULTI_FAMILY,
        processes=PROCS_HPC,
        workloads={"50 stations": _seismic()},
        config=BenchConfig(time_scale=0.01),
    )
    # The sentiment comparison runs at a coarser time scale: the effect the
    # paper reports (hybrid's dynamic stateless pool beating multi's static
    # bottleneck stage) requires per-task compute to dominate per-op
    # messaging overhead, as it does on the paper's platforms.
    defs["fig12a"] = lambda: Experiment(
        id="fig12a",
        title="Sentiment Analyses for News Articles on server",
        platform="server",
        mappings=("multi", "hybrid_redis"),
        processes=PROCS_SENTIMENT,
        workloads={"400 articles": _sentiment()},
        config=BenchConfig(time_scale=0.04),
    )
    defs["fig12b"] = lambda: Experiment(
        id="fig12b",
        title="Sentiment Analyses for News Articles on cloud",
        platform="cloud",
        mappings=("multi", "hybrid_redis"),
        processes=PROCS_SENTIMENT,
        workloads={"400 articles": _sentiment()},
        config=BenchConfig(time_scale=0.04),
    )
    defs["fig13"] = lambda: Experiment(
        id="fig13",
        title="Auto-scaler traces (active size vs monitored metric)",
        platform="server",
        mappings=("dyn_auto_multi", "dyn_auto_redis"),
        processes=(15,),
        workloads={
            "galaxies 5X": _galaxy(5, heavy=False),
            "seismic 50": _seismic(),
        },
        kind="trace",
    )
    defs["table1"] = lambda: Experiment(
        id="table1",
        title="Galaxy ratio summary: auto-scaling vs dynamic scheduling",
        platform="server",
        mappings=("dyn_multi", "dyn_auto_multi", "dyn_redis", "dyn_auto_redis"),
        processes=PROCS_SERVER,
        workloads={"1X standard": _galaxy(1, heavy=False)},
        kind="table",
        comparisons=(
            ("dyn_auto_multi", "dyn_multi"),
            ("dyn_auto_redis", "dyn_redis"),
        ),
    )
    defs["table2"] = lambda: Experiment(
        id="table2",
        title="Seismic ratio summary: auto-scaling vs dynamic scheduling",
        platform="server",
        mappings=("dyn_multi", "dyn_auto_multi", "dyn_redis", "dyn_auto_redis"),
        processes=PROCS_SERVER,
        workloads={"50 stations": _seismic()},
        kind="table",
        comparisons=(
            ("dyn_auto_multi", "dyn_multi"),
            ("dyn_auto_redis", "dyn_redis"),
        ),
    )
    defs["table3"] = lambda: Experiment(
        id="table3",
        title="Sentiment ratio summary: hybrid_redis vs multi",
        platform="server",
        mappings=("multi", "hybrid_redis"),
        processes=(14, 16),
        workloads={"400 articles": _sentiment()},
        kind="table",
        comparisons=(("hybrid_redis", "multi"),),
        config=BenchConfig(time_scale=0.04, repeats=3),
    )
    return defs


EXPERIMENTS: Dict[str, Callable[[], Experiment]] = _experiments()


def list_experiments() -> List[str]:
    return sorted(EXPERIMENTS)


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return EXPERIMENTS[experiment_id]()
    except KeyError:
        known = ", ".join(list_experiments())
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None


def run_single(
    experiment_id: str,
    workload: Optional[str] = None,
    mapping: Optional[str] = None,
    processes: Optional[int] = None,
    config: Optional[BenchConfig] = None,
) -> RunResult:
    """Run one representative cell of an experiment (CLI convenience)."""
    experiment = get_experiment(experiment_id)
    label = workload or next(iter(experiment.workloads))
    factory = experiment.workloads[label]
    return run_cell(
        factory,
        mapping or experiment.mappings[0],
        processes or experiment.processes[0],
        get_platform(experiment.platform),
        config or experiment.config,
    )
