"""Grid runner and paired-ratio primitive for the evaluation experiments."""

from __future__ import annotations

import gc
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.graph import WorkflowGraph
from repro.engine import Engine
from repro.metrics.result import RunResult
from repro.platforms.profiles import PlatformProfile, get_platform

#: A workflow factory returns a fresh (graph, inputs) pair per run --
#: graphs are single-use because PE instances accumulate state.
WorkflowFactory = Callable[[], Tuple[WorkflowGraph, list]]


@dataclass
class BenchConfig:
    """Shared knobs of a benchmark session.

    Attributes
    ----------
    time_scale:
        Nominal-to-real scale for every run.  The default replays the
        paper's second-scale workloads at 1.5% speed, keeping the full
        grid tractable; ratios are scale-invariant (docs/benchmarks.md,
        "Methodology").
    repeats:
        Repetitions per cell; the median runtime/process-time is kept.

    Every cell runs with the engine's default seed (0), identical across
    cells for comparability.
    """

    time_scale: float = 0.015
    repeats: int = 1


@contextmanager
def _timed() -> Iterator[List[float]]:
    """Run the body on a frozen heap; yields ``[gen-2 seconds]``.

    The young generations are collected, then ``gc.freeze()``, so a gen-2
    pause inside the body scans the body's own objects, not what the host
    process (a test session) held before; ``gc.unfreeze()`` after.  A full
    collection here would cost ≈120 ms a run over a test session's heap.
    A body timed inside another (a :func:`paired_ratio` cell calling
    :func:`run_cell`) runs on the outer body's frozen heap.
    """
    outermost = gc.get_freeze_count() == 0
    if outermost:
        gc.collect(1)
        gc.freeze()
    spent = [0.0]

    def clock(phase: str, info: Dict[str, int]) -> None:
        if info["generation"] == 2:  # minus the start time, plus the stop time
            spent[0] += time.perf_counter() * (1 if phase == "stop" else -1)

    gc.callbacks.append(clock)
    try:
        yield spent
    finally:
        gc.callbacks.remove(clock)
        if outermost:
            gc.unfreeze()


def run_cell(
    factory: WorkflowFactory,
    mapping: str,
    processes: int,
    platform: PlatformProfile,
    config: Optional[BenchConfig] = None,
    **options: Any,
) -> RunResult:
    """Run one (mapping, processes) cell, returning the median repeat."""
    config = config or BenchConfig()
    engine = Engine(
        mapping=mapping,
        platform=platform,
        processes=processes,
        time_scale=config.time_scale,
        **options,
    )
    return _median_run(engine, factory, config.repeats)


def _median_run(
    engine: Engine,
    factory: WorkflowFactory,
    repeats: int,
    mapping: Optional[str] = None,
    processes: Optional[int] = None,
) -> RunResult:
    """Run one cell ``repeats`` times through ``engine``; keep the median."""
    results: List[RunResult] = []
    overrides: Dict[str, Any] = {}
    if mapping is not None:
        overrides["mapping"] = mapping
    if processes is not None:
        overrides["processes"] = processes
    for _ in range(max(1, repeats)):
        graph, inputs = factory()
        with _timed() as gen2:
            result = engine.run(graph, inputs=inputs, **overrides)
        results.append(result)
        # Beside the cell, on stderr: ``repro bench`` tables stay as they were.
        print(f"{result.workflow} {result.mapping} p={result.processes}: "
              f"gen-2 {gen2[0] * 1000:.1f} ms", file=sys.stderr, flush=True)
    results.sort(key=lambda r: r.runtime)
    return results[len(results) // 2]


def run_grid(
    factory: WorkflowFactory,
    mappings: Iterable[str],
    processes: Iterable[int],
    platform: "PlatformProfile | str",
    config: Optional[BenchConfig] = None,
    skip: Optional[Callable[[str, int], bool]] = None,
    **options: Any,
) -> Dict[Tuple[str, int], RunResult]:
    """Run the full (mapping x processes) grid for one workload.

    Parameters
    ----------
    skip:
        Optional predicate ``(mapping, processes) -> bool``; cells for
        which it returns True are omitted (e.g. ``multi`` below its
        minimum process count, exactly as the paper's figures start the
        ``multi`` series later).
    """
    if isinstance(platform, str):
        platform = get_platform(platform)
    config = config or BenchConfig()
    # One engine for the whole grid: the platform and registry resolve
    # once, each cell overrides mapping/processes per run.
    engine = Engine(platform=platform, time_scale=config.time_scale, **options)
    grid: Dict[Tuple[str, int], RunResult] = {}
    for mapping in mappings:
        for p in processes:
            if skip is not None and skip(mapping, p):
                continue
            grid[(mapping, p)] = _median_run(
                engine, factory, config.repeats, mapping=mapping, processes=p
            )
    return grid


@dataclass
class PairedRatio:
    """What :func:`paired_ratio` measured: the median, every round's ratio
    in run order, and each round's ``(a, b)`` results."""

    median: float
    ratios: List[float]
    pairs: List[Tuple[Any, Any]]


def paired_ratio(
    cell_a: Callable[[], Any],
    cell_b: Callable[[], Any],
    rounds: int,
    measure: Callable[[Any], float] = lambda result: result.runtime,
    label: str = "a/b",
) -> PairedRatio:
    """The median of ``measure(a) / measure(b)`` over ``rounds`` paired rounds.

    Each round runs both cells back to back, alternating which runs first,
    so load drift hits both sides alike and cancels in the round's ratio.
    One warm-up round runs first and is discarded: it takes the first-run
    costs (imports, caches, a VM's CPU burst credit) off the measured
    rounds.  Each round runs on a frozen heap (:func:`_timed`); every ratio
    is printed under ``label`` with its round's gen-2 time.
    """
    pairs: List[Tuple[Any, Any]] = []
    gen2_ms: List[float] = []
    for round_no in range(rounds + 1):
        with _timed() as gen2:
            if round_no % 2:
                b = cell_b()
                a = cell_a()
            else:
                a = cell_a()
                b = cell_b()
        if round_no:
            pairs.append((a, b))
            gen2_ms.append(gen2[0] * 1000)
    ratios = [measure(a) / measure(b) for a, b in pairs]
    median = sorted(ratios)[len(ratios) // 2]
    print(
        f"\n{label}: median {median:.3f} over {rounds} rounds "
        f"({', '.join(f'{r:.3f}' for r in ratios)}); "
        f"gen-2 ms ({', '.join(f'{ms:.1f}' for ms in gen2_ms)})",
        flush=True,
    )
    return PairedRatio(median, ratios, pairs)
