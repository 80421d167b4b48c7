"""Integration tests asserting the paper's qualitative claims at small scale.

These are the Section 5.6 "Key Insights", checked on shrunken workloads so
they run inside the unit-test budget.  The full-scale equivalents live in
``benchmarks/``.
"""

import pytest

from repro import run
from repro.bench.harness import BenchConfig, paired_ratio, run_cell, run_grid
from repro.platforms.profiles import CLOUD, SERVER
from repro.workflows.astro.workflow import build_internal_extinction_workflow
from repro.workflows.sentiment.workflow import build_sentiment_workflow

SCALE = 0.004
#: Paired rounds of the wall-clock ratios (each after one warm-up round).
PAIR_ROUNDS = 5
#: Three rounds per process count: the median of an even count is its
#: upper middle, so two rounds read the worse one.
PAIR_ROUNDS_STATEFUL = 3


def galaxy_factory():
    graph, inputs = build_internal_extinction_workflow(scale=1)
    return graph, inputs[:60]


def sentiment_factory():
    return build_sentiment_workflow(articles=250)


@pytest.fixture(scope="module")
def galaxy_grid():
    config = BenchConfig(time_scale=SCALE)
    return run_grid(
        galaxy_factory,
        ["dyn_multi", "dyn_auto_multi", "dyn_redis", "dyn_auto_redis"],
        [4, 8],
        SERVER,
        config,
    )


def paired_process_time_ratio(auto: str, plain: str) -> float:
    """The mean over p in (4, 8) of the paired median process-time ratio
    ``auto / plain`` -- what ``autoscaling_saves_process_time`` bars at 1.0
    on one grid, here on paired rounds, so one loaded run cannot decide it."""
    config = BenchConfig(time_scale=SCALE)

    def cell(mapping, processes):
        return lambda: run_cell(galaxy_factory, mapping, processes, SERVER, config)

    medians = [
        paired_ratio(
            cell(auto, p), cell(plain, p), PAIR_ROUNDS,
            measure=lambda result: result.process_time,
            label=f"galaxy {auto}/{plain} process time at p={p}",
        ).median
        for p in (4, 8)
    ]
    return sum(medians) / len(medians)


class TestAutoScalingEfficiency(object):
    """Insight 1: 'auto-scaling consistently demonstrates efficiency'."""

    def test_multi_family_saves_process_time(self, capsys):
        with capsys.disabled():
            ratio = paired_process_time_ratio("dyn_auto_multi", "dyn_multi")
        assert ratio < 1.0

    def test_redis_family_saves_process_time(self, capsys):
        with capsys.disabled():
            ratio = paired_process_time_ratio("dyn_auto_redis", "dyn_redis")
        assert ratio < 1.0

    def test_runtime_not_catastrophically_worse(self, galaxy_grid):
        """Auto-scaling trades a little runtime for efficiency; it must stay
        within a small factor of plain dynamic scheduling."""
        for p in (4, 8):
            auto = galaxy_grid[("dyn_auto_multi", p)].runtime
            plain = galaxy_grid[("dyn_multi", p)].runtime
            assert auto < plain * 3.0


class TestStatefulMappingSuperiority:
    """Insight 3: hybrid_redis surpasses multi on the stateful workflow.

    Needs a coarse enough time scale that per-task compute dominates per-op
    messaging overhead, as on the paper's platforms; the mean runtime ratio
    across the shared process counts must be below 1 (the paper reaches
    0.32 at full scale).
    """

    def test_hybrid_beats_multi_runtime(self, capsys):
        config = BenchConfig(time_scale=0.04)

        def cell(mapping, processes):
            return lambda: run_cell(sentiment_factory, mapping, processes, SERVER, config)

        with capsys.disabled():
            ratios = [
                paired_ratio(
                    cell("hybrid_redis", p), cell("multi", p), PAIR_ROUNDS_STATEFUL,
                    label=f"sentiment hybrid_redis/multi runtime at p={p}",
                ).median
                for p in (14, 16)
            ]
        assert sum(ratios) / len(ratios) < 1.0, ratios

    def test_hybrid_results_match_multi(self):
        def top3(mapping, processes):
            graph, inputs = sentiment_factory()
            result = run(
                graph, inputs=inputs, processes=processes,
                mapping=mapping, platform=SERVER, time_scale=SCALE,
            )
            [rows] = result.output("top3Happiest", "top3")
            return [(s, round(m, 9)) for s, m, _c in rows]

        assert top3("hybrid_redis", 14) == top3("multi", 14)


class TestCloudOversubscription:
    """Section 5.2: cloud (8 cores) dips when processes exceed cores."""

    def test_contention_hurts_beyond_cores(self, capsys):
        config = BenchConfig(time_scale=SCALE)

        def cpu_heavy_factory():
            graph, inputs = build_internal_extinction_workflow(
                scale=1, query_latency=0.01
            )
            # crank CPU cost so core contention dominates
            graph.pe("filterColumns").filter_cost = 0.08
            graph.pe("internalExtinction").compute_cost = 0.08
            return graph, inputs[:80]

        def cell(processes):
            return lambda: run_cell(cpu_heavy_factory, "dyn_multi", processes, CLOUD, config)

        with capsys.disabled():
            paired = paired_ratio(
                cell(16), cell(8), PAIR_ROUNDS,
                label="cloud dyn_multi runtime(16)/runtime(8)",
            )
        # With only 8 cores, 16 processes cannot be ~2x faster than 8; the
        # curve flattens (and may dip from switching costs).
        assert paired.median > 0.7


class TestDynamicBeatsStaticAtLowProcesses:
    """The motivation of Figure 1/2: dynamic balances where static idles."""

    def test_dyn_multi_beats_multi(self, capsys):
        config = BenchConfig(time_scale=SCALE)

        def cell(mapping):
            return lambda: run_cell(galaxy_factory, mapping, 5, SERVER, config)

        with capsys.disabled():
            paired = paired_ratio(
                cell("dyn_multi"), cell("multi"), PAIR_ROUNDS,
                label="galaxy dyn_multi/multi runtime at p=5",
            )
        assert paired.median < 1.1
