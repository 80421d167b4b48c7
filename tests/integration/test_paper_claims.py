"""Integration tests asserting the paper's qualitative claims at small scale.

These are the Section 5.6 "Key Insights", checked on shrunken workloads so
they run inside the unit-test budget.  The full-scale equivalents live in
``benchmarks/``.
"""

import pytest

from repro import run
from repro.bench.harness import BenchConfig, run_grid
from repro.bench.reporting import autoscaling_saves_process_time
from repro.platforms.profiles import CLOUD, SERVER, get_platform
from repro.workflows.astro.workflow import build_internal_extinction_workflow
from repro.workflows.sentiment.workflow import build_sentiment_workflow

SCALE = 0.004


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


class TestAutoScalingEfficiency(object):
    """Insight 1: 'auto-scaling consistently demonstrates efficiency'."""

    def test_multi_family_saves_process_time(self, galaxy_grid):
        assert autoscaling_saves_process_time(
            galaxy_grid, "dyn_auto_multi", "dyn_multi"
        )

    def test_redis_family_saves_process_time(self, galaxy_grid):
        assert autoscaling_saves_process_time(
            galaxy_grid, "dyn_auto_redis", "dyn_redis"
        )

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

    def test_hybrid_beats_multi_runtime(self):
        config = BenchConfig(time_scale=0.04, repeats=3)
        grid = run_grid(
            sentiment_factory,
            ["multi", "hybrid_redis"],
            [14, 16],
            SERVER,
            config,
        )
        ratios = [
            grid[("hybrid_redis", p)].runtime / grid[("multi", p)].runtime
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

    def test_contention_hurts_beyond_cores(self):
        config = BenchConfig(time_scale=SCALE)

        def cpu_heavy_factory():
            graph, inputs = build_internal_extinction_workflow(
                scale=1, query_latency=0.01
            )
            # crank CPU cost so core contention dominates
            graph.pe("filterColumns").filter_cost = 0.08
            graph.pe("internalExtinction").compute_cost = 0.08
            return graph, inputs[:80]

        grid = run_grid(cpu_heavy_factory, ["dyn_multi"], [8, 16], CLOUD, config)
        r8 = grid[("dyn_multi", 8)].runtime
        r16 = grid[("dyn_multi", 16)].runtime
        # With only 8 cores, 16 processes cannot be ~2x faster than 8; the
        # curve flattens (and may dip from switching costs).
        assert r16 > r8 * 0.7


class TestDynamicBeatsStaticAtLowProcesses:
    """The motivation of Figure 1/2: dynamic balances where static idles."""

    def test_dyn_multi_beats_multi(self):
        config = BenchConfig(time_scale=SCALE)
        grid = run_grid(
            galaxy_factory, ["multi", "dyn_multi"], [5], get_platform("server"), config
        )
        assert (
            grid[("dyn_multi", 5)].runtime < grid[("multi", 5)].runtime * 1.1
        )
