"""Ablation: the cost-based graph planner (``optimize``).

Fusion (PR 4, ``fuse=``) is one hard-coded rewrite; the planner
generalizes it into a rule pipeline (dead-output elimination, fan-out
replication, grouping-corridor partial fusion, chain fusion) driven by a
profiled cost model.  On a fine-grained chain the planner's win is the
same hop elimination as classic fusion -- the ablation here checks that
generalizing the pass gave none of it back:

- the **astro chain** (readRaDec >> getVOTable >> filterColumns >>
  internalExtinction) in a fine-grained configuration on
  ``dyn_auto_multi`` -- the acceptance bar is **>= 1.3x median paired
  speedup with optimize on vs off**, with byte-identical outputs;
- the planner's own overhead (the profiling dry-run + rule pass) is
  bounded: planning the sentiment workflow stays under a second of real
  time at smoke scale.

``BENCH_SMOKE=1`` shrinks the grid for the CI bench-smoke lane.
"""

import os

import pytest

from repro.bench.harness import BenchConfig, paired_ratio, run_cell
from repro.core.graph import WorkflowGraph
from repro.mappings.base import normalize_inputs
from repro.planner import Planner
from repro.platforms.profiles import SERVER
from repro.workflows import build_sentiment_workflow
from repro.workflows.astro.pes import (
    FilterColumns,
    GetVOTable,
    InternalExtinction,
    ReadRaDec,
)

pytestmark = pytest.mark.planner

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: Same regime as the fusion ablation: per-stage compute well below the
#: platform's per-hop transfer latency, replayed slowly enough that the
#: hop cost is visible.
CHAIN_CONFIG = BenchConfig(time_scale=0.1, repeats=1)
PROCESSES = 8
GALAXIES = 200 if SMOKE else 400
PAIR_ROUNDS = 3 if SMOKE else 5


def _fine_chain_factory():
    """The astro chain with fine-grained stages (hop cost dominates)."""
    chain = (
        ReadRaDec(read_cost=0.0005)
        >> GetVOTable(query_latency=0.0, parse_cost=0.0005)
        >> FilterColumns(filter_cost=0.0005)
        >> InternalExtinction(compute_cost=0.0005)
    )
    graph = WorkflowGraph.from_chain(chain, name="galaxy_fine_chain")
    return graph, list(range(GALAXIES))


def _outputs(result):
    return {key: sorted(map(repr, values)) for key, values in result.outputs.items()}


def test_planner_chain_speedup_at_least_1_3x(benchmark, capsys):
    """The acceptance criterion, measured as paired rounds
    (:func:`~repro.bench.harness.paired_ratio`), so machine-load drift hits
    both members of a pair alike and cancels.
    """

    def once():
        return paired_ratio(
            lambda: run_cell(
                _fine_chain_factory, "dyn_auto_multi", PROCESSES, SERVER, CHAIN_CONFIG
            ),
            lambda: run_cell(
                _fine_chain_factory, "dyn_auto_multi", PROCESSES, SERVER, CHAIN_CONFIG,
                optimize=True,
            ),
            PAIR_ROUNDS,
            label="planner speedup (plain/optimized runtime)",
        )

    with capsys.disabled():
        paired = benchmark.pedantic(once, rounds=1, iterations=1)
    plain, optimized = paired.pairs[0]
    # The planner collapsed the whole 4-PE chain (via its chain-fusion
    # rule) and stamped its bookkeeping counter...
    assert optimized.counters["fused_chains"] == 1
    assert optimized.counters["fused_members"] == 4
    assert optimized.counters["planner_rules"] >= 1
    # ...with byte-identical outputs under the original result keys...
    assert _outputs(optimized) == _outputs(plain)
    # ...per-member attribution intact...
    for member in ("readRaDec", "getVOTable", "filterColumns", "internalExtinction"):
        assert optimized.counters[f"member_tasks.{member}"] == GALAXIES
        assert member in optimized.pe_times
    # ...and the optimized run clears the acceptance bar.
    assert paired.median >= 1.3


@pytest.mark.parametrize("optimize", (False, True))
def test_planner_chain_grid(benchmark, capsys, optimize):
    """Per-configuration cells of the fine-grained chain (the grid view)."""
    options = {"optimize": True} if optimize else {}

    def once():
        return run_cell(
            _fine_chain_factory, "dyn_auto_multi", PROCESSES, SERVER, CHAIN_CONFIG,
            **options,
        )

    result = benchmark.pedantic(once, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\n[optimize={optimize}] runtime={result.runtime:.3f}s "
            f"tasks={result.counters['tasks']} outputs={result.total_outputs()}"
        )
    assert result.total_outputs() == GALAXIES


def test_planning_overhead_is_bounded(benchmark, capsys):
    """Profiling dry-run + rule pass on the 8-PE sentiment workflow."""
    graph, inputs = build_sentiment_workflow(articles=50)
    provided = normalize_inputs(graph, inputs)

    def once():
        return Planner.default().plan(graph, provided=provided)

    plan = benchmark.pedantic(once, rounds=3, iterations=1)
    with capsys.disabled():
        print(
            f"\n[plan-overhead] rules={len(plan.steps)} "
            f"sampled={plan.cost.sampled} tuple(s)"
        )
    assert plan.transformed
    # 5 sample tuples through 8 PEs at 1% time scale: planning is cheap.
    assert benchmark.stats.stats.max < 1.0
