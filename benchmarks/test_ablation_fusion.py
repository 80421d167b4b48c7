"""Ablation: operator fusion (``fuse``).

The hop-elimination lever of the efficiency track: batching (PR 3) made
every queue hop cheaper; fusion removes the hop.  Collapsing a linear 1:1
PE chain into one in-process ``FusedPE`` deletes, per removed hop and
tuple, the enqueue/dequeue pair, the platform's modelled transfer latency
(``queue_latency``), and one full scheduling round trip through the global
task queue -- the costs that dominate fine-grained streams.

Measured here:

- the **astro chain** (readRaDec >> getVOTable >> filterColumns >>
  internalExtinction) in a fine-grained configuration (synthetic per-stage
  cost dwarfed by per-hop cost) on ``dyn_auto_multi`` -- the acceptance
  bar is **>= 1.3x median paired speedup with fusion on vs off**, with
  byte-identical outputs.  Runs use a time scale large enough that the
  platform's modelled transfer cost is visible (debt-batched micro-scales
  hide exactly the cost fusion removes);
- the **sentiment scoring plane** on ``dyn_auto_multi``, where both
  scorer branches fuse -- results must stay byte-identical (speedup
  reported informationally; scoring bodies are compute-heavy, so the
  fine-grained multiplier does not apply);
- the **full stateful sentiment workflow** on ``hybrid_redis``: fused
  stateless branches feed the pinned stateful plane unchanged.

``BENCH_SMOKE=1`` shrinks the grid for the CI bench-smoke lane.
"""

import os

import pytest

from repro.bench.harness import BenchConfig, paired_ratio, run_cell
from repro.core.graph import WorkflowGraph
from repro.platforms.profiles import SERVER
from repro.workflows import (
    build_sentiment_scoring_workflow,
    build_sentiment_workflow,
)
from repro.workflows.astro.pes import (
    FilterColumns,
    GetVOTable,
    InternalExtinction,
    ReadRaDec,
)

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: Fine-grained runs replay at 10% speed so the platform's per-hop
#: transfer latency (0.2 ms nominal on SERVER) stays visible; the chain's
#: per-stage compute is set well below it.
CHAIN_CONFIG = BenchConfig(time_scale=0.1, repeats=1)
SENTIMENT_CONFIG = BenchConfig(time_scale=0.01, repeats=1)
PROCESSES = 8
GALAXIES = 200 if SMOKE else 400
ARTICLES = 120 if SMOKE else 200
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


def _scoring_factory():
    return build_sentiment_scoring_workflow(articles=ARTICLES)


def _full_factory():
    return build_sentiment_workflow(articles=ARTICLES)


def _outputs(result):
    return {key: sorted(map(repr, values)) for key, values in result.outputs.items()}


def test_fused_chain_speedup_at_least_1_3x(benchmark, capsys):
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
                fuse=True,
            ),
            PAIR_ROUNDS,
            label="fusion speedup (unfused/fused runtime)",
        )

    with capsys.disabled():
        paired = benchmark.pedantic(once, rounds=1, iterations=1)
    unfused, fused = paired.pairs[0]
    # The whole 4-PE chain collapsed into one operator...
    assert fused.counters["fused_chains"] == 1
    assert fused.counters["fused_members"] == 4
    # ...with byte-identical outputs under the original result keys...
    assert _outputs(fused) == _outputs(unfused)
    # ...per-member metrics preserved through the fusion...
    for member in ("readRaDec", "getVOTable", "filterColumns", "internalExtinction"):
        assert fused.counters[f"member_tasks.{member}"] == GALAXIES
        assert member in fused.pe_times
    # ...and the fused run clears the acceptance bar.
    assert paired.median >= 1.3


@pytest.mark.parametrize("fuse", (False, True))
def test_fusion_chain_grid(benchmark, capsys, fuse):
    """Per-configuration cells of the fine-grained chain (the grid view)."""
    options = {"fuse": True} if fuse else {}

    def once():
        return run_cell(
            _fine_chain_factory, "dyn_auto_multi", PROCESSES, SERVER, CHAIN_CONFIG,
            **options,
        )

    result = benchmark.pedantic(once, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\n[fuse={fuse}] runtime={result.runtime:.3f}s "
            f"tasks={result.counters['tasks']} outputs={result.total_outputs()}"
        )
    assert result.total_outputs() == GALAXIES


def test_sentiment_scoring_fused_identical(benchmark, capsys):
    """Both scorer branches fuse; the scored stream must not change."""

    def once():
        unfused = run_cell(
            _scoring_factory, "dyn_auto_multi", PROCESSES, SERVER, SENTIMENT_CONFIG
        )
        fused = run_cell(
            _scoring_factory, "dyn_auto_multi", PROCESSES, SERVER, SENTIMENT_CONFIG,
            fuse=True,
        )
        return unfused, fused

    unfused, fused = benchmark.pedantic(once, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\n[scoring] unfused={unfused.runtime:.3f}s fused={fused.runtime:.3f}s "
            f"(x{unfused.runtime / fused.runtime:.2f}) "
            f"chains={fused.counters['fused_chains']}"
        )
    assert fused.counters["fused_chains"] == 2
    assert _outputs(fused) == _outputs(unfused)


def test_hybrid_stateful_fusion_identical_results(benchmark, capsys):
    """Fused stateless branches feeding the pinned stateful plane."""

    def once():
        unfused = run_cell(_full_factory, "hybrid_redis", 14, SERVER, SENTIMENT_CONFIG)
        fused = run_cell(
            _full_factory, "hybrid_redis", 14, SERVER, SENTIMENT_CONFIG, fuse=True
        )
        return unfused, fused

    unfused, fused = benchmark.pedantic(once, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\n[hybrid] unfused={unfused.runtime:.3f}s fused={fused.runtime:.3f}s "
            f"(x{unfused.runtime / fused.runtime:.2f})"
        )
    assert fused.counters["fused_chains"] == 2
    assert fused.output("top3Happiest", "top3") == unfused.output(
        "top3Happiest", "top3"
    )
