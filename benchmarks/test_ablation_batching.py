"""Ablation: micro-batched tuple transport (``batch_size``).

The transport lever of this reproduction's efficiency track: shipping one
tuple per queue/stream operation makes the per-tuple enactment overhead
(round trips, server-lock handoffs, wakeups) the dominant cost of
fine-grained streams.  Batch envelopes amortize it by the batch factor.

Measured here on the sentiment workflow:

- the stateless scoring plane on ``dyn_auto_redis`` (the paper's heaviest
  transport: every tuple is a Redis round trip) -- the acceptance bar is
  **>= 1.3x throughput at batch_size=32 vs batch_size=1**, asserted as the
  median of paired rounds so machine-load drift cancels;
- the full stateful workflow on ``hybrid_redis``, where both planes batch
  (global stream envelopes + private-queue RPUSH envelopes) and results
  must stay identical to the unbatched run.

``BENCH_SMOKE=1`` shrinks the grid for the CI bench-smoke lane.
"""

import os

import pytest

from repro.bench.harness import BenchConfig, paired_ratio, run_cell
from repro.platforms.profiles import SERVER
from repro.workflows import (
    build_sentiment_scoring_workflow,
    build_sentiment_workflow,
)

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

CONFIG = BenchConfig(time_scale=0.005, repeats=1 if SMOKE else 3)
PROCESSES = 8
ARTICLES = 120 if SMOKE else 200
PAIR_ROUNDS = 3 if SMOKE else 5
BATCH_SIZES = (1, 8, 32)


def _scoring_factory():
    return build_sentiment_scoring_workflow(articles=ARTICLES)


def _full_factory():
    return build_sentiment_workflow(articles=ARTICLES)


def _outputs(result):
    return {key: sorted(map(repr, values)) for key, values in result.outputs.items()}


def _throughput(result) -> float:
    return result.counters["tasks"] / result.runtime


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batching_throughput_grid(benchmark, capsys, batch_size):
    """Throughput of the scoring plane per batch size (the Figure-style grid)."""
    options = {"batch_size": batch_size} if batch_size > 1 else {}

    def once():
        return run_cell(
            _scoring_factory, "dyn_auto_redis", PROCESSES, SERVER, CONFIG, **options
        )

    result = benchmark.pedantic(once, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\n[batch_size={batch_size}] runtime={result.runtime:.3f}s "
            f"throughput={_throughput(result):.0f} tasks/s "
            f"tasks={result.counters['tasks']} outputs={result.total_outputs()}"
        )
    assert result.total_outputs() == 2 * ARTICLES


def test_batch32_speedup_at_least_1_3x(benchmark, capsys):
    """The acceptance criterion, measured as paired rounds
    (:func:`~repro.bench.harness.paired_ratio`) of throughput: machine-load
    drift hits both members of a pair alike and cancels, where two
    separately timed blocks would let it masquerade as a batching effect.
    """

    def once():
        return paired_ratio(
            lambda: run_cell(
                _scoring_factory, "dyn_auto_redis", PROCESSES, SERVER, CONFIG,
                batch_size=32,
            ),
            lambda: run_cell(
                _scoring_factory, "dyn_auto_redis", PROCESSES, SERVER, CONFIG
            ),
            PAIR_ROUNDS,
            measure=_throughput,
            label="batch-32 speedup (batched/unbatched throughput)",
        )

    with capsys.disabled():
        paired = benchmark.pedantic(once, rounds=1, iterations=1)
    # Identical results with and without batching...
    batched, unbatched = paired.pairs[0]
    assert _outputs(batched) == _outputs(unbatched)
    # ...and the batched transport clears the acceptance bar.
    assert paired.median >= 1.3


def test_hybrid_stateful_batching_identical_results(benchmark, capsys):
    """Both hybrid planes batch; the stateful aggregates must not change."""

    def once():
        unbatched = run_cell(
            _full_factory, "hybrid_redis", 14, SERVER, CONFIG
        )
        batched = run_cell(
            _full_factory, "hybrid_redis", 14, SERVER, CONFIG, batch_size=32
        )
        return unbatched, batched

    unbatched, batched = benchmark.pedantic(once, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\n[hybrid] unbatched={unbatched.runtime:.3f}s "
            f"batched={batched.runtime:.3f}s "
            f"(x{unbatched.runtime / batched.runtime:.2f})"
        )
    assert batched.output("top3Happiest", "top3") == unbatched.output(
        "top3Happiest", "top3"
    )
    assert batched.counters["stateful_tasks"] == unbatched.counters["stateful_tasks"]
