"""Ablation: checkpoint/restore overhead on the hybrid stateful plane.

Recoverable mode changes the private-queue hot path (the list read by
BLPOP becomes a stream read by XREADGROUP into the instance's pending-entry
list; outstanding credits are released by one XACKDECR per checkpoint;
every ``checkpoint_interval`` deliveries the instance snapshots its
state).  The acceptance bar: at the default interval the end-to-end
runtime overhead on the sentiment workflow stays within 10%.
"""

import pytest

from repro.bench.harness import BenchConfig, paired_ratio, run_cell
from repro.platforms.profiles import SERVER
from repro.state import DEFAULT_CHECKPOINT_INTERVAL
from repro.workflows.sentiment.workflow import build_recoverable_sentiment_workflow

CONFIG = BenchConfig(time_scale=0.03, repeats=3)
PROCESSES = 12
ARTICLES = 250


def _factory():
    return build_recoverable_sentiment_workflow(articles=ARTICLES)


@pytest.mark.parametrize(
    "label,options",
    [
        ("no checkpointing (baseline)", {}),
        (
            f"default interval ({DEFAULT_CHECKPOINT_INTERVAL})",
            {"checkpoint_interval": DEFAULT_CHECKPOINT_INTERVAL},
        ),
        ("aggressive interval (1)", {"checkpoint_interval": 1}),
    ],
)
def test_checkpoint_overhead_grid(benchmark, capsys, label, options):
    def once():
        return run_cell(_factory, "hybrid_redis", PROCESSES, SERVER, CONFIG, **options)

    result = benchmark.pedantic(once, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\n[{label}] runtime={result.runtime:.3f}s "
            f"checkpoints={result.counters.get('checkpoints', 0)} "
            f"outputs={result.total_outputs()}"
        )
    assert result.output("top3Happiest", "top3")


def test_default_interval_overhead_within_10_percent(benchmark, capsys):
    """The acceptance criterion, measured as paired rounds
    (:func:`~repro.bench.harness.paired_ratio`): machine-load drift hits
    both members of a pair alike and cancels, where two separately timed
    blocks would let it masquerade as checkpoint overhead.
    """
    pair_config = BenchConfig(time_scale=CONFIG.time_scale, repeats=1)

    def once():
        return paired_ratio(
            lambda: run_cell(
                _factory, "hybrid_redis", PROCESSES, SERVER, pair_config,
                checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL,
            ),
            lambda: run_cell(_factory, "hybrid_redis", PROCESSES, SERVER, pair_config),
            rounds=5,
            label="checkpointed/baseline runtime",
        )

    with capsys.disabled():
        paired = benchmark.pedantic(once, rounds=1, iterations=1)
    checkpointed, baseline = paired.pairs[0]
    # Identical results with and without checkpointing...
    assert checkpointed.output("top3Happiest", "top3") == baseline.output(
        "top3Happiest", "top3"
    )
    # ...and the default interval costs at most 10% runtime.
    assert paired.median - 1.0 <= 0.10
