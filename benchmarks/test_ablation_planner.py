"""Ablation: the graph planner's own overhead (``repro plan``).

The planner has one rewrite, chain fusion -- the same one ``fuse=``
applies -- so its speedup on a fine-grained chain is fusion's, measured
by ``test_ablation_fusion.py``, and the optimize arm's counters are held
by ``tests/planner``.  What is the planner's own is the profiled explain
path: planning the sentiment workflow with its profiling dry-run stays
under a second of real time at smoke scale.
"""

import pytest

from repro.mappings.base import normalize_inputs
from repro.planner import Planner
from repro.workflows import build_sentiment_workflow

pytestmark = pytest.mark.planner


def test_planning_overhead_is_bounded(benchmark, capsys):
    """Profiling dry-run + chain fusion on the 8-PE sentiment workflow."""
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
