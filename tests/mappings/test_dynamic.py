"""Tests for dyn_multi (dynamic scheduling on the global queue)."""

import pytest

from repro import run
from repro.core.exceptions import UnsupportedFeatureError
from repro.core.graph import WorkflowGraph
from repro.mappings.termination import TerminationPolicy
from repro.workflows import build_internal_extinction_workflow
from tests.conftest import (
    AddOne,
    Double,
    Emit,
    FAST_SCALE,
    StatefulCounter,
    linear_graph,
)


def _run_dyn(graph, inputs, processes, **kw):
    kw.setdefault("time_scale", FAST_SCALE)
    return run(graph, inputs=inputs, processes=processes, mapping="dyn_multi", **kw)


class TestDynMultiCorrectness:
    def test_linear_pipeline(self):
        g = linear_graph(Double(name="d"), AddOne(name="a"))
        result = _run_dyn(g, [1, 2, 3, 4, 5], 4)
        assert sorted(result.output("a")) == [3, 5, 7, 9, 11]

    def test_single_process(self):
        g = linear_graph(Double(name="d"), AddOne(name="a"))
        result = _run_dyn(g, [1, 2], 1)
        assert sorted(result.output("a")) == [3, 5]

    def test_many_processes_small_work(self):
        g = linear_graph(Emit(name="e"))
        result = _run_dyn(g, [1], 12)
        assert result.output("e") == [1]

    def test_fanout(self):
        g = WorkflowGraph("fan")
        src = Emit(name="src")
        g.connect(src, "output", Double(name="d"), "input")
        g.connect(src, "output", AddOne(name="a"), "input")
        result = _run_dyn(g, list(range(10)), 4)
        assert sorted(result.output("d")) == [2 * i for i in range(10)]
        assert sorted(result.output("a")) == [i + 1 for i in range(10)]

    def test_rejects_stateful(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="s"))
        with pytest.raises(UnsupportedFeatureError):
            _run_dyn(g, [("a", 1)], 2)

    def test_counts_tasks(self):
        g = linear_graph(Double(name="d"), AddOne(name="a"))
        result = _run_dyn(g, [1, 2, 3], 3)
        assert result.counters["tasks"] == 6
        assert result.counters["seed_tasks"] == 3

    def test_graph_copies_per_worker(self):
        g = linear_graph(Double(name="d"), AddOne(name="a"))
        result = _run_dyn(g, list(range(20)), 4)
        assert 1 <= result.counters["graph_copies"] <= 4


class TestDynMultiTermination:
    def test_pills_broadcast_once(self):
        g = linear_graph(Emit(name="e"))
        result = _run_dyn(g, [1, 2], 4)
        assert result.counters["pills"] == 4

    def test_custom_policy(self):
        g = linear_graph(Emit(name="e"))
        policy = TerminationPolicy(poll_interval=0.01, empty_retries=2)
        result = _run_dyn(g, [1], 2, termination=policy)
        assert result.output("e") == [1]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            TerminationPolicy(poll_interval=0)
        with pytest.raises(ValueError):
            TerminationPolicy(empty_retries=0)

    def test_empty_input_terminates(self):
        g = linear_graph(Emit(name="e"))
        result = _run_dyn(g, [], 3)
        assert result.output("e") == []

    def test_deep_chain_terminates(self):
        pes = [Emit(name=f"pe{i}") for i in range(8)]
        g = linear_graph(*pes)
        result = _run_dyn(g, list(range(5)), 4)
        assert sorted(result.output("pe7")) == [0, 1, 2, 3, 4]


class TestDynMultiMetrics:
    def test_all_workers_active_whole_run(self):
        """Plain dynamic scheduling keeps every process polling: process
        time ~ processes x runtime (the inefficiency auto-scaling fixes)."""

        class Busy(Emit):
            def _process(self, data):
                self.compute(0.1)
                return data

        g = linear_graph(Busy(name="e"), Busy(name="d"))
        # Long enough that worker startup stagger is negligible: 80 tasks
        # of 1 ms each across 6 always-polling workers.
        result = run(
            g, inputs=list(range(40)), processes=6, mapping="dyn_multi",
            time_scale=0.01,
        )
        assert result.process_time >= result.runtime * 3.0

    def test_per_worker_time_has_all_workers(self):
        g = linear_graph(Emit(name="e"))
        result = _run_dyn(g, [1], 5)
        assert len(result.per_worker_time) == 5


def _relay_chain():
    return linear_graph(*[Emit(name=f"relay{i}") for i in range(6)]), list(range(500))


def _galaxy():
    graph, inputs = build_internal_extinction_workflow(scale=1)
    return graph, inputs[:60]


class TestCounterPins:
    """End-of-run counters on both queue presets, pinned to what the commit
    before the locally tallied ``tasks`` / ``queue_puts`` produced: the
    tallies must flush to exactly the numbers per-call ``inc`` gave.

    One counter is a set, not a number: ``graph_copies`` on ``dyn_auto_multi``
    reads 3 in ~1 run of 40 (at this commit and the one before), because the
    scaler's last activation can find the queue already drained and that
    session then never copies the graph.  ``dyn_multi``'s four dedicated
    workers always do, and every other counter stays exact."""

    @pytest.mark.parametrize(
        "build, tasks, queue_puts, seed_tasks",
        [(_relay_chain, 3000, 2500, 500), (_galaxy, 240, 180, 60)],
    )
    @pytest.mark.parametrize("mapping, pills", [("dyn_multi", 4), ("dyn_auto_multi", None)])
    def test_counters_match_parent(self, mapping, pills, build, tasks, queue_puts, seed_tasks):
        graph, inputs = build()
        result = run(graph, inputs=inputs, processes=4, mapping=mapping, time_scale=FAST_SCALE)
        pinned = ("tasks", "queue_puts", "seed_tasks", "pills")
        graph_copies = (3, 4) if mapping == "dyn_auto_multi" else (4,)
        assert result.counters.get("graph_copies") in graph_copies
        assert {name: result.counters.get(name) for name in pinned} == {
            "tasks": tasks,
            "queue_puts": queue_puts,
            "seed_tasks": seed_tasks,
            # Sessions never broadcast pills; dedicated workers do, once.
            "pills": pills,
        }
