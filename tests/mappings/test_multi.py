"""Tests for the static Multiprocessing-style mapping."""

import pytest

from repro import run
from repro.core.exceptions import InsufficientProcessesError
from repro.core.graph import WorkflowGraph
from repro.core.pe import IterativePE
from tests.conftest import (
    AddOne,
    Collect,
    Double,
    Emit,
    FAST_SCALE,
    StatefulCounter,
    linear_graph,
)


def _run_multi(graph, inputs, processes, **kw):
    kw.setdefault("time_scale", FAST_SCALE)
    return run(graph, inputs=inputs, processes=processes, mapping="multi", **kw)


class InstanceTag(IterativePE):
    """Emits ``(instance_index, data)``: which instance read the item."""

    def _process(self, data):
        return (self.instance_index, data)


class TestMultiCorrectness:
    def test_linear_pipeline(self):
        g = linear_graph(Double(name="d"), AddOne(name="a"))
        result = _run_multi(g, [1, 2, 3, 4], 4)
        assert sorted(result.output("a")) == [3, 5, 7, 9]

    def test_many_items_many_instances(self):
        g = linear_graph(Emit(name="src"), Double(name="d"), AddOne(name="a"))
        result = _run_multi(g, list(range(50)), 9)
        assert sorted(result.output("a")) == [2 * i + 1 for i in range(50)]

    def test_instance_counts_recorded(self):
        g = linear_graph(Emit(name="src"), Double(name="d"), AddOne(name="a"))
        result = _run_multi(g, [1], 9)
        assert result.counters["instances"] == 9
        assert result.counters["idle_processes"] == 0

    def test_idle_processes_from_floor_division(self):
        g = linear_graph(
            Emit(name="p1"), Emit(name="p2"), Emit(name="p3"), Collect(name="p4")
        )
        result = _run_multi(g, [1], 12)
        assert result.counters["instances"] == 10  # 1 + 3 + 3 + 3
        assert result.counters["idle_processes"] == 2

    def test_sources_read_inputs_round_robin(self):
        """A one-shot run fills the source channels as the live feed does:
        item i goes to source instance i mod n."""
        src = InstanceTag(name="src")
        src.numprocesses = 3
        result = _run_multi(linear_graph(src), list(range(9)), 3)
        assert sorted(result.output("src")) == sorted((i % 3, i) for i in range(9))
        assert "stream_inputs" not in result.counters

    def test_below_minimum_raises(self):
        g = linear_graph(Emit(name="a"), Emit(name="b"), Emit(name="c"))
        with pytest.raises(InsufficientProcessesError):
            _run_multi(g, [1], 2)

    def test_fanout_duplicates(self):
        g = WorkflowGraph("fan")
        src = Emit(name="src")
        g.connect(src, "output", Double(name="d"), "input")
        g.connect(src, "output", AddOne(name="a"), "input")
        result = _run_multi(g, [5, 6], 5)
        assert sorted(result.output("d")) == [10, 12]
        assert sorted(result.output("a")) == [6, 7]


class TestMultiStateful:
    def test_group_by_aggregation(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=3))
        items = [("a", i) for i in range(6)] + [("b", i) for i in range(4)]
        result = _run_multi(g, items, 4)
        assert sorted(result.output("counter")) == [("a", 6), ("b", 4)]

    def test_group_by_instances_see_disjoint_keys(self):
        """Each key's items all land on one instance: totals are exact even
        with several instances."""
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=4))
        items = [(f"key{k}", i) for k in range(12) for i in range(3)]
        result = _run_multi(g, items, 5)
        assert sorted(result.output("counter")) == sorted(
            (f"key{k}", 3) for k in range(12)
        )

    def test_global_grouping_single_collector(self):
        g = WorkflowGraph("g")
        sink = StatefulCounter(name="sink", instances=2)
        sink.set_grouping("input", "global")
        g.connect(Emit(name="src"), "output", sink, "input")
        result = _run_multi(g, [("x", 1)] * 5, 4)
        # All items on instance 0: one total of 5.
        assert result.output("sink") == [("x", 5)]

    def test_broadcast_grouping(self):
        g = WorkflowGraph("g")
        sink = StatefulCounter(name="sink", instances=3)
        sink.set_grouping("input", "one_to_all")
        g.connect(Emit(name="src"), "output", sink, "input")
        result = _run_multi(g, [("x", 1)] * 4, 4)
        # Every instance sees every item: three totals of 4.
        assert result.output("sink") == [("x", 4)] * 3


class TestMultiMetrics:
    def test_process_time_grows_with_processes(self):
        def measure(processes):
            g = linear_graph(Emit(name="src"), Double(name="d"), AddOne(name="a"))
            return _run_multi(g, list(range(30)), processes).process_time

        assert measure(11) > measure(3) * 1.2

    def test_queue_puts_counted(self):
        g = linear_graph(Double(name="d"), AddOne(name="a"))
        result = _run_multi(g, [1, 2, 3], 4)
        assert result.counters["queue_puts"] >= 3

    def test_pills_counted(self):
        g = linear_graph(Emit(name="src"), Double(name="d"))
        result = _run_multi(g, [1], 3)
        assert result.counters["pills"] >= 2  # src -> each d instance
