"""Tests for the sequential reference mapping."""

from repro import run
from repro.core.graph import WorkflowGraph
from tests.conftest import (
    AddOne,
    Double,
    Emit,
    FAST_SCALE,
    StatefulCounter,
    linear_graph,
)


class TestSimpleMapping:
    def test_linear_pipeline(self):
        g = linear_graph(Double(name="d"), AddOne(name="a"))
        result = run(g, inputs=[1, 2, 3], mapping="simple")
        assert result.output("a") == [3, 5, 7]

    def test_preserves_order(self):
        g = linear_graph(Emit(name="e"), Emit(name="f"))
        result = run(g, inputs=list(range(20)), mapping="simple")
        assert result.output("f") == list(range(20))

    def test_fanout_duplicates(self):
        g = WorkflowGraph("fan")
        src = Emit(name="src")
        g.connect(src, "output", Double(name="d"), "input")
        g.connect(src, "output", AddOne(name="a"), "input")
        result = run(g, inputs=[10], mapping="simple")
        assert result.output("d") == [20]
        assert result.output("a") == [11]

    def test_stateful_aggregation(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter"))
        result = run(
            g, inputs=[("a", 1), ("b", 2), ("a", 3)], mapping="simple"
        )
        assert sorted(result.output("counter")) == [("a", 2), ("b", 1)]

    def test_postprocess_chain(self):
        """A postprocess emission must flow through downstream PEs."""
        g = linear_graph(
            Emit(name="src"),
            StatefulCounter(name="counter", instances=1),
        )
        double = Double(name="post_double")
        # counter flushes (key, count) tuples; give them to another PE.
        g.connect(g.pe("counter"), "output", double, "input")
        result = run(g, inputs=[("k", 1), ("k", 2)], mapping="simple")
        # Double on a tuple concatenates it with itself.
        assert result.output("post_double") == [("k", 2, "k", 2)]

    def test_counters_track_tasks(self):
        g = linear_graph(Double(name="d"), AddOne(name="a"))
        result = run(g, inputs=[1, 2], mapping="simple")
        assert result.counters["tasks"] == 4  # 2 inputs x 2 PEs

    def test_runtime_and_process_time_close(self):
        g = linear_graph(Emit(name="e"))
        result = run(g, inputs=list(range(10)), mapping="simple", time_scale=FAST_SCALE)
        assert result.process_time <= result.runtime * 1.2

    def test_no_trace(self):
        g = linear_graph(Emit(name="e"))
        assert run(g, inputs=[1], mapping="simple").trace is None

    def test_metadata(self):
        g = linear_graph(Emit(name="e"))
        result = run(g, inputs=[1], mapping="simple", processes=1)
        assert result.mapping == "simple"
        assert result.workflow == "linear"
        assert result.processes == 1
