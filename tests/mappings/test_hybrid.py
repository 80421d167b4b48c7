"""Tests for the hybrid Redis mapping (stateful + dynamic stateless)."""

import threading

import pytest

from repro import run
from repro.core.exceptions import InsufficientProcessesError, MappingError
from repro.core.graph import WorkflowGraph
from repro.core.pe import GenericPE
from repro.state import CrashInjector
from tests.conftest import (
    AddOne,
    Double,
    Emit,
    FAST_SCALE,
    StatefulCounter,
    linear_graph,
)


def _run_hybrid(graph, inputs, processes, **kw):
    kw.setdefault("time_scale", FAST_SCALE)
    return run(graph, inputs=inputs, processes=processes, mapping="hybrid_redis", **kw)


class TestHybridStateless:
    def test_pure_stateless_graph_works(self):
        g = linear_graph(Double(name="d"), AddOne(name="a"))
        result = _run_hybrid(g, [1, 2, 3], 3)
        assert sorted(result.output("a")) == [3, 5, 7]
        assert result.counters["stateful_instances"] == 0
        assert result.counters["stateless_workers"] == 3


class TestHybridStateful:
    def test_group_by_aggregation(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=3))
        items = [("a", i) for i in range(6)] + [("b", i) for i in range(4)]
        result = _run_hybrid(g, items, 5)
        assert sorted(result.output("counter")) == [("a", 6), ("b", 4)]
        assert result.counters["stateful_instances"] == 3
        assert result.counters["stateless_workers"] == 2

    def test_needs_one_stateless_worker(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=3))
        with pytest.raises(InsufficientProcessesError):
            _run_hybrid(g, [("a", 1)], 3)  # 3 stateful + 0 stateless

    def test_exact_keys_per_instance(self):
        """group-by correctness: per-key totals exact with many keys."""
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=4))
        items = [(f"k{k}", i) for k in range(10) for i in range(5)]
        result = _run_hybrid(g, items, 6)
        assert sorted(result.output("counter")) == sorted((f"k{k}", 5) for k in range(10))

    @pytest.mark.parametrize(
        "options",
        [{}, {"checkpoint_interval": 2}, {"batch_size": 3}],
        ids=["plain", "checkpoint", "batch3"],
    )
    def test_staged_close_chain(self, options):
        """Stateful -> stateless -> stateful chains close in stages, on
        plain, recoverable and batched private queues alike."""

        class Relabel(Emit):
            def _process(self, data):  # ("a", 2) -> ("a", "seen")
                return (data[0], "seen")

        g = WorkflowGraph("staged")
        src = Emit(name="src")
        stage1 = StatefulCounter(name="stage1", instances=2)
        mid = Relabel(name="mid")  # stateless consumer of flush output
        stage2 = StatefulCounter(name="stage2", instances=2)
        g.connect(src, "output", stage1, "input")
        g.connect(stage1, "output", mid, "input")
        g.connect(mid, "output", stage2, "input")
        items = [("a", 1), ("b", 2), ("a", 3)]
        result = _run_hybrid(g, items, 6, **options)
        # stage1 flushes ("a", 2) and ("b", 1); stage2 counts one item per key.
        assert sorted(result.output("stage2")) == [("a", 1), ("b", 1)]

    def test_counters_present(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        result = _run_hybrid(g, [("a", 1), ("b", 2)], 4)
        assert result.counters["stateful_tasks"] == 2
        assert result.counters["private_puts"] == 2


def _hybrid_threads():
    return sorted(t.name for t in threading.enumerate() if t.name.startswith("hybrid-"))


class TestNoLeakedThreads:
    """No ``hybrid-*`` worker outlives the run, whether it returns or raises."""

    def test_clean_run(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        _run_hybrid(g, [(f"k{i % 4}", i) for i in range(24)], 4)
        assert _hybrid_threads() == []

    def test_crash_budget_abort(self):
        """The supervisor gives up on an instance that dies on every respawn;
        its peer and the stateless plane are joined before the run raises."""
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        injector = CrashInjector({"counter.0": 1}, max_crashes=100)
        with pytest.raises(MappingError, match="crashed more than"):
            _run_hybrid(
                g, [(f"k{i % 4}", i) for i in range(24)], 4,
                checkpoint_interval=2, crash_injector=injector, max_respawns=2,
            )
        assert _hybrid_threads() == []


class StatefulRoot(GenericPE):
    """A stateful source: counts how many times it was driven."""

    def __init__(self, name="statefulRoot"):
        super().__init__(name)
        self._add_input(self.INPUT_NAME)
        self._add_output(self.OUTPUT_NAME)
        self.stateful = True
        self.numprocesses = 2
        self.total = 0

    def process(self, inputs):
        self.total += 1
        return {self.OUTPUT_NAME: inputs[self.INPUT_NAME]}

    def postprocess(self):
        self.write(self.OUTPUT_NAME, ("count", self.total))


class TestHybridStatefulRoot:
    def test_stateful_root_driven_round_robin(self):
        g = linear_graph(StatefulRoot(), Emit(name="sink"))
        result = _run_hybrid(g, list(range(6)), 4)
        outputs = result.output("sink")
        # 6 data items + 2 postprocess flushes (one per instance).
        assert len(outputs) == 8
        counts = sorted(
            item[1]
            for item in outputs
            if isinstance(item, tuple) and item and item[0] == "count"
        )
        assert counts == [3, 3]
