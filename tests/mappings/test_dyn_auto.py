"""Tests for dyn_auto_multi (auto-scaling dynamic scheduling)."""

import pytest

from repro import run
from repro.autoscale.strategies import RateStrategy
from repro.core.exceptions import UnsupportedFeatureError
from tests.conftest import (
    AddOne,
    Double,
    Emit,
    FAST_SCALE,
    StatefulCounter,
    linear_graph,
)


def _run_auto(graph, inputs, processes, **kw):
    kw.setdefault("time_scale", FAST_SCALE)
    return run(graph, inputs=inputs, processes=processes, mapping="dyn_auto_multi", **kw)


class SlowPE(Emit):
    """Emit with a small nominal compute so queues actually back up."""

    def _process(self, data):
        self.compute(0.02)
        return data


class TestDynAutoCorrectness:
    def test_linear_pipeline(self):
        g = linear_graph(Double(name="d"), AddOne(name="a"))
        result = _run_auto(g, [1, 2, 3, 4, 5], 4)
        assert sorted(result.output("a")) == [3, 5, 7, 9, 11]

    def test_rejects_stateful(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="s"))
        with pytest.raises(UnsupportedFeatureError):
            _run_auto(g, [("a", 1)], 2)

    def test_larger_stream(self):
        g = linear_graph(SlowPE(name="s"), Double(name="d"))
        result = _run_auto(g, list(range(40)), 8)
        assert sorted(result.output("d")) == [2 * i for i in range(40)]


class TestDynAutoScaler:
    def test_trace_produced(self):
        g = linear_graph(SlowPE(name="s"), Double(name="d"))
        result = _run_auto(g, list(range(30)), 6)
        assert result.trace is not None
        assert len(result.trace) >= 1
        assert result.counters["scale_iterations"] == len(result.trace)

    def test_initial_active_is_half_pool(self):
        """Algorithm 1 line 6: active_size starts at max_pool_size / 2."""
        g = linear_graph(SlowPE(name="s"))
        result = _run_auto(g, list(range(20)), 8)
        assert result.trace.points[0].active_size <= 8
        # first recorded point should be near half (5 allows one grow step)
        assert result.trace.points[0].active_size in (3, 4, 5)

    def test_active_size_respects_bounds(self):
        g = linear_graph(SlowPE(name="s"), Double(name="d"))
        result = _run_auto(g, list(range(40)), 6)
        actives = [p.active_size for p in result.trace.points]
        assert all(1 <= a <= 6 for a in actives)

    def test_custom_strategy_injection(self):
        g = linear_graph(SlowPE(name="s"))
        result = _run_auto(g, list(range(10)), 4, strategy=RateStrategy(alpha=0.5))
        assert result.trace.metric_name == "queue size (EWMA)"

    def test_queue_metric_recorded(self):
        g = linear_graph(SlowPE(name="s"), Double(name="d"))
        result = _run_auto(g, list(range(30)), 6)
        metrics = [p.metric for p in result.trace.points]
        assert max(metrics) > 0  # queue was observed non-empty at least once


class TestDynAutoEfficiency:
    def test_saves_process_time_vs_dyn_multi(self):
        """The headline Table 1 effect at small scale: the auto-scaled run
        consumes less total process time than plain dynamic scheduling."""
        def factory():
            return linear_graph(SlowPE(name="s"), Double(name="d"))

        def pair():
            auto = _run_auto(factory(), list(range(30)), 8)
            plain = run(
                factory(),
                inputs=list(range(30)),
                processes=8,
                mapping="dyn_multi",
                time_scale=FAST_SCALE,
            )
            return auto, plain

        # One discarded pair first: run alone, the auto run would also pay
        # the interpreter's cold start (first imports, first pool threads).
        pair()
        auto, plain = pair()
        assert auto.process_time < plain.process_time
