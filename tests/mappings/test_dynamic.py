"""Tests for dyn_multi (dynamic scheduling on the global queue)."""

import pytest

from repro import run
from repro.core.context import ExecutionContext
from repro.core.exceptions import UnsupportedFeatureError
from repro.core.graph import WorkflowGraph
from repro.mappings.base import Counters, EnactmentState, ResultsCollector, normalize_inputs
from repro.mappings.dynamic import DynamicWorkforce
from repro.mappings.termination import TerminationPolicy
from repro.platforms.profiles import LAPTOP
from repro.runtime.queues import Batch
from repro.runtime.accounting import ActivityMeter
from repro.runtime.clock import Clock
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
    counts the pool threads that took a session, and any pool thread may
    take any session.  The pool's dispatch queue wakes its parked threads in
    no set order, so a thread that just finished a session can take the
    next one again: on two CPUs the zero-compute chain read 4 in 24 runs of
    40, 3 in 6 and 2 in 10 (on one CPU, 4 in 20 of 20).  The set is every
    count from one thread to the whole pool.  ``dyn_multi``'s four
    dedicated workers always copy, and every other counter stays exact."""

    @pytest.mark.parametrize(
        "build, tasks, queue_puts, seed_tasks",
        [(_relay_chain, 3000, 2500, 500), (_galaxy, 240, 180, 60)],
    )
    @pytest.mark.parametrize("mapping, pills", [("dyn_multi", 4), ("dyn_auto_multi", None)])
    def test_counters_match_parent(self, mapping, pills, build, tasks, queue_puts, seed_tasks):
        graph, inputs = build()
        result = run(graph, inputs=inputs, processes=4, mapping=mapping, time_scale=FAST_SCALE)
        pinned = ("tasks", "queue_puts", "seed_tasks", "pills")
        graph_copies = (1, 2, 3, 4) if mapping == "dyn_auto_multi" else (4,)
        assert result.counters.get("graph_copies") in graph_copies
        assert {name: result.counters.get(name) for name in pinned} == {
            "tasks": tasks,
            "queue_puts": queue_puts,
            "seed_tasks": seed_tasks,
            # Sessions never broadcast pills; dedicated workers do, once.
            "pills": pills,
        }


class _Boom(Double):
    """Doubles, except that payload ``trigger`` raises."""

    def __init__(self, name, trigger):
        super().__init__(name)
        self.trigger = trigger

    def _process(self, data):
        if data == self.trigger:
            raise RuntimeError(f"boom on {data}")
        return super()._process(data)


def _queue_workforce(graph, inputs, **options):
    ctx = ExecutionContext(clock=Clock(FAST_SCALE))
    state = EnactmentState(
        graph=graph,
        provided=normalize_inputs(graph, inputs),
        processes=1,
        ctx=ctx,
        platform=LAPTOP,
        meter=ActivityMeter(ctx.clock),
        collector=ResultsCollector(),
        counters=Counters(),
        options=options,
    )
    return state, DynamicWorkforce(state, TerminationPolicy(poll_interval=0.005, empty_retries=2))


class TestSessionHandOff:
    """A worker settles each task with the take of its next item
    (``TrackedQueue.settle_and_get``); a raise, the unrun tail of an
    envelope and the task a session ends on must still settle exactly once:
    an under-settle never drains, an over-settle raises."""

    @pytest.mark.parametrize("batch_size", [1, 4])
    @pytest.mark.parametrize("trigger", [0, 4, 5, 7])
    def test_a_raise_settles_exactly(self, batch_size, trigger):
        graph = linear_graph(_Boom("boom", trigger), Double(name="double"))
        state, wf = _queue_workforce(graph, list(range(8)), batch_size=batch_size)
        wf.seed_roots()
        with pytest.raises(RuntimeError, match=f"boom on {trigger}"):
            wf.drain_session("w", chunk=100)
        # What ran before the raise is settled, its children queued; the
        # raising task and an envelope's unrun tail hold no credit.
        assert wf.queue.outstanding == wf.queue.pending_tasks
        assert (state.counters.get("tasks") or 0) == trigger
        while wf.drain_session("w", chunk=100):
            pass
        assert wf.queue.is_drained() and wf.queue.empty()
        survivors = [i for i in range(8) if i != trigger]
        if batch_size == 4:
            # The raising envelope's tail never ran.
            survivors = [i for i in survivors if i < trigger or i // 4 != trigger // 4]
        assert sorted(state.collector.as_dict()["double.output"]) == [4 * i for i in survivors]

    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("chunk", [1, 4, 8])
    def test_sessions_end_owing_nothing(self, batch_size, chunk):
        """The task a session ends on is settled before it returns."""
        graph = linear_graph(Double(name="a"), Double(name="b"))
        state, wf = _queue_workforce(graph, list(range(10)), batch_size=batch_size)
        wf.seed_roots()
        done = 0
        while True:
            processed = wf.drain_session("w", chunk)
            if not processed:
                break
            done += processed
            # Nothing in the session's hands: every credit is a queued tuple.
            assert wf.queue.outstanding == wf.queue.pending_tasks
        assert done == 20 and wf.queue.is_drained()
        assert sorted(state.collector.as_dict()["b.output"]) == [4 * i for i in range(10)]
        assert state.counters.get("tasks") == 20


def _drive(wf, loop):
    """One pass of a hop loop: a session of up to 100 tasks, or a dedicated
    worker run until it terminates (or raises)."""
    if loop == "session":
        return wf.drain_session("w", chunk=100)
    wf.worker_loop("w", 1)
    return 0


def _finish(wf, loop):
    while _drive(wf, loop):
        pass


@pytest.mark.parametrize("loop", ["session", "dedicated"])
class TestInlineHop:
    """The hop both loops run (``DynamicWorkforce._hops``) unpacks, invokes
    and dispatches a task in place; an envelope runs tuple by tuple.  A raise
    must settle exactly, and the ``tasks`` / ``queue_puts`` counters must
    come out as they would have one ``inc`` per task."""

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_a_raise_settles_the_children_before_it(self, loop, batch_size):
        graph = linear_graph(Double(name="a"), _Boom("boom", 8), Double(name="c"))
        state, wf = _queue_workforce(graph, list(range(8)), batch_size=batch_size)
        wf.seed_roots()
        with pytest.raises(RuntimeError, match="boom on 8"):
            _drive(wf, loop)
        # Eight ``a`` tasks, then ``boom`` on 0, 4, 8, 12; 16 raised.  Every
        # child they produced is queued: the queue owes nothing unqueued.
        assert wf.queue.outstanding == wf.queue.pending_tasks == 7
        assert state.counters.get("tasks") == 12
        assert state.counters.get("queue_puts") == 12
        _finish(wf, loop)
        assert wf.queue.outstanding == 0 and wf.queue.is_drained()
        assert state.counters.get("tasks") == 8 + 7 + 7
        assert state.counters.get("queue_puts") == 8 + 7
        assert sorted(state.collector.as_dict()["c.output"]) == [8 * i for i in range(8) if i != 4]

    def test_an_envelope_raise_settles_its_unrun_tail(self, loop):
        graph = linear_graph(_Boom("boom", 5), Double(name="double"))
        state, wf = _queue_workforce(graph, list(range(8)), batch_size=4)
        wf.seed_roots()
        assert all(type(item) is Batch for item in wf.queue._items)
        with pytest.raises(RuntimeError, match="boom on 5"):
            _drive(wf, loop)
        # Tuples 0-4 ran; 5 raised; 6 and 7 never ran and hold no credit.
        assert wf.queue.outstanding == wf.queue.pending_tasks == 5
        assert (state.counters.get("tasks"), state.counters.get("queue_puts")) == (5, 5)
        _finish(wf, loop)
        assert wf.queue.outstanding == 0
        assert state.counters.get("tasks") == 10
        assert sorted(state.collector.as_dict()["double.output"]) == [4 * i for i in range(5)]

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_a_clean_run_counts_exactly(self, loop, batch_size):
        graph = linear_graph(Double(name="a"), Double(name="b"))
        state, wf = _queue_workforce(graph, list(range(10)), batch_size=batch_size)
        wf.seed_roots()
        _finish(wf, loop)
        assert wf.queue.outstanding == 0
        assert (state.counters.get("tasks"), state.counters.get("queue_puts")) == (20, 10)
        assert sorted(state.collector.as_dict()["b.output"]) == [4 * i for i in range(10)]
