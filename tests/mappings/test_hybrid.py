"""Tests for the hybrid Redis mapping (stateful + dynamic stateless)."""

import threading

import pytest

from repro import run
from repro.core.context import ExecutionContext
from repro.core.exceptions import InsufficientProcessesError, MappingError
from repro.core.graph import WorkflowGraph
from repro.core.groupings import AllToOne
from repro.core.pe import GenericPE
from repro.mappings.base import (
    Counters,
    EnactmentState,
    ResultsCollector,
    instantiate,
)
from repro.mappings.hybrid import CLOSE, MESSAGE, HybridRedisMapping, _HybridRun, entry_seq
from repro.mappings.redis_tasks import GROUP, WINDOW_CAP
from repro.mappings.termination import TerminationPolicy
from repro.platforms.profiles import LAPTOP
from repro.redisim.client import RedisClient
from repro.redisim.server import RedisServer
from repro.runtime.accounting import ActivityMeter
from repro.state import CrashInjector
from repro.workflows import build_sentiment_workflow
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
                checkpoint_interval=2, crash_injector=injector,
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


# --------------------------------------------- instances no grouping can feed
class GlobalTally(GenericPE):
    """Global-grouped (``AllToOne``) aggregate whose flush always emits,
    fed or not: ``(instance index, inputs seen)``."""

    def __init__(self, name="tally", instances=2, grouping="global"):
        super().__init__(name)
        self._add_input(self.INPUT_NAME, grouping=grouping)
        self._add_output(self.OUTPUT_NAME)
        self.numprocesses = instances
        self.seen = 0

    def process(self, inputs):
        self.seen += 1

    def postprocess(self):
        self.write(self.OUTPUT_NAME, (self.instance_index, self.seen))


class Spread(AllToOne):
    """An ``AllToOne`` subclass that overrides ``route``: it reaches every
    instance, so matching by ``isinstance`` would starve instance 1."""

    def route(self, data, n_instances, state):
        return [data % n_instances]


def _started_threads(monkeypatch):
    """Names of every thread started from here on."""
    started = []
    original = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def _top3(result):
    [rows] = result.output("top3Happiest", "top3")
    return [(state, round(mean, 9), count) for state, mean, count in rows]


class TestUnfedInstancesGetNoThread:
    @pytest.mark.parametrize(
        "options",
        [{}, {"checkpoint_interval": 2}, {"batch_size": 3}],
        ids=["plain", "checkpoint", "batch3"],
    )
    def test_sentiment_frees_the_top3_slot(self, monkeypatch, options):
        graph, inputs = build_sentiment_workflow(articles=24)
        expected = _top3(run(graph, inputs=inputs, mapping="simple", time_scale=FAST_SCALE))
        started = _started_threads(monkeypatch)
        result = _run_hybrid(graph, inputs, 8, **options)
        assert result.counters["stateful_instances"] == 5
        assert result.counters["stateless_workers"] == 3
        assert "hybrid-stateful-top3Happiest.0" in started
        assert "hybrid-stateful-top3Happiest.1" not in started
        assert sum(name.startswith("hybrid-stateless-") for name in started) == 3
        assert _top3(result) == expected
        # The paper's floor, and with it admission, does not move.
        assert HybridRedisMapping.process_floor(graph) == 7

    def test_unfed_flush_is_reported_and_routed(self):
        """The coordinator flushes the unthreaded instance: its emission is
        routed on, and the stateful stage behind it closes after it."""
        g = WorkflowGraph("unfed")
        src = Emit(name="src")
        tally = GlobalTally(instances=2)
        relabel = Emit(name="relabel")
        counter = StatefulCounter(name="counter", instances=2)
        g.connect(src, "output", tally, "input")
        g.connect(tally, "output", relabel, "input")
        g.connect(relabel, "output", counter, "input")
        result = _run_hybrid(g, list(range(5)), 5)
        assert result.counters["stateful_instances"] == 3  # tally.0 + counter.0/1
        # One flush from each tally instance, keyed by its index, counted.
        assert sorted(result.output("counter")) == [(0, 1), (1, 1)]

    @pytest.mark.parametrize("options", [{}, {"checkpoint_interval": 2}], ids=["plain", "checkpoint"])
    def test_unfed_flush_emits_as_a_pinned_one_did(self, options):
        g = linear_graph(Emit(name="src"), GlobalTally(instances=3))
        result = _run_hybrid(g, list(range(4)), 4, **options)
        assert result.counters["stateful_instances"] == 1
        assert result.counters["stateless_workers"] == 3
        # One flush per instance, fed or not -- as when each had a thread.
        assert sorted(result.output("tally")) == [(0, 4), (1, 0), (2, 0)]

    def test_a_global_root_keeps_every_instance(self):
        """A root's seeds go round-robin over all of its instances."""
        g = linear_graph(GlobalTally(instances=2), Emit(name="sink"))
        result = _run_hybrid(g, [None] * 4, 3)
        assert result.counters["stateful_instances"] == 2
        assert sorted(result.output("sink")) == [(0, 2), (1, 2)]

    def test_a_mixed_input_pe_keeps_every_instance(self):
        g = WorkflowGraph("mixed")
        left, right = Emit(name="left"), Emit(name="right")
        both = GlobalTally(instances=2)
        both._add_input("keyed", grouping=[0])
        g.connect(left, "output", both, "input")
        g.connect(right, "output", both, "keyed")
        result = _run_hybrid(g, {"left": [1, 2], "right": [("a", 1), ("b", 2)]}, 4)
        assert result.counters["stateful_instances"] == 2
        assert result.counters["stateless_workers"] == 2

    def test_an_overriding_alltoone_subclass_keeps_every_instance(self):
        g = linear_graph(Emit(name="src"), GlobalTally(instances=2, grouping=Spread()))
        result = _run_hybrid(g, [0, 1, 2, 3, 5], 3)
        assert result.counters["stateful_instances"] == 2
        assert sorted(result.output("tally")) == [(0, 2), (1, 3)]


# ------------------------------------------------------ windowed consumption
class Accumulate(GenericPE):
    """A single-instance stateful root that keeps every input it applied."""

    def __init__(self, name="acc"):
        super().__init__(name)
        self._add_input(self.INPUT_NAME)
        self._add_output(self.OUTPUT_NAME)
        self.stateful = True
        self.numprocesses = 1
        self.applied = []

    def process(self, inputs):
        self.applied.append(inputs[self.INPUT_NAME])

    def postprocess(self):
        self.write(self.OUTPUT_NAME, sorted(self.applied))


def _consumer(graph, pe_name, server, messages, *, recovery=False):
    """A hand-built run and one pinned instance of it, whose private queue
    already holds ``messages`` (their credits booked): a list, or in
    recoverable mode a stream with the instance's consumer group."""
    ctx = ExecutionContext()
    options = {"redis_server": server, "termination": TerminationPolicy(poll_interval=0.005)}
    if recovery:
        options["checkpoint_interval"] = 25
    state = EnactmentState(
        graph=graph, provided={}, processes=2, ctx=ctx, platform=LAPTOP,
        meter=ActivityMeter(ctx.clock), collector=ResultsCollector(),
        counters=Counters(), options=options,
    )
    run = _HybridRun(HybridRedisMapping(), state)
    key = run.private_keys[pe_name, 0]
    client = RedisClient(server)
    if recovery:
        client.xgroup_create(key, GROUP, id="0", mkstream=True)
        client.xaddn(key, MESSAGE, *messages)
    else:
        client.rpush(key, *messages)
    client.incrby(run.board.counter_key, len(messages))
    return run, instantiate(graph.pe(pe_name), 0, 1, ctx), client, key


class _CallCounters(Counters):
    """:class:`Counters` that also counts, per name, the calls that touch it."""

    def __init__(self):
        super().__init__()
        self.calls = {}

    def inc(self, name, amount=1):
        self.calls[name] = self.calls.get(name, 0) + 1
        super().inc(name, amount)

    def merge(self, tally):
        for name, amount in tally.items():
            if amount:
                self.calls[name] = self.calls.get(name, 0) + 1
        super().merge(tally)


class TestPinnedWindows:
    def test_a_backlog_settles_in_at_most_two_pipelines(self):
        """8 elements queued before the instance starts run as one window
        (BLPOP + LPOP 7): at most two settles, where one per element was."""
        server = RedisServer()
        g = WorkflowGraph("window")
        g.add(Accumulate())
        result = _run_hybrid(g, list(range(8)), 2, redis_server=server)
        assert result.output("acc") == [list(range(8))]
        counts = server.command_count
        assert counts["lpop"] >= 1
        # ``decrby`` tallies as ``incrby``: one seed credit (the seeding
        # frame books its 8 seeds at once), the close marker's credit and
        # its release at the flush are the rest.
        settles = counts["incrby"] - 1 - 2
        assert 1 <= settles <= 2, counts

    @pytest.mark.parametrize("recovery", [False, True], ids=["plain", "recoverable"])
    def test_a_close_marker_ends_its_window(self, recovery):
        """Elements ahead of the marker run and settle; the marker's credit
        is all that is left, for the flush that follows."""
        server = RedisServer()
        graph = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=1))
        data = [("input", item) for item in [("a", 1), ("b", 2), ("a", 3)]]
        run, instance, client, key = _consumer(
            graph, "counter", server, [*data, CLOSE], recovery=recovery
        )
        run.state.counters = _CallCounters()
        consume = run.consume_recoverable if recovery else run.consume_plain
        assert consume(instance, client, key)
        assert instance.counts == {"a": 2, "b": 1}
        assert run.board.outstanding() == 1
        # The window's three messages are counted in one call.
        assert run.state.counters.get("stateful_tasks") == 3
        assert run.state.counters.calls["stateful_tasks"] == 1
        if recovery:
            # One window read after the empty replay read, one ack of the
            # three data entries; the marker waits in the PEL for teardown.
            assert server.command_count["xreadgroup"] == 2
            assert server.command_count["xackdecr"] == 1
            assert server.xpending(key, GROUP)["pending"] == 1
        else:
            # One window: one pop of the queue, one release of three credits.
            assert server.command_count["blpop"] == 1
            assert server.exists(key) == 0
        assert instance._flush_postprocess() == [("output", ("a", 2)), ("output", ("b", 1))]

    def test_a_replay_pages_through_a_pel_longer_than_a_window(self):
        """A dead predecessor left two and a half windows in the consumer's
        PEL: the replay reads them in pages of ``WINDOW_CAP`` from cursor
        ``0``, applies each once, acks them in one checkpoint, and only then
        reads new entries."""
        server = RedisServer()
        graph = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=1))
        items = [(f"k{i % 3}", i) for i in range(2 * WINDOW_CAP + WINDOW_CAP // 2)]
        run, instance, client, key = _consumer(
            graph, "counter", server, [("input", item) for item in items], recovery=True,
        )
        client.xreadgroup(GROUP, instance.instance_id, {key: ">"}, count=len(items))
        client.xadd(key, {MESSAGE: CLOSE})
        client.incrby(run.board.counter_key, 1)
        assert run.consume_recoverable(instance, client, key)
        expected = {}
        for name, _value in items:
            expected[name] = expected.get(name, 0) + 1
        assert instance.counts == expected
        assert run.state.counters.get("replayed") == len(items)
        assert run.state.counters.get("deduplicated") == 0
        # Three replay pages (8, 8, 4), then one read finds the marker.
        assert server.command_count["xreadgroup"] == 1 + 3 + 1
        assert server.command_count["xackdecr"] == 1
        assert run.board.outstanding() == 1

    def test_a_replay_skips_what_the_snapshot_covers(self):
        """The snapshot's cursor is the last applied entry ID: entries at or
        below it are acked without being applied again, the rest run."""
        server = RedisServer()
        graph = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=1))
        items = [("a", 1), ("b", 2), ("a", 3), ("a", 4), ("b", 5)]
        run, instance, client, key = _consumer(
            graph, "counter", server, [*(("input", item) for item in items), CLOSE],
            recovery=True,
        )
        [(_key, entries)] = client.xreadgroup(
            GROUP, instance.instance_id, {key: ">"}, count=len(items),
        )
        snapshot = instance.get_state()
        snapshot["counts"] = {"a": 2, "b": 1}  # the first three entries
        assert run.store.save(instance.instance_id, entry_seq(entries[2][0]), snapshot)
        assert run.consume_recoverable(instance, client, key)
        assert instance.counts == {"a": 3, "b": 2}
        assert run.state.counters.get("restores") == 1
        assert run.state.counters.get("replayed") == 5
        assert run.state.counters.get("deduplicated") == 3
        assert run.board.outstanding() == 1  # the close marker's, for the flush
        assert run.store.load(instance.instance_id).seq == entry_seq(entries[-1][0])

    def test_a_crash_mid_window_replays_each_element_once(self):
        """Crash after the 3rd element of an 8-element window applied its
        state: the whole window is in the pending log, the replay applies
        every element exactly once, and the run drains."""
        g = WorkflowGraph("window")
        g.add(Accumulate())
        injector = CrashInjector({"acc.0": 3}, point="post-process")
        result = _run_hybrid(g, list(range(8)), 2, crash_injector=injector)
        assert result.output("acc") == [list(range(8))]
        assert result.counters["crashes"] == 1
        assert result.counters["respawns"] == 1
        assert result.counters["replayed"] == 8
        assert result.counters["stateful_tasks"] == 3 + 8
        assert _hybrid_threads() == []

    @pytest.mark.parametrize("crash_after", [3, 5, 11])
    def test_a_batched_window_stays_inside_the_checkpoint_interval(self, crash_after):
        """Envelopes of 3 against an interval of 4: a window takes no more
        envelopes than the interval has room for, so a crash replays at
        most ``interval + batch_size - 1`` tuples.  Sized in elements
        against a room in tuples, the first window would move 4 envelopes,
        12 tuples."""
        g = WorkflowGraph("window")
        g.add(Accumulate())
        injector = CrashInjector({"acc.0": crash_after}, point="post-process")
        result = _run_hybrid(
            g, list(range(24)), 2,
            crash_injector=injector, checkpoint_interval=4, batch_size=3,
        )
        assert result.output("acc") == [list(range(24))]
        assert result.counters["crashes"] == 1
        assert 1 <= result.counters["replayed"] <= 4 + 3 - 1
        assert _hybrid_threads() == []


class TestEntrySeq:
    """The snapshot cursor of a recoverable instance: a stream entry ID as
    one integer that orders like the ID."""

    @pytest.mark.parametrize(
        "lower, higher",
        [
            ("0-1", "1-0"),
            ("5-0", "5-1"),
            ("5-9", "5-10"),  # as strings, "5-10" sorts first
            ("1-18446744073709551615", "2-0"),  # a sequence wider than 63 bits
        ],
    )
    def test_orders_like_the_stream_id(self, lower, higher):
        assert entry_seq(lower) < entry_seq(higher)

    def test_keeps_both_parts_of_the_id(self):
        for ms, seq in [(0, 0), (0, 1), (1, 0), (1_700_000_000_000, 3), (7, 2**64 - 1)]:
            assert divmod(entry_seq(f"{ms}-{seq}"), 1 << 64) == (ms, seq)

    def test_orders_xaddn_ids_across_a_millisecond_rollover(self):
        clock = [0.009]
        client = RedisClient(RedisServer(now=lambda: clock[0]))
        ids = client.xaddn("s", MESSAGE, *range(12))
        clock[0] = 0.010
        ids += client.xaddn("s", MESSAGE, *range(3))
        assert ids[11:13] == ["9-11", "10-0"]
        cursors = [entry_seq(entry_id) for entry_id in ids]
        assert cursors == sorted(set(cursors))


# ------------------------------------------------------------ counter pins
#: The work counters of one sentiment run, pinned; ``scripts/parity.py``'s
#: ``VOLATILE`` (scaler rounds, idle wake-ups, settle trips) stays out.
_PINNED = (
    "stateful_tasks", "private_puts", "tasks", "stateful_instances",
    "stateless_workers", "replayed", "deduplicated", "restores", "crashes",
    "respawns",
)

#: Every variant runs the same work: 80 pinned deliveries (40 to
#: ``happyState``, 40 to ``top3Happiest``) and 120 stateless tasks.
_UNCRASHED = {
    "stateful_tasks": 80, "private_puts": 80, "tasks": 120,
    "stateful_instances": 5, "stateless_workers": 3, "replayed": 0,
    "deduplicated": 0, "restores": 0, "crashes": 0, "respawns": 0,
}


class TestCounterPins:
    """Sentiment on ``hybrid_redis``: the end-of-run work counters of a
    plain, a batched, a recoverable and a crashed run, exactly."""

    @staticmethod
    def _counters(**options):
        graph, inputs = build_sentiment_workflow(articles=20)
        result = _run_hybrid(graph, inputs, 8, **options)
        return {name: result.counters.get(name, 0) for name in _PINNED}

    @pytest.mark.parametrize(
        "options",
        [{}, {"batch_size": 8}, {"checkpoint_interval": 5}],
        ids=["plain", "batch8", "checkpoint"],
    )
    def test_uncrashed(self, options):
        assert self._counters(**options) == _UNCRASHED

    def test_crash(self):
        """The first pinned instance (``happyState.0``) dies at its first
        invocation, before any checkpoint: that invocation counts, nothing
        is restored or deduplicated, and its replay re-runs the window it
        held.  How much of that window had reached it follows arrival
        timing (``replayed`` is in parity's ``CRASH_VOLATILE``), so only
        its bounds are pinned: one entry at least, the interval at most."""
        counters = self._counters(
            checkpoint_interval=5, crash_injector=CrashInjector({"happyState.0": 1}),
        )
        assert 1 <= counters.pop("replayed") <= 5
        expected = {**_UNCRASHED, "stateful_tasks": 81, "crashes": 1, "respawns": 1}
        del expected["replayed"]
        assert counters == expected


# ------------------------------------------------------- close-marker hazard
class PortedRoot(GenericPE):
    """A pinned root driven by whole inputs mappings, one of whose ports is
    named ``close``: it forwards ``(close, value)`` and flushes its count."""

    def __init__(self, name="root"):
        super().__init__(name)
        self._add_input("close")
        self._add_input("value")
        self._add_output(self.OUTPUT_NAME)
        self.stateful = True
        self.numprocesses = 2
        self.seen = 0

    def process(self, inputs):
        self.seen += 1
        self.write(self.OUTPUT_NAME, (inputs["close"], inputs["value"]))

    def postprocess(self):
        self.write(self.OUTPUT_NAME, ("seen", self.seen))


class CloseSink(GenericPE):
    """A pinned PE whose only input port is named ``close``."""

    def __init__(self, name="sink"):
        super().__init__(name)
        self._add_input("close")
        self._add_output(self.OUTPUT_NAME)
        self.stateful = True
        self.numprocesses = 1
        self.got = []

    def process(self, inputs):
        self.got.append(inputs["close"])

    def postprocess(self):
        self.write(self.OUTPUT_NAME, sorted(self.got, key=repr))


class TestCloseMarkerHazard:
    """A message for a port named ``close`` is data, never the staged-close
    marker, and a root's inputs mapping runs whole: every message runs,
    and only the marker ends its window."""

    @pytest.mark.parametrize(
        "options", [{}, {"checkpoint_interval": 3}], ids=["plain", "recoverable"],
    )
    def test_every_message_runs(self, options):
        g = WorkflowGraph("hazard")
        g.connect(PortedRoot(), "output", CloseSink(), "close")
        inputs = [{"close": "close", "value": i} for i in range(12)]
        result = _run_hybrid(g, inputs, 4, **options)
        [got] = result.output("sink")
        assert got == sorted(
            [("close", i) for i in range(12)] + [("seen", 6)] * 2, key=repr
        )
        assert result.counters["stateful_tasks"] == 12 + 14
