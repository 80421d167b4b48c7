"""Crash-injection tests for hybrid_redis checkpoint/restore.

These kill pinned stateful workers mid-run (via
:class:`repro.state.CrashInjector`) and assert the supervisor re-pins the
instance, restores the latest snapshot, replays the pending log and drains
to completion with results identical to an uninterrupted run.
"""

import pytest

from repro import run
from repro.core.exceptions import MappingError, UnsupportedFeatureError
from repro.redisim.server import RedisServer
from repro.state import CrashInjector, InjectedCrash, InMemoryStateStore
from repro.workflows.sentiment.workflow import build_recoverable_sentiment_workflow
from tests.conftest import Emit, FAST_SCALE, StatefulCounter, linear_graph

pytestmark = pytest.mark.recovery


def _items(keys=4, per_key=6):
    return [(f"k{i % keys}", i) for i in range(keys * per_key)]


def _run(graph, inputs, processes=4, **kw):
    kw.setdefault("time_scale", FAST_SCALE)
    return run(graph, inputs=inputs, processes=processes, mapping="hybrid_redis", **kw)


class CrashAfterFirstSave(InMemoryStateStore):
    """A store whose first save of ``instance_id`` persists, then kills the
    saving worker: the crash between a checkpoint's snapshot and its ack."""

    def __init__(self, instance_id):
        super().__init__()
        self.armed = instance_id

    def save(self, instance_id, seq, state):
        saved = super().save(instance_id, seq, state)
        if instance_id == self.armed:
            self.armed = None
            raise InjectedCrash(instance_id, 0)
        return saved


class CounterLog(RedisServer):
    """A keyspace that records every value the outstanding counter takes."""

    def __init__(self):
        super().__init__()
        self.outstanding = []

    def incrby(self, key, amount=1):
        value = super().incrby(key, amount)
        if key.endswith(":outstanding"):
            self.outstanding.append(value)
        return value


class TestCheckpointingWithoutCrashes:
    def test_results_unchanged(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        result = _run(g, _items(), checkpoint_interval=3)
        assert sorted(result.output("counter")) == [(f"k{i}", 6) for i in range(4)]
        assert result.counters["checkpoints"] >= 1
        assert result.counters.get("crashes", 0) == 0

    def test_snapshots_land_in_user_store(self):
        store = InMemoryStateStore()
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        result = _run(g, _items(), state_store=store, checkpoint_interval=2)
        assert result.counters["checkpoints"] >= 1
        assert store.instance_ids() == ["counter.0", "counter.1"]
        merged = {}
        for iid in store.instance_ids():
            merged.update(store.load(iid).state["counts"])
        assert merged == {f"k{i}": 6 for i in range(4)}

    def test_store_reuse_across_runs(self):
        """Regression: snapshots left by a previous run on a reused store
        must not dedup the next run's deliveries (sequences restart at 1)
        or resurface stale aggregates."""
        store = InMemoryStateStore()
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        first = _run(g, _items(keys=4, per_key=3), state_store=store, checkpoint_interval=2)
        assert sorted(first.output("counter")) == [(f"k{i}", 3) for i in range(4)]
        g2 = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        second = _run(g2, _items(keys=2, per_key=6), state_store=store, checkpoint_interval=2)
        assert sorted(second.output("counter")) == [("k0", 6), ("k1", 6)]
        assert second.counters.get("deduplicated", 0) == 0

    def test_user_store_on_separate_deployment_receives_snapshots(self):
        """Regression: a user-supplied RedisSnapshotStore pointing at its
        own deployment must actually receive the snapshots -- not be
        silently rebound onto the run's server."""
        from repro.redisim import RedisClient, RedisServer
        from repro.state import RedisSnapshotStore

        external = RedisServer()  # NOT the run's deployment
        store = RedisSnapshotStore(RedisClient(external), namespace="user")
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        result = _run(g, _items(), state_store=store, checkpoint_interval=2)
        assert result.counters["checkpoints"] >= 1
        assert store.instance_ids()  # snapshots landed on the user's server
        assert external.exists("user:snapshots") == 1

    def test_trace_present_but_quiet(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        result = _run(g, _items(), checkpoint_interval=3)
        assert result.trace is not None
        assert result.trace.events_of("crash") == []


class TestCrashRecovery:
    def test_single_crash_identical_results(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        injector = CrashInjector({"counter.0": 4})
        result = _run(g, _items(), checkpoint_interval=3, crash_injector=injector)
        assert sorted(result.output("counter")) == [(f"k{i}", 6) for i in range(4)]
        assert result.counters["crashes"] == 1
        assert result.counters["respawns"] == 1
        assert result.counters["restores"] >= 1

    def test_crash_before_first_checkpoint(self):
        """No snapshot yet: the replacement starts fresh and replays the
        whole pending log."""
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        injector = CrashInjector({"counter.0": 1})
        result = _run(g, _items(), checkpoint_interval=100, crash_injector=injector)
        assert sorted(result.output("counter")) == [(f"k{i}", 6) for i in range(4)]
        assert result.counters["crashes"] == 1
        assert result.counters.get("replayed", 0) >= 1

    def test_multiple_instances_crash(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=3))
        injector = CrashInjector({"counter.0": 2, "counter.1": 3})
        result = _run(
            g, _items(keys=6, per_key=4), processes=5,
            checkpoint_interval=2, crash_injector=injector,
        )
        assert sorted(result.output("counter")) == [(f"k{i}", 4) for i in range(6)]
        assert result.counters["crashes"] == 2
        assert result.counters["respawns"] == 2

    def test_repeated_crashes_of_same_instance(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        injector = CrashInjector({"counter.0": 3}, max_crashes=2)
        result = _run(g, _items(), checkpoint_interval=2, crash_injector=injector)
        assert sorted(result.output("counter")) == [(f"k{i}", 6) for i in range(4)]
        assert result.counters["crashes"] == 2
        assert result.counters["respawns"] == 2

    def test_trace_records_lifecycle(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        injector = CrashInjector({"counter.1": 2})
        result = _run(g, _items(), checkpoint_interval=2, crash_injector=injector)
        kinds = [event.kind for event in result.trace.events]
        assert kinds.count("crash") == 1
        assert kinds.count("respawn") == 1
        assert kinds.index("crash") < kinds.index("respawn")

    def test_crash_mid_batch_identical_results(self):
        """Crash-injection between tuples of one batch envelope: the whole
        envelope is one sequence number, so the replacement replays it in
        full against a snapshot that predates all of it -- exactly-once on
        state even though the crash split the envelope's execution."""
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        # Envelopes of 4 and a crash on the 6th invocation: mid-envelope
        # (never on an envelope boundary) for every checkpoint alignment.
        injector = CrashInjector({"counter.0": 6})
        result = _run(
            g, _items(keys=4, per_key=8), checkpoint_interval=5,
            batch_size=4, crash_injector=injector,
        )
        assert sorted(result.output("counter")) == [(f"k{i}", 8) for i in range(4)]
        assert result.counters["crashes"] == 1
        assert result.counters["respawns"] == 1

    def test_batch_split_across_checkpoint_interval(self):
        """checkpoint_interval counts tuples, so an envelope can straddle
        the interval boundary; the checkpoint then fires right after the
        envelope completes and covers it whole -- never mid-envelope."""
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=1))
        # 24 tuples to one instance in envelopes of 5; interval 3 fires
        # mid-envelope every time.
        result = _run(
            g, _items(keys=3, per_key=8), processes=3,
            checkpoint_interval=3, batch_size=5,
        )
        assert sorted(result.output("counter")) == [(f"k{i}", 8) for i in range(3)]
        assert result.counters["checkpoints"] >= 1

    def test_batch_split_across_checkpoint_with_crash(self):
        """The straddling envelope is recovered atomically: either a
        snapshot covers all of it (crash after the post-envelope
        checkpoint) or none of it (crash before)."""
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        injector = CrashInjector({"counter.0": 5})
        result = _run(
            g, _items(keys=4, per_key=8), checkpoint_interval=2,
            batch_size=3, crash_injector=injector,
        )
        assert sorted(result.output("counter")) == [(f"k{i}", 8) for i in range(4)]
        assert result.counters["crashes"] == 1
        assert result.counters["restores"] >= 1

    def test_crash_between_snapshot_and_ack_deduplicates(self):
        """The snapshot covers the window, the ack never ran: the
        replacement restores it, finds every entry of its PEL at or below
        the snapshot's cursor, applies none of them again and releases
        each credit once."""
        baseline = _run(linear_graph(
            Emit(name="src"), StatefulCounter(name="counter", instances=2)
        ), _items(), checkpoint_interval=3)
        server = CounterLog()
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        result = _run(
            g, _items(), checkpoint_interval=3, redis_server=server,
            state_store=CrashAfterFirstSave("counter.0"),
        )
        assert sorted(result.output("counter")) == sorted(baseline.output("counter"))
        assert result.counters["crashes"] == 1
        assert result.counters["restores"] == 1
        assert result.counters["deduplicated"] > 0
        assert min(server.outstanding) >= 0 and server.outstanding[-1] == 0

    def test_crash_budget_exhausted_aborts(self):
        """An instance that dies on every respawn must fail the run, not
        loop forever."""
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        injector = CrashInjector({"counter.0": 1}, max_crashes=100)
        with pytest.raises(MappingError, match="crashed more than"):
            _run(g, _items(), checkpoint_interval=2, crash_injector=injector)

    def test_shared_server_survives_aborted_predecessor(self):
        """Regression: an aborted run's orphaned private queues / pending
        logs on a shared redis_server must not leak into the next run of
        the same graph (stale replays, phantom credit releases)."""
        from repro.redisim.server import RedisServer

        server = RedisServer()
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        injector = CrashInjector({"counter.0": 1, "counter.1": 1}, max_crashes=100)
        with pytest.raises(MappingError):
            _run(
                g, _items(), redis_server=server, checkpoint_interval=2,
                crash_injector=injector,
            )
        g2 = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        second = _run(g2, _items(keys=2, per_key=4), redis_server=server,
                      checkpoint_interval=2)
        assert sorted(second.output("counter")) == [("k0", 4), ("k1", 4)]
        assert second.counters.get("replayed", 0) == 0
        assert second.counters.get("deduplicated", 0) == 0

    def test_runs_leave_no_key_on_a_shared_server(self):
        """A plain run, a recoverable run and an aborted recoverable run
        each take their queues, streams and snapshots with them."""
        server = RedisServer()

        def graph():
            return linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))

        _run(graph(), _items(), redis_server=server)
        assert server.keys("*") == []
        _run(graph(), _items(), redis_server=server, checkpoint_interval=2)
        assert server.keys("*") == []
        injector = CrashInjector({"counter.0": 1}, max_crashes=100)
        with pytest.raises(MappingError):
            _run(
                graph(), _items(), redis_server=server, checkpoint_interval=2,
                crash_injector=injector,
            )
        assert server.keys("*") == []

    def test_a_user_store_on_the_shared_server_keeps_its_snapshots(self):
        """Teardown deletes the run's own keys only: a user-supplied store
        that lives on the run's server outlives the run, whole."""
        from repro.redisim import RedisClient
        from repro.state import RedisSnapshotStore

        server = RedisServer()
        store = RedisSnapshotStore(RedisClient(server), namespace="user")
        g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=2))
        result = _run(g, _items(), redis_server=server, state_store=store,
                      checkpoint_interval=2)
        assert result.counters["checkpoints"] >= 1
        assert server.keys("*") == ["user:snapshots"]
        assert sorted(store.instance_ids()) == ["counter.0", "counter.1"]

    @pytest.mark.parametrize("mapping", ["dyn_multi", "dyn_redis", "multi"])
    @pytest.mark.parametrize(
        "option",
        [{"checkpoint_interval": 5}, {"crash_injector": CrashInjector({"sink.0": 1})}],
        ids=lambda option: next(iter(option)),
    )
    def test_recovery_options_rejected_without_stateful_checkpointing(self, mapping, option):
        """Requesting checkpointing (or crashes to recover from) on a
        mapping that cannot honour it must fail loudly, not silently run
        without crash safety -- including the Redis stream mappings, whose
        workers never snapshot state."""
        g = linear_graph(Emit(name="src"), Emit(name="sink"))
        with pytest.raises(UnsupportedFeatureError, match="stateful checkpointing"):
            run(g, inputs=[1], processes=2, mapping=mapping, time_scale=FAST_SCALE, **option)


class TestSentimentRecovery:
    """Acceptance: killing a pinned stateful worker mid-run on the sentiment
    workflow recovers from the latest snapshot and produces results
    identical to an uninterrupted run."""

    ARTICLES = 60

    def _baseline(self):
        graph, inputs = build_recoverable_sentiment_workflow(articles=self.ARTICLES)
        return _run(graph, inputs, processes=8, seed=1)

    def test_crash_mid_run_identical_top3(self):
        baseline = self._baseline()
        graph, inputs = build_recoverable_sentiment_workflow(articles=self.ARTICLES)
        injector = CrashInjector({"happyState.1": 6, "top3Happiest.0": 10})
        recovered = _run(
            graph, inputs, processes=8, seed=1,
            checkpoint_interval=5, crash_injector=injector,
        )
        assert recovered.counters["crashes"] == 2
        assert recovered.counters["restores"] >= 1
        assert recovered.output("top3Happiest") == baseline.output("top3Happiest")

    def test_default_interval_identical_top3(self):
        baseline = self._baseline()
        graph, inputs = build_recoverable_sentiment_workflow(articles=self.ARTICLES)
        injector = CrashInjector({"happyState.0": 8})
        recovered = _run(
            graph, inputs, processes=8, seed=1, crash_injector=injector,
        )
        assert recovered.counters["crashes"] == 1
        assert recovered.output("top3Happiest") == baseline.output("top3Happiest")


class TestFusedChainRecovery:
    """Crash recovery of *fused* stateful chains: a single-instance chain
    collapses into one FusedPE whose composite state checkpoints as a
    unit, and recovery replays at fusion granularity."""

    FUSED = "fused(src+counter)"

    def _graph(self):
        return linear_graph(
            Emit(name="src"), StatefulCounter(name="counter", instances=1)
        )

    def test_fused_checkpointing_without_crashes(self):
        result = _run(self._graph(), _items(), processes=3, fuse=True,
                      checkpoint_interval=3)
        assert sorted(result.output("counter")) == [(f"k{i}", 6) for i in range(4)]
        assert result.counters["fused_chains"] == 1
        assert result.counters["checkpoints"] >= 1

    def test_fused_crash_identical_results(self):
        injector = CrashInjector({f"{self.FUSED}.0": 4})
        result = _run(
            self._graph(), _items(), processes=3, fuse=True,
            checkpoint_interval=3, crash_injector=injector,
        )
        assert sorted(result.output("counter")) == [(f"k{i}", 6) for i in range(4)]
        assert result.counters["crashes"] == 1
        assert result.counters["respawns"] == 1
        assert result.counters["restores"] >= 1

    def test_fused_crash_before_first_checkpoint(self):
        injector = CrashInjector({f"{self.FUSED}.0": 1})
        result = _run(
            self._graph(), _items(), processes=3, fuse=True,
            checkpoint_interval=100, crash_injector=injector,
        )
        assert sorted(result.output("counter")) == [(f"k{i}", 6) for i in range(4)]
        assert result.counters["crashes"] == 1
        assert result.counters.get("replayed", 0) >= 1

    def test_fused_crash_mid_batch_identical_results(self):
        """Fusion composes with batched private-queue envelopes: one
        envelope is one sequence number even when each delivery now drives
        the whole member chain."""
        injector = CrashInjector({f"{self.FUSED}.0": 6})
        result = _run(
            self._graph(), _items(keys=4, per_key=8), processes=3, fuse=True,
            checkpoint_interval=5, batch_size=4, crash_injector=injector,
        )
        assert sorted(result.output("counter")) == [(f"k{i}", 8) for i in range(4)]
        assert result.counters["crashes"] == 1
        assert result.counters["respawns"] == 1

    def test_fused_snapshot_is_composite(self):
        """The snapshot in the store is the FusedPE's composite state,
        keyed by the fused instance id."""
        store = InMemoryStateStore()
        result = _run(
            self._graph(), _items(), processes=3, fuse=True,
            state_store=store, checkpoint_interval=2,
        )
        assert result.counters["checkpoints"] >= 1
        assert store.instance_ids() == [f"{self.FUSED}.0"]
        snap = store.load(f"{self.FUSED}.0")
        assert snap.state["members"]["counter"]["counts"] == {
            f"k{i}": 6 for i in range(4)
        }


class TestCrashInjector:
    def test_point_validated(self):
        with pytest.raises(ValueError):
            CrashInjector({}, point="mid-air")

    def test_trigger_validated(self):
        with pytest.raises(ValueError):
            CrashInjector({"pe.0": 0})

    def test_fires_once_by_default(self):
        injector = CrashInjector({"pe.0": 2})
        injector.record_invocation("pe.0")
        injector.maybe_crash("pe.0", "post-process")  # below trigger
        injector.record_invocation("pe.0")
        with pytest.raises(InjectedCrash):
            injector.maybe_crash("pe.0", "post-process")
        injector.record_invocation("pe.0")
        injector.maybe_crash("pe.0", "post-process")  # budget spent
        assert injector.crashes_fired("pe.0") == 1

    def test_other_point_ignored(self):
        injector = CrashInjector({"pe.0": 1}, point="post-dispatch")
        injector.record_invocation("pe.0")
        injector.maybe_crash("pe.0", "post-process")
        with pytest.raises(InjectedCrash):
            injector.maybe_crash("pe.0", "post-dispatch")

    def test_injected_crash_is_base_exception(self):
        assert not issubclass(InjectedCrash, Exception)
