"""Tests for dead-consumer reclaim in the Redis dynamic mappings.

The ``recoverable`` capability of ``dyn_redis``/``dyn_auto_redis`` rests on
this path: a consumer dying between XREADGROUP and XACK leaves its entry in
the PEL where no ``>`` read ever sees it again; a starved peer must adopt
it (XAUTOCLAIM) or the outstanding counter never drains and the run hangs.
"""

import time

import pytest

from repro import run
from repro.core.context import ExecutionContext
from repro.mappings.base import (
    Counters,
    EnactmentState,
    ResultsCollector,
    normalize_inputs,
)
from repro.mappings.redis_dynamic import RedisWorkforce
from repro.mappings.termination import TerminationPolicy
from repro.platforms.profiles import LAPTOP
from repro.runtime.accounting import ActivityMeter
from repro.runtime.clock import Clock
from tests.conftest import Double, Emit, FAST_SCALE, linear_graph, settle_entry

pytestmark = pytest.mark.recovery


def _workforce(graph, inputs, time_scale=1.0, **options):
    """A Redis workforce whose reclaim threshold follows ``time_scale``:
    30 s at 1.0, the 100 ms floor at ``FAST_SCALE``."""
    ctx = ExecutionContext(clock=Clock(time_scale))
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
    policy = TerminationPolicy(poll_interval=0.005, empty_retries=2)
    return state, RedisWorkforce(state, policy)


def _outwait(wf):
    """Sleep until an entry fetched now has idled past ``wf``'s threshold."""
    time.sleep(wf.reclaim_idle_ms / 1000.0 + 0.05)


class TestReclaimStale:
    def test_dead_consumer_task_adopted(self):
        """A task fetched by a consumer that dies before acking is adopted
        and completed by a starved live worker."""
        graph = linear_graph(Double(name="double"))
        state, wf = _workforce(graph, [1, 2, 3], time_scale=FAST_SCALE)
        wf.graph_copy("ghost")  # the ghost 'process' boots, fetches, dies
        wf.seed_roots()
        ghost_client = wf.client_for_worker()
        stolen = wf.board.fetch("ghost", ghost_client, block_ms=10)
        assert len(stolen) == 1  # one task now pending under the dead ghost
        _outwait(wf)

        wf.worker_loop("live", total_workers=1)
        assert sorted(state.collector.as_dict()["double.output"]) == [2, 4, 6]
        assert state.counters.get("reclaimed") == 1
        assert wf.board.is_drained()

    def test_recent_entries_not_stolen(self):
        """Entries below the idle threshold belong to a live (slow) consumer
        and must not be double-executed."""
        graph = linear_graph(Double(name="double"))
        state, wf = _workforce(graph, [1])  # a 30 s threshold
        wf.seed_roots()
        busy_client = wf.client_for_worker()
        held = wf.board.fetch("busy", busy_client, block_ms=10)
        assert len(held) == 1

        assert wf.worker("peer").reclaim_stale() == 0
        assert state.counters.get("reclaimed") == 0
        assert not wf.board.is_drained()  # still owed to the busy consumer

    def test_drain_session_reclaims(self):
        """Auto-scaled sessions also adopt stale work instead of starving."""
        graph = linear_graph(Emit(name="emit"))
        state, wf = _workforce(graph, [7], time_scale=FAST_SCALE)
        wf.seed_roots()
        ghost_client = wf.client_for_worker()
        assert len(wf.board.fetch("ghost", ghost_client, block_ms=10)) == 1
        _outwait(wf)

        processed = wf.drain_session("live", chunk=8)
        assert processed == 1
        assert state.collector.as_dict()["emit.output"] == [7]
        assert wf.board.is_drained()


class TestReclaimThreshold:
    def test_threshold_scales_with_clock(self):
        """``RECLAIM_IDLE`` is nominal seconds: the real threshold must track
        time_scale (like every other time knob), so slow-but-live consumers
        keep their margin at any scale."""
        _state, wf = _workforce(linear_graph(Double(name="double")), [1], time_scale=1.0)
        assert wf.reclaim_idle_ms == pytest.approx(30_000.0)

    def test_threshold_floor_at_tiny_scales(self):
        """At test-speed scales the computed threshold bottoms out at 100ms
        real, never sub-millisecond theft windows."""
        _state, wf = _workforce(linear_graph(Double(name="double")), [1], time_scale=0.002)
        assert wf.reclaim_idle_ms == pytest.approx(100.0)

    def test_double_finish_decrements_once(self):
        """Exactly-once completion: when a reclaimed entry is finished by
        both its adopter and its original (slow but alive) consumer, only
        the first ack decrements the outstanding counter -- it can neither
        go negative (masking real work) nor stick positive (hanging)."""
        graph = linear_graph(Double(name="double"))
        _state, wf = _workforce(graph, [])
        wf.board.put_tasks([("double", "input", 1)], 1)
        slow_client = wf.client_for_worker()
        [(entry_id, _task)] = wf.board.fetch("slow", slow_client, block_ms=10)
        adopter_client = wf.client_for_worker()
        adopted = wf.board.recover_stale("adopter", adopter_client, min_idle_ms=0.0)
        assert [eid for eid, _ in adopted] == [entry_id]
        settle_entry(wf.board, adopter_client, entry_id)   # adopter completes
        settle_entry(wf.board, slow_client, entry_id)      # original completes late
        assert wf.board.outstanding() == 0
        assert wf.board.is_drained()


class TestReclaimEndToEnd:
    @pytest.mark.parametrize("mapping", ["dyn_redis", "dyn_auto_redis", "hybrid_redis"])
    def test_healthy_runs_never_reclaim(self, mapping):
        """With every consumer alive the conservative default threshold must
        keep reclaim quiet -- no double execution."""
        g = linear_graph(Emit(name="a"), Double(name="b"))
        result = run(
            g,
            inputs=list(range(12)),
            processes=4,
            mapping=mapping,
            time_scale=FAST_SCALE,
        )
        assert sorted(result.output("b")) == sorted(2 * i for i in range(12))
        assert result.counters.get("reclaimed", 0) == 0

    def test_hybrid_never_adopts_a_slow_peers_window(self):
        """hybrid_redis's stateless plane does not reclaim at all.  A worker
        there that fails aborts the run, so every entry in the PEL belongs
        to a live worker; with envelopes that outlast the idle threshold (a
        loaded host, here 4 x 30 ms envelopes against the 100 ms floor at
        FAST_SCALE) a starved peer used to adopt them and run them a second
        time."""
        g = linear_graph(Emit(name="a"), SlowDouble(name="b"))
        result = run(
            g,
            inputs=list(range(24)),
            processes=4,
            mapping="hybrid_redis",
            time_scale=FAST_SCALE,
            batch_size=4,
        )
        assert sorted(result.output("b")) == sorted(2 * i for i in range(24))
        assert result.counters.get("reclaimed", 0) == 0


class SlowDouble(Double):
    """``Double`` that holds its worker for 30 ms of real time per tuple."""

    def _process(self, data):
        time.sleep(0.03)
        return super()._process(data)
