"""Tests for adopting the dead on the Redis task stream.

``cluster_redis``'s ``recoverable`` capability rests on this path: a
consumer dying between XREADGROUP and XACK leaves its entries in the PEL
where no ``>`` read ever sees them again.  Whoever sees it die names it
with a death marker on the task stream, and the worker the group hands the
marker reads the dead consumer's PEL as that consumer and runs it.  A
consumer nobody named is never robbed, however long it holds an entry.

The tests drive the stream worker ``dyn_redis`` shares with the cluster
and name deaths by hand (``put_dead``): an in-process ``dyn_redis`` run
never names one, since a worker thread that raises fails the run.
"""

import time
from collections import Counter

import pytest

from repro import run
from repro.core.context import ExecutionContext
from repro.core.exceptions import MappingError
from repro.core.pe import IterativePE
from repro.mappings.base import (
    Counters,
    EnactmentState,
    ResultsCollector,
    normalize_inputs,
)
from repro.mappings.redis_dynamic import RedisWorkforce
from repro.mappings.redis_tasks import GROUP
from repro.mappings.termination import TerminationPolicy
from repro.platforms.profiles import LAPTOP
from repro.redisim.server import RedisServer
from repro.runtime.accounting import ActivityMeter
from repro.runtime.clock import Clock
from tests.conftest import Double, Emit, FAST_SCALE, linear_graph, settle_entry

pytestmark = pytest.mark.recovery


def _workforce(graph, inputs, time_scale=1.0, **options):
    """A one-process Redis workforce on its own keyspace (or ``redis_server``)."""
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


class Boom(IterativePE):
    def _process(self, data):
        if data == "boom":
            raise ValueError("boom")
        return data


def _pending(wf, consumer=None):
    """Entries pending in ``wf``'s group (of ``consumer`` only, if given)."""
    summary = wf.board.client.xpending(wf.board.stream_key, GROUP)
    return summary["pending"] if consumer is None else summary["consumers"].get(consumer, 0)


class TestAdoptTheNamedDead:
    def test_dead_consumer_task_adopted(self):
        """A task fetched by a consumer that dies before acking is adopted
        and completed by a live worker once the consumer is named dead."""
        graph = linear_graph(Double(name="double"))
        state, wf = _workforce(graph, [1, 2, 3])
        wf.graph_copy("ghost")  # the ghost 'process' boots, fetches, dies
        wf.seed_roots()
        ghost_client = wf.client_for_worker()
        stolen = wf.board.fetch("ghost", ghost_client, block_ms=10)
        assert len(stolen) == 1  # one task now pending under the dead ghost
        wf.board.put_dead("ghost")

        wf.worker_loop("live", total_workers=1)
        assert sorted(state.collector.as_dict()["double.output"]) == [2, 4, 6]
        assert state.counters.get("reclaimed") == 1
        assert wf.board.is_drained() and _pending(wf) == 0

    def test_recent_entries_not_stolen(self):
        """A consumer nobody named dead keeps its entry, even an hour on:
        there is no idle threshold past which a live (slow) worker is
        robbed."""
        clock = {"t": 0.0}
        graph = linear_graph(Double(name="double"))
        state, wf = _workforce(graph, [1], redis_server=RedisServer(now=lambda: clock["t"]))
        wf.seed_roots()
        busy_client = wf.client_for_worker()
        held = wf.board.fetch("busy", busy_client, block_ms=10)
        assert len(held) == 1
        clock["t"] += 3600.0

        assert wf.drain_session("peer", chunk=8) == 0
        assert state.counters.get("reclaimed") == 0
        assert _pending(wf, "busy") == 1 and _pending(wf) == 1
        assert not wf.board.is_drained()  # still owed to the busy consumer

    def test_drain_session_reclaims(self):
        """Auto-scaled sessions also adopt a named death they are handed."""
        graph = linear_graph(Emit(name="emit"))
        state, wf = _workforce(graph, [7])
        wf.seed_roots()
        ghost_client = wf.client_for_worker()
        assert len(wf.board.fetch("ghost", ghost_client, block_ms=10)) == 1
        wf.board.put_dead("ghost")

        processed = wf.drain_session("live", chunk=8)
        assert processed == 1
        assert state.collector.as_dict()["emit.output"] == [7]
        assert wf.board.is_drained() and _pending(wf) == 0

    def test_a_marker_is_acked_only_once_the_pel_is_empty(self):
        """Adoption pages through the dead consumer's PEL a window at a
        time; the marker stays in the adopter's own PEL until the last page
        settled, so an adopter that dies mid-adoption leaves it there."""
        n = 19
        graph = linear_graph(Double(name="double"))
        state, wf = _workforce(graph, list(range(n)))
        wf.seed_roots()
        ghost = wf.client_for_worker()
        assert len(wf.board.fetch("ghost", ghost, count=n)) == n
        wf.board.put_dead("ghost")
        adopter = wf.worker("adopter")
        seen = []
        consume = adopter.consume

        def watching(fetched, *args, **kwargs):
            seen.append((len(fetched), _pending(wf, adopter.consumer)))
            return consume(fetched, *args, **kwargs)

        adopter.consume = watching
        adopter.run_dedicated(lambda: None)
        # The marker's window, then the ghost's PEL in pages of WINDOW_CAP,
        # with the marker pending under the adopter throughout.
        assert seen == [(1, 1), (8, 1), (8, 1), (3, 1)]
        assert state.counters.get("reclaimed") == n
        assert sorted(state.collector.as_dict()["double.output"]) == [2 * i for i in range(n)]
        assert _pending(wf) == 0 and wf.board.is_drained()

    def test_pills_in_a_dead_consumers_pel_are_acked_not_obeyed(self):
        """A pill the dead consumer held was its own: the adopter acks it,
        publishes nothing again and keeps running."""
        graph = linear_graph(Double(name="double"))
        state, wf = _workforce(graph, [5])
        wf.board.put_pills(1)
        ghost = wf.client_for_worker()
        assert len(wf.board.fetch("ghost", ghost)) == 1
        wf.seed_roots()
        wf.board.put_dead("ghost")
        wf.worker_loop("live", total_workers=1)
        assert state.collector.as_dict()["double.output"] == [10]
        assert state.counters.get("reclaimed") == 0
        assert _pending(wf) == 0 and wf.board.is_drained()


class TestExactlyOnceCredit:
    def test_double_finish_decrements_once(self):
        """Exactly-once completion: when an entry is finished both by the
        adopter of its consumer's PEL and by that consumer, only the first
        ack decrements the outstanding counter -- it can neither go negative
        (masking real work) nor stick positive (hanging)."""
        graph = linear_graph(Double(name="double"))
        _state, wf = _workforce(graph, [])
        wf.board.put_tasks([("double", "input", 1)], 1)
        slow_client = wf.client_for_worker()
        [(entry_id, _task)] = wf.board.fetch("slow", slow_client, block_ms=10)
        adopter_client = wf.client_for_worker()
        adopted = wf.board.pending("slow", adopter_client)
        assert [eid for eid, _ in adopted] == [entry_id]
        settle_entry(wf.board, adopter_client, entry_id)   # adopter completes
        settle_entry(wf.board, slow_client, entry_id)      # original completes late
        assert wf.board.outstanding() == 0
        assert wf.board.is_drained()


class TestInProcessWorkersNameNobody:
    """No in-process thread is ever named dead, and nothing times out an
    entry: the two ways an in-process worker ends early must leave nothing
    that waits for an adopter."""

    def test_a_raising_session_leaves_the_pel_empty(self):
        graph = linear_graph(Boom(name="boom"))
        state, wf = _workforce(graph, ["a", "boom", "c"])
        wf.seed_roots()
        assert wf.drain_session("auto-0", chunk=1) == 1
        with pytest.raises(ValueError, match="boom"):
            wf.drain_session("auto-0", chunk=8)
        assert _pending(wf) == 0  # the raising entry is settled, nothing read ahead
        assert wf.board.outstanding() == 1 and wf.board.backlog() == 1  # "c", unread
        assert state.counters.get("reclaimed") == 0

    @pytest.mark.parametrize("mapping", ["dyn_redis", "dyn_auto_redis"])
    def test_a_raising_worker_aborts_the_run_at_once(self, mapping):
        """The failed worker's pills end its peers: the run fails in well
        under a second instead of waiting for a death nobody will name."""
        g = linear_graph(Boom(name="boom"), Double(name="d"))
        started = time.monotonic()
        with pytest.raises(MappingError, match="boom"):
            run(
                g,
                inputs=["a", "b", "boom", "c", "d", "e"],
                processes=3,
                mapping=mapping,
                time_scale=FAST_SCALE,
            )
        assert time.monotonic() - started < 5.0


class SlowDouble(Double):
    """``Double`` that holds its worker for 30 ms of real time per tuple."""

    def _process(self, data):
        time.sleep(0.03)
        return super()._process(data)


class StallOnFive(Double):
    """``Double`` that holds its worker for 0.35 s of real time on input 5."""

    def _process(self, data):
        if data == 5:
            time.sleep(0.35)
        return super()._process(data)


class TestReclaimEndToEnd:
    @pytest.mark.parametrize("mapping", ["dyn_redis", "dyn_auto_redis", "hybrid_redis"])
    def test_healthy_runs_never_reclaim(self, mapping):
        """With every consumer alive nobody is named dead: no double
        execution."""
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
        """hybrid_redis's stateless plane names nobody dead: a worker there
        that fails aborts the run.  Envelopes that take a while (4 x 30 ms
        here) stay with the live worker that holds them."""
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

    @pytest.mark.parametrize(
        "mapping, options",
        [
            ("dyn_redis", {}),
            pytest.param(
                "cluster_redis", {"start_method": "fork"}, marks=pytest.mark.network
            ),
        ],
    )
    def test_a_stalled_live_worker_is_never_robbed(self, mapping, options):
        """One tuple holds its worker 0.35 s of real time while the peer
        starves: an entry idle that long used to be adopted (the idle bar
        was 100 ms at this scale) and its output returned twice."""
        g = linear_graph(Emit(name="a"), StallOnFive(name="b"))
        result = run(
            g,
            inputs=list(range(12)),
            processes=2,
            mapping=mapping,
            time_scale=FAST_SCALE,
            **options,
        )
        assert Counter(result.output("b")) == Counter(2 * i for i in range(12))
        assert result.counters.get("reclaimed", 0) == 0
