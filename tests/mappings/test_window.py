"""Windows of :class:`StreamWorker`: one settle trip for several entries.

A worker sizes its read-ahead from its own timings (:func:`window_size`),
runs the window back to back and settles it in one pipeline.  Like
``test_fused_trip.py`` these tests read structure -- round trips
(``client.ops``), the commands a spy transport saw, ``XPENDING`` and the
outstanding counter -- never wall-clock: where a test needs a window of a
given width it injects the two estimates the rule reads, as values the
running mean cannot move (``inf`` stays ``inf``).
"""

import pickle
import time
from collections import Counter

import pytest

from repro import run
from repro.core.pe import IterativePE
from repro.mappings import cluster
from repro.mappings.base import ResultsCollector, normalize_inputs
from repro.mappings.cluster import _ClusterWorker
from repro.mappings.redis_tasks import (
    GROUP,
    SEED_FRAME,
    TRIP_SHARE,
    WINDOW_CAP,
    RedisTaskBoard,
    window_size,
)
from repro.mappings.termination import TerminationPolicy
from repro.platforms.profiles import LAPTOP
from repro.net.client import SocketRedisClient
from repro.net.server import RespTCPServer
from repro.redisim.client import Flight, RedisClient, Transport
from repro.redisim.server import RedisServer
from repro.workflows import build_sentiment_scoring_workflow
from tests.conftest import AddOne, Double, linear_graph
from tests.mappings.test_fused_trip import _wide
from tests.mappings.test_reclaim import Boom, _pending, _workforce

pytestmark = pytest.mark.recovery


def _narrow(worker):
    """Pin ``worker``'s read-ahead at one entry: entries that dwarf any trip."""
    worker._trip, worker._service = 0.0, float("inf")
    return worker


def _spy(client):
    """Record every frame ``client`` puts on its transport, as command lists."""
    frames = []
    begin = client._transport.begin

    def recording(commands):
        frames.append(list(commands))
        return begin(commands)

    client._transport.begin = recording  # ``execute`` is ``begin().result()``
    return frames


def _delivered(wf):
    """Record every entry the board's group delivers (``>`` reads), as
    ``(id, decoded fields)`` in delivery order.  An entry ``XACKDECR`` settles
    leaves the stream, so after a run ``XRANGE`` no longer shows it."""
    keyspace = wf.board.client._transport._server
    read, log = keyspace.xreadgroup, []

    def recording(group, consumer, streams, *args, **kwargs):
        reply = read(group, consumer, streams, *args, **kwargs)
        if ">" in streams.values():
            log.extend(
                (entry_id, {name: pickle.loads(blob) for name, blob in fields.items()})
                for _key, entries in reply
                for entry_id, fields in entries
            )
        return reply

    keyspace.xreadgroup = recording  # ``transaction`` looks commands up by name
    return log


def _settles(frames):
    """The frames that settle at least one entry."""
    return [
        frame for frame in frames if any(name == "xackdecr" for name, _a, _k in frame)
    ]


def _acked(frame):
    """Entry ids a frame settles, in the order its ``XACKDECR`` names them
    (``key group id counter amount [id amount ...]``)."""
    return [
        entry_id
        for name, args, _k in frame
        if name == "xackdecr"
        for entry_id in (args[2], *args[5::2])
    ]


def _published(frame):
    """The tasks a frame publishes to the stream, in order (``XADDN key
    task value [value ...]``)."""
    return [
        pickle.loads(value)
        for name, args, _k in frame
        if name == "xaddn"
        for value in args[2:]
    ]


def _read_ahead(frame):
    """``COUNT`` of the frame's trailing read-ahead, ``None`` without one."""
    name, _args, kwargs = frame[-1]
    return kwargs["count"] if name == "xreadgroup" else None


class TestSizingRule:
    @pytest.mark.parametrize(
        "trip, service, expected",
        [
            # Entries that cost ten trips or more keep today's trip per entry.
            (1.0, 10.0, 1),
            (1.0, 10_000.0, 1),
            (375e-6, 50e-3, 1),  # a paper-shape task behind a TCP trip
            # Just under ten trips: the trip would be over its share alone.
            (1.0, 9.99, 2),
            # The window that brings the trip down to TRIP_SHARE of the work.
            (1.0, 5.0, 2),
            (1.0, 2.5, 4),
            (1.0, 2.0, 5),
            (375e-6, 480e-6, WINDOW_CAP),  # cluster_tcp's scoring task
            # Free entries: the cap, never more.
            (1.0, 1e-9, WINDOW_CAP),
            (1.0, 0.0, WINDOW_CAP),
            (float("inf"), 1.0, WINDOW_CAP),
            (0.0, float("inf"), 1),  # ... and a window is never empty
        ],
    )
    def test_table(self, trip, service, expected):
        assert window_size(trip, service) == expected

    def test_constants(self):
        """The sweep the rule was sized on flattens past eight entries."""
        assert (TRIP_SHARE, WINDOW_CAP) == (0.1, 8)

    def test_unmeasured_worker_reads_one_ahead(self):
        _state, wf = _workforce(linear_graph(Double(name="double")), [1])
        worker = wf.worker("fresh")
        assert worker._window() == 1
        worker._trip = 1.0  # a trip alone says nothing about the entries
        assert worker._window() == 1


class TestTripsPerWindow:
    def test_free_backlog_costs_a_trip_per_window(self):
        n = 400
        state, wf = _workforce(linear_graph(Double(name="double")), list(range(n)))
        wf.seed_roots()
        worker = _wide(wf.worker("solo"))
        calls = Counter()
        count = worker.count

        def counting(name, amount=1):
            calls[name] += 1
            count(name, amount)

        worker.count = counting
        worker.run_dedicated(lambda: None)
        assert sorted(state.collector.as_dict()["double.output"]) == [2 * i for i in range(n)]
        assert state.counters.get("tasks") == n
        # The opening blocking fetch and its one-entry window, then full
        # windows, the starved polls of the retry budget and the
        # termination read.
        assert worker.client.ops <= n / WINDOW_CAP + 8
        assert state.counters.get("settle_trips") == 1 + -(-(n - 1) // WINDOW_CAP)
        # A window's tasks reach the shared counters in one call.
        assert calls["tasks"] == calls["settle_trips"]
        assert _pending(wf) == 0 and wf.board.is_drained()

    def test_children_then_ack_per_entry_acks_in_fetch_order(self):
        """Re-pinned for the aggregated settle: a window's pipeline is now
        ``INCRBY sum(children)``, every child, *one* ``XACKDECR`` naming the
        window's entries, the read-ahead -- not ``INCR, XADD, XACKDECR`` per
        entry -- because the coordinator is billed per command it decodes.
        Re-pinned again for the one-command publish: every child rides one
        ``XADDN``, in the order the entries ran.  The properties are the old
        ones: credit ahead of every payload, every child ahead of the ack,
        ids acked in fetch order."""
        n = 20
        graph = linear_graph(Double(name="a"), AddOne(name="b"))
        state, wf = _workforce(graph, list(range(n)))
        wf.seed_roots()
        worker = _wide(wf.worker("solo"))
        frames, stream = _spy(worker.client), _delivered(wf)
        worker.run_dedicated(lambda: None)
        assert sorted(state.collector.as_dict()["b.output"]) == [2 * i + 1 for i in range(n)]
        assert wf.board.client.xlen(wf.board.stream_key) == 0  # every entry settled

        task_of = {entry_id: fields["task"] for entry_id, fields in stream}
        settles = _settles(frames)
        assert max(len(_acked(frame)) for frame in settles) == WINDOW_CAP
        # One worker fetches in stream order, and acks in the order it fetched.
        assert [eid for frame in settles for eid in _acked(frame)] == [
            entry_id for entry_id, _fields in stream
        ]
        for frame in settles:
            names = [name for name, _a, _k in frame]
            children = _published(frame)
            # What the window's entries published, in the order they ran.
            expected = []
            for entry_id in _acked(frame):
                pe_name, _port, item = task_of[entry_id]
                if pe_name == "a":
                    expected.append(("b", "input", 2 * item["input"]))
            assert children == expected
            # The credit of all of it, once, ahead of every payload ...
            credit = [args[1] for name, args, _k in frame if name == "incrby"]
            assert credit == ([len(children)] if children else [])
            assert names[: len(credit)] == ["incrby"] * len(credit)
            # ... and one ack behind the last child, then only the read-ahead.
            assert names.count("xackdecr") == 1
            assert names[len(credit):] == ["xaddn"] * bool(children) + ["xackdecr", "xreadgroup"]
            assert _read_ahead(frame) == WINDOW_CAP

    def test_a_windows_children_cost_one_xaddn(self):
        """However many children a window's entries produce, the settle
        publishes them with exactly one stream command, and the keyspace
        counts one ``XADDN`` per publishing frame and no ``XADD``."""
        n = 40
        graph = linear_graph(Double(name="a"), AddOne(name="b"))
        state, wf = _workforce(graph, list(range(n)))
        keyspace = wf.board.client._transport._server
        wf.seed_roots()
        seeded = keyspace.command_count.get("xaddn", 0)
        worker = _wide(wf.worker("solo"))
        frames = _spy(worker.client)
        worker.run_dedicated(lambda: None)
        assert sorted(state.collector.as_dict()["b.output"]) == [2 * i + 1 for i in range(n)]

        publishing = [frame for frame in frames if _published(frame)]
        for frame in publishing:
            [xaddn] = [args for name, args, _k in frame if name == "xaddn"]
            [credit] = [args[1] for name, args, _k in frame if name == "incrby"]
            assert len(xaddn) - 2 == credit
        assert max(len(_published(frame)) for frame in publishing) == WINDOW_CAP
        assert sum(len(_published(frame)) for frame in publishing) == n
        assert keyspace.command_count["xaddn"] - seeded == len(publishing)
        assert keyspace.command_count.get("xadd", 0) == 0

    def test_coarse_entries_put_the_parents_commands_on_the_wire(self):
        """With service >> trip the window is one entry and the wire carries
        the sequence it carried before windows existed: per entry one frame
        of children, ``XACKDECR``, ``XREADGROUP > COUNT 1``.  (Every
        assertion about the wire below passes against the ``StreamWorker``
        of the commit before windows too; only the counter is new.)"""
        n = 3
        graph = linear_graph(Double(name="a"), AddOne(name="b"))
        state, wf = _workforce(graph, list(range(n)))
        wf.seed_roots()
        worker = _narrow(wf.worker("solo"))
        frames, stream = _spy(worker.client), _delivered(wf)
        worker.run_dedicated(lambda: None)
        assert sorted(state.collector.as_dict()["b.output"]) == [1, 3, 5]

        names = [[name for name, _a, _k in frame] for frame in frames]
        fused_a = ["incrby", "xaddn", "xackdecr", "xreadgroup"]
        fused_b = ["xackdecr", "xreadgroup"]
        assert names[: 1 + 2 * n] == [["xreadgroup"]] + [fused_a] * n + [fused_b] * n
        # ... then only the starved tail: blocking reads and the drain check.
        assert {name for frame in names[1 + 2 * n:] for name in frame} <= {"xreadgroup", "get"}
        assert all(_read_ahead(frame) == 1 for frame in _settles(frames))
        assert [eid for frame in _settles(frames) for eid in _acked(frame)] == [
            entry_id for entry_id, _f in stream
        ]
        assert worker.client.ops == len(frames) <= 2 * n + 8
        assert state.counters.get("settle_trips") == state.counters.get("tasks") == 2 * n

    def test_budgeted_sessions_read_one_ahead_whatever_they_measured(self):
        """A session's idle time is the scaler's signal and it must return
        holding nothing, so a finite budget pins the window at one."""
        _state, wf = _workforce(linear_graph(Double(name="double")), list(range(20)))
        wf.seed_roots()
        worker = _wide(wf.worker("auto-0"))
        frames = _spy(worker.client)
        assert worker.run_session(8) == 8
        assert worker.client.ops == 1 + 8
        assert [_read_ahead(frame) for frame in _settles(frames)] == [1] * 7 + [None]
        assert _pending(wf) == 0


class Killed(BaseException):
    """Stands in for SIGKILL: not an ``Exception`` any worker boundary catches."""


class Tripwire(IterativePE):
    """Doubles its input; "kills the process" the first time it sees ``trip``."""

    armed = True

    def __init__(self, trip, name=None):
        super().__init__(name=name)
        self.trip = trip

    def _process(self, data):
        if data == self.trip and Tripwire.armed:
            Tripwire.armed = False
            raise Killed
        return 2 * data


class TestFailureMidWindow:
    def test_raise_settles_what_started_and_leaves_the_tail_pending(self):
        inputs = ["a", "b", "boom", "c", "d"]
        graph = linear_graph(Boom(name="boom"), Double(name="double"))
        state, wf = _workforce(graph, inputs)
        wf.seed_roots()
        worker = _wide(wf.worker("solo"))
        frames, delivered = _spy(worker.client), _delivered(wf)
        with pytest.raises(ValueError):
            worker.run_dedicated(lambda: None)
        # "a" went alone; the next window held the other four and "a"'s
        # child.  "b" and "boom" are settled ("b"'s child published ahead
        # of the ack); "c", "d" and the child never started and stay
        # pending, as a crash leaves them.  Re-pinned for the aggregated
        # settle: the two acks are one ``XACKDECR`` naming both entries --
        # exactly the ones that started, in fetch order.
        assert [len(_acked(frame)) for frame in _settles(frames)] == [1, 2]
        assert [name for name, _a, _k in _settles(frames)[-1]] == [
            "incrby", "xaddn", "xackdecr"
        ]
        stream = [entry_id for entry_id, _f in delivered]
        assert _acked(_settles(frames)[-1]) == stream[1:3]
        assert state.counters.get("tasks") == 2
        assert _pending(wf, wf.consumer_name("solo")) == 3
        assert wf.board.backlog() == 1  # the child of "b"
        assert wf.board.outstanding() == 3 + 1

    def test_kill_publishes_and_acks_nothing_and_the_adopter_reruns_the_window(self):
        n, width = 12, 4
        graph = linear_graph(Tripwire(trip=2, name="wire"))
        Tripwire.armed = False
        expected = run(graph, inputs=list(range(n)), mapping="simple").output("wire")
        Tripwire.armed = True

        state, wf = _workforce(graph, list(range(n)))
        wf.seed_roots()
        doomed = wf.worker("doomed")
        doomed.collector = ResultsCollector()  # its memory dies with it
        doomed._settle = lambda *window: None  # SIGKILL runs no ``finally``
        window = wf.board.fetch(doomed.consumer, doomed.client, count=width)
        with pytest.raises(Killed):
            doomed.consume(window)  # dies in the third of four entries
        assert state.counters.get("tasks") == 2
        assert _pending(wf, doomed.consumer) == width
        assert wf.board.outstanding() == n  # nothing of the window was acked
        assert wf.board.backlog() == n - width

        wf.board.put_dead(doomed.consumer)  # what a SIGKILL's witness does
        wf.worker_loop("adopter", total_workers=1)
        assert state.counters.get("reclaimed") == width
        assert Counter(state.collector.as_dict()["wire.output"]) == Counter(expected)
        assert _pending(wf) == 0 and wf.board.is_drained()


def _cluster_spec(graph, **overrides):
    """The jobspec a ``cluster_redis`` coordinator would publish for ``graph``."""
    return {
        "graph": graph,
        "platform": LAPTOP,
        "time_scale": 1.0,
        "seed": 0,
        "policy": TerminationPolicy(poll_interval=0.005, empty_retries=2),
        "batch_size": 1,
        "total_workers": 1,
        "crash_after": None,
        "crash_workers": (),
        **overrides,
    }


class TestClusterRelay:
    def test_one_rpush_per_window(self):
        """The relayed results of a window ride its settle as one ``RPUSH``
        ahead of the window's ack.  Re-pinned for the aggregated settle:
        there is one ``XACKDECR`` a window now, so "ahead of the first ack"
        reads "ahead of the ack", and the entries it names are counted
        instead of the commands."""
        n, namespace = 40, "repro:window-test"
        graph = linear_graph(Double(name="double"))
        client = RedisClient(RedisServer())
        board = RedisTaskBoard(client, namespace=namespace)
        board.setup()
        board.seed_roots(normalize_inputs(graph, list(range(n))))
        cluster_worker = _ClusterWorker(client, namespace, 0, _cluster_spec(graph))
        _wide(cluster_worker.worker)
        frames = _spy(client)
        cluster_worker.run()

        settles = _settles(frames)
        assert cluster_worker.counters["settle_trips"] == len(settles) < n / 4
        for frame in settles:
            names = [name for name, _a, _k in frame]
            assert names.count("rpush") == 1 and names.count("xackdecr") == 1
            assert names.index("rpush") < names.index("xackdecr")
            relayed = next(args for name, args, _k in frame if name == "rpush")
            assert relayed[0] == f"{namespace}:results"
            assert len(relayed) - 1 == len(_acked(frame))  # one result per entry
        relayed = sorted(client.lrange(f"{namespace}:results", 0, -1))
        assert relayed == [("double.output", 2 * i) for i in range(n)]


class _Wire(Transport):
    """An in-process transport whose flights do not land at once, like a socket's.

    ``deliver="sent"`` runs a batch on the keyspace when ``begin`` sends it
    (the frame reached the server), ``"read"`` only when the flight is read
    (the frame never left the sender).  It refuses a second flight while
    one is up: a worker has at most one settle in flight.
    """

    def __init__(self, client, deliver="sent"):
        self.inner, self.deliver, self.up = client._transport, deliver, 0
        client._transport = self

    def begin(self, commands):
        assert self.up == 0, "a second flight was begun before the first was read"
        self.up += 1
        if self.deliver == "sent":
            replies = self.inner.execute(commands)

        def land():
            self.up -= 1
            return replies if self.deliver == "sent" else self.inner.execute(commands)

        return Flight(read=land)

    def close(self):
        self.inner.close()


def _in_hand(worker):
    return sum(len(held) for held in worker._hand)


class TestSettleInFlight:
    """A settle is *sent*, and *read* a window later -- where a flight of the
    worker's own was seen not to land at once, and never otherwise."""

    def test_in_process_flights_land_at_once_and_nothing_flies(self):
        n = 100
        state, wf = _workforce(linear_graph(Double(name="double")), list(range(n)))
        wf.seed_roots()
        worker = _wide(wf.worker("solo"))
        frames = _spy(worker.client)
        worker.run_dedicated(lambda: None)
        assert not worker._flew and state.counters.get("settles_in_flight") == 0
        # One window read ahead, never two; and the trip count of the commit
        # before flights (17 there too): the opening fetch, a trip per
        # window, the starved polls.
        assert {_read_ahead(frame) for frame in _settles(frames)} == {WINDOW_CAP}
        assert worker.client.ops == len(frames) == (
            1 + state.counters.get("settle_trips") + state.counters.get("empty_polls")
        ) == 17

    def test_on_a_wire_the_settle_flies_over_the_window_in_hand(self):
        n = 100
        state, wf = _workforce(linear_graph(Double(name="double")), list(range(n)))
        wf.seed_roots()
        worker = _wide(wf.worker("solo"))
        wire = _Wire(worker.client)
        frames = _spy(worker.client)
        held = []
        consume = worker.consume

        def watching(fetched, *args, **kwargs):
            # What the worker holds while a window runs: that window, its hand.
            held.append((len(fetched) + _in_hand(worker), _pending(wf, worker.consumer)))
            return consume(fetched, *args, **kwargs)

        worker.consume = watching
        worker.run_dedicated(lambda: None)
        assert sorted(state.collector.as_dict()["double.output"]) == [2 * i for i in range(n)]
        assert worker._flew and wire.up == 0
        assert _pending(wf) == 0 and wf.board.is_drained()
        # The first trip finds out that trips take time; the second fills the
        # hand to two windows; every later one refills it by one.
        settles = _settles(frames)
        ahead = [_read_ahead(frame) for frame in settles]
        assert ahead[:3] == [WINDOW_CAP, 2 * WINDOW_CAP, WINDOW_CAP]
        assert set(ahead[3:-1]) == {WINDOW_CAP}
        assert ahead[-1] == 2 * WINDOW_CAP  # the stream ran out: an empty hand again
        trips = state.counters.get("settle_trips")
        assert trips == len(settles) <= 2 + -(-n // WINDOW_CAP)
        assert state.counters.get("settles_in_flight") >= trips - 4
        # Never more than two windows un-run in its hands, and -- with the
        # window whose settle is in flight -- three in its PEL.
        assert max(entries for entries, _pel in held) <= 2 * WINDOW_CAP
        assert max(pel for _entries, pel in held) <= 3 * WINDOW_CAP

    def test_coarse_entries_on_a_wire_settle_synchronously_with_the_parents_frames(self):
        """``w == 1``: nothing is held back from a starved peer, whatever the
        transport -- the frames of ``test_coarse_entries_put_the_parents_
        commands_on_the_wire``, each read before the next entry runs."""
        n = 3
        graph = linear_graph(Double(name="a"), AddOne(name="b"))
        state, wf = _workforce(graph, list(range(n)))
        wf.seed_roots()
        worker = _narrow(wf.worker("solo"))
        wire = _Wire(worker.client)
        frames = _spy(worker.client)
        consume = worker.consume

        def nothing_up(fetched, *args, **kwargs):
            assert wire.up == 0 and not worker._hand
            return consume(fetched, *args, **kwargs)

        worker.consume = nothing_up
        worker.run_dedicated(lambda: None)
        names = [[name for name, _a, _k in frame] for frame in frames]
        fused_a = ["incrby", "xaddn", "xackdecr", "xreadgroup"]
        fused_b = ["xackdecr", "xreadgroup"]
        assert names[: 1 + 2 * n] == [["xreadgroup"]] + [fused_a] * n + [fused_b] * n
        assert all(_read_ahead(frame) == 1 for frame in _settles(frames))
        assert worker._flew and state.counters.get("settles_in_flight") == 0

    def test_budgeted_sessions_never_fly(self):
        state, wf = _workforce(linear_graph(Double(name="double")), list(range(20)))
        wf.seed_roots()
        worker = _wide(wf.worker("auto-0"))
        _Wire(worker.client)
        worker._flew = True  # as if an earlier trip had been seen on the wire
        frames = _spy(worker.client)
        assert worker.run_session(8) == 8
        assert [_read_ahead(frame) for frame in _settles(frames)] == [1] * 7 + [None]
        assert state.counters.get("settles_in_flight") == 0
        assert _pending(wf) == 0 and not worker._hand and worker._flight is None

    @pytest.mark.parametrize("deliver", ["sent", "read"])
    def test_killed_with_a_settle_in_flight_all_of_it_landed_or_none(self, deliver):
        """The settle in flight is one frame: the keyspace has all of it
        (``sent``) or none of it (``read``).  Either way what the dead worker
        held -- at most two windows -- is in the PEL, the adopter re-runs
        it, and the relayed outputs equal ``simple``'s as a multiset."""
        n, namespace = 60, f"repro:flight-{deliver}"
        graph = linear_graph(Tripwire(trip=20, name="wire"))
        Tripwire.armed = False
        expected = run(graph, inputs=list(range(n)), mapping="simple").output("wire")
        Tripwire.armed = True

        server = RedisServer()
        board = RedisTaskBoard(RedisClient(server), namespace=namespace)
        board.setup()
        board.seed_roots(normalize_inputs(graph, list(range(n))))
        spec = _cluster_spec(graph, total_workers=2)
        doomed = _ClusterWorker(RedisClient(server), namespace, 0, spec)
        _wide(doomed.worker)
        _Wire(doomed.client, deliver)
        settle = doomed.worker._settle
        # SIGKILL runs no ``finally``: once the wire has tripped, nothing settles.
        doomed.worker._settle = lambda *window: Tripwire.armed and settle(*window)
        with pytest.raises(Killed):
            doomed.run()
        assert doomed.worker._flight is not None  # it died with a settle up
        pending = board.client.xpending(board.stream_key, GROUP)
        assert pending["consumers"] == {doomed.worker.consumer: 2 * WINDOW_CAP}
        settled = n - board.outstanding()
        assert settled == (1 + 2 * WINDOW_CAP if deliver == "sent" else 1 + WINDOW_CAP)

        board.put_dead(doomed.worker.consumer)
        adopter = _ClusterWorker(RedisClient(server), namespace, 1, spec)
        adopter.run()
        assert adopter.counters["reclaimed"] == 2 * WINDOW_CAP
        relayed = board.client.lrange(f"{namespace}:results", 0, -1)
        assert Counter(value for _key, value in relayed) == Counter(expected)
        assert board.is_drained()
        assert board.client.xpending(board.stream_key, GROUP)["pending"] == 0

    def test_an_adopter_that_dies_adopting_is_adopted_with_what_it_adopted(self):
        """``first`` adopts a dead worker and is killed in the dead worker's
        second page.  Once ``first`` is named dead too, ``second`` finds the
        first marker in ``first``'s PEL, finishes the dead worker's PEL, then
        ``first``'s, and acks both markers: the relayed outputs equal
        ``simple``'s as a multiset."""
        n, namespace, ghost = 30, "repro:chain", "cluster-9-1"
        graph = linear_graph(Tripwire(trip=12, name="wire"))
        Tripwire.armed = False
        expected = run(graph, inputs=list(range(n)), mapping="simple").output("wire")
        Tripwire.armed = True

        server = RedisServer()
        board = RedisTaskBoard(RedisClient(server), namespace=namespace)
        board.setup()
        board.seed_roots(normalize_inputs(graph, list(range(n))))
        assert len(board.fetch(ghost, board.client, count=20)) == 20
        board.put_dead(ghost)
        spec = _cluster_spec(graph, total_workers=3)
        first = _ClusterWorker(RedisClient(server), namespace, 0, spec)
        settle = first.worker._settle
        # SIGKILL runs no ``finally``: once the wire has tripped, nothing settles.
        first.worker._settle = lambda *window: Tripwire.armed and settle(*window)
        with pytest.raises(Killed):
            first.run()
        pending = board.client.xpending(board.stream_key, GROUP)["consumers"]
        # Its own entries are settled; the ghost's first page too.
        assert pending == {first.worker.consumer: 1, ghost: 20 - WINDOW_CAP}
        assert first.counters["reclaimed"] == 2 * WINDOW_CAP

        board.put_dead(first.worker.consumer)
        second = _ClusterWorker(RedisClient(server), namespace, 1, spec)
        second.run()
        assert second.counters["reclaimed"] == 20 - WINDOW_CAP
        relayed = board.client.lrange(f"{namespace}:results", 0, -1)
        assert Counter(value for _key, value in relayed) == Counter(expected)
        assert board.is_drained()
        assert board.client.xpending(board.stream_key, GROUP)["pending"] == 0

    def test_markers_and_pills_never_count_toward_crash_after(self, monkeypatch):
        """``crash_after`` counts tasks fetched: a worker armed to die past
        two tasks runs two, adopts two empty PELs and ends on a pill alive."""
        namespace = "repro:crash-count"
        graph = linear_graph(Double(name="double"))
        client = RedisClient(RedisServer())
        board = RedisTaskBoard(client, namespace=namespace)
        board.setup()
        board.seed_roots(normalize_inputs(graph, [1, 2]))
        board.put_dead("cluster-8-1")
        board.put_dead("cluster-9-1")
        board.put_pills(1)
        spec = _cluster_spec(graph, crash_workers=(0,), crash_after=2)
        monkeypatch.setattr(cluster.os, "kill", lambda *_: pytest.fail("crashed"))
        worker = _ClusterWorker(client, namespace, 0, spec)
        worker.run()
        assert worker._fetched_entries == 2 and worker.counters["tasks"] == 2
        assert client.xpending(board.stream_key, GROUP)["pending"] == 0

    def test_a_raise_reads_the_flight_then_settles_what_started(self):
        inputs = [f"in-{i}" for i in range(40)]
        inputs[30] = "boom"
        state, wf = _workforce(linear_graph(Boom(name="boom")), inputs)
        wf.seed_roots()
        worker = _wide(wf.worker("solo"))
        wire = _Wire(worker.client)  # refuses the last settle unless the flight was read
        frames, delivered = _spy(worker.client), _delivered(wf)
        with pytest.raises(ValueError):
            worker.run_dedicated(lambda: None)
        assert wire.up == 0 and worker._flight is None
        # Entries 25..32 were one window: 25..30 started and are acked, in
        # one synchronous trip that reads nothing ahead.
        stream = [entry_id for entry_id, _f in delivered]
        last = _settles(frames)[-1]
        assert [name for name, _a, _k in last] == ["xackdecr"]
        assert _acked(last) == stream[25:31]
        assert state.counters.get("tasks") == 30  # the one that raised is acked, not counted
        # The unstarted tail and the window in hand stay pending, as a crash leaves them.
        assert _pending(wf, worker.consumer) == 2 + _in_hand(worker) == 2 + (40 - 33)
        assert wf.board.outstanding() == len(inputs) - 31

    def test_stop_reads_the_flight_before_the_worker_returns(self):
        state, wf = _workforce(linear_graph(Double(name="double")), list(range(60)))
        wf.seed_roots()
        worker = _wide(wf.worker("stoppable"))
        wire = _Wire(worker.client)
        # Progress is read off the results: ``tasks`` is counted once per window.
        def ran():
            return len(state.collector.as_dict().get("double.output", ()))

        worker.run_until(lambda: ran() >= 30)
        assert ran() == 30 and state.counters.get("tasks") == 30
        assert wire.up == 0 and worker._flight is None
        # What ran is settled; the rest of its window and its hand stay pending.
        assert wf.board.outstanding() == 30
        assert _pending(wf, worker.consumer) == 3 + _in_hand(worker) <= 2 * WINDOW_CAP

    @pytest.mark.parametrize("n", [22, 23, 24, 25])
    def test_pills_read_ahead_for_peers_are_published_again_on_the_way_out(self, n):
        """Two pills behind ``n`` tasks land in one window, or in the window
        that ends the worker and the one still in its hand (``n == 24``):
        it acks both, ends on one and publishes the peer's again."""
        state, wf = _workforce(linear_graph(Double(name="double")), list(range(n)))
        wf.seed_roots()
        wf.board.put_pills(2)
        worker = _wide(wf.worker("first"))
        wire = _Wire(worker.client)
        worker.run_dedicated(lambda: pytest.fail("a pilled worker must not broadcast"))
        assert wire.up == 0 and worker._flight is None
        assert state.counters.get("tasks") == n
        assert _pending(wf) == 0 and wf.board.is_drained()
        assert wf.board.backlog() == 1  # the peer's pill is there again

        wf.worker("peer").run_dedicated(lambda: pytest.fail("pilled too"))
        assert wf.board.backlog() == 0 and _pending(wf) == 0

    @pytest.mark.network
    def test_dropped_connections_mid_flight_the_settle_is_sent_again(self):
        """Over a real socket: every connection dropped while a settle is in
        flight.  ``result()`` sends it again, ``net_retries`` says so, and
        the repeated ``XACKDECR`` releases nothing -- outstanding ends at 0.
        What the lost reply read ahead is in the worker's own PEL; with no
        idle threshold anywhere, the worker re-reads that PEL itself once
        its hand is empty, and nothing is left pending."""
        n, namespace = 80, "repro:flight-drop"
        graph = linear_graph(Double(name="double"))
        server = RespTCPServer().start()
        try:
            client = SocketRedisClient(address=server.address)
            board = RedisTaskBoard(client, namespace=namespace)
            board.setup()
            board.seed_roots(normalize_inputs(graph, list(range(n))))
            # A re-sent settle reads ahead twice: what the lost reply carried
            # sits in this worker's own PEL, and it adopts itself.
            cluster_worker = _ClusterWorker(
                SocketRedisClient(address=server.address), namespace, 0, _cluster_spec(graph)
            )
            worker = _wide(cluster_worker.worker)
            begin, begun = worker.client._transport.begin, []

            def dropping(commands):
                if len(begun) == 4:  # a settle that flies over the window in hand
                    with server.keyspace._lock:  # the frame arrives, the reply cannot leave
                        flight = begin(commands)
                        time.sleep(0.05)
                        server.drop_connections()
                else:
                    flight = begin(commands)
                begun.append(flight)
                return flight

            worker.client._transport.begin = dropping
            cluster_worker.run()
            cluster_worker.flush_counters()
            assert worker.client.retries >= 1
            assert int(client.hgetall(f"{namespace}:counters")["net_retries"]) >= 1
            assert cluster_worker.counters == {}  # flushed
            relayed = client.lrange(f"{namespace}:results", 0, -1)
            # At-least-once: every output, and the re-sent window's maybe twice.
            assert {value for _key, value in relayed} == {2 * i for i in range(n)}
            assert len(relayed) <= n + WINDOW_CAP
            assert board.outstanding() == 0
            assert client.xpending(board.stream_key, GROUP)["pending"] == 0
            client.close()
            worker.client.close()
        finally:
            server.close()


@pytest.mark.network
class TestWireBudget:
    """What a fine-grained run puts on the wire, counted on the keyspace's
    own command tally -- no timing."""

    def test_cluster_redis_books_and_acks_once_per_settle(self):
        graph, inputs = build_sentiment_scoring_workflow(articles=400)
        keyspace = RedisServer()
        result = run(
            graph, inputs=inputs, mapping="cluster_redis", processes=2, seed=3,
            time_scale=0.01, start_method="fork", redis_server=keyspace,
        )
        expected = run(graph, inputs=inputs, mapping="simple", seed=3, time_scale=1e-4)
        assert {k: Counter(map(repr, v)) for k, v in result.outputs.items()} == {
            k: Counter(map(repr, v)) for k, v in expected.outputs.items()
        }
        trips = result.counters["settle_trips"]
        tally = keyspace.command_count
        assert result.counters["tasks"] == 2400 and trips < 2400 / 2
        # Per settle: the window's credit, and the DECRBY inside its one
        # XACKDECR (tallied as ``incrby``); the slack is seeding and pills.
        assert tally["incrby"] <= 2 * trips + 64
        assert tally["xackdecr"] <= trips + 8
        # The pump pops its relay list; only the error check reads a range.
        assert tally.get("lrange", 0) <= 1 and tally["lpop"] >= 1
        # One stream publish per settle at most (a window's children are
        # one XADDN), per seeding frame, and one for the pills.
        seeds = sum(len(items) for items in normalize_inputs(graph, inputs).values())
        frames = -(-seeds // (SEED_FRAME // 2))
        assert "xadd" not in tally
        assert tally["xaddn"] <= trips + frames + 1

    def test_dyn_redis_never_flies_and_keeps_its_trip_count(self):
        graph, inputs = build_sentiment_scoring_workflow(articles=400)
        result = run(
            graph, inputs=inputs, mapping="dyn_redis", processes=2, seed=3, time_scale=0.01
        )
        assert result.counters["tasks"] == 2400
        assert result.counters.get("settles_in_flight", 0) == 0
