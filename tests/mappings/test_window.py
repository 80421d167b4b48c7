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
from repro.mappings.base import ResultsCollector, normalize_inputs
from repro.mappings.cluster import _ClusterWorker
from repro.mappings.redis_tasks import (
    TRIP_SHARE,
    WINDOW_CAP,
    RedisTaskBoard,
    window_size,
)
from repro.mappings.termination import TerminationPolicy
from repro.platforms.profiles import LAPTOP
from repro.redisim.client import RedisClient
from repro.redisim.server import RedisServer
from tests.conftest import AddOne, Double, linear_graph
from tests.mappings.test_fused_trip import Boom, _pending, _wide
from tests.mappings.test_reclaim import _workforce

pytestmark = pytest.mark.recovery


def _narrow(worker):
    """Pin ``worker``'s read-ahead at one entry: entries that dwarf any trip."""
    worker._trip, worker._service = 0.0, float("inf")
    return worker


def _spy(client):
    """Record every frame ``client`` puts on its transport, as command lists."""
    frames = []
    execute = client._transport.execute

    def recording(commands):
        frames.append(list(commands))
        return execute(commands)

    client._transport.execute = recording
    return frames


def _settles(frames):
    """The frames that settle at least one entry."""
    return [
        frame for frame in frames if any(name == "xackdecr" for name, _a, _k in frame)
    ]


def _acked(frame):
    return [args[2] for name, args, _k in frame if name == "xackdecr"]


def _read_ahead(frame):
    """``COUNT`` of the frame's trailing read-ahead, ``None`` without one."""
    name, _args, kwargs = frame[-1]
    return kwargs["count"] if name == "xreadgroup" else None


class TestSizingRule:
    RECLAIM = 30.0

    @pytest.mark.parametrize(
        "trip, service, reclaim_idle, expected",
        [
            # Entries that cost ten trips or more keep today's trip per entry.
            (1.0, 10.0, 1e9, 1),
            (1.0, 10_000.0, 1e9, 1),
            (375e-6, 50e-3, RECLAIM, 1),  # a paper-shape task behind a TCP trip
            # Just under ten trips: the trip would be over its share alone.
            (1.0, 9.99, 1e9, 2),
            # The window that brings the trip down to TRIP_SHARE of the work.
            (1.0, 5.0, 1e9, 2),
            (1.0, 2.5, 1e9, 4),
            (1.0, 2.0, 1e9, 5),
            (375e-6, 480e-6, RECLAIM, WINDOW_CAP),  # cluster_tcp's scoring task
            # Free entries: the cap, never more.
            (1.0, 1e-9, 1e9, WINDOW_CAP),
            (1.0, 0.0, 1e9, WINDOW_CAP),
            (float("inf"), 1.0, 1e9, WINDOW_CAP),
            # A quarter of the reclaim threshold bounds the work in hand.
            (1.0, 1.0, 12.0, 3),
            (1.0, 1.0, 4.0, 1),
            (1.0, 1.0, 0.1, 1),  # ... but a window is never empty
            (0.0, float("inf"), RECLAIM, 1),
        ],
    )
    def test_table(self, trip, service, reclaim_idle, expected):
        assert window_size(trip, service, reclaim_idle) == expected

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
        worker.run_dedicated(lambda: None)
        assert sorted(state.collector.as_dict()["double.output"]) == [2 * i for i in range(n)]
        assert state.counters.get("tasks") == n
        # The opening blocking fetch and its one-entry window, then full
        # windows, the starved polls of the retry budget and the
        # termination read.
        assert worker.client.ops <= n / WINDOW_CAP + 8
        assert state.counters.get("settle_trips") == 1 + -(-(n - 1) // WINDOW_CAP)
        assert _pending(wf) == 0 and wf.board.is_drained()

    def test_children_then_ack_per_entry_acks_in_fetch_order(self):
        n = 20
        graph = linear_graph(Double(name="a"), AddOne(name="b"))
        state, wf = _workforce(graph, list(range(n)))
        wf.seed_roots()
        worker = _wide(wf.worker("solo"))
        frames = _spy(worker.client)
        worker.run_dedicated(lambda: None)
        assert sorted(state.collector.as_dict()["b.output"]) == [2 * i + 1 for i in range(n)]

        stream = wf.board.client.xrange(wf.board.stream_key)
        task_of = {entry_id: fields["task"] for entry_id, fields in stream}
        settles = _settles(frames)
        assert max(len(_acked(frame)) for frame in settles) == WINDOW_CAP
        # One worker fetches in stream order, and acks in the order it fetched.
        assert [eid for frame in settles for eid in _acked(frame)] == [
            entry_id for entry_id, _fields in stream
        ]
        for frame in settles:
            children = []
            for name, args, _kwargs in frame:
                if name == "xadd":
                    children.append(pickle.loads(args[1]["task"]))
                elif name == "xackdecr":
                    pe_name, _port, item = task_of[args[2]]
                    value = item["input"] if isinstance(item, dict) else item
                    # What the entry published sits between the previous
                    # entry's ack and its own.
                    assert children == ([("b", "input", 2 * value)] if pe_name == "a" else [])
                    children = []
            assert children == []  # nothing is published behind the last ack
            assert frame[-1][0] == "xreadgroup" and _read_ahead(frame) == WINDOW_CAP

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
        frames = _spy(worker.client)
        worker.run_dedicated(lambda: None)
        assert sorted(state.collector.as_dict()["b.output"]) == [1, 3, 5]

        names = [[name for name, _a, _k in frame] for frame in frames]
        fused_a = ["incrby", "xadd", "xackdecr", "xreadgroup"]
        fused_b = ["xackdecr", "xreadgroup"]
        assert names[: 1 + 2 * n] == [["xreadgroup"]] + [fused_a] * n + [fused_b] * n
        # ... then only the starved tail: blocking reads and the drain check.
        assert {name for frame in names[1 + 2 * n:] for name in frame} <= {"xreadgroup", "get"}
        assert all(_read_ahead(frame) == 1 for frame in _settles(frames))
        assert [eid for frame in _settles(frames) for eid in _acked(frame)] == [
            entry_id for entry_id, _f in wf.board.client.xrange(wf.board.stream_key)
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
        frames = _spy(worker.client)
        with pytest.raises(ValueError):
            worker.run_dedicated(lambda: None)
        # "a" went alone; the next window held the other four and "a"'s
        # child.  "b" and "boom" are settled ("b"'s child published ahead
        # of both acks); "c", "d" and the child never started and stay
        # pending, as a crash leaves them.
        assert [len(_acked(frame)) for frame in _settles(frames)] == [1, 2]
        assert [name for name, _a, _k in _settles(frames)[-1]] == [
            "incrby", "xadd", "xackdecr", "xackdecr"
        ]
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

        state, wf = _workforce(graph, list(range(n)), reclaim_idle_ms=10.0)
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

        time.sleep(0.05)  # let the window's idle time pass the 10 ms threshold
        wf.worker_loop("adopter", total_workers=1)
        assert state.counters.get("reclaimed") == width
        assert Counter(state.collector.as_dict()["wire.output"]) == Counter(expected)
        assert _pending(wf) == 0 and wf.board.is_drained()


class TestClusterRelay:
    def test_one_rpush_per_window(self):
        """The relayed results of a window ride its settle as one ``RPUSH``
        ahead of the window's first ack."""
        n, namespace = 40, "repro:window-test"
        graph = linear_graph(Double(name="double"))
        client = RedisClient(RedisServer())
        board = RedisTaskBoard(client, namespace=namespace)
        board.setup()
        board.seed_roots(normalize_inputs(graph, list(range(n))))
        spec = {
            "graph": graph,
            "platform": LAPTOP,
            "time_scale": 1.0,
            "seed": 0,
            "policy": TerminationPolicy(poll_interval=0.005, empty_retries=2),
            "batch_size": 1,
            "reclaim_idle_ms": 30_000.0,
            "total_workers": 1,
            "crash_after": None,
            "crash_workers": (),
        }
        cluster_worker = _ClusterWorker(client, namespace, 0, spec)
        _wide(cluster_worker.worker)
        frames = _spy(client)
        cluster_worker.run()

        settles = _settles(frames)
        assert cluster_worker.counters["settle_trips"] == len(settles) < n / 4
        for frame in settles:
            names = [name for name, _a, _k in frame]
            assert names.count("rpush") == 1
            assert names.index("rpush") < names.index("xackdecr")
            relayed = next(args for name, args, _k in frame if name == "rpush")
            assert relayed[0] == f"{namespace}:results"
            assert len(relayed) - 1 == len(_acked(frame))  # one result per entry
        assert sorted(client.lrange(f"{namespace}:results", 0, -1)) == [("double", "output", 2 * i) for i in range(n)]
