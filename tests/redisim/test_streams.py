"""Tests for stream IDs and XADD/XRANGE/XLEN."""

import copy
import gc
import pickle
import weakref

import pytest

from repro.redisim.errors import StreamIDError
from repro.redisim.server import RedisServer
from repro.redisim.streams import COMPACT_MIN, Stream, StreamID


class TestStreamID:
    def test_parse_full(self):
        sid = StreamID.parse("5-3")
        assert (sid.ms, sid.seq) == (5, 3)

    def test_parse_ms_only(self):
        assert StreamID.parse("7").seq == 0

    def test_parse_invalid(self):
        with pytest.raises(StreamIDError):
            StreamID.parse("abc")

    def test_negative_rejected(self):
        with pytest.raises(StreamIDError):
            StreamID(-1, 0)

    def test_ordering(self):
        assert StreamID(1, 5) < StreamID(2, 0)
        assert StreamID(2, 1) < StreamID(2, 2)
        assert StreamID(3, 3) == StreamID.parse("3-3")

    def test_next(self):
        assert StreamID(4, 7).next() == StreamID(4, 8)

    def test_str_roundtrip(self):
        sid = StreamID(12, 34)
        assert StreamID.parse(str(sid)) == sid

    def test_hashable(self):
        assert len({StreamID(1, 1), StreamID.parse("1-1")}) == 1

    def test_copies_and_pickles_as_itself(self):
        sid = StreamID(9, 5)
        for twin in (copy.deepcopy(sid), pickle.loads(pickle.dumps(sid))):
            assert type(twin) is StreamID and twin == sid and str(twin) == "9-5"
        assert (sid.ms, sid.seq) == (9, 5)


@pytest.fixture
def server():
    # Deterministic clock so auto-IDs are predictable in tests.
    times = iter(x / 1000.0 for x in range(1, 100000))
    return RedisServer(now=lambda: next(times))


class TestXAdd:
    def test_auto_ids_increase(self, server):
        first = server.xadd("s", {"v": 1})
        second = server.xadd("s", {"v": 2})
        assert StreamID.parse(first) < StreamID.parse(second)

    def test_explicit_id(self, server):
        assert server.xadd("s", {"v": 1}, entry_id="100-1") == "100-1"

    def test_explicit_id_must_increase(self, server):
        server.xadd("s", {"v": 1}, entry_id="100-1")
        with pytest.raises(StreamIDError):
            server.xadd("s", {"v": 2}, entry_id="100-1")

    def test_zero_id_rejected(self, server):
        with pytest.raises(StreamIDError):
            server.xadd("s", {"v": 1}, entry_id="0-0")

    def test_a_refused_add_creates_no_key(self, server):
        with pytest.raises(StreamIDError):
            server.xadd("s", {"v": 1}, entry_id="0-0")
        assert server.exists("s") == 0 and server.keys() == []

    def test_empty_fields_rejected(self, server):
        with pytest.raises(StreamIDError):
            server.xadd("s", {})

    def test_same_ms_bumps_seq(self):
        server = RedisServer(now=lambda: 0.005)  # frozen clock
        a = server.xadd("s", {"v": 1})
        b = server.xadd("s", {"v": 2})
        assert a == "5-0" and b == "5-1"

    def test_xlen(self, server):
        assert server.xlen("s") == 0
        server.xadd("s", {"v": 1})
        assert server.xlen("s") == 1

class TestXRange:
    def test_full_range(self, server):
        ids = [server.xadd("s", {"v": i}) for i in range(3)]
        got = server.xrange("s")
        assert [eid for eid, _f in got] == ids

    def test_bounded_range(self, server):
        ids = [server.xadd("s", {"v": i}) for i in range(5)]
        got = server.xrange("s", ids[1], ids[3])
        assert [eid for eid, _f in got] == ids[1:4]

    def test_count_limits(self, server):
        for i in range(5):
            server.xadd("s", {"v": i})
        assert len(server.xrange("s", count=2)) == 2

    def test_missing_stream_empty(self, server):
        assert server.xrange("nope") == []


def _rolled_over():
    """Five entries across a millisecond rollover: 9-0, 9-1, 9-2, 10-0, 10-1."""
    stream = Stream()
    wires = [stream.add({"n": n}, now_ms=ms) for n, ms in enumerate([9, 9, 9, 10, 10])]
    assert wires == ["9-0", "9-1", "9-2", "10-0", "10-1"]
    return stream


class TestAfter:
    """``Stream.after(last, count)`` (the ``>`` cursor) and the group lag."""

    @pytest.mark.parametrize(
        "last, count, expected",
        [
            (StreamID(9, 1), None, ["9-2", "10-0", "10-1"]),
            (StreamID(9, 1), 1, ["9-2"]),
            (StreamID(9, 1), 2, ["9-2", "10-0"]),
            (StreamID(9, 1), 10, ["9-2", "10-0", "10-1"]),
            (StreamID(9, 2), 1, ["10-0"]),
            (StreamID(9, 7), None, ["10-0", "10-1"]),
            (StreamID(0, 0), 1, ["9-0"]),
            (StreamID(10, 1), None, []),
            (StreamID(10, 1), 1, []),
        ],
    )
    def test_after_across_a_millisecond_rollover(self, last, count, expected):
        stream = _rolled_over()
        assert [entry.wire for entry in stream.after(last, count)] == expected
        assert stream.lag(last) == len(stream.after(last))

    def test_wire_ids_are_formatted_once_and_match_the_id(self):
        stream = _rolled_over()
        for entry in stream.after(StreamID(0, 0)):
            assert entry.wire == str(entry.id)
            assert StreamID.parse(entry.wire) == entry.id

    def test_group_lag_across_a_millisecond_rollover(self):
        clock = iter([0.009, 0.009, 0.009, 0.010, 0.010])
        server = RedisServer(now=lambda: next(clock, 0.011))
        server.xgroup_create("s", "g", entry_id="0", mkstream=True)
        ids = [server.xadd("s", {"n": n}) for n in range(5)]
        assert ids == ["9-0", "9-1", "9-2", "10-0", "10-1"]
        lags = []
        for count in (1, 2, None):
            [row] = server.xinfo_groups("s")
            lags.append(row["lag"])
            server.xreadgroup("g", "c", {"s": ">"}, count=count)
        [row] = server.xinfo_groups("s")
        assert lags + [row["lag"]] == [5, 4, 2, 0]
        assert row["last-delivered-id"] == "10-1"
        assert row["entries-read"] == 5


class TestSettledEntriesLeave:
    """``XACKDECR`` deletes what it settles; ``XACK`` keeps it, as in Redis."""

    def test_xlen_and_xrange_exclude_what_xackdecr_settled(self, layer):
        _keyspace, connect = layer
        client = connect()
        client.xgroup_create("s", "g", id="0", mkstream=True)
        ids = client.xaddn("s", "v", *range(5))
        client.incrby("n", 5)
        client.xreadgroup("g", "c", {"s": ">"})
        assert client.xack_decr("s", "g", ids[1], "n", 1, ids[3], 1) == 2
        assert client.xlen("s") == 3
        assert [entry_id for entry_id, _f in client.xrange("s")] == [ids[0], ids[2], ids[4]]
        assert client.xrange("s", ids[1], "+", count=2) == [(ids[2], {"v": 2}), (ids[4], {"v": 4})]
        assert client.xack("s", "g", ids[0], ids[2]) == 2
        assert client.xlen("s") == 3  # plain XACK keeps the entries
        assert [entry_id for entry_id, _f in client.xrange("s")] == [ids[0], ids[2], ids[4]]

    def test_the_payload_is_freed_at_the_ack(self, server):
        class Payload:
            pass

        server.xgroup_create("s", "g", entry_id="0", mkstream=True)
        payload = Payload()
        held = weakref.ref(payload)
        entry_id = server.xadd("s", {"task": payload})
        del payload
        server.xreadgroup("g", "c", {"s": ">"})
        gc.collect()
        assert held() is not None  # pending: the PEL still needs it
        server.xackdecr("s", "g", entry_id, "n", 1)
        assert held() is None

    def test_a_stream_with_no_group_never_shrinks(self, server):
        ids = [server.xadd("s", {"v": n}) for n in range(200)]
        assert server.xlen("s") == 200
        assert [entry_id for entry_id, _f in server.xrange("s")] == ids

    def test_group_lag_and_reads_are_unchanged_across_a_compaction(self, server):
        server.xgroup_create("s", "g", entry_id="0", mkstream=True)
        ids = [server.xadd("s", {"v": n}) for n in range(4 * COMPACT_MIN)]
        server.xreadgroup("g", "c", {"s": ">"}, count=3 * COMPACT_MIN)
        [before] = server.xinfo_groups("s")
        stream = server._data["s"][1]
        # Settle out of order: every other entry, then the rest.
        acked = ids[: 2 * COMPACT_MIN : 2] + ids[1 : 2 * COMPACT_MIN : 2]
        for entry_id in acked:
            server.xackdecr("s", "g", entry_id, "n", 1)
        assert len(stream.entries) == len(stream._ids) == 2 * COMPACT_MIN  # compacted
        [after] = server.xinfo_groups("s")
        assert after == {**before, "pending": COMPACT_MIN}
        assert server.xlen("s") == 2 * COMPACT_MIN
        assert [e for e, _f in server.xrange("s")] == ids[2 * COMPACT_MIN :]
        assert server.xrange("s", "-", ids[2 * COMPACT_MIN], count=5) == [
            (ids[2 * COMPACT_MIN], {"v": 2 * COMPACT_MIN})
        ]
        [(_key, rest)] = server.xreadgroup("g", "c", {"s": ">"})
        assert [entry_id for entry_id, _f in rest] == ids[3 * COMPACT_MIN :]

    def test_a_group_created_below_deleted_entries_reads_only_live_ones(self, server):
        server.xgroup_create("s", "g", entry_id="0", mkstream=True)
        ids = [server.xadd("s", {"v": n}) for n in range(4)]
        server.xreadgroup("g", "c", {"s": ">"})
        server.xackdecr("s", "g", ids[0], "n", 1, ids[2], 1)
        server.xgroup_create("s", "late", entry_id="0")
        lag = {row["name"]: row["lag"] for row in server.xinfo_groups("s")}
        assert lag == {"g": 0, "late": 2}
        [(_key, read)] = server.xreadgroup("late", "c", {"s": ">"}, count=1)
        assert [entry_id for entry_id, _f in read] == [ids[1]]

    def test_an_entry_another_group_still_needs_stays(self, server):
        server.xgroup_create("s", "a", entry_id="0", mkstream=True)
        server.xgroup_create("s", "b", entry_id="0")
        first, second = server.xadd("s", {"v": 1}), server.xadd("s", {"v": 2})
        server.xreadgroup("a", "c", {"s": ">"})
        server.xackdecr("s", "a", first, "n", 1, second, 1)
        assert server.xlen("s") == 2  # "b" has not read them
        server.xreadgroup("b", "c", {"s": ">"})
        server.xack("s", "b", first)
        assert server.xlen("s") == 2  # "b" settled ``first`` with a plain XACK
        assert server.xackdecr("s", "b", second, "n", 1) == 1
        assert [entry_id for entry_id, _f in server.xrange("s")] == [first]
