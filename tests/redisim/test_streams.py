"""Tests for stream IDs and XADD/XRANGE/XLEN."""

import copy
import pickle

import pytest

from repro.redisim.errors import StreamIDError
from repro.redisim.server import RedisServer
from repro.redisim.streams import Stream, StreamID


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
