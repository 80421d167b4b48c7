"""Property-based tests for the stream substrate (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.redisim.server import RedisServer
from repro.redisim.streams import StreamID


def fresh_server():
    times = iter(x / 1000.0 for x in range(1, 10_000_000))
    return RedisServer(now=lambda: next(times))


ids_strategy = st.tuples(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)


class TestStreamIDProperties:
    @given(ids_strategy, ids_strategy)
    def test_ordering_matches_tuple_ordering(self, a, b):
        assert (StreamID(*a) < StreamID(*b)) == (a < b)

    @given(ids_strategy)
    def test_parse_str_roundtrip(self, pair):
        sid = StreamID(*pair)
        assert StreamID.parse(str(sid)) == sid

    @given(ids_strategy)
    def test_next_is_strictly_greater(self, pair):
        sid = StreamID(*pair)
        assert sid < sid.next()


class TestStreamProperties:
    @given(st.lists(st.integers(), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_xadd_ids_strictly_increase(self, values):
        server = fresh_server()
        ids = [StreamID.parse(server.xadd("s", {"v": v})) for v in values]
        assert all(a < b for a, b in zip(ids, ids[1:]))

    @given(st.lists(st.integers(), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_xrange_returns_everything_in_order(self, values):
        server = fresh_server()
        for v in values:
            server.xadd("s", {"v": v})
        got = [fields["v"] for _id, fields in server.xrange("s")]
        assert got == values

    @given(
        st.lists(st.integers(), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_group_consumption_is_a_partition(self, values, consumers):
        """Entries delivered through a consumer group are a partition of
        the stream: no duplicates, nothing lost (at-least-once with no
        failures becomes exactly-once)."""
        server = fresh_server()
        server.xgroup_create("s", "g", entry_id="0", mkstream=True)
        for v in values:
            server.xadd("s", {"v": v})
        seen = []
        exhausted = False
        while not exhausted:
            exhausted = True
            for c in range(consumers):
                reply = server.xreadgroup("g", f"c{c}", {"s": ">"}, count=1)
                for _key, entries in reply:
                    for eid, fields in entries:
                        seen.append(fields["v"])
                        server.xack("s", "g", eid)
                        exhausted = False
        assert sorted(seen) == sorted(values)
        assert server.xpending("s", "g")["pending"] == 0

    # Three in four delivered entries settled: enough to trigger compactions.
    @given(st.lists(st.sampled_from([True, True, True, False]), min_size=1, max_size=300),
           st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_xackdecr_leaves_exactly_the_unsettled_entries(self, settle, rng):
        """Whatever subset ``XACKDECR`` settles, in whatever order (and so
        whichever compactions it triggers), ``XRANGE`` is the rest in stream
        order, ``XLEN`` its length and the group's lag is unchanged."""
        server = fresh_server()
        server.xgroup_create("s", "g", entry_id="0", mkstream=True)
        ids = server.xaddn("s", "v", *range(len(settle)))
        delivered = len(settle) - len(settle) // 10
        server.xreadgroup("g", "c", {"s": ">"}, count=delivered)
        [before] = server.xinfo_groups("s")
        acked = [entry_id for entry_id, ack in zip(ids[:delivered], settle) if ack]
        rng.shuffle(acked)
        for entry_id in acked:
            assert server.xackdecr("s", "g", entry_id, "n", 1) == 1
        rest = [entry_id for entry_id in ids if entry_id not in set(acked)]
        assert [entry_id for entry_id, _f in server.xrange("s")] == rest
        assert server.xlen("s") == len(rest)
        [after] = server.xinfo_groups("s")
        assert after["lag"] == before["lag"] == len(settle) - delivered
