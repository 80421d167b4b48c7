"""Tests for consumer groups: XGROUP/XREADGROUP/XACK/XPENDING/XINFO."""

import pytest

from repro.redisim.errors import BusyGroupError, NoGroupError, RedisError
from repro.redisim.server import RedisServer


@pytest.fixture
def server():
    times = iter(x / 1000.0 for x in range(1, 1000000))
    return RedisServer(now=lambda: next(times))


def make_group(server, n_entries=3, group="g"):
    server.xgroup_create("s", group, entry_id="0", mkstream=True)
    ids = [server.xadd("s", {"v": i}) for i in range(n_entries)]
    return ids


class TestXGroupCreate:
    def test_requires_stream_unless_mkstream(self, server):
        with pytest.raises(RedisError):
            server.xgroup_create("missing", "g")
        server.xgroup_create("missing", "g", mkstream=True)
        assert server.xlen("missing") == 0

    def test_duplicate_group_raises_busygroup(self, server):
        server.xgroup_create("s", "g", mkstream=True)
        with pytest.raises(BusyGroupError):
            server.xgroup_create("s", "g")

    def test_destroy(self, server):
        server.xgroup_create("s", "g", mkstream=True)
        assert server.xgroup_destroy("s", "g") == 1
        assert server.xgroup_destroy("s", "g") == 0

    def test_dollar_start_skips_existing(self, server):
        server.xadd("s", {"v": "old"})
        server.xgroup_create("s", "g", entry_id="$")
        assert server.xreadgroup("g", "c", {"s": ">"}) == []


class TestXReadGroup:
    def test_new_messages_cursor(self, server):
        ids = make_group(server)
        reply = server.xreadgroup("g", "c1", {"s": ">"}, count=2)
        _key, entries = reply[0]
        assert [eid for eid, _f in entries] == ids[:2]

    def test_cooperative_consumption(self, server):
        """Two consumers share the stream without overlap."""
        make_group(server, n_entries=4)
        first = server.xreadgroup("g", "c1", {"s": ">"}, count=2)[0][1]
        second = server.xreadgroup("g", "c2", {"s": ">"}, count=2)[0][1]
        ids1 = {eid for eid, _f in first}
        ids2 = {eid for eid, _f in second}
        assert not (ids1 & ids2)
        assert len(ids1 | ids2) == 4

    def test_unknown_group_raises(self, server):
        server.xadd("s", {"v": 1})
        with pytest.raises(NoGroupError):
            server.xreadgroup("ghost", "c", {"s": ">"})

    def test_empty_read_returns_nothing(self, server):
        make_group(server, n_entries=1)
        server.xreadgroup("g", "c", {"s": ">"})
        assert server.xreadgroup("g", "c", {"s": ">"}) == []

    def test_history_replay_own_pel(self, server):
        make_group(server, n_entries=3)
        server.xreadgroup("g", "c1", {"s": ">"}, count=2)
        server.xreadgroup("g", "c2", {"s": ">"}, count=1)
        # c1 replays only its own pending entries.
        replay = server.xreadgroup("g", "c1", {"s": "0-0"})
        _key, entries = replay[0]
        assert len(entries) == 2

    def test_history_after_ack_is_empty(self, server):
        make_group(server, n_entries=1)
        [(eid, _f)] = server.xreadgroup("g", "c", {"s": ">"})[0][1]
        server.xack("s", "g", eid)
        replay = server.xreadgroup("g", "c", {"s": "0-0"})
        assert replay[0][1] == []

    def test_noack_skips_pel(self, server):
        make_group(server, n_entries=1)
        server.xreadgroup("g", "c", {"s": ">"}, noack=True)
        assert server.xpending("s", "g")["pending"] == 0


class TestXAck:
    def test_ack_removes_pending(self, server):
        make_group(server, n_entries=2)
        entries = server.xreadgroup("g", "c", {"s": ">"}, count=2)[0][1]
        acked = server.xack("s", "g", entries[0][0])
        assert acked == 1
        assert server.xpending("s", "g")["pending"] == 1

    def test_double_ack_counts_once(self, server):
        make_group(server, n_entries=1)
        [(eid, _f)] = server.xreadgroup("g", "c", {"s": ">"})[0][1]
        assert server.xack("s", "g", eid) == 1
        assert server.xack("s", "g", eid) == 0


class TestXPending:
    def test_summary(self, server):
        make_group(server, n_entries=3)
        server.xreadgroup("g", "c1", {"s": ">"}, count=2)
        server.xreadgroup("g", "c2", {"s": ">"}, count=1)
        summary = server.xpending("s", "g")
        assert summary["pending"] == 3
        assert summary["consumers"] == {"c1": 2, "c2": 1}

    def test_empty_summary(self, server):
        make_group(server, n_entries=0)
        summary = server.xpending("s", "g")
        assert summary == {"pending": 0, "min": None, "max": None, "consumers": {}}

    def test_range_filter_by_consumer(self, server):
        make_group(server, n_entries=3)
        server.xreadgroup("g", "c1", {"s": ">"}, count=2)
        server.xreadgroup("g", "c2", {"s": ">"}, count=1)
        rows = server.xpending_range("s", "g", consumer="c2")
        assert len(rows) == 1 and rows[0]["consumer"] == "c2"

    def test_range_reports_delivery_count(self, server):
        make_group(server, n_entries=1)
        server.xreadgroup("g", "c", {"s": ">"})
        rows = server.xpending_range("s", "g")
        assert rows[0]["times_delivered"] == 1


class TestXInfo:
    def test_groups_lag(self, server):
        make_group(server, n_entries=3)
        server.xreadgroup("g", "c", {"s": ">"}, count=1)
        [info] = server.xinfo_groups("s")
        assert info["name"] == "g"
        assert info["lag"] == 2
        assert info["entries-read"] == 1

    def test_consumers_pending(self, server):
        make_group(server, n_entries=2)
        server.xreadgroup("g", "c1", {"s": ">"}, count=2)
        [row] = server.xinfo_consumers("s", "g")
        assert row["name"] == "c1" and row["pending"] == 2

    def test_stream_info(self, server):
        make_group(server, n_entries=2)
        info = server.xinfo_stream("s")
        assert info["length"] == 2
        assert info["groups"] == 1

    def test_stream_info_missing_raises(self, server):
        with pytest.raises(RedisError):
            server.xinfo_stream("nope")

    def test_delconsumer_drops_pel(self, server):
        make_group(server, n_entries=2)
        server.xreadgroup("g", "c1", {"s": ">"}, count=2)
        assert server.xgroup_delconsumer("s", "g", "c1") == 2
        assert server.xpending("s", "g")["pending"] == 0


class TestIdleTime:
    def test_idle_grows_without_deliveries(self):
        current = {"t": 1.0}
        server = RedisServer(now=lambda: current["t"])
        server.xgroup_create("s", "g", mkstream=True)
        server.xadd("s", {"v": 1})
        server.xreadgroup("g", "c", {"s": ">"})
        current["t"] = 2.5  # 1.5 s later
        [row] = server.xinfo_consumers("s", "g")
        assert row["idle"] == pytest.approx(1500.0)

    def test_empty_poll_does_not_refresh_idle(self):
        """The dyn_auto_redis strategy needs idle = time since last
        delivery, not time since last poll."""
        current = {"t": 1.0}
        server = RedisServer(now=lambda: current["t"])
        server.xgroup_create("s", "g", mkstream=True)
        server.xadd("s", {"v": 1})
        server.xreadgroup("g", "c", {"s": ">"})
        current["t"] = 2.0
        server.xreadgroup("g", "c", {"s": ">"})  # empty poll
        [row] = server.xinfo_consumers("s", "g")
        assert row["idle"] == pytest.approx(1000.0)

    def test_ack_refreshes_idle(self):
        current = {"t": 1.0}
        server = RedisServer(now=lambda: current["t"])
        server.xgroup_create("s", "g", mkstream=True)
        server.xadd("s", {"v": 1})
        [(eid, _f)] = server.xreadgroup("g", "c", {"s": ">"})[0][1]
        current["t"] = 3.0
        server.xack("s", "g", eid)
        [row] = server.xinfo_consumers("s", "g")
        assert row["idle"] == pytest.approx(0.0)


class TestVariadicXackdecr:
    """``XACKDECR key group id counter amount [id amount ...]`` at the
    in-process front door: every entry acked in order, one ``DECRBY`` of
    the amounts actually acked, and nothing at all on a malformed call."""

    @pytest.fixture
    def fetched(self, server):
        ids = make_group(server, n_entries=4)
        server.xreadgroup("g", "c", {"s": ">"})
        server.set("n", 100)
        return ids

    def test_five_argument_form_replies_as_before(self, server, fetched):
        assert server.xackdecr("s", "g", fetched[0], "n", 3) == 1
        assert server.xackdecr("s", "g", fetched[0], "n", 3) == 0
        assert server.get("n") == 97

    def test_every_pair_is_settled_with_one_decrement(self, server, fetched):
        a, b, c, _d = fetched
        before = dict(server.command_count)
        assert server.xackdecr("s", "g", a, "n", 1, b, 2, c, 4) == 3
        assert server.get("n") == 100 - 7
        assert server.xpending("s", "g")["pending"] == 1
        assert server.command_count["incrby"] - before.get("incrby", 0) == 1

    def test_unknown_id_acks_and_releases_nothing(self, server, fetched):
        assert server.xackdecr("s", "g", "999-0", "n", 5, "999-1", 6) == 0
        assert server.get("n") == 100
        assert server.xpending("s", "g")["pending"] == 4

    def test_an_id_named_twice_releases_once(self, server, fetched):
        a = fetched[0]
        assert server.xackdecr("s", "g", a, "n", 5, a, 5) == 1
        assert server.get("n") == 95

    def test_half_stale_list_releases_only_the_live_entries(self, server, fetched):
        a, b, c, d = fetched
        assert server.xackdecr("s", "g", a, "n", 1, c, 1) == 2  # a peer was first
        assert server.xackdecr("s", "g", a, "n", 10, b, 20, c, 30, d, 40) == 2
        assert server.get("n") == 100 - 2 - 20 - 40
        assert server.xpending("s", "g")["pending"] == 0

    @pytest.mark.parametrize(
        "more",
        [
            ("1-1",),  # an id without its amount
            ("1-1", 1, "1-2"),
            ("1-1", 0),
            ("1-1", -1),
            ("1-1", "1_000"),
            ("1-1", " 5 "),
            ("1-1", 1.0),
            ("1-1", True),
        ],
    )
    def test_a_malformed_tail_settles_nothing(self, server, fetched, more):
        with pytest.raises(RedisError):
            server.xackdecr("s", "g", fetched[0], "n", 1, *more)
        assert server.get("n") == 100
        assert server.xpending("s", "g")["pending"] == 4

    @pytest.mark.parametrize("amount", [0, -1, "1_000", " 5 ", None])
    def test_a_malformed_first_amount_settles_nothing(self, server, fetched, amount):
        with pytest.raises(RedisError):
            server.xackdecr("s", "g", fetched[0], "n", amount, fetched[1], 1)
        assert server.get("n") == 100
        assert server.xpending("s", "g")["pending"] == 4
