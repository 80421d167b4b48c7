"""Tests for XAUTOCLAIM (crash recovery of pending entries)."""

import pytest

from repro.redisim.server import RedisServer


@pytest.fixture
def timeline():
    return {"t": 1.0}


@pytest.fixture
def server(timeline):
    return RedisServer(now=lambda: timeline["t"])


def seed(server, n=3):
    server.xgroup_create("s", "g", entry_id="0", mkstream=True)
    return [server.xadd("s", {"v": i}) for i in range(n)]


class TestXAutoClaim:
    def test_scans_and_claims(self, server, timeline):
        ids = seed(server, n=5)
        server.xreadgroup("g", "dead", {"s": ">"}, count=5)
        timeline["t"] = 10.0
        cursor, claimed = server.xautoclaim("s", "g", "alive", 1000, count=3)
        assert len(claimed) == 3
        assert cursor == ids[3]
        cursor, claimed = server.xautoclaim("s", "g", "alive", 1000, start=cursor)
        assert len(claimed) == 2
        assert cursor == "0-0"

    def test_nothing_idle_enough(self, server, timeline):
        seed(server, n=2)
        server.xreadgroup("g", "dead", {"s": ">"}, count=2)
        timeline["t"] = 1.1
        cursor, claimed = server.xautoclaim("s", "g", "alive", 60000)
        assert claimed == [] and cursor == "0-0"

    def test_claim_transfers_ownership(self, server, timeline):
        ids = seed(server)
        server.xreadgroup("g", "dead", {"s": ">"}, count=3)
        timeline["t"] = 10.0  # entries now 9000 ms idle
        _cursor, claimed = server.xautoclaim("s", "g", "alive", 5000)
        assert [eid for eid, _f in claimed] == ids
        assert server.xpending("s", "g")["consumers"] == {"alive": 3}
        assert server.xreadgroup("g", "alive", {"s": "0-0"})[0][1] == claimed

    def test_a_reclaim_is_one_command(self, server, timeline):
        seed(server, n=1)
        server.xreadgroup("g", "dead", {"s": ">"})
        timeline["t"] = 10.0
        server.xautoclaim("s", "g", "alive", 0)
        assert server.command_count["xautoclaim"] == 1
        assert "xclaim" not in server.command_count

    def test_claims_only_entries_idle_long_enough(self, server, timeline):
        ids = seed(server, n=3)
        server.xreadgroup("g", "dead", {"s": ">"}, count=2)
        timeline["t"] = 5.0
        server.xreadgroup("g", "slow", {"s": ">"}, count=1)
        timeline["t"] = 6.0  # dead's two entries 5000 ms idle, slow's 1000 ms
        _cursor, claimed = server.xautoclaim("s", "g", "alive", 3000)
        assert [eid for eid, _f in claimed] == ids[:2]
        assert server.xpending("s", "g")["consumers"] == {"alive": 2, "slow": 1}

    def test_acked_entries_are_not_claimed(self, server, timeline):
        ids = seed(server, n=3)
        server.xreadgroup("g", "dead", {"s": ">"}, count=3)
        server.xack("s", "g", ids[1])
        timeline["t"] = 10.0
        _cursor, claimed = server.xautoclaim("s", "g", "alive", 0)
        assert [eid for eid, _f in claimed] == [ids[0], ids[2]]

    def test_a_claim_restarts_the_idle_clock(self, server, timeline):
        seed(server, n=1)
        server.xreadgroup("g", "dead", {"s": ">"})
        timeline["t"] = 10.0
        assert len(server.xautoclaim("s", "g", "alive", 5000)[1]) == 1
        timeline["t"] = 11.0  # 1000 ms since the claim, not 10 000
        assert server.xautoclaim("s", "g", "thief", 5000) == ("0-0", [])
        assert server.xpending("s", "g")["consumers"] == {"alive": 1}
