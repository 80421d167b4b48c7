"""Tests for reading a named consumer's PEL: how a death is adopted.

There is no claim command.  A consumer's pending entries stay its own
however long they idle; once it is named dead, its adopter reads them with
``XREADGROUP ... <id>`` *as* that consumer, and settles them like any other
entry.
"""

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


def history(server, consumer):
    """``consumer``'s pending entry IDs, read as it."""
    [(_key, entries)] = server.xreadgroup("g", consumer, {"s": "0"})
    return [entry_id for entry_id, _fields in entries]


class TestNamedConsumerReads:
    """Paging, acks and exactly-once credit over a named PEL are pinned on
    both transports in ``test_wire_order.py``, ``test_tcp.py`` and
    ``test_real_parity.py``; these pin what no idle time may change."""

    def test_an_hour_idle_moves_nothing(self, server, timeline):
        ids = seed(server)
        server.xreadgroup("g", "slow", {"s": ">"}, count=3)
        timeline["t"] += 3600.0
        assert server.xreadgroup("g", "peer", {"s": ">"}) == []
        assert history(server, "peer") == []
        assert history(server, "slow") == ids  # read as it, by anyone ...
        assert server.xpending("s", "g")["consumers"] == {"slow": 3}  # ... and still its

    def test_an_unknown_consumer_has_an_empty_pel(self, server):
        seed(server)
        assert history(server, "never-seen") == []

    def test_a_page_is_one_command_that_never_blocks(self, server):
        seed(server, n=1)
        server.xreadgroup("g", "dead", {"s": ">"})
        before = server.command_count["xreadgroup"]
        server.xreadgroup("g", "dead", {"s": "0"}, block_ms=60_000)
        assert server.command_count["xreadgroup"] - before == 1
        assert not {"xautoclaim", "xclaim"} & set(server.command_count)
