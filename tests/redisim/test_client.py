"""Tests for the RedisClient facade (serialization, latency, API parity)."""

import time

import pytest

from repro.redisim.client import RedisClient
from repro.redisim.server import RedisServer
from repro.runtime.clock import Clock


@pytest.fixture
def server():
    return RedisServer()


@pytest.fixture
def client(server):
    return RedisClient(server)


class TestSerializationIsolation:
    def test_list_values_are_isolated(self, client):
        payload = {"nested": [1, 2, 3]}
        client.rpush("q", payload)
        payload["nested"].append(99)  # mutation after send
        received = client.lpop("q")
        assert received == {"nested": [1, 2, 3]}

    def test_stream_fields_are_isolated(self, client):
        payload = [1, 2]
        client.xadd("s", {"task": payload})
        payload.append(3)
        [(_id, fields)] = client.xrange("s")
        assert fields["task"] == [1, 2]

    def test_payloads_reach_the_keyspace_pickled(self, server, client):
        client.rpush("q", [1])
        [stored] = server.lrange("q", 0, -1)
        assert isinstance(stored, bytes)
        assert client.lpop("q") == [1]

    def test_roundtrip_preserves_types(self, client):
        import numpy as np

        client.rpush("q", ("tuple", np.arange(3)))
        kind, arr = client.lpop("q")
        assert kind == "tuple"
        assert list(arr) == [0, 1, 2]


class TestLatencyInjection:
    def test_requires_clock(self, server):
        with pytest.raises(ValueError):
            RedisClient(server, op_latency=0.01)

    def test_negative_latency_rejected(self, server):
        with pytest.raises(ValueError):
            RedisClient(server, op_latency=-1, clock=Clock())

    def test_latency_charged_per_op(self, server):
        client = RedisClient(server, op_latency=1.0, clock=Clock(0.005))
        start = time.monotonic()
        client.set("a", 1)
        client.get("a")
        elapsed = time.monotonic() - start
        assert elapsed >= 0.008  # 2 ops x 5 ms

    def test_ops_counter(self, client):
        client.set("a", 1)
        client.get("a")
        client.incr("n")
        assert client.ops == 3


class TestClientStreamAPI:
    def test_group_read_ack_cycle(self, client):
        client.xgroup_create("s", "g", id="0", mkstream=True)
        client.xadd("s", {"task": "work"})
        reply = client.xreadgroup("g", "c", {"s": ">"}, count=1)
        [(key, entries)] = reply
        assert key == "s"
        [(eid, fields)] = entries
        assert fields == {"task": "work"}
        assert client.xack("s", "g", eid) == 1

    def test_blpop_tuple(self, client):
        client.rpush("q", "item")
        assert client.blpop("q", timeout=0.1) == ("q", "item")

    def test_blpop_timeout_none(self, client):
        assert client.blpop("q", timeout=0.02) is None

    def test_xinfo_consumers_via_client(self, client):
        client.xgroup_create("s", "g", mkstream=True)
        client.xadd("s", {"v": 1})
        client.xreadgroup("g", "c", {"s": ">"})
        rows = client.xinfo_consumers("s", "g")
        assert rows[0]["name"] == "c"

    def test_a_named_pel_read_via_client(self, client):
        client.xgroup_create("s", "g", id="0", mkstream=True)
        client.xadd("s", {"task": 1})
        client.xreadgroup("g", "dead", {"s": ">"})
        [(_key, held)] = client.xreadgroup("g", "dead", {"s": "0"})
        assert held[0][1] == {"task": 1}
        assert not hasattr(client, "xautoclaim")

    def test_hash_passthrough(self, client):
        client.hincrby("h", "f", 7)
        assert client.hgetall("h") == {"f": 7}

    def test_counter_roundtrip(self, client):
        client.set("n", 0)
        client.incr("n")
        client.incr("n")
        client.decr("n")
        assert int(client.get("n")) == 1
