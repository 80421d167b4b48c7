"""Tests for client pipelines and server transactions (MULTI/EXEC)."""

import threading
import time

import pytest

from repro.redisim.client import RedisClient
from repro.redisim.errors import RedisError
from repro.redisim.server import RedisServer
from repro.runtime.clock import Clock


@pytest.fixture
def server():
    return RedisServer()


@pytest.fixture
def client(server):
    return RedisClient(server)


class TestServerTransaction:
    def test_executes_in_order(self, server):
        results = server.transaction(
            [
                ("incrby", ("n", 2), {}),
                ("incrby", ("n", 3), {}),
                ("get", ("n",), {}),
            ]
        )
        assert results == [2, 5, 5]

    def test_rejects_unlisted_commands(self, server):
        with pytest.raises(RedisError):
            server.transaction([("keys", ("*",), {})])

    def test_admits_only_the_nonblocking_group_read(self, server):
        server.xgroup_create("s", "g", mkstream=True)
        read = ("g", "w", {"s": ">"})
        assert server.transaction(
            [("xadd", ("s", {"v": 1}), {"entry_id": "1-1"}), ("xreadgroup", read, {"count": 1})]
        ) == ["1-1", [("s", [("1-1", {"v": 1})])]]
        assert server.transaction([("xreadgroup", read, {"count": 1})]) == [[]]
        for blocking in ({"block_ms": 5}, {"block_ms": 0}):
            with pytest.raises(RedisError, match="blocking"):
                server.transaction([("xreadgroup", read, blocking)])
        with pytest.raises(RedisError, match="blocking"):
            server.transaction([("xreadgroup", (*read, 1, 5), {})])

    def test_mixed_commands(self, server):
        server.xgroup_create("s", "g", mkstream=True)
        server.transaction(
            [
                ("xadd", ("s", {"v": 1}), {}),
                ("rpush", ("q", "item"), {}),
                ("set", ("k", 9), {}),
            ]
        )
        assert server.xlen("s") == 1
        assert server.llen("q") == 1
        assert server.get("k") == 9

    def test_wakes_blocked_readers(self, server):
        got = []

        def consumer():
            got.append(server.blpop(["q"], timeout=2.0))

        t = threading.Thread(target=consumer)
        t.start()
        time.sleep(0.02)
        server.transaction([("rpush", ("q", "late"), {})])
        t.join(timeout=3)
        assert got == [("q", "late")]


class TestClientPipeline:
    def test_empty_execute(self, client):
        assert client.pipeline().execute() == []

    def test_batched_results(self, client):
        pipe = client.pipeline()
        pipe.incr("n").incr("n").set("k", "v")
        assert pipe.execute() == [1, 2, True]
        assert len(pipe) == 0  # cleared after execute

    def test_payloads_serialized(self, client):
        payload = [1, 2]
        pipe = client.pipeline()
        pipe.rpush("q", payload)
        payload.append(3)  # mutation after queueing must not leak
        pipe.execute()
        assert client.lpop("q") == [1, 2]

    def test_xadd_xack_cycle(self, client):
        client.xgroup_create("s", "g", id="0", mkstream=True)
        pipe = client.pipeline()
        pipe.xadd("s", {"task": "work"})
        pipe.execute()
        [(eid, fields)] = client.xreadgroup("g", "c", {"s": ">"})[0][1]
        assert fields == {"task": "work"}
        pipe = client.pipeline()
        pipe.xack("s", "g", eid).decr("outstanding")
        acked, counter = pipe.execute()
        assert acked == 1 and counter == -1

    def test_single_latency_charge(self, server):
        clock = Clock(0.01)
        client = RedisClient(server, op_latency=1.0, clock=clock)
        pipe = client.pipeline()
        for i in range(10):
            pipe.incr("n")
        start = time.monotonic()
        pipe.execute()
        elapsed = time.monotonic() - start
        # One charge (10 ms) not ten (100 ms).
        assert elapsed < 0.06

    def test_execute_is_begin_then_result(self, client):
        """One path: an in-process batch runs inside ``begin`` and its
        flight has landed; ``execute`` only reads it."""
        pipe = client.pipeline()
        pipe.incr("n").rpush("q", ("payload", 1))
        flight = pipe.begin()
        assert len(pipe) == 0 and client.ops == 1
        assert flight.landed and client.get("n") == 1
        assert flight.result() == [1, 1] and flight.result() == [1, 1]
        assert client.pipeline().begin().result() == []
        assert client.ops == 2  # the GET; an empty batch is no trip

    def test_a_flight_decodes_its_reads_when_it_lands(self, server):
        """A transport whose flights are still on the wire after ``begin``:
        the pipeline's reply decoding waits for ``result()``."""
        from repro.redisim.client import Flight, InProcessTransport

        class Slow(InProcessTransport):
            def begin(self, commands):
                flight = super().begin(commands)
                return Flight(read=flight.result)

        client = RedisClient(Slow(server))
        client.xgroup_create("s", "g", id="0", mkstream=True)
        client.xadd("s", {"task": ("pe", None, 7)})
        pipe = client.pipeline()
        pipe.xreadgroup("g", "c", {"s": ">"}, count=4)
        flight = pipe.begin()
        assert not flight.landed
        [(key, [(_entry_id, fields)])] = flight.result()[0]
        assert flight.landed and key == "s" and fields == {"task": ("pe", None, 7)}

    def test_delete_in_pipeline(self, client):
        client.set("a", 1)
        pipe = client.pipeline()
        pipe.delete("a")
        assert pipe.execute() == [1]
