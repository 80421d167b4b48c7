"""RESP-over-TCP server + socket client: the wire behaves like the library.

Every test here drives a real loopback socket against
:class:`~repro.net.server.RespTCPServer`; the client is the drop-in
:class:`~repro.net.client.SocketRedisClient` facade the cluster mapping uses.
"""

import os
import threading
import time

import pytest

from repro.net.client import ReplyError, SocketRedisClient
from repro.net.server import RespTCPServer
from repro.redisim.server import RedisError, RedisServer

pytestmark = pytest.mark.network


@pytest.fixture
def server():
    srv = RespTCPServer().start()
    yield srv
    srv.close()


@pytest.fixture
def client(server):
    cli = SocketRedisClient(address=server.address)
    yield cli
    cli.close()


class TestBasics:
    def test_ping(self, client):
        assert client.ping() is True

    def test_strings_and_counters(self, client):
        client.set("k", "v")
        assert client.get("k") == b"v"
        assert client.incrby("n", 5) == 5
        assert client.decr("n") == 4
        assert client.exists("k") == 1
        assert client.delete("k", "n") == 2

    def test_pickled_payloads_roundtrip(self, client):
        payload = {"nested": [1, 2, ("a", None)]}
        client.rpush("q", payload)
        assert client.lpop("q") == payload

    def test_hashes_and_sets(self, client):
        client.hset("h", "f", b"1")
        client.hincrby("h", "f", 2)
        assert client.hget("h", "f") == b"3"
        assert client.hgetall("h") == {"f": b"3"}
        client.sadd("s", "a", "b")
        assert client.smembers("s") == {"a", "b"}
        assert client.sismember("s", "a") == 1

    def test_wrongtype_maps_to_reply_error(self, client):
        client.set("k", "v")
        with pytest.raises(ReplyError) as excinfo:
            client.lpush("k", 1)
        assert excinfo.value.code == "WRONGTYPE"
        assert isinstance(excinfo.value, RedisError)

    def test_shared_keyspace_with_in_process_server(self):
        keyspace = RedisServer()
        srv = RespTCPServer(keyspace).start()
        try:
            cli = SocketRedisClient(address=srv.address)
            cli.set("shared", "over-tcp")
            # The same keyspace object is visible without the socket.
            assert keyspace.get("shared") == b"over-tcp"
            cli.close()
        finally:
            srv.close()


class TestBlocking:
    def test_blpop_timeout_returns_none(self, client):
        start = time.monotonic()
        assert client.blpop(["missing"], timeout=0.2) is None
        assert time.monotonic() - start >= 0.15

    def test_blpop_sees_push_from_other_connection(self, server, client):
        other = SocketRedisClient(address=server.address)

        def push():
            time.sleep(0.1)
            other.rpush("q", "late")

        t = threading.Thread(target=push)
        t.start()
        got = client.blpop(["q"], timeout=5.0)
        t.join()
        other.close()
        assert got == ("q", "late")

    def test_blocking_xread_sees_new_entries(self, server, client):
        other = SocketRedisClient(address=server.address)

        def add():
            time.sleep(0.1)
            other.xadd("st", {"k": "v"})

        t = threading.Thread(target=add)
        t.start()
        got = client.xread({"st": "$"}, block=5000)
        t.join()
        other.close()
        assert got and got[0][0] == "st"
        assert got[0][1][0][1] == {"k": "v"}


class TestStreamsOverWire:
    def test_group_lifecycle_and_xack_decr(self, client):
        client.xgroup_create("st", "g", mkstream=True)
        client.xadd("st", {"task": [1, 2]})
        client.incrby("outstanding", 1)
        [(key, entries)] = client.xreadgroup("g", "w0", {"st": ">"}, count=10)
        assert key == "st" and len(entries) == 1
        entry_id = entries[0][0]
        assert client.xack_decr("st", "g", entry_id, "outstanding") == 1
        # Exactly-once: second ack is a no-op and must not decrement again.
        assert client.xack_decr("st", "g", entry_id, "outstanding") == 0
        assert int(client.get("outstanding")) == 0

    def test_xautoclaim_adopts_pending(self, client):
        client.xgroup_create("st", "g", mkstream=True)
        client.xadd("st", {"task": "t"})
        client.xreadgroup("g", "dead", {"st": ">"}, count=10)
        time.sleep(0.05)
        cursor, claimed = client.xautoclaim("st", "g", "live", min_idle_time=10)
        assert len(claimed) == 1
        pending = client.xpending("st", "g")
        assert pending["consumers"] == {"live": 1}


class TestPipeline:
    def test_pipeline_is_ordered_and_decoded(self, client):
        pipe = client.pipeline()
        pipe.rpush("q", "a", "b")
        pipe.incrby("n", 3)
        pipe.xadd("st", {"f": "v"})
        replies = pipe.execute()
        assert replies[0] == 2
        assert replies[1] == 3
        assert isinstance(replies[2], str) and "-" in replies[2]


class TestResilience:
    def test_reconnects_after_connection_drop(self, server, client):
        client.set("k", "1")
        server.drop_connections()
        assert client.retries == 0
        # The pool retries transparently on the next command -- and says so.
        assert client.get("k") == b"1"
        assert client.retries == 1

    def test_dropped_connections_parked_blpop_consumes_nothing(self, server, client):
        """A connection dropped while its BLPOP is parked gives the wait up:
        the next element goes to the client's retried call, never to the
        dead connection's handler."""
        for round_ in range(10):
            got = []
            parked = threading.Thread(
                target=lambda: got.append(client.blpop(["q"], timeout=5.0))
            )
            before = server.keyspace.command_count.get("blpop", 0)
            parked.start()
            while (
                server.keyspace.command_count.get("blpop", 0) == before
                and parked.is_alive()
            ):
                time.sleep(0.001)
            handlers = [
                t for t in threading.enumerate()
                if t.name == f"resp-conn-{server.port}"
            ]
            server.drop_connections()
            for handler in handlers:
                handler.join(1.0)
                assert not handler.is_alive(), "dead connection still parked"
            other = SocketRedisClient(address=server.address)
            other.rpush("q", round_)
            parked.join(5.0)
            other.close()
            assert got == [("q", round_)], f"round {round_}: element lost"
            assert server.keyspace.llen("q") == 0

    def test_fork_safety_discards_inherited_sockets(self, server, client):
        client.set("k", "parent")
        pid = os.fork()
        if pid == 0:
            # Child: inherited pool sockets must be discarded, not reused.
            status = 1
            try:
                if client.get("k") == b"parent":
                    client.set("child", "wrote")
                    status = 0
            finally:
                os._exit(status)
        _, wait_status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(wait_status) == 0
        # Parent connections still work after the child ran.
        assert client.get("child") == b"wrote"

    def test_snapshot_restore(self, client):
        assert client.snapshot("cp", "pe-0", 2, b"blob")
        assert client.restore("cp", "pe-0") == (2, b"blob")
        # Stale writers (lower seq than stored) are rejected.
        assert not client.snapshot("cp", "pe-0", 1, b"old")
        assert client.restore("cp", "missing") is None


class TestHostileNumbers:
    """Numbers off the wire are validated, not handed to ``int()``/``float()``:
    a bad one answers ``-ERR`` and the connection serves the next command."""

    @pytest.fixture
    def talk(self, server):
        import socket

        from repro.net.resp import INCOMPLETE, RespDecoder, encode_command

        sock = socket.create_connection((server.host, server.port), timeout=5.0)
        decoder = RespDecoder()

        def talk(*command):
            sock.sendall(encode_command(command))
            while (reply := decoder.decode()) is INCOMPLETE:
                data = sock.recv(65536)
                assert data, f"connection closed on {command!r}"
                decoder.feed(data)
            return reply

        yield talk
        sock.close()

    @pytest.mark.parametrize(
        "command",
        [
            ("BLPOP", "k", "inf"),
            ("BLPOP", "k", "1e400"),
            ("BLPOP", "k", "1e300"),  # finite, but no wait can take it
            ("BLPOP", "k", "nan"),
            ("BLPOP", "k", "-1"),
            ("BLPOP", "k", " 1 "),
            ("BLMOVESEQ", "src", "dst", "inf"),
            ("BLMOVESEQ", "src", "dst", "-0.5"),
            ("XREAD", "BLOCK", "-1", "STREAMS", "s", "$"),
            ("XREAD", "BLOCK", "1e3", "STREAMS", "s", "$"),
            ("INCRBY", "c", "1_000"),
            ("INCRBY", "c", " 5 "),
            ("INCRBY", "c", "+5"),
            ("HSET", "h", "f", "v", "f2"),
        ],
        ids=lambda command: " ".join(command),
    )
    def test_bad_number_is_an_error_reply_on_a_live_connection(
        self, server, talk, command
    ):
        from repro.net.resp import ErrorReply

        assert talk("PING") == "PONG"  # the handler thread is up
        handlers = [
            t for t in threading.enumerate() if t.name == f"resp-conn-{server.port}"
        ]
        assert len(handlers) == 1
        reply = talk(*command)
        assert isinstance(reply, ErrorReply) and str(reply).startswith("ERR"), reply
        # Same connection, next command: the handler thread survived.
        assert talk("PING") == "PONG"
        assert handlers[0].is_alive()
        assert server.keyspace.get("c") is None and server.keyspace.hlen("h") == 0

    def test_hset_stores_every_pair(self, server, talk):
        assert talk("HSET", "h", "f", "v", "f2", "v2") == 2
        assert talk("HSET", "h", "f", "again", "f3", "v3") == 1  # one new field
        assert server.keyspace.hgetall("h") == {
            "f": b"again", "f2": b"v2", "f3": b"v3",
        }

    def test_valid_numbers_still_parse(self, talk):
        assert talk("INCRBY", "c", "-5") == -5
        assert talk("BLPOP", "k", "0.01") is None
