"""RESP-over-TCP server + socket client: the wire behaves like the library.

Every test here drives a real loopback socket against
:class:`~repro.net.server.RespTCPServer`; the client is the drop-in
:class:`~repro.net.client.SocketRedisClient` facade the cluster mapping uses.
"""

import os
import socket
import threading
import time

import pytest

from repro.net.client import ReplyError, SocketRedisClient
from repro.net.resp import INCOMPLETE, ErrorReply, RespDecoder, encode_command
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


@pytest.fixture
def talk(server):
    """A raw RESP socket: ``talk(*words)`` sends one command, returns its reply."""
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

    def test_hashes(self, client):
        client.hincrby("h", "f", 1)
        client.hincrby("h", "f", 2)
        assert client.hgetall("h") == {"f": b"3"}
        assert client.hdel("h", "f", "ghost") == 1
        assert client.exists("h") == 0

    def test_wrongtype_maps_to_reply_error(self, client):
        client.set("k", "v")
        with pytest.raises(ReplyError) as excinfo:
            client.rpush("k", 1)
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

    def test_blocking_xreadgroup_sees_new_entries(self, server, client):
        client.xgroup_create("st", "g", mkstream=True)
        other = SocketRedisClient(address=server.address)

        def add():
            time.sleep(0.1)
            other.xadd("st", {"k": "v"})

        t = threading.Thread(target=add)
        t.start()
        got = client.xreadgroup("g", "w0", {"st": ">"}, block=5000)
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

    def test_a_dead_consumers_pel_is_read_as_it(self, server, client):
        client.xgroup_create("st", "g", mkstream=True)
        entry_id = client.xadd("st", {"task": "t"})
        client.incrby("outstanding", 1)
        client.xreadgroup("g", "dead", {"st": ">"}, count=10)
        adopter = SocketRedisClient(address=server.address)
        try:
            [(_key, held)] = adopter.xreadgroup("g", "dead", {"st": "0"}, count=8)
            assert held == [(entry_id, {"task": "t"})]
            # Read, not moved: the entry is still the dead consumer's ...
            assert client.xpending("st", "g")["consumers"] == {"dead": 1}
            # ... and whoever settles it first releases its credit, once.
            assert adopter.xack_decr("st", "g", entry_id, "outstanding") == 1
            assert client.xack_decr("st", "g", entry_id, "outstanding") == 0
        finally:
            adopter.close()
        assert int(client.get("outstanding")) == 0
        assert client.xreadgroup("g", "dead", {"st": "0"}) == [("st", [])]

    def test_a_named_pel_pages_with_count(self, client):
        client.xgroup_create("st", "g", mkstream=True)
        ids = [client.xadd("st", {"task": n}) for n in range(3)]
        client.xreadgroup("g", "dead", {"st": ">"}, count=10)
        [(_key, page)] = client.xreadgroup("g", "dead", {"st": "0"}, count=2)
        assert [eid for eid, _f in page] == ids[:2]
        [(_key, page)] = client.xreadgroup("g", "dead", {"st": page[-1][0]}, count=2)
        assert [eid for eid, _f in page] == ids[2:]
        assert client.xpending("st", "g")["consumers"] == {"dead": 3}

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


class TestFlight:
    """The two halves of a round trip on a socket: sent by ``begin``, read
    by ``result``, one connection held in between."""

    def test_a_flight_has_not_landed_until_it_is_read(self, client):
        pipe = client.pipeline()
        pipe.rpush("q", "a", "b")
        pipe.incrby("n", 3)
        flight = pipe.begin()
        assert not flight.landed
        # The connection is the flight's: another command takes another one.
        assert client.get("other") is None
        assert flight.result() == [2, 3]
        assert flight.landed and flight.result() == [2, 3]
        assert client.lpop("q", 5) == ["a", "b"]

    def test_dropped_mid_flight_the_batch_is_sent_again(self, server, client):
        """At-least-once: the reply of a batch the server ran is lost with
        the connection, ``result()`` re-sends it, and the repeated
        ``XACKDECR`` finds nothing pending -- the counter is released once."""
        client.xgroup_create("st", "g", mkstream=True)
        client.xadd("st", {"task": "t"})
        client.incrby("outstanding", 1)
        [(_key, [(entry_id, _fields)])] = client.xreadgroup("g", "w0", {"st": ">"})
        pipe = client.pipeline()
        pipe.incrby("sent", 1)
        pipe.xack_decr("st", "g", entry_id, "outstanding", 1)
        with server.keyspace._lock:  # the handler has the frame, not the keyspace
            flight = pipe.begin()
            time.sleep(0.05)
            server.drop_connections()
        assert client.retries == 0
        assert flight.result()[0] in (1, 2)  # run once, or twice with the first reply lost
        assert client.retries == 1
        assert int(client.get("outstanding")) == 0
        assert client.xpending("st", "g")["pending"] == 0


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
            ("XREADGROUP", "GROUP", "g", "c", "BLOCK", "-1", "STREAMS", "s", ">"),
            ("XREADGROUP", "GROUP", "g", "c", "BLOCK", "1e3", "STREAMS", "s", ">"),
            ("INCRBY", "c", "1_000"),
            ("INCRBY", "c", " 5 "),
            ("INCRBY", "c", "+5"),
        ],
        ids=lambda command: " ".join(command),
    )
    def test_bad_number_is_an_error_reply_on_a_live_connection(
        self, server, talk, command
    ):
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
        assert server.keyspace.dbsize() == 0

    @pytest.fixture
    def fetched(self, server, talk):
        """Four entries pending under one consumer, and a counter at 100."""
        assert talk("XGROUP", "CREATE", "st", "g", "0", "MKSTREAM") == "OK"
        ids = [talk("XADD", "st", "*", "task", "t").decode() for _ in range(4)]
        talk("XREADGROUP", "GROUP", "g", "w0", "COUNT", "10", "STREAMS", "st", ">")
        assert talk("INCRBY", "n", "100") == 100
        return ids

    @pytest.mark.parametrize(
        "tail",
        [
            ("{b}",),  # an id without its amount
            ("{b}", "1", "{c}"),
            ("{b}", "0"),
            ("{b}", "-1"),
            ("{b}", "1_000"),
            ("{b}", " 5 "),
            ("{b}", "+5"),
            ("{b}", "1.0"),
        ],
        ids=" ".join,
    )
    def test_hostile_variadic_xackdecr_settles_nothing(self, server, talk, fetched, tail):
        a, b, c, _d = fetched
        words = [word.format(b=b, c=c) for word in tail]
        reply = talk("XACKDECR", "st", "g", a, "n", "1", *words)
        assert isinstance(reply, ErrorReply) and str(reply).startswith("ERR"), reply
        assert talk("PING") == "PONG"  # same connection, next command
        assert int(server.keyspace.get("n")) == 100
        assert server.keyspace.xpending("st", "g")["pending"] == 4

    @pytest.mark.parametrize("amount", ["0", "-1", "1_000", " 5 "])
    def test_hostile_first_amount_settles_nothing(self, server, talk, fetched, amount):
        reply = talk("XACKDECR", "st", "g", fetched[0], "n", amount, fetched[1], "1")
        assert isinstance(reply, ErrorReply) and str(reply).startswith("ERR"), reply
        assert int(server.keyspace.get("n")) == 100
        assert server.keyspace.xpending("st", "g")["pending"] == 4

    def test_variadic_xackdecr_releases_what_it_acked(self, server, talk, fetched):
        a, b, c, d = fetched
        # The five-argument form replies exactly as it did.
        assert talk("XACKDECR", "st", "g", a, "n", "3") == 1
        assert talk("XACKDECR", "st", "g", a, "n", "3") == 0
        # An unknown id acks and releases nothing.
        assert talk("XACKDECR", "st", "g", "999-0", "n", "5", "999-1", "6") == 0
        assert int(server.keyspace.get("n")) == 97
        # The same id twice releases once; a half-stale list (``a`` is
        # settled) releases only the live entries' amounts.
        assert talk("XACKDECR", "st", "g", b, "n", "7", b, "7") == 1
        assert talk("XACKDECR", "st", "g", a, "n", "10", c, "20", b, "30", d, "40") == 2
        assert int(server.keyspace.get("n")) == 97 - 7 - 20 - 40
        assert server.keyspace.xpending("st", "g")["pending"] == 0

    @pytest.mark.parametrize("count", ["-1", "1_0", " 2 ", "two", "1.5"])
    def test_hostile_lpop_count_pops_nothing(self, server, talk, count):
        assert talk("RPUSH", "q", "a", "b") == 2
        reply = talk("LPOP", "q", count)
        assert isinstance(reply, ErrorReply) and str(reply).startswith("ERR"), reply
        assert talk("PING") == "PONG"
        assert server.keyspace.llen("q") == 2

    def test_lpop_with_a_count_is_one_atomic_pop(self, talk):
        assert talk("RPUSH", "q", "a", "b", "c") == 3
        assert talk("LPOP", "q", "2") == [b"a", b"b"]
        assert talk("LPOP", "q", "0") == []
        assert talk("LPOP", "q", "9") == [b"c"]
        assert talk("LPOP", "q", "9") is None  # no key: nil, as Redis >= 6.2
        assert talk("LPOP", "q") is None

    @pytest.mark.parametrize(
        "tail",
        [("COUNT",), ("COUNT", "2"), ("LIMIT", "2"), ("COUNT", "2", "COUNT", "3")],
        ids=" ".join,
    )
    def test_malformed_blmoveseq_options_are_an_error(self, talk, tail):
        assert talk("RPUSHSEQ", "q", "a") == [1]
        reply = talk("BLMOVESEQ", "q", "q:log", "0.01", *tail)
        assert isinstance(reply, ErrorReply) and str(reply).startswith("ERR"), reply
        assert talk("LLEN", "q") == 1

    def test_blmoveseq_moves_one_pair(self, talk):
        assert talk("RPUSHSEQ", "q", "a", "b") == [1, 2]
        assert talk("BLMOVESEQ", "q", "q:log", "0.01") == [1, b"a"]
        assert talk("BLMOVESEQ", "q:log", "q", "0.01") == [1, b"a"]
        assert talk("BLMOVESEQ", "q:log", "q", "0.01") is None  # timeout: nil
        assert talk("LLEN", "q") == 2

    def test_valid_numbers_still_parse(self, talk):
        assert talk("INCRBY", "c", "-5") == -5
        assert talk("BLPOP", "k", "0.01") is None


class TestUnknownCommands:
    """A verb or option the keyspace does not implement answers ``-ERR``,
    stores and delivers nothing, and the connection serves its next command."""

    @pytest.mark.parametrize(
        "command",
        [
            ("SADD", "s", "m"),
            ("XREAD", "STREAMS", "st", "0"),
            ("XADD", "k", "MAXLEN", "5", "*", "f", "v"),
            ("XREADGROUP", "GROUP", "g", "c", "NOACK", "STREAMS", "st", ">"),
            ("XREADGROUP", "GROUP", "g", "c", "COUNT", "1", "BLOCK"),  # no value
            # The rest of the verbs and forms no component sends.
            ("FLUSHALL",),
            ("TYPE", "st"),
            ("ECHO", "hi"),
            ("INCR", "n"),
            ("DECR", "n"),
            ("LPUSH", "q", "a"),
            ("RPOP", "st"),
            ("HSET", "h", "f", "v"),
            ("HGET", "h", "f"),
            ("HLEN", "h"),
            ("SREM", "s", "m"),
            ("SMEMBERS", "s"),
            ("SCARD", "s"),
            ("SISMEMBER", "s", "m"),
            ("XTRIM", "st", "MAXLEN", "0"),
            ("XGROUP", "DESTROY", "st", "g"),
            ("XGROUP", "DELCONSUMER", "st", "g", "c"),
            ("XPENDING", "st", "g", "-", "+", "10"),
            ("XINFO", "STREAM", "st"),
            ("XCLAIM", "st", "g", "c", "0", "0-1"),
            # Gone: only a consumer named dead is adopted, by reading its PEL.
            ("XAUTOCLAIM", "st", "g", "c", "0", "0-0"),
            ("LTRIM", "st", "0", "-1"),
            ("LRANGESEQ", "st", "0", "-1"),
            ("BLMOVESEQ", "q", "q:log", "0.01", "COUNT", "2"),
        ],
        ids=lambda command: " ".join(command),
    )
    def test_error_reply_then_pong_on_the_same_socket(self, server, talk, command):
        assert talk("XGROUP", "CREATE", "st", "g", "$", "MKSTREAM") == "OK"
        entry_id = talk("XADD", "st", "*", "f", "v")
        reply = talk(*command)
        assert isinstance(reply, ErrorReply) and str(reply).startswith("ERR"), reply
        assert talk("PING") == "PONG"
        assert server.keyspace.xlen("k") == 0
        assert server.keyspace.keys("*") == ["st"]
        # Nothing was delivered: the group still hands out the entry.
        delivered = talk("XREADGROUP", "GROUP", "g", "c", "STREAMS", "st", ">")
        assert delivered == [[b"st", [[entry_id, [b"f", b"v"]]]]]
