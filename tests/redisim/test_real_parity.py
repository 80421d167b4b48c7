"""Parity lanes: one facade, every way of reaching a keyspace.

:class:`~repro.redisim.client.RedisClient` defines each command once and
runs it over a transport, so the same scenario must read the same through
any of them.  Every test runs its scenario through a *pair* of clients and
asserts the replies are identical:

- **transports** (always on): the in-process transport and the RESP/TCP
  transport, both on **one shared keyspace** -- the two sides work under
  their own key suffix so neither sees the other's writes.
- **real** (``real_redis`` marker): redisim's TCP front-end against
  *genuine* Redis, which the socket transport reaches with no extra
  dependency because it speaks the real wire protocol.  Runs when
  ``REPRO_REAL_REDIS_URL`` points at a server (``redis://host:port`` or
  bare ``host:port``) and skips otherwise, so the default suite never
  needs a Redis install.

Commands specific to redisim (``RPUSHSEQ``, ``SNAPSHOT``, ``XACKDECR``...)
run on the transports pair only: genuine Redis does not know them.

The one place the transports differ on purpose is pinned in
:class:`TestRawValueEdge`: string, hash and counter values are not
marshalled, so the in-process transport hands back the stored object and
the wire hands back ``bytes``.
"""

import os
import threading
import time
import uuid

import pytest

from repro.net.client import SocketRedisClient
from repro.net.server import RespTCPServer
from repro.redisim.client import RedisClient
from repro.redisim.errors import RedisError
from repro.redisim.server import RedisServer

pytestmark = pytest.mark.network

_URL = os.environ.get("REPRO_REAL_REDIS_URL")


def _address(url: str) -> str:
    return url.split("://", 1)[-1].rstrip("/")


@pytest.fixture
def keyspace():
    return RedisServer()


@pytest.fixture
def transports(keyspace):
    """(in-process client, TCP client) on one shared keyspace."""
    server = RespTCPServer(keyspace).start()
    tcp = SocketRedisClient(address=server.address)
    yield RedisClient(keyspace), tcp, lambda k: f"parity:{k}"
    tcp.close()
    server.close()


@pytest.fixture
def real():
    """(redisim client, real-Redis client), keys namespaced per test."""
    if not _URL:  # pragma: no cover - exercised only with a live Redis
        pytest.skip("set REPRO_REAL_REDIS_URL=redis://host:port to run the parity lane")
    sim_server = RespTCPServer().start()
    sim = SocketRedisClient(address=sim_server.address)
    real = SocketRedisClient(address=_address(_URL))
    real.ping()
    prefix = f"repro-parity:{uuid.uuid4().hex[:8]}"
    yield sim, real, lambda k: f"{prefix}:{k}"
    for key in real.keys(f"{prefix}:*"):
        real.delete(key)
    real.close()
    sim.close()
    sim_server.close()


@pytest.fixture(params=["transports", pytest.param("real", marks=pytest.mark.real_redis)])
def pair(request):
    return request.getfixturevalue(request.param)


def _unsuffix(reply, suffix):
    """``reply`` with ``suffix`` cut off every string in it (key names)."""
    if isinstance(reply, str):
        return reply.removesuffix(suffix)
    if isinstance(reply, (list, tuple)):
        return type(reply)(_unsuffix(item, suffix) for item in reply)
    return reply


def both(sim, real, key, op):
    # Each side works under its own key suffix, so one keyspace can serve
    # both; key names a reply echoes (BLPOP) compare without it.
    a, b = (_unsuffix(op(c, key + tag), tag) for c, tag in ((sim, "@a"), (real, "@b")))
    assert a == b, f"first={a!r} second={b!r}"
    return a


def wire(value):
    """An unmarshalled reply as RESP frames it (see :class:`TestRawValueEdge`)."""
    if isinstance(value, dict):
        return {field: wire(item) for field, item in value.items()}
    if isinstance(value, (str, int)):
        return str(value).encode()
    return value


class TestParity:
    def test_strings(self, pair):
        sim, real, k = pair
        both(sim, real, k("s"), lambda c, key: c.set(key, "v"))
        both(sim, real, k("s"), lambda c, key: wire(c.get(key)))
        both(sim, real, k("n"), lambda c, key: c.incrby(key, 7))
        both(sim, real, k("n"), lambda c, key: c.decr(key))
        both(sim, real, k("s"), lambda c, key: c.exists(key))

    def test_lists(self, pair):
        sim, real, k = pair
        both(sim, real, k("q"), lambda c, key: c.rpush(key, "a", "b", "c"))
        both(sim, real, k("q"), lambda c, key: c.llen(key))
        both(sim, real, k("q"), lambda c, key: c.lpop(key))
        both(sim, real, k("q"), lambda c, key: c.lrange(key, 0, -1))
        both(sim, real, k("q"), lambda c, key: c.blpop([key], timeout=0.1))
        both(sim, real, k("empty"), lambda c, key: c.blpop([key], timeout=0.1))

    def test_blpop_timeout_is_not_early(self, pair):
        sim, real, k = pair

        def timed_out(c, key):
            start = time.monotonic()
            reply = c.blpop([key], timeout=0.2)
            assert time.monotonic() - start >= 0.2
            return reply

        assert both(sim, real, k("empty"), timed_out) is None

    def test_hashes(self, pair):
        sim, real, k = pair
        both(sim, real, k("h"), lambda c, key: c.hincrby(key, "f", 1))
        both(sim, real, k("h"), lambda c, key: c.hincrby(key, "f", 4))
        both(sim, real, k("h"), lambda c, key: wire(c.hgetall(key)))
        both(sim, real, k("h"), lambda c, key: c.hdel(key, "f"))

    def test_stream_consumer_group_cycle(self, pair):
        sim, real, k = pair

        def cycle(c, key):
            c.xgroup_create(key, "g", mkstream=True)
            c.xadd(key, {"task": "payload"}, id="1-1")
            c.xadd(key, {"task": "other"}, id="2-1")
            [(name, entries)] = c.xreadgroup("g", "w0", {key: ">"}, count=10)
            acked = c.xack(key, "g", entries[0][0])
            pending = c.xpending(key, "g")
            return (
                len(entries),
                [e[1] for e in entries],
                acked,
                pending["pending"],
                pending["consumers"],
                c.xlen(key),
            )

        both(sim, real, k("st"), cycle)

    def test_xautoclaim_adoption(self, pair):
        sim, real, k = pair

        def adopt(c, key):
            c.xgroup_create(key, "g", mkstream=True)
            c.xadd(key, {"t": "1"}, id="1-1")
            c.xreadgroup("g", "dead", {key: ">"}, count=10)
            cursor, claimed = c.xautoclaim(key, "g", "live", min_idle_time=0)
            return [(entry_id, fields) for entry_id, fields in claimed]

        both(sim, real, k("st"), adopt)

    def test_check_reads(self, pair):
        """The reads tests and operators check results with: KEYS, EXISTS,
        XLEN, LLEN, a bounded XRANGE and the summary XPENDING."""
        sim, real, k = pair

        def reads(c, key):
            # Derived keys end in ``key`` so ``both`` strips each side's tag.
            c.rpush("q:" + key, "a", "b")
            c.xgroup_create(key, "g", mkstream=True)
            for ms in (1, 2, 3):
                c.xadd(key, {"n": ms}, id=f"{ms}-1")
            c.xreadgroup("g", "w0", {key: ">"}, count=2)
            pending = c.xpending(key, "g")
            return (
                sorted(c.keys("*" + key)),
                c.exists(key, "q:" + key, "none:" + key),
                c.xlen(key),
                c.llen("q:" + key),
                c.xrange(key, "2-1", "+", count=1),
                (pending["pending"], pending["min"], pending["max"], pending["consumers"]),
            )

        keys, *rest = both(sim, real, k("r"), reads)
        assert len(keys) == 2
        assert rest == [2, 3, 2, [("2-1", {"n": 2})], (2, "1-1", "2-1", {"w0": 2})]

    def test_pipeline(self, pair):
        sim, real, k = pair

        def pipelined(c, key):
            pipe = c.pipeline()
            pipe.rpush(key, "a")
            pipe.incrby(key + ":n", 2)
            pipe.hincrby(key + ":h", "f", 3)
            pipe.set(key + ":s", "v")
            return pipe.execute()

        both(sim, real, k("p"), pipelined)

    def test_pipelined_nonblocking_xreadgroup(self, pair):
        """The fused settle-and-fetch trip: an ack and the next read in one
        batch, with an entry to deliver and with none."""
        sim, real, k = pair

        def fused(c, key):
            c.xgroup_create(key, "g", mkstream=True)
            c.xadd(key, {"task": ("pe", None, 1)}, id="1-1")
            c.xadd(key, {"task": ("pe", None, 2)}, id="2-1")
            [(_name, [(first, _fields)])] = c.xreadgroup("g", "w0", {key: ">"}, count=1)
            replies = []
            for entry_id in (first, "2-1"):
                pipe = c.pipeline()
                pipe.rpush(key + ":out", entry_id)
                pipe.xack(key, "g", entry_id)
                pipe.xreadgroup("g", "w0", {key: ">"}, count=1)
                replies.append(pipe.execute())
            return replies, c.xpending(key, "g")["pending"]

        replies, pending = both(sim, real, k("st"), fused)
        [(_name, delivered)] = replies[0][2]
        assert delivered == [("2-1", {"task": ("pe", None, 2)})]
        assert replies[1] == [2, 1, []] and pending == 0

    def test_wrongtype_error_code(self, pair):
        sim, real, k = pair

        def wrongtype(c, key):
            c.set(key, "v")
            try:
                c.rpush(key, 1)
            except RedisError as exc:
                # A typed WrongTypeError in process, a ReplyError off the
                # wire: same base class, same leading code word.
                return str(exc).split(" ", 1)[0]
            return None

        both(sim, real, k("w"), wrongtype)


class TestRedisimExtensions:
    """The commands genuine Redis lacks: transports pair only."""

    def test_sequenced_lists(self, transports):
        a, b, k = transports
        both(a, b, k("q"), lambda c, key: c.rpush_seq(key, "x", {"y": 2}))
        both(a, b, k("q"), lambda c, key: c.blmove_seq(key, key + ":log", timeout=0.1))
        both(a, b, k("q"), lambda c, key: c.blmove_seq(key, key + ":log", timeout=0.1))
        both(a, b, k("q"), lambda c, key: c.blmove_seq(key, key + ":log", timeout=0.05))
        both(a, b, k("q"), lambda c, key: c.lrange_seq(key + ":log"))
        both(a, b, k("q"), lambda c, key: c.rpush_seq(key, "z"))  # seq survives emptying

    def test_sequenced_lists_move_in_windows(self, transports):
        a, b, k = transports
        both(a, b, k("q"), lambda c, key: c.rpush_seq(key, "x", {"y": 2}, 3))
        both(a, b, k("q"), lambda c, key: c.blmove_seq(key, key + ":log", timeout=0.1, count=2))
        both(a, b, k("q"), lambda c, key: c.blmove_seq(key, key + ":log", timeout=0.1, count=2))
        both(a, b, k("q"), lambda c, key: c.blmove_seq(key, key + ":log", timeout=0.05, count=2))
        both(a, b, k("q"), lambda c, key: c.lrange_seq(key + ":log"))

    def test_snapshot_restore(self, transports):
        a, b, k = transports
        both(a, b, k("cp"), lambda c, key: c.snapshot(key, "pe-0", 2, {"total": 5}))
        both(a, b, k("cp"), lambda c, key: c.restore(key, "pe-0"))
        both(a, b, k("cp"), lambda c, key: c.snapshot(key, "pe-0", 1, "stale"))
        both(a, b, k("cp"), lambda c, key: c.restore(key, "missing"))

    def test_xack_decr_is_exactly_once(self, transports):
        a, b, k = transports

        def settle(c, key):
            c.xgroup_create(key, "g", mkstream=True)
            c.xadd(key, {"task": [1, 2]})
            c.incrby(key + ":n", 2)
            [(_name, [(entry_id, _fields)])] = c.xreadgroup("g", "w0", {key: ">"})
            first = c.xack_decr(key, "g", entry_id, key + ":n", 2)
            second = c.xack_decr(key, "g", entry_id, key + ":n", 2)
            return first, second, int(c.get(key + ":n"))

        assert both(a, b, k("st"), settle) == (1, 0, 0)


class TestParkedCommands:
    """A blocking command parks once in the keyspace on either transport.
    Transports pair only: the tests watch the shared keyspace to know the
    command is parked before they write."""

    def test_parked_xreadgroup_sees_each_new_entry_once(self, transports, keyspace):
        a, b, k = transports

        def parked_read(c, key):
            c.xadd(key, {"n": 0}, id="1-1")  # history: the group starts after it
            c.xgroup_create(key, "g")
            seen = []

            def read():
                while len(seen) < 2:
                    reply = c.xreadgroup("g", "w0", {key: ">"}, block=5000)
                    if not reply:
                        return
                    seen.extend(reply[0][1])

            before = keyspace.command_count.get("xreadgroup", 0)
            reader = threading.Thread(target=read)
            reader.start()
            # Counted under the keyspace lock, which only the wait releases:
            # once the count moved, the writes below find the read parked.
            while keyspace.command_count.get("xreadgroup", 0) == before and reader.is_alive():
                time.sleep(0.001)
            pipe = c.pipeline()
            pipe.xadd(key, {"n": 1}, id="2-1")
            pipe.xadd(key, {"n": 2}, id="3-1")
            pipe.execute()
            reader.join(10.0)
            assert not reader.is_alive()
            return seen

        assert both(a, b, k("st"), parked_read) == [("2-1", {"n": 1}), ("3-1", {"n": 2})]

    def test_parked_blpop_counts_once(self, transports, keyspace):
        a, b, k = transports
        for client in (a, b):
            before = keyspace.command_count.get("blpop", 0)
            assert client.blpop([k("nothing")], timeout=0.25) is None
            assert keyspace.command_count["blpop"] == before + 1


class TestRawValueEdge:
    """Pinned, not papered over: strings, hash fields and counters are not
    marshalled, so a read returns the stored object in process and its
    bulk-string bytes off the wire.  Callers ``int(...)`` their counters,
    which accepts both."""

    def test_unmarshalled_reads_differ_by_transport(self, transports):
        local, tcp, k = transports
        local.incrby(k("n"), 7)
        local.hincrby(k("h"), "f", 3)
        assert local.get(k("n")) == 7
        assert tcp.get(k("n")) == b"7"  # the same key, over the socket
        assert int(local.get(k("n"))) == int(tcp.get(k("n")))
        assert local.hgetall(k("h")) == {"f": 3}
        assert tcp.hgetall(k("h")) == {"f": b"3"}
        assert wire(local.hgetall(k("h"))) == tcp.hgetall(k("h"))
