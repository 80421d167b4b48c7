"""Parked blocking commands wake, give up and are counted, on both layers.

A parked client waits on its own condition, registered under the keys it
waits on, and a write wakes only the clients of the key it wrote.  What
must hold is pinned here for ``BLPOP``, blocking ``XREADGROUP`` and
``BLMOVESEQ``, in process and over RESP/TCP:

- a write made inside a pipeline transaction wakes the parked reader;
- a write to another key wakes nobody; ``XADDN`` and ``DEL`` wake the
  readers of their own key;
- :meth:`RedisServer.wake` releases a wait its ``cancelled`` predicate
  gave up (over TCP: the reader's connection dropping), and
  :meth:`RedisServer.close` releases every wait;
- the parked count returns to 0 after a hit, a timeout or a cancel.
"""

import socket
import sys
import threading
import time

import pytest

from repro.net.resp import encode_command
from repro.net.server import RespTCPServer
from repro.redisim.errors import ConnectionError as RedisConnectionError
from repro.redisim.errors import RedisError
from repro.redisim.server import RedisServer

pytestmark = pytest.mark.network

WAIT = 5.0


def wait_until(predicate, timeout=WAIT):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.002)
    return True


def parked_call(call):
    """Run ``call`` on a thread; returns ``(thread, outcome)``, the latter
    filled with ``("ok", reply)`` or ``("raised", exception)``."""
    outcome = []

    def body():
        try:
            outcome.append(("ok", call()))
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            outcome.append(("raised", exc))

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, outcome


def spied_waiter(keyspace, key):
    """The condition of the one client parked on ``key``, with a count of
    the wakeups delivered to it (``calls[0]``).  A write notifies under the
    keyspace lock, so the count is exact as soon as the write returns."""
    assert wait_until(lambda: keyspace.parked == 1)
    [waiter] = keyspace._blocked[key]
    calls, notify = [0], waiter.notify

    def counting(*args):
        calls[0] += 1
        return notify(*args)

    waiter.notify = counting
    return calls


#: command -> (the parked read, the pipelined write that feeds it, its reply).
READS = {
    "blpop": (
        lambda c: c.blpop("q", timeout=WAIT),
        lambda p: p.rpush("q", "v"),
        ("q", "v"),
    ),
    "xreadgroup": (
        lambda c: c.xreadgroup("g", "c", {"s": ">"}, count=1, block=int(WAIT * 1000)),
        lambda p: p.xadd("s", {"f": "v"}, id="7-1"),
        [("s", [("7-1", {"f": "v"})])],
    ),
    "blmoveseq": (
        lambda c: c.blmove_seq("q", "q:log", timeout=WAIT),
        lambda p: p.rpush_seq("q", "v"),
        (1, "v"),
    ),
}


@pytest.mark.parametrize("command", sorted(READS))
def test_a_write_in_a_pipeline_wakes_the_parked_reader(layer, command):
    keyspace, connect = layer
    read, write, expected = READS[command]
    reader, writer = connect(), connect()
    writer.xgroup_create("s", "g", id="0", mkstream=True)
    thread, outcome = parked_call(lambda: read(reader))
    assert wait_until(lambda: keyspace.parked == 1)
    pipe = writer.pipeline()
    pipe.incrby("unrelated", 1)
    write(pipe)
    pipe.execute()
    thread.join(WAIT)
    assert outcome == [("ok", expected)]
    assert keyspace.parked == 0


def test_an_xaddn_in_a_pipeline_wakes_a_parked_xreadgroup(layer):
    """Every entry of the one ``XADDN`` is there when the reader wakes."""
    keyspace, connect = layer
    reader, writer = connect(), connect()
    writer.xgroup_create("s", "g", id="0", mkstream=True)
    thread, outcome = parked_call(
        lambda: reader.xreadgroup("g", "c", {"s": ">"}, count=10, block=int(WAIT * 1000))
    )
    assert wait_until(lambda: keyspace.parked == 1)
    pipe = writer.pipeline()
    pipe.incrby("unrelated", 1)
    pipe.xaddn("s", "f", "v", "w", "x")
    _count, ids = pipe.execute()
    thread.join(WAIT)
    assert outcome == [("ok", [("s", list(zip(ids, [{"f": "v"}, {"f": "w"}, {"f": "x"}])))])]
    assert keyspace.parked == 0


@pytest.mark.parametrize("command", sorted(READS))
def test_a_timeout_leaves_nobody_parked(layer, command):
    keyspace, connect = layer
    client = connect()
    client.xgroup_create("s", "g", id="0", mkstream=True)
    reads = {
        "blpop": lambda: client.blpop("q", timeout=0.05),
        "xreadgroup": lambda: client.xreadgroup("g", "c", {"s": ">"}, block=50),
        "blmoveseq": lambda: client.blmove_seq("q", "q:log", timeout=0.05),
    }
    assert reads[command]() in (None, [])
    assert keyspace.parked == 0


#: The same three reads as raw RESP, each parked for ever (timeout 0).
RAW = {
    "blpop": ("BLPOP", "q", "0"),
    "xreadgroup": ("XREADGROUP", "GROUP", "g", "c", "BLOCK", "0", "STREAMS", "s", ">"),
    "blmoveseq": ("BLMOVESEQ", "q", "q:log", "0"),
}


def _direct(keyspace, command, cancelled):
    """The read straight on the keyspace, with a ``cancelled`` predicate."""
    if command == "blpop":
        return lambda: keyspace.blpop(["q"], None, cancelled)
    if command == "xreadgroup":
        return lambda: keyspace.xreadgroup("g", "c", {"s": ">"}, None, 0, cancelled)
    return lambda: keyspace.blmove("q", "q:log", None, cancelled)


class TestPerKeyWakeups:
    def test_a_write_to_another_key_wakes_nobody(self, layer):
        keyspace, connect = layer
        reader, writer = connect(), connect()
        writer.xgroup_create("s", "g", id="0", mkstream=True)
        thread, outcome = parked_call(lambda: reader.blpop("a", timeout=WAIT))
        wakeups = spied_waiter(keyspace, "a")
        writer.rpush("b", "x")
        writer.rpush_seq("c", "x")
        writer.xadd("s", {"f": "v"})
        writer.xaddn("s", "f", "v", "w")
        writer.blmove_seq("c", "d", timeout=WAIT)
        writer.delete("b", "s")
        pipe = writer.pipeline()
        pipe.rpush("b", "y")
        pipe.incrby("n", 1)
        pipe.execute()
        assert wakeups[0] == 0 and keyspace.parked == 1
        writer.rpush("a", "hit")
        thread.join(WAIT)
        assert outcome == [("ok", ("a", "hit"))]
        assert wakeups[0] == 1 and keyspace.parked == 0

    @pytest.mark.parametrize("key", ["a", "b"])
    def test_a_multi_key_blpop_wakes_on_either_key(self, layer, key):
        keyspace, connect = layer
        reader, writer = connect(), connect()
        thread, outcome = parked_call(lambda: reader.blpop(["a", "b"], timeout=WAIT))
        assert wait_until(lambda: keyspace.parked == 1)
        assert keyspace._blocked["a"] == keyspace._blocked["b"]  # one client, two keys
        writer.rpush(key, "v")
        thread.join(WAIT)
        assert outcome == [("ok", (key, "v"))]
        assert keyspace.parked == 0 and keyspace._blocked == {}

    def test_xaddn_wakes_the_xreadgroup_on_its_stream_only(self, layer):
        keyspace, connect = layer
        on_s, on_t, writer = connect(), connect(), connect()
        for stream in ("s", "t"):
            writer.xgroup_create(stream, "g", id="0", mkstream=True)
        other, other_outcome = parked_call(
            lambda: on_t.xreadgroup("g", "c", {"t": ">"}, block=int(WAIT * 1000))
        )
        wakeups = spied_waiter(keyspace, "t")
        thread, outcome = parked_call(
            lambda: on_s.xreadgroup("g", "c", {"s": ">"}, block=int(WAIT * 1000))
        )
        assert wait_until(lambda: keyspace.parked == 2)
        [first, second] = writer.xaddn("s", "f", "v", "w")
        thread.join(WAIT)
        assert outcome == [("ok", [("s", [(first, {"f": "v"}), (second, {"f": "w"})])])]
        assert wakeups[0] == 0 and keyspace.parked == 1 and other_outcome == []
        writer.xadd("t", {"f": "x"}, id="99-0")
        other.join(WAIT)
        assert other_outcome == [("ok", [("t", [("99-0", {"f": "x"})])])]

    def test_del_of_a_stream_wakes_its_reader_into_nogroup(self, layer):
        keyspace, connect = layer
        reader, writer = connect(), connect()
        writer.xgroup_create("s", "g", id="0", mkstream=True)
        thread, outcome = parked_call(
            lambda: reader.xreadgroup("g", "c", {"s": ">"}, block=int(WAIT * 1000))
        )
        wakeups = spied_waiter(keyspace, "s")
        assert writer.delete("s") == 1
        thread.join(WAIT)
        assert wakeups[0] == 1 and keyspace.parked == 0
        [(kind, error)] = outcome
        assert kind == "raised" and isinstance(error, RedisError)
        assert str(error).startswith("NOGROUP")

    def test_wake_releases_waiters_on_every_key(self):
        keyspace = RedisServer()
        keyspace.xgroup_create("s", "g", mkstream=True)
        gave_up = threading.Event()
        calls = [
            _direct(keyspace, command, gave_up.is_set) for command in sorted(READS)
        ] + [lambda: keyspace.blpop(["elsewhere"], None, gave_up.is_set)]
        waits = [parked_call(call) for call in calls]
        assert wait_until(lambda: keyspace.parked == len(calls))
        gave_up.set()
        keyspace.wake()
        for thread, _outcome in waits:
            thread.join(WAIT)
        # blmoveseq, blpop, xreadgroup, then the BLPOP on another key.
        assert [outcome for _thread, outcome in waits] == [
            [("ok", None)], [("ok", None)], [("ok", [])], [("ok", None)]
        ]
        assert keyspace.parked == 0 and keyspace._blocked == {}


class TestInProcess:
    @pytest.mark.parametrize("command", sorted(READS))
    def test_wake_releases_a_cancelled_wait(self, command):
        keyspace = RedisServer()
        keyspace.xgroup_create("s", "g", mkstream=True)
        gave_up = threading.Event()
        thread, outcome = parked_call(_direct(keyspace, command, gave_up.is_set))
        assert wait_until(lambda: keyspace.parked == 1)
        keyspace.wake()  # not cancelled yet: it parks again
        assert wait_until(lambda: keyspace.parked == 1)
        gave_up.set()
        keyspace.wake()
        thread.join(WAIT)
        assert outcome == [("ok", None if command != "xreadgroup" else [])]
        assert keyspace.parked == 0
        assert keyspace.llen("q") == 0 and keyspace.xlen("s") == 0

    @pytest.mark.parametrize("command", sorted(READS))
    def test_close_releases_every_parked_wait(self, command):
        keyspace = RedisServer()
        keyspace.xgroup_create("s", "g", mkstream=True)
        thread, outcome = parked_call(_direct(keyspace, command, None))
        other, other_outcome = parked_call(lambda: keyspace.blpop(["elsewhere"]))
        assert wait_until(lambda: keyspace.parked == 2)
        keyspace.close()
        for waiter in (thread, other):
            waiter.join(WAIT)
        for result in (outcome, other_outcome):
            assert len(result) == 1 and result[0][0] == "raised"
            assert isinstance(result[0][1], RedisConnectionError)
        assert keyspace.parked == 0


class TestOverResp:
    @pytest.mark.parametrize("command", sorted(RAW))
    def test_a_dropped_connection_gives_its_wait_up(self, command):
        keyspace = RedisServer()
        keyspace.xgroup_create("s", "g", mkstream=True)
        server = RespTCPServer(keyspace).start()
        try:
            with socket.create_connection((server.host, server.port), timeout=WAIT) as sock:
                sock.sendall(encode_command(RAW[command]))
                assert wait_until(lambda: keyspace.parked == 1)
                server.drop_connections()  # the keyspace's wake(), for that wait
                assert wait_until(lambda: keyspace.parked == 0)
            # Given up, it consumed nothing: the next element is still there.
            keyspace.rpush("q", "after")
            assert keyspace.llen("q") == 1
        finally:
            server.close()

    @pytest.mark.parametrize("command", sorted(RAW))
    def test_close_answers_a_parked_wait(self, command):
        keyspace = RedisServer()
        keyspace.xgroup_create("s", "g", mkstream=True)
        server = RespTCPServer(keyspace).start()
        try:
            with socket.create_connection((server.host, server.port), timeout=WAIT) as sock:
                sock.sendall(encode_command(RAW[command]))
                assert wait_until(lambda: keyspace.parked == 1)
                keyspace.close()
                assert sock.recv(256).startswith(b"-ERR redisim keyspace is closed")
            assert keyspace.parked == 0
        finally:
            server.close()


def test_no_wakeup_is_lost_under_contention():
    """Six readers parked without a timeout, three writers, a 10 us switch
    interval: every element is taken once, every reader ends on its stop
    element, and nobody is left parked.  A write that skipped its notify
    while a reader was parked would leave that reader hanging."""
    keyspace = RedisServer()
    got, readers, writers = [], [], []

    def read():
        while True:
            _key, value = keyspace.blpop(["q"])
            if value == "stop":
                return
            got.append(value)

    def write(offset):
        for n in range(offset, offset + 300, 3):
            if n % 2:
                keyspace.rpush("q", n)
            else:
                keyspace.transaction([("incrby", ("n", 1), {}), ("rpush", ("q", n), {})])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=read, daemon=True) for _ in range(6)]
        writers = [threading.Thread(target=write, args=(k,), daemon=True) for k in range(3)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(WAIT)
        keyspace.rpush("q", *["stop"] * len(readers))
        for thread in readers:
            thread.join(WAIT)
        hung = [thread for thread in readers + writers if thread.is_alive()]
    finally:
        sys.setswitchinterval(interval)
        keyspace.close()  # releases any reader a lost wakeup left parked
    assert hung == []
    assert sorted(got) == list(range(300))
    assert keyspace.parked == 0
