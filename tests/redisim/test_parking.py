"""Parked blocking commands wake, give up and are counted, on both layers.

A write skips the condition's ``notify_all`` while nobody is parked
(:attr:`RedisServer.parked` is 0), so what must still hold is pinned here
for ``BLPOP``, blocking ``XREADGROUP`` and ``BLMOVESEQ``, in process and
over RESP/TCP:

- a write made inside a pipeline transaction wakes the parked reader;
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
