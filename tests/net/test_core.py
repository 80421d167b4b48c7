"""One lifecycle contract, two servers.

:class:`~repro.net.server.RespTCPServer` and
:class:`~repro.scheduler.service.SchedulerService` run on the same
:class:`repro.net.core.SocketServer`; everything here is asserted of both
through nothing but a socket.  What only RESP can show -- a command parked
in the keyspace, an owned keyspace -- is in :class:`TestRespUnwinding`.
"""

import errno
import socket
import statistics
import threading
import time

import pytest

from repro import Engine
from repro.net.resp import encode_command
from repro.net.server import RespTCPServer
from repro.redisim.errors import ConnectionError as RedisConnectionError
from repro.redisim.server import RedisServer
from repro.scheduler import JobScheduler, SchedulerService
from tests.conftest import FAST_SCALE

pytestmark = [pytest.mark.network, pytest.mark.scheduler]

JOIN = 2.0


@pytest.fixture(scope="module")
def scheduler():
    with Engine(mapping="auto", processes=2, time_scale=FAST_SCALE, seed=0) as engine:
        with JobScheduler(engine, max_concurrent=1, pool_size=1) as sched:
            yield sched


@pytest.fixture(params=["resp", "sched"])
def make_server(request, scheduler):
    """``make_server(port=0)`` -> an unstarted server; all are closed at teardown."""
    made = []

    def make(port=0):
        if request.param == "resp":
            made.append(RespTCPServer(port=port))
        else:
            made.append(SchedulerService(scheduler, port=port))
        return made[-1]

    yield make
    for server in made:
        server.close()


#: Thread names are part of the contract: ``{prefix}-accept|conn-{port}``.
PREFIX = {RespTCPServer: "resp", SchedulerService: "sched"}


def server_threads(server):
    prefix = f"{PREFIX[type(server)]}-"
    suffix = f"-{server.port}"
    return [
        t for t in threading.enumerate()
        if t.name.startswith(prefix) and t.name.endswith(suffix)
    ]


def wait_until(predicate, timeout=JOIN):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def connect(server):
    return socket.create_connection((server.host, server.port), timeout=JOIN)


class TestLifecycle:
    def test_start_is_idempotent(self, make_server):
        server = make_server()
        assert server.start() is server
        port = server.port
        assert port != 0
        assert server.start() is server
        assert server.port == port
        assert server.address == f"{server.host}:{port}"
        assert len([t for t in server_threads(server) if "-accept-" in t.name]) == 1

    def test_close_is_idempotent_and_leaves_no_thread(self, make_server):
        server = make_server().start()
        with connect(server) as sock:
            assert wait_until(lambda: len(server_threads(server)) == 2)
            server.close()
            server.close()
            # An idle peer reads EOF; its handler and the accept thread end.
            assert sock.recv(16) == b""
        assert wait_until(lambda: not server_threads(server))

    def test_close_before_start(self, make_server):
        make_server().close()

    def test_port_rebinds_immediately_after_close(self, make_server):
        first = make_server().start()
        with connect(first):
            first.close()
            second = make_server(port=first.port).start()
            assert second.port == first.port
            with connect(second):
                pass

    def test_drop_connections_keeps_serving(self, make_server):
        server = make_server().start()
        with connect(server) as sock:
            assert wait_until(lambda: len(server_threads(server)) == 2)
            server.drop_connections()
            assert sock.recv(16) == b""
        with connect(server):
            assert wait_until(lambda: len(server_threads(server)) == 2)

    def test_close_after_the_accept_thread_failed(self, make_server, monkeypatch):
        """A listener that breaks ends accepting loudly, and ``close()``
        still works once the accept thread (and its end of the wake pair)
        is gone."""
        server = make_server().start()
        [accept] = [t for t in server_threads(server) if "-accept-" in t.name]
        failures = []
        monkeypatch.setattr(threading, "excepthook", failures.append)

        def broken(sock):
            raise OSError(errno.EBADF, "listener broke")

        with monkeypatch.context() as patch:
            patch.setattr(socket.socket, "accept", broken)
            with connect(server):
                accept.join(JOIN)
        assert not accept.is_alive()
        assert [failure.exc_value.errno for failure in failures] == [errno.EBADF]
        with pytest.raises(ConnectionRefusedError):
            connect(server)
        server.close()

    def test_serve_forever_returns_on_close(self, make_server):
        server = make_server()
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        assert wait_until(lambda: server.port != 0)
        server.close()
        thread.join(JOIN)
        assert not thread.is_alive()

    def test_close_latency_median(self, make_server):
        """No accept slice to wait out: the median of ten closes, each at a
        different phase after ``start()``, stays far below the 0.2 s slice
        the servers used to poll in."""
        took = []
        for cycle in range(10):
            server = make_server().start()
            time.sleep(0.021 * cycle)
            begin = time.perf_counter()
            server.close()
            took.append(time.perf_counter() - begin)
        assert statistics.median(took) < 0.050, took


class TestRespUnwinding:
    """Commands parked in the keyspace over TCP, and who owns the keyspace."""

    @pytest.mark.parametrize(
        "command, counter",
        [
            (("BLPOP", "q", "0"), "blpop"),
            (("BLMOVESEQ", "q", "q:log", "0"), "blmove"),
            (
                ("XREADGROUP", "GROUP", "g", "c", "BLOCK", "0", "STREAMS", "st", ">"),
                "xreadgroup",
            ),
        ],
        ids=lambda value: value if isinstance(value, str) else value[0],
    )
    def test_close_unwinds_a_command_parked_forever(self, command, counter):
        keyspace = RedisServer()
        keyspace.xgroup_create("st", "g", mkstream=True)
        server = RespTCPServer(keyspace).start()
        try:
            with connect(server) as sock:
                sock.sendall(encode_command(command))
                assert wait_until(lambda: keyspace.command_count.get(counter) == 1)
                handlers = [t for t in server_threads(server) if "-conn-" in t.name]
                assert len(handlers) == 1
                server.close()
                assert sock.recv(16) == b""
            handlers[0].join(JOIN)
            assert not handlers[0].is_alive()
            assert not server_threads(server)
            # Parked once, counted once; a fronted keyspace stays open.
            assert keyspace.command_count[counter] == 1
            assert not keyspace.closed
            assert keyspace.rpush("q", "still-usable") == 1
        finally:
            server.close()

    def test_owned_keyspace_closes_with_the_server(self):
        server = RespTCPServer().start()
        server.close()
        assert server.keyspace.closed
        with pytest.raises(RedisConnectionError):
            server.keyspace.get("k")
