"""Shared fixtures: no leaked server threads, and the two client layers."""

import pytest

from repro.net.client import SocketRedisClient
from repro.net.server import RespTCPServer
from repro.redisim.client import RedisClient
from repro.redisim.server import RedisServer
from tests.conftest import no_leaked_threads


@pytest.fixture(autouse=True)
def _no_leaked_server_threads():
    """No ``resp-*`` or ``sock-*`` accept or connection thread outlives a test."""
    yield from no_leaked_threads("resp-", "sock-")


@pytest.fixture(params=["inproc", "resp"])
def layer(request):
    """``(keyspace, connect)`` on one layer: ``connect()`` opens a client that
    reaches ``keyspace`` in process or over RESP/TCP.  Every client it made
    and the TCP front-end are closed at teardown."""
    keyspace = RedisServer()
    front = RespTCPServer(keyspace).start() if request.param == "resp" else None
    clients = []

    def connect():
        if front is None:
            clients.append(RedisClient(keyspace))
        else:
            clients.append(SocketRedisClient(address=front.address))
        return clients[-1]

    yield keyspace, connect
    for client in clients:
        client.close()
    if front is not None:
        front.close()
