"""``repro join``: the joiner parks, it does not poll; and its death is named.

A worker that dials in before the jobspec exists waits in one ``BLPOP`` on
``{namespace}:ready``, where the coordinator leaves a token per worker right
after ``SET jobspec``.  Structure only: the keyspace's command tally says
whether anything polled.  The joined worker runs in a child of the joining
process, which names it dead if it exits abnormally.
"""

import os
import pickle
import signal
import threading
import time

import pytest

from repro import run
from repro.mappings import cluster
from repro.mappings.base import normalize_inputs
from repro.mappings.redis_tasks import GROUP, RedisTaskBoard
from repro.mappings.termination import TerminationPolicy
from repro.net.client import SocketRedisClient
from repro.net.server import RespTCPServer
from repro.platforms.profiles import LAPTOP
from repro.workflows import build_sentiment_scoring_workflow
from tests.conftest import FAST_SCALE

pytestmark = pytest.mark.network


@pytest.fixture
def server():
    srv = RespTCPServer().start()
    yield srv
    srv.close()


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


def test_an_early_joiner_parks_until_the_jobspec_is_published(server):
    namespace, tally = "repro:join-test", server.keyspace.command_count
    joiner = threading.Thread(
        target=cluster.run_worker, args=(server.address, namespace, 2), daemon=True
    )
    joiner.start()
    assert _wait_until(lambda: tally.get("blpop", 0) == 1)
    time.sleep(0.15)  # three of the old 50 ms polls
    assert tally["get"] == 1 and tally["blpop"] == 1 and joiner.is_alive()

    graph, inputs = build_sentiment_scoring_workflow(articles=20)
    opts = dict(inputs=inputs, processes=2, seed=11, time_scale=FAST_SCALE)
    result = run(
        graph, mapping="cluster_redis", start_method="fork",
        address=server.address, namespace=namespace, **opts,
    )
    joiner.join(10.0)
    assert not joiner.is_alive()
    expected = run(graph, mapping="dyn_redis", **opts)
    assert {k: sorted(map(repr, v)) for k, v in result.outputs.items()} == {
        k: sorted(map(repr, v)) for k, v in expected.outputs.items()
    }
    assert result.counters["graph_copies"] == 3  # two spawned workers and the joiner
    assert server.keyspace.exists(f"{namespace}:ready", f"{namespace}:jobspec") == 0


def test_a_joiner_nobody_comes_for_gives_up_at_the_timeout(server, monkeypatch):
    monkeypatch.setattr(cluster, "JOBSPEC_TIMEOUT", 0.2)
    started = time.monotonic()
    with pytest.raises(TimeoutError, match="no jobspec appeared"):
        cluster.run_worker(server.address, "repro:nobody", 0)
    assert 0.2 <= time.monotonic() - started < 5.0
    assert server.keyspace.command_count["blpop"] == 1
    [(index, message)] = map(pickle.loads, server.keyspace.lrange("repro:nobody:errors", 0, -1))
    assert index == 0 and "TimeoutError" in message


@pytest.mark.recovery
def test_a_joined_worker_that_dies_is_named_by_its_parent(server):
    """The child SIGKILLs itself after its first fetch; the joining process
    names it under a name no restart under ``--index 4`` reuses, and a
    worker that joins next adopts what it held."""
    namespace = "repro:join-crash"
    graph, inputs = build_sentiment_scoring_workflow(articles=4)
    client = SocketRedisClient(address=server.address)
    board = RedisTaskBoard(client, namespace=namespace)
    board.setup()
    board.seed_roots(normalize_inputs(graph, inputs))
    jobspec = {
        "graph": graph, "platform": LAPTOP, "time_scale": FAST_SCALE, "seed": 0,
        "policy": TerminationPolicy(), "batch_size": 1, "total_workers": 2,
        "crash_after": 0, "crash_workers": (4,),
    }
    client.set(f"{namespace}:jobspec", cluster._dumps_jobspec(jobspec))

    assert cluster.join(server.address, namespace, 4) == -signal.SIGKILL
    [dead] = [fields["dead"] for _id, fields in client.xrange(board.stream_key) if "dead" in fields]
    index, pid = dead.removeprefix("cluster-").split("-")
    assert index == "4" and int(pid) != os.getpid()
    assert client.xpending(board.stream_key, GROUP)["consumers"] == {dead: 1}

    cluster.run_worker(server.address, namespace, 5)
    assert board.is_drained()
    assert client.xpending(board.stream_key, GROUP)["pending"] == 0
    assert int(client.hgetall(f"{namespace}:counters")["reclaimed"]) == 1
    client.close()
