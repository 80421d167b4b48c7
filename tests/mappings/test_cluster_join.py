"""``repro join`` ahead of the coordinator: the joiner parks, it does not poll.

A worker that dials in before the jobspec exists waits in one ``BLPOP`` on
``{namespace}:ready``, where the coordinator leaves a token per worker right
after ``SET jobspec``.  Structure only: the keyspace's command tally says
whether anything polled.
"""

import pickle
import threading
import time

import pytest

from repro import run
from repro.mappings import cluster
from repro.net.server import RespTCPServer
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
