"""Ablation: in-process keyspace calls vs the same calls over RESP/TCP.

The networked substrate puts a real socket between the engine and the
keyspace.  These cells measure what the wire costs and prove the
distributed mapping stays correct at benchmark scale:

1. the same rpush/lpop traffic against the in-process
   :class:`~repro.redisim.client.RedisClient` and against
   :class:`~repro.net.client.SocketRedisClient` over a TCP loopback --
   the printed ratio is the per-operation price of serialization, framing
   and kernel round-trips;
2. one ``cluster_redis`` sentiment run (worker OS processes joining by
   ``host:port``) as an end-to-end latency cell.

All cells are **informational**: single round, sub-second, printed but
not asserted on -- socket latency on shared runners is far too noisy to
gate; ``e2e_bench``'s ``cluster_tcp`` workload is the gated wire number.
"""

import os
import time

import pytest

from repro import run
from repro.net.client import SocketRedisClient
from repro.net.server import RespTCPServer
from repro.redisim.client import RedisClient
from repro.redisim.server import RedisServer
from repro.workflows import build_sentiment_scoring_workflow

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: rpush/lpop pairs per transport cell (each pair is two commands).
OPS = 400 if SMOKE else 1200


def _traffic(client):
    """The measured workload: OPS queue round-trips, then a drain check."""
    for i in range(OPS):
        client.rpush("bench:q", ("payload", i))
        client.lpop("bench:q")
    return client.llen("bench:q")


@pytest.fixture(scope="module")
def tcp_server():
    server = RespTCPServer().start()
    yield server
    server.close()


def test_transport_in_process(benchmark):
    client = RedisClient(RedisServer())
    remaining = benchmark.pedantic(lambda: _traffic(client), rounds=1, iterations=1)
    assert remaining == 0


def test_transport_tcp_loopback(benchmark, capsys, tcp_server):
    client = SocketRedisClient(address=tcp_server.address)

    # Untimed reference for the printed ratio (the in-process cell above is
    # the recorded baseline; this keeps the comparison within one process).
    local = RedisClient(RedisServer())
    started = time.perf_counter()
    _traffic(local)
    local_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    remaining = benchmark.pedantic(lambda: _traffic(client), rounds=1, iterations=1)
    tcp_elapsed = time.perf_counter() - started
    client.close()
    assert remaining == 0
    with capsys.disabled():
        per_op_us = tcp_elapsed / (2 * OPS) * 1e6
        print(
            f"\n[network] {2 * OPS} commands: in-process {local_elapsed * 1e3:.1f} ms, "
            f"TCP loopback {tcp_elapsed * 1e3:.1f} ms "
            f"({tcp_elapsed / max(local_elapsed, 1e-9):.1f}x, "
            f"{per_op_us:.0f} us/command on the wire)"
        )


def test_cluster_sentiment_over_tcp(benchmark, capsys):
    """End-to-end distributed run: worker processes over a real socket.

    Prints the run's wire budget -- settle trips, how many were read a
    window later, keyspace commands per task -- from the keyspace's own
    command tally (nested ``incrby`` ticks of ``XACKDECR`` included).
    """
    graph, inputs = build_sentiment_scoring_workflow(articles=20)
    keyspace = RedisServer()

    def once():
        return run(
            graph,
            inputs=inputs,
            mapping="cluster_redis",
            processes=2,
            seed=3,
            time_scale=0.002,
            # fork keeps the cell sub-second (spawn pays interpreter boot).
            start_method="fork",
            redis_server=keyspace,
        )

    result = benchmark.pedantic(once, rounds=1, iterations=1)
    assert result.total_outputs() == 40
    assert result.counters.get("graph_copies") == 2
    tasks, commands = result.counters["tasks"], sum(keyspace.command_count.values())
    with capsys.disabled():
        print(
            f"\n[network] cluster_redis: tasks {tasks}, "
            f"settle_trips {result.counters.get('settle_trips', 0)}, "
            f"settles_in_flight {result.counters.get('settles_in_flight', 0)}, "
            f"{commands} keyspace commands ({commands / tasks:.2f} per task)"
        )
