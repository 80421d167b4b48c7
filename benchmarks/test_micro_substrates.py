"""Micro-benchmarks of the substrates (pytest-benchmark proper).

Throughput of the primitives every mapping is built on: Redis stream
operations, consumer-group cycles, pipelines, tracked queues, grouping
routers and graph translation.
"""

import pytest

from repro.core.concrete import ConcreteWorkflow
from repro.core.graph import WorkflowGraph
from repro.core.groupings import GroupBy
from repro.core.pe import IterativePE
from repro.mappings.base import ResultsCollector, dispatch_emissions
from repro.redisim.client import RedisClient
from repro.redisim.server import RedisServer
from repro.runtime.queues import TrackedQueue


class _Stage(IterativePE):
    def _process(self, data):
        return data


def _chain(n=6):
    graph = WorkflowGraph("bench")
    stages = [_Stage(name=f"s{i}") for i in range(n)]
    for pe in stages:
        graph.add(pe)
    for a, b in zip(stages, stages[1:]):
        graph.connect(a, "output", b, "input")
    return graph


class TestRedisMicro:
    def test_xadd_throughput(self, benchmark):
        server = RedisServer()
        client = RedisClient(server)

        def add_100():
            for i in range(100):
                client.xadd("s", {"task": ("pe", "input", i)})

        benchmark(add_100)

    def test_group_read_ack_cycle(self, benchmark):
        server = RedisServer()
        client = RedisClient(server)
        client.xgroup_create("s", "g", id="0", mkstream=True)

        def cycle():
            for i in range(50):
                client.xadd("s", {"task": i})
            while True:
                reply = client.xreadgroup("g", "c", {"s": ">"}, count=10)
                if not reply:
                    break
                for _key, entries in reply:
                    for eid, _fields in entries:
                        client.xack("s", "g", eid)

        benchmark(cycle)

    def test_pipeline_vs_single_ops(self, benchmark):
        """The transaction path the hot loops rely on."""
        server = RedisServer()
        client = RedisClient(server)

        def pipelined():
            pipe = client.pipeline()
            for i in range(20):
                pipe.incr("n")
                pipe.xadd("s", {"task": i})
            pipe.execute()

        benchmark(pipelined)

    def test_blpop_hot(self, benchmark):
        server = RedisServer()
        client = RedisClient(server)

        def roundtrip():
            client.rpush("q", ("data", "input", 1))
            client.blpop("q", timeout=0.1)

        benchmark(roundtrip)


class TestQueueMicro:
    def test_tracked_queue_cycle(self, benchmark):
        queue = TrackedQueue()

        def cycle():
            for i in range(100):
                queue.put(("pe", "input", i))
            for _ in range(100):
                queue.get()
                queue.mark_done()

        benchmark(cycle)


class TestRoutingMicro:
    def test_groupby_routing(self, benchmark):
        grouping = GroupBy([0])
        data = [(f"key{i % 17}", i) for i in range(200)]

        def route_all():
            for item in data:
                grouping.route(item, 8, None)

        benchmark(route_all)

    def test_concrete_translation(self, benchmark):
        benchmark(lambda: ConcreteWorkflow.from_static(_chain(), 16))

    def test_dispatch_routed_port(self, benchmark):
        concrete = ConcreteWorkflow.from_static(_chain(), 16)
        # s1 has several instances: s0's port asks its router per emission.
        assert concrete.routes["s0"]["output"].routers
        collector = ResultsCollector()

        def route_200():
            for i in range(200):
                dispatch_emissions(concrete, collector, "s0", 0, [("output", i)])

        benchmark(route_200)
