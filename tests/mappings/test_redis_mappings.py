"""Tests for dyn_redis and dyn_auto_redis."""

import pytest

from repro import run
from repro.autoscale.strategies import IdleTimeStrategy
from repro.core.exceptions import UnsupportedFeatureError
from repro.mappings.redis_tasks import PILL, RedisTaskBoard
from repro.redisim.client import RedisClient
from repro.redisim.server import RedisServer
from tests.conftest import (
    AddOne,
    Double,
    Emit,
    FAST_SCALE,
    StatefulCounter,
    linear_graph,
)


class TestRedisTaskBoard:
    @pytest.fixture
    def board(self):
        server = RedisServer()
        board = RedisTaskBoard(RedisClient(server), namespace="t")
        board.setup()
        return board

    def test_put_fetch_ack_complete(self, board):
        client = board.client
        board.put(("pe", "input", 42))
        assert board.outstanding() == 1
        [(entry_id, task)] = board.fetch("c1", client)
        assert task == ("pe", "input", 42)
        board.ack(entry_id, client)
        board.complete(client)
        assert board.is_drained()

    def test_pills_fetch_as_sentinel(self, board):
        board.put_pills(2)
        fetched = board.fetch("c1", board.client, count=2)
        assert [task for _id, task in fetched] == [PILL, PILL]
        assert board.is_drained()  # pills carry no outstanding count

    def test_backlog_is_group_lag(self, board):
        board.put(("pe", None, 1))
        board.put(("pe", None, 2))
        assert board.backlog() == 2
        board.fetch("c1", board.client)
        assert board.backlog() == 1

    def test_avg_idle_filters_consumers(self, board):
        board.put(("pe", None, 1))
        board.fetch("c1", board.client)
        assert board.avg_idle_ms({"c1"}) >= 0.0
        assert board.avg_idle_ms({"ghost"}) == 0.0

    def test_recover_stale_reclaims_unacked(self, board):
        client = board.client
        board.put(("pe", "input", "lost"))
        board.fetch("dead-worker", client)
        recovered = board.recover_stale("rescuer", client, min_idle_ms=0)
        assert [task for _id, task in recovered] == [("pe", "input", "lost")]

    def test_recover_stale_acks_pills(self, board):
        board.put_pills(1)
        board.fetch("dead-worker", board.client)
        recovered = board.recover_stale("rescuer", board.client, min_idle_ms=0)
        assert recovered == []

    def test_setup_is_idempotent_per_namespace(self):
        server = RedisServer()
        board = RedisTaskBoard(RedisClient(server), namespace="x")
        board.setup()
        board.put(("pe", None, 1))
        board.setup()  # fresh run in the same namespace
        assert board.outstanding() == 0

    def test_teardown_removes_keys(self, board):
        board.put(("pe", None, 1))
        board.teardown()
        assert board.client.exists(board.stream_key, board.counter_key) == 0


def _run(mapping, graph, inputs, processes, **kw):
    kw.setdefault("time_scale", FAST_SCALE)
    return run(graph, inputs=inputs, processes=processes, mapping=mapping, **kw)


class TestDynRedis:
    def test_linear_pipeline(self):
        g = linear_graph(Double(name="d"), AddOne(name="a"))
        result = _run("dyn_redis", g, [1, 2, 3, 4], 3)
        assert sorted(result.output("a")) == [3, 5, 7, 9]

    def test_rejects_stateful(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="s"))
        with pytest.raises(UnsupportedFeatureError):
            _run("dyn_redis", g, [("a", 1)], 2)

    def test_external_server_shared(self):
        server = RedisServer()
        g = linear_graph(Double(name="d"))
        result = _run("dyn_redis", g, [1, 2], 2, redis_server=server)
        assert sorted(result.output("d")) == [2, 4]
        # The run cleans its namespace afterwards.
        assert not any(k.startswith("repro:linear") for k in server.keys())

    def test_counts_tasks_and_pills(self):
        g = linear_graph(Double(name="d"), AddOne(name="a"))
        result = _run("dyn_redis", g, [1, 2], 3)
        assert result.counters["tasks"] == 4
        assert result.counters["pills"] == 3

    def test_empty_inputs(self):
        g = linear_graph(Emit(name="e"))
        result = _run("dyn_redis", g, [], 2)
        assert result.output("e") == []


class SlowPE(Emit):
    def _process(self, data):
        self.compute(0.02)
        return data


class TestDynAutoRedis:
    def test_linear_pipeline(self):
        g = linear_graph(Double(name="d"), AddOne(name="a"))
        result = _run("dyn_auto_redis", g, [1, 2, 3], 4)
        assert sorted(result.output("a")) == [3, 5, 7]

    def test_trace_uses_idle_metric(self):
        g = linear_graph(SlowPE(name="s"), Double(name="d"))
        result = _run("dyn_auto_redis", g, list(range(25)), 6)
        assert result.trace is not None
        assert "idle" in result.trace.metric_name

    def test_rejects_stateful(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="s"))
        with pytest.raises(UnsupportedFeatureError):
            _run("dyn_auto_redis", g, [("a", 1)], 2)

    def test_saves_process_time_vs_dyn_redis(self):
        def factory():
            return linear_graph(SlowPE(name="s"), Double(name="d"))

        auto = _run("dyn_auto_redis", factory(), list(range(30)), 8)
        plain = _run("dyn_redis", factory(), list(range(30)), 8)
        assert auto.process_time < plain.process_time

    def test_idle_threshold_option(self):
        g = linear_graph(SlowPE(name="s"))
        result = _run(
            "dyn_auto_redis", g, list(range(10)), 4,
            strategy=IdleTimeStrategy(threshold_ms=50.0),
        )
        assert sorted(result.output("s")) == list(range(10))
