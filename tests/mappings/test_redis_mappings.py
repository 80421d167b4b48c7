"""Tests for dyn_redis and dyn_auto_redis."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import run
from repro.autoscale.strategies import IdleTimeStrategy
from repro.core.exceptions import UnsupportedFeatureError
from repro.mappings.redis_tasks import GROUP, PILL, Death, RedisTaskBoard
from repro.redisim.client import RedisClient
from repro.redisim.server import RedisServer
from tests.conftest import (
    AddOne,
    Double,
    Emit,
    FAST_SCALE,
    StatefulCounter,
    linear_graph,
    settle_entry,
)


class TestRedisTaskBoard:
    @pytest.fixture
    def board(self):
        server = RedisServer()
        board = RedisTaskBoard(RedisClient(server), namespace="t")
        board.setup()
        return board

    def test_setup_creates_the_one_worker_group(self, board):
        groups = board.client.xinfo_groups(board.stream_key)
        assert [info["name"] for info in groups] == [GROUP] == ["workers"]

    def test_put_fetch_ack_complete(self, board):
        client = board.client
        board.put_tasks([("pe", "input", 42)], 1)
        assert board.outstanding() == 1
        [(entry_id, task)] = board.fetch("c1", client)
        assert task == ("pe", "input", 42)
        settle_entry(board, client, entry_id)
        assert board.is_drained()

    def test_pills_fetch_as_sentinel(self, board):
        board.put_pills(2)
        fetched = board.fetch("c1", board.client, count=2)
        assert [task for _id, task in fetched] == [PILL, PILL]
        assert board.is_drained()  # pills carry no outstanding count

    def test_backlog_is_group_lag(self, board):
        board.put_tasks([("pe", None, 1), ("pe", None, 2)], 1)
        assert board.backlog() == 2
        board.fetch("c1", board.client)
        assert board.backlog() == 1

    def test_avg_idle_filters_consumers(self, board):
        board.put_tasks([("pe", None, 1)], 1)
        board.fetch("c1", board.client)
        assert board.avg_idle_ms({"c1"}) >= 0.0
        assert board.avg_idle_ms({"ghost"}) == 0.0

    def test_a_consumers_pending_entries_read_back_as_it(self, board):
        client = board.client
        board.put_tasks([("pe", "input", "lost")], 1)
        board.fetch("dead-worker", client)
        [(entry_id, task)] = board.pending("dead-worker", client)
        assert task == ("pe", "input", "lost")
        # Read, not moved: the entry is still the dead consumer's.
        assert client.xpending(board.stream_key, GROUP)["consumers"] == {"dead-worker": 1}
        assert board.pending("dead-worker", client, after=entry_id) == []
        assert board.pending("never-seen", client) == []

    def test_death_markers_fetch_as_death_and_carry_no_credit(self, board):
        board.put_dead("ghost")
        [(marker_id, fields)] = board.client.xrange(board.stream_key)
        assert fields == {"dead": "ghost"}
        assert board.fetch("c1", board.client) == [(marker_id, Death("ghost"))]
        assert board.is_drained()

    def test_setup_is_idempotent_per_namespace(self):
        server = RedisServer()
        board = RedisTaskBoard(RedisClient(server), namespace="x")
        board.setup()
        board.put_tasks([("pe", None, 1)], 1)
        board.setup()  # fresh run in the same namespace
        assert board.outstanding() == 0

    def test_teardown_removes_keys(self, board):
        board.put_tasks([("pe", None, 1)], 1)
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


def _relay_job(n, processes=4):
    """One ``dyn_redis`` job of ``n`` ``(i, 200-char)`` tuples over a 6-relay
    chain at time scale 1e-6.  Returns the run and the ``XLEN`` of every
    stream its teardown deleted, read at that moment: drained, not yet gone."""
    server = RedisServer()
    at_teardown = {}
    delete = server.delete

    def spy(*keys):
        at_teardown.update((key, server.xlen(key)) for key in keys if key.endswith(":tasks"))
        return delete(*keys)

    server.delete = spy
    graph = linear_graph(*[Emit(name=f"relay{i}") for i in range(6)])
    inputs = [(i, "x" * 200) for i in range(n)]
    result = _run("dyn_redis", graph, inputs, processes, time_scale=1e-6, redis_server=server)
    assert sorted(result.output("relay5")) == inputs
    return result, at_teardown


#: Growth of a fresh interpreter's max RSS over a 20 000-tuple relay job.
#: With every task entry kept to teardown it grew 94.5 MB; with settled
#: entries deleted, 30.8 MB (Linux, Python 3.11).
JOB_RSS_BOUND_MB = 60

_RSS_JOB = """
import resource, sys
from tests.mappings.test_redis_mappings import _relay_job
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
_relay_job(20_000)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


class TestJobMemory:
    """A task stream holds what is in flight: an entry ``XACKDECR`` settles
    leaves it, so a job's keyspace does not grow with all the tasks it ran."""

    def test_a_drained_job_holds_no_acknowledged_entry(self):
        result, at_teardown = _relay_job(5_000)
        [(_key, left)] = at_teardown.items()
        # Only the pills stay (plain XACK); 30 004 entries if settled ones stayed.
        assert left <= result.counters["pills"] == 4

    @pytest.mark.memory
    def test_a_large_job_stays_within_its_memory_bound(self):
        root = Path(__file__).resolve().parents[2]
        done = subprocess.run(
            [sys.executable, "-c", _RSS_JOB], cwd=root, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])},
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        grown = float(done.stdout.split()[-1])
        assert grown < JOB_RSS_BOUND_MB, f"max RSS grew {grown:.1f} MB over the job"


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
