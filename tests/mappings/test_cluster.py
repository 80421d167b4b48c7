"""``cluster_redis``: distributed worker processes over a real TCP socket.

These tests spawn genuine OS worker processes that join the run by
``host:port``, so they cover the full networked path: jobspec publication,
RESP transport, the fetch/process/ack loop, results relay, and XAUTOCLAIM
adoption of a SIGKILLed worker's pending entries.
"""

import pytest

from repro import run
from repro.core.exceptions import UnsupportedFeatureError
from repro.engine import Engine
from repro.net.server import RespTCPServer
from repro.workflows import build_sentiment_scoring_workflow
from tests.conftest import FAST_SCALE

pytestmark = pytest.mark.network


def _collect_sorted(result):
    return {key: sorted(map(repr, values)) for key, values in result.outputs.items()}


def _sentiment(**opts):
    graph, inputs = build_sentiment_scoring_workflow(articles=40)
    return run(
        graph,
        inputs=inputs,
        processes=2,
        seed=11,
        time_scale=FAST_SCALE,
        **opts,
    )


@pytest.fixture(scope="module")
def expected_outputs():
    return _collect_sorted(_sentiment(mapping="dyn_redis"))


class TestIdentity:
    def test_matches_dyn_redis(self, expected_outputs):
        result = _sentiment(mapping="cluster_redis")
        assert _collect_sorted(result) == expected_outputs
        # Each worker process rebuilt the graph from the jobspec exactly once.
        assert result.counters.get("graph_copies") == 2

    def test_fork_start_method_matches_too(self, expected_outputs):
        result = _sentiment(mapping="cluster_redis", start_method="fork")
        assert _collect_sorted(result) == expected_outputs


class TestResultsPump:
    def test_pump_ends_on_the_sentinel_not_on_a_timeout(self, expected_outputs, monkeypatch):
        """With the pump's blocking pop parked for far longer than the run,
        the job still completes, completely: the coordinator's stop
        sentinel -- behind every worker's push in list order -- ends the
        pump, where a stop flag would only be seen after a timed-out pop."""
        import threading
        import time

        from repro.mappings import cluster

        monkeypatch.setattr(cluster, "PUMP_BLOCK", 30.0)
        started = time.monotonic()
        result = _sentiment(mapping="cluster_redis", start_method="fork")
        assert time.monotonic() - started < cluster.PUMP_BLOCK
        assert _collect_sorted(result) == expected_outputs
        assert not [t for t in threading.enumerate() if t.name == "cluster-pump"]

    def test_link_retries_reach_the_counters(self):
        result = _sentiment(mapping="cluster_redis", start_method="fork")
        assert result.counters["net_retries"] == 0


@pytest.mark.recovery
class TestRecovery:
    def test_sigkilled_worker_entries_are_adopted(self, expected_outputs):
        # The injection fires only once worker 1 has fetched ``crash_after``
        # entries.  Under spawn the boot skew between the two interpreters
        # occasionally outlasts the whole ~0.3 s run (about 1 in 7 on a
        # loaded 2-vCPU host): worker 0 drains the stream alone and nobody
        # crashes.  That run tested nothing, so measure again.
        for _attempt in range(5):
            result = _sentiment(
                mapping="cluster_redis",
                crash_workers=[1],
                crash_after=5,
                reclaim_idle_ms=200,
            )
            if result.counters.get("crashed_workers"):
                break
        assert result.counters.get("crashed_workers") == 1
        # The survivor adopted the dead worker's PEL via XAUTOCLAIM, so the
        # output multiset is still byte-identical to the healthy run.
        assert _collect_sorted(result) == expected_outputs


class TestAddressing:
    def test_external_server_reuse(self, expected_outputs):
        server = RespTCPServer().start()
        try:
            result = _sentiment(mapping="cluster_redis", address=server.address)
            assert _collect_sorted(result) == expected_outputs
            # The run went through the external keyspace and cleaned up after
            # itself: no run keys survive teardown.
            assert server.keyspace.dbsize() == 0
        finally:
            server.close()

    def test_address_rejected_on_non_networked_mapping(self):
        graph, inputs = build_sentiment_scoring_workflow(articles=4)
        engine = Engine(mapping="dyn_redis", address="127.0.0.1:6399")
        with pytest.raises(UnsupportedFeatureError, match="not networked"):
            engine.run(graph, inputs=inputs)

    def test_capability_flag(self):
        from repro.mappings import get_capabilities

        assert get_capabilities("cluster_redis").networked
        assert not get_capabilities("dyn_redis").networked
