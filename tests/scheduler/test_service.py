"""SchedulerService wire protocol: line-JSON over TCP, in process.

Every test drives the daemon the way an external client would -- a raw
socket writing one JSON object per line -- against an in-process
:class:`SchedulerService`.  Protocol details (error replies, unknown
ops/jobs, malformed lines, result streaming) live here; the
subprocess-level ``repro serve`` path is tests/integration/test_serve.py.
"""

import json
import socket
import threading

import pytest

from repro import Engine
from repro.scheduler import JobScheduler, SchedulerService
from tests.conftest import FAST_SCALE

pytestmark = pytest.mark.scheduler


class LineClient:
    """Minimal newline-JSON client, as a daemon user would write one."""

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=10)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def send(self, **payload):
        self.sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))

    def send_raw(self, line):
        self.sock.sendall(line)

    def recv(self):
        line = self.reader.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    def request(self, **payload):
        self.send(**payload)
        return self.recv()

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


@pytest.fixture
def service():
    # mapping="auto" mirrors `repro serve`: the stateful sentiment graph
    # picks a stateful-capable mapping, the scoring one a dynamic pool.
    # processes=8 matches the `repro serve` default: the stateful
    # sentiment graph needs 7 under hybrid_redis.
    with Engine(
        mapping="auto", processes=8, time_scale=FAST_SCALE, seed=0
    ) as engine:
        with JobScheduler(engine, max_concurrent=2, pool_size=2) as scheduler:
            svc = SchedulerService(scheduler, port=0).start()
            try:
                yield svc
            finally:
                svc.close()


@pytest.fixture
def client(service):
    c = LineClient(service.host, service.port)
    yield c
    c.close()


class TestProtocolBasics:
    def test_ping(self, client):
        assert client.request(op="ping") == {"ok": True, "pong": True}

    def test_workflows_lists_catalog(self, client):
        reply = client.request(op="workflows")
        assert reply["ok"] is True
        assert "sentiment" in reply["workflows"]
        assert reply["workflows"]["sentiment"] == ["articles"]
        assert reply["workflows"]["galaxy"] == ["scale", "heavy"]

    def test_unknown_op_is_an_error_reply(self, client):
        reply = client.request(op="frobnicate")
        assert reply["ok"] is False
        assert "unknown op" in reply["error"]

    def test_malformed_line_keeps_connection_alive(self, client):
        client.send_raw(b"this is not json\n")
        reply = client.recv()
        assert reply["ok"] is False
        assert "bad request" in reply["error"]
        # The same connection still works afterwards.
        assert client.request(op="ping")["pong"] is True

    def test_non_object_request_is_rejected(self, client):
        client.send_raw(b"[1, 2, 3]\n")
        reply = client.recv()
        assert reply["ok"] is False

    def test_quit_closes_connection(self, client):
        assert client.request(op="quit") == {"ok": True, "bye": True}
        assert client.reader.readline() == ""  # EOF


class TestSubmitValidation:
    def test_unknown_workflow(self, client):
        reply = client.request(op="submit", workflow="nope")
        assert reply["ok"] is False
        assert "unknown workflow" in reply["error"]
        assert "sentiment" in reply["error"]  # names the available ones

    def test_missing_workflow_name(self, client):
        reply = client.request(op="submit")
        assert reply["ok"] is False

    def test_bad_param_names_accepted_ones(self, client):
        reply = client.request(
            op="submit", workflow="sentiment", params={"artcles": 4}
        )
        assert reply["ok"] is False
        assert "artcles" in reply["error"]
        assert "articles" in reply["error"]

    @pytest.mark.parametrize("mapping", ["dyn_multi", "dyn_redis"])
    def test_malformed_inputs_spec_is_the_submit_reply(self, client, mapping):
        """Regression: used to be accepted, queued, and failed at admission."""
        reply = client.request(
            op="submit", workflow="sentiment-scoring", mapping=mapping,
            inputs={"nope": [1]},
        )
        assert reply["ok"] is False
        assert "unknown PE 'nope'" in reply["error"]
        # Nothing was queued, and the same connection still works.
        assert client.request(op="stats")["stats"]["submitted"] == 0
        assert client.request(op="ping")["pong"] is True

    def test_unknown_job_id(self, client):
        reply = client.request(op="wait", job="j999")
        assert reply["ok"] is False
        assert "unknown job" in reply["error"]

    def test_send_requires_tuple_array(self, client):
        submitted = client.request(
            op="submit", workflow="sentiment", params={"articles": 4},
            inputs=None,
        )
        assert submitted["ok"] is True
        reply = client.request(
            op="send", job=submitted["job"],
            target=submitted["roots"][0], tuples="not-a-list",
        )
        assert reply["ok"] is False
        assert "array" in reply["error"]
        client.request(op="cancel", job=submitted["job"])


class TestJobLifecycleOverWire:
    def test_submit_feed_results_wait_stats(self, client):
        submitted = client.request(
            op="submit", workflow="sentiment-scoring",
            params={"articles": 6}, inputs=None, tenant="wire",
        )
        assert submitted["ok"] is True
        assert submitted["workflow"] == "sentiment_scoring"
        assert submitted["streaming"] is True
        assert submitted["roots"] == ["readArticles"]
        job = submitted["job"]

        sent = client.request(
            op="send", job=job, target="readArticles",
            tuples=list(range(6)),
        )
        assert sent == {"ok": True, "sent": 6}
        assert client.request(op="close", job=job) == {
            "ok": True, "closed": True,
        }

        client.send(op="results", job=job, timeout=30)
        rows = []
        while True:
            reply = client.recv()
            assert reply["ok"] is True
            if reply.get("done"):
                assert reply["state"] == "done"
                break
            rows.append((reply["key"], reply["value"]))
        assert len(rows) > 0

        waited = client.request(op="wait", job=job, timeout=30)
        assert waited["ok"] is True
        assert waited["state"] == "done"
        assert waited["summary"]["counters"]

        stats = client.request(op="stats")["stats"]
        assert stats["completed"] >= 1
        assert stats["first_result_p99"] is not None

    def test_default_inputs_run_when_inputs_omitted(self, client):
        submitted = client.request(
            op="submit", workflow="sentiment", params={"articles": 5},
        )
        job = submitted["job"]
        assert client.request(op="close", job=job)["ok"] is True
        waited = client.request(op="wait", job=job, timeout=30)
        assert waited["state"] == "done"
        # The catalog's default article stream fed the run.
        assert sum(waited["summary"]["outputs"].values()) > 0

    def test_cancel_over_wire(self, client):
        submitted = client.request(
            op="submit", workflow="sentiment", params={"articles": 4},
            inputs=None,
        )
        job = submitted["job"]
        reply = client.request(op="cancel", job=job, reason="wire test")
        assert reply["ok"] is True
        assert reply["cancelled"] is True
        assert reply["state"] == "cancelled"
        # A second cancel reports it was already terminal.
        assert client.request(op="cancel", job=job)["cancelled"] is False

    def test_wait_on_cancelled_job_reports_state(self, client):
        submitted = client.request(
            op="submit", workflow="sentiment", params={"articles": 4},
            inputs=None,
        )
        job = submitted["job"]
        client.request(op="cancel", job=job, reason="wire test")
        reply = client.request(op="wait", job=job, timeout=10)
        assert reply["ok"] is False
        assert reply["state"] == "cancelled"
        assert "wire test" in reply["error"]

    def test_two_clients_share_the_scheduler(self, service, client):
        other = LineClient(service.host, service.port)
        try:
            submitted = client.request(
                op="submit", workflow="sentiment", params={"articles": 4},
            )
            job = submitted["job"]
            client.request(op="close", job=job)
            # Job ids are service-scoped, not connection-scoped.
            waited = other.request(op="wait", job=job, timeout=30)
            assert waited["state"] == "done"
            assert other.request(op="stats")["stats"]["completed"] >= 1
        finally:
            other.close()


class TestClose:
    """``service.close()`` really closes its clients (shutdown, not just close)."""

    @staticmethod
    def service_threads(service):
        names = (f"sched-accept-{service.port}", f"sched-conn-{service.port}")
        return [t for t in threading.enumerate() if t.name in names]

    def test_idle_client_reads_eof_and_no_thread_survives(self, service, client):
        assert client.request(op="ping")["pong"] is True
        threads = self.service_threads(service)
        assert len(threads) == 2
        client.sock.settimeout(1.0)
        service.close()
        assert client.reader.readline() == ""  # EOF within the second
        for thread in threads:
            thread.join(1.0)
        assert not self.service_threads(service)

    def test_client_parked_in_results_reads_eof(self, service, client):
        # Input left open: the job never finishes on its own, so the
        # handler stays blocked in Job.results(), not in recv.
        submitted = client.request(
            op="submit", workflow="sentiment-scoring", params={"articles": 4},
            inputs=None,
        )
        assert submitted["ok"] is True
        job = submitted["job"]
        assert client.request(
            op="send", job=job, target="readArticles", tuples=[0]
        )["sent"] == 1
        client.send(op="results", job=job)
        assert "key" in client.recv()  # the stream is open and being served
        [handler] = [
            t for t in threading.enumerate()
            if t.name == f"sched-conn-{service.port}"
        ]
        client.sock.settimeout(1.0)
        service.close()
        while client.reader.readline():
            pass  # result lines already on the wire, then EOF (or a timeout)
        # The handler's thread is the job's to release: cancelling the job
        # (what scheduler.close() does) ends the results stream.
        service.scheduler.close()
        handler.join(5.0)
        assert not handler.is_alive()
        assert not self.service_threads(service)
