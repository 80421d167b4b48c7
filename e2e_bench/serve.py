"""A ``repro serve`` daemon as a subprocess, and a socket-only load generator.

The client side uses nothing but ``socket`` and ``json``, as a third-party
user of the daemon would.  Load is closed loop: each client thread owns one
connection and sends its next job only after the previous one completed,
because each scientist waits for their job.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

WORKFLOW = "sentiment-scoring"
#: Articles the daemon pre-generates per job; also the tuples sent per job.
JOB_TUPLES = 40
#: At most ``nproc`` (2 on the reference machine) client connections.
CLIENTS = 2
REPLY_TIMEOUT = 60.0


class Daemon:
    """``python -m repro serve`` on an ephemeral port; ``boot_s`` is its start-up.

    The daemon inherits the CPU its parent is confined to (see
    ``child.confine``); ``generator_cpu`` is the other one, where the
    threads that load it run so that they do not compete with it.
    """

    def __init__(self, src_dir: str, generator_cpu: Optional[int] = None,
                 processes: int = 4, time_scale: float = 0.005, max_jobs: int = 2) -> None:
        self.generator_cpu = generator_cpu
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONUNBUFFERED="1")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--processes", str(processes), "--time-scale", str(time_scale),
             "--max-jobs", str(max_jobs)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True,
        )
        banner = self.proc.stdout.readline()
        self.boot_s = time.perf_counter() - started
        if "serving line-JSON on" not in banner:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        host, port = banner.rsplit(" on ", 1)[1].split()[0].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def peak_rss_mb(self) -> float:
        """The daemon's high-water resident set (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> bool:
        """Interrupt the daemon and reap it; False if it had to be killed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=15)
            clean = True
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=5)
            clean = False
        self.proc.stdout.close()
        return clean


class Client:
    """One line-JSON connection."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=REPLY_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def write(self, **payload: Any) -> None:
        self.sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))

    def read(self) -> Dict[str, Any]:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def request(self, **payload: Any) -> Dict[str, Any]:
        self.write(**payload)
        return self.read()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@dataclass
class JobRecord:
    """Client-side timestamps (``perf_counter``) and results of one job."""

    client: int
    index: int
    stamps: Dict[str, float] = field(default_factory=dict)
    values: List[Tuple[str, Any]] = field(default_factory=list)
    process_time: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    #: Time the generator spent between the previous job's last reply and
    #: this job's submit line (its own bookkeeping, not the daemon's).
    lag_s: float = 0.0
    error: Optional[str] = None

    @property
    def first_result_ms(self) -> float:
        return (self.stamps["first_result"] - self.stamps["submit"]) * 1e3

    @property
    def job_ms(self) -> float:
        return (self.stamps["done"] - self.stamps["submit"]) * 1e3


def run_job(client: Client, record: JobRecord, tuples: Sequence[int],
            drain_first: bool = False) -> JobRecord:
    """submit (no inputs) -> send -> close -> stream results -> wait.

    With ``drain_first`` the job is waited for before its results are
    requested, so the result lines are read from a finished job: their
    pace is the service's per-line cost alone.
    """
    stamps = record.stamps
    try:
        stamps["submit"] = time.perf_counter()
        reply = client.request(op="submit", workflow=WORKFLOW,
                               params={"articles": JOB_TUPLES}, inputs=None)
        stamps["submit_reply"] = time.perf_counter()
        if not reply.get("ok"):
            raise RuntimeError(f"submit refused: {reply.get('error')}")
        job = reply["job"]
        sent = client.request(op="send", job=job, target=reply["roots"][0],
                              tuples=list(tuples))
        stamps["sent"] = time.perf_counter()
        closed = client.request(op="close", job=job)
        stamps["closed"] = time.perf_counter()
        if not (sent.get("ok") and closed.get("ok")):
            raise RuntimeError(f"send/close failed: {sent} {closed}")
        if drain_first:
            _wait(client, job, record)
        client.write(op="results", job=job, timeout=REPLY_TIMEOUT)
        stamps["results_asked"] = time.perf_counter()
        while True:
            reply = client.read()
            now = time.perf_counter()
            if not reply.get("ok"):
                raise RuntimeError(f"results failed: {reply.get('error')}")
            if reply.get("done"):
                stamps["done"] = now
                if reply.get("state") != "done":
                    raise RuntimeError(f"job ended {reply.get('state')}")
                break
            stamps.setdefault("first_result", now)
            record.values.append((reply["key"], reply["value"]))
        stamps.setdefault("first_result", stamps["done"])
        if not drain_first:
            _wait(client, job, record)
    except (OSError, RuntimeError, KeyError, ValueError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
        now = time.perf_counter()
        for key in ("submit", "first_result", "done"):
            stamps.setdefault(key, now)
    stamps["end"] = time.perf_counter()
    return record


def _wait(client: Client, job: str, record: JobRecord) -> None:
    reply = client.request(op="wait", job=job, timeout=REPLY_TIMEOUT)
    if not reply.get("ok") or reply.get("state") != "done":
        raise RuntimeError(f"wait failed: {reply}")
    record.process_time = reply["summary"]["process_time"]
    record.counters = reply["summary"]["counters"]


@dataclass
class Window:
    """One closed-loop measurement window."""

    wall_s: float
    records: List[JobRecord]

    @property
    def failed(self) -> List[JobRecord]:
        return [r for r in self.records if r.error is not None]


def closed_loop(daemon: Daemon, job_inputs: Sequence[Sequence[int]],
                clients: int = CLIENTS) -> Window:
    """Run ``job_inputs`` (one tuple list per job) split over ``clients`` threads.

    Connections are opened before the window starts; the window runs from
    the moment every client is released until the last one finishes.
    """
    shares = [list(range(c, len(job_inputs), clients)) for c in range(clients)]
    conns = [Client(daemon.host, daemon.port) for _ in shares]
    barrier = threading.Barrier(len(shares) + 1)
    records: List[List[JobRecord]] = [[] for _ in shares]

    def generate(c: int) -> None:
        if daemon.generator_cpu is not None:
            os.sched_setaffinity(0, {daemon.generator_cpu})  # this thread only
        barrier.wait()
        last = time.perf_counter()
        for index in shares[c]:
            record = JobRecord(client=c, index=index)
            record.lag_s = time.perf_counter() - last
            run_job(conns[c], record, job_inputs[index])
            records[c].append(record)
            last = record.stamps["end"]

    threads = [threading.Thread(target=generate, args=(c,), name=f"loadgen-{c}")
               for c in range(len(shares))]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    for conn in conns:
        conn.close()
    return Window(wall, [r for share in records for r in share])
