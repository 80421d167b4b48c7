"""Layer probes: each layer priced from outside, through its public functions.

A probe times calls into one module (the layer is the module's name) and
reports a median of ``BATCHES`` self-sized batches.  Nothing is patched and
nothing under ``src/`` is edited; spans inside the program are a later
change.  The probes are the same whatever workload the traced run belongs
to, so their numbers compare across workloads and machines (``host.*``
says which machine).

The README's interaction table says which end-to-end metric each probe
should move, on which workload.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional

import serve
from spans import SpanRecorder
from workloads import ENGINE_SEED, relay_chain

from repro import Engine, GroupBy, JobScheduler, Planner, get_mapping, get_platform
from repro.core.concrete import ConcreteWorkflow
from repro.mappings.base import marshal, normalize_inputs
from repro.net.client import SocketRedisClient
from repro.net.resp import INCOMPLETE, RespDecoder, encode_command
from repro.net.server import RespTCPServer
from repro.planner.cost import profile_graph
from repro.redisim.client import RedisClient
from repro.redisim.server import RedisServer
from repro.runtime.queues import BatchingBuffer, TrackedQueue, batch_len
from repro.scheduler import percentile
from repro.state.store import RedisSnapshotStore
from repro.workflows import build_sentiment_scoring_workflow, build_sentiment_workflow
from repro.workflows.sentiment.articles import generate_articles

BATCHES = 5
#: Probes that time a slice of work; the budget is split between them.
SLICES = 40
MIN_SLICE_S = 0.02
PAYLOAD = (7, "x" * 64)
FIELDS = {"task": ("relay3", 0, "input", PAYLOAD)}


def per_call(run: Callable[[int], Any], slice_s: float, start: int = 32) -> float:
    """Seconds per operation: the median of ``BATCHES`` timed batches.

    ``run(n)`` performs ``n`` operations.  One calibration batch sizes the
    timed ones so that together they fill ``slice_s``.
    """
    begin = time.perf_counter()
    run(start)
    once = max(time.perf_counter() - begin, 1e-7) / start
    n = max(start, int(slice_s / BATCHES / once))
    rates = []
    for _ in range(BATCHES):
        begin = time.perf_counter()
        run(n)
        rates.append((time.perf_counter() - begin) / n)
    return statistics.median(rates)


def median_ms(samples: List[float]) -> float:
    return statistics.median(samples) * 1e3


def p95_ms(samples: List[float]) -> float:
    return percentile(samples, 95) * 1e3


# ------------------------------------------------------------- host and core
def host(slice_s: float) -> Dict[str, float]:
    def spin(n: int) -> None:
        for _ in range(n):
            total = 0
            for i in range(20_000):
                total += i * i

    return {"host.spin_ms": per_call(spin, slice_s, start=2) * 1e3,
            "host.nproc": os.cpu_count() or 1}


def core(slice_s: float) -> Dict[str, float]:
    graph = build_sentiment_workflow(articles=1)[0]
    grouping = GroupBy("state")
    unit = {"id": 1, "state": "TX", "score": 2.0}
    fresh = iter(range(10_000, 10_000_000))  # dataset seeds the cache has not seen

    def articles(n: int) -> None:
        for _ in range(n):
            generate_articles(50, seed=next(fresh))

    return {
        "core.graph_build_us": per_call(
            lambda n: [relay_chain() for _ in range(n)], slice_s, start=4) * 1e6,
        "core.concrete_build_us": per_call(
            lambda n: [ConcreteWorkflow.from_static(graph, 14) for _ in range(n)],
            slice_s, start=4) * 1e6,
        "core.groupby_route_ns": per_call(
            lambda n: [grouping.route(unit, 4, None) for _ in range(n)], slice_s) * 1e9,
        # Seconds to synthesise 1000 articles the cache has not seen.
        "workflows.articles_gen_s": per_call(articles, slice_s, start=1) * 20,
    }


def planner(slice_s: float) -> Dict[str, float]:
    graph = relay_chain()
    provided = normalize_inputs(graph, [(i, "x" * 64) for i in range(64)])
    full, fusion = Planner(), Planner.fusion_only()
    members = full.plan(graph, provided=provided).counters.get("fused_members", 0)
    return {
        "planner.plan_s": per_call(
            lambda n: [full.plan(graph, provided=provided) for _ in range(n)],
            slice_s, start=1),
        "planner.profile_s": per_call(
            lambda n: [profile_graph(graph, provided=provided) for _ in range(n)],
            slice_s, start=1),
        "planner.fusion_only_s": per_call(
            lambda n: [fusion.plan(graph, profile=False) for _ in range(n)],
            slice_s, start=1),
        "planner.fused_members": members,
    }


# ------------------------------------------------------------ runtime.queues
def queues(slice_s: float) -> Dict[str, float]:
    def tracked(n: int) -> None:
        queue = TrackedQueue()
        for _ in range(n):
            queue.put(PAYLOAD)
            queue.get()
            queue.mark_done()

    def batched(n: int) -> None:
        queue = TrackedQueue()
        buffer = BatchingBuffer(queue.put, batch_size=32)
        for _ in range(n):
            buffer.add(PAYLOAD)
        buffer.flush()
        while not queue.empty():
            queue.mark_done(batch_len(queue.get()))

    def close_flush(n: int) -> None:
        # A half-full buffer flushed at end of stream: one envelope.
        for _ in range(n):
            queue = TrackedQueue()
            buffer = BatchingBuffer(queue.put, batch_size=32)
            for _ in range(16):
                buffer.add(PAYLOAD)
            buffer.flush()

    return {
        "runtime.queues.tracked_put_get_us": per_call(tracked, slice_s) * 1e6,
        "runtime.queues.batch_add_flush_us": per_call(batched, slice_s, start=64) * 1e6,
        "runtime.queues.close_flush_us": per_call(close_flush, slice_s, start=4) * 1e6,
    }


# ------------------------------------------------------------------ mappings
def mappings(slice_s: float) -> Dict[str, float]:
    out = {"mappings.marshal_us": per_call(
        lambda n: [marshal(PAYLOAD, copy_payloads=True) for _ in range(n)], slice_s) * 1e6}
    platform = get_platform("laptop")
    for name, processes in (("dyn_auto_multi", 4), ("hybrid_redis", 8), ("cluster_redis", 2)):
        mapping = get_mapping(name)
        deploys, teardowns = [], []
        for _ in range(BATCHES):
            begin = time.perf_counter()
            deployment = mapping.deploy(processes, platform)
            deployed = time.perf_counter()
            deployment.teardown()
            deploys.append(deployed - begin)
            teardowns.append(time.perf_counter() - deployed)
        out[f"mappings.deploy_s.{name}"] = statistics.median(deploys)
        out[f"mappings.teardown_s.{name}"] = statistics.median(teardowns)
    return out


# ------------------------------------------------- redisim, net.client/server
def _command_mix(client: Any, slice_s: float, prefix: str) -> Dict[str, float]:
    """The keyspace commands the Redis mappings issue, through ``client``."""
    keys = iter(range(10_000_000))

    def xadd(n: int) -> None:
        for _ in range(n):
            client.xadd("probe:stream", FIELDS)

    def group_cycle(n: int) -> None:
        # One fetch of up to 10 entries plus one ack per entry, per 10 ops.
        key = f"probe:group:{next(keys)}"
        client.xgroup_create(key, "workers", id="0", mkstream=True)
        for _ in range(n):
            client.xadd(key, FIELDS)
        left = n
        while left > 0:
            reply = client.xreadgroup("workers", "w0", {key: ">"}, count=10)
            entries = reply[0][1]
            for entry_id, _fields in entries:
                client.xack(key, "workers", entry_id)
            left -= len(entries)

    def seq_queue(n: int) -> None:
        key = f"probe:pinned:{next(keys)}"
        for _ in range(n):
            client.rpush_seq(key, PAYLOAD)
            client.blmove_seq(key, key + ":inflight", timeout=1.0)

    def pipeline32(n: int) -> None:
        for _ in range(max(1, n // 32)):
            pipe = client.pipeline()
            for _ in range(32):
                pipe.xadd("probe:piped", FIELDS)
            pipe.execute()

    # group_cycle also pays n XADDs to fill the stream; they are subtracted.
    xadd_s = per_call(xadd, slice_s)
    return {
        f"{prefix}.xadd_us": xadd_s * 1e6,
        f"{prefix}.group_cycle_us": (per_call(group_cycle, slice_s, start=40) - xadd_s) * 1e6,
        f"{prefix}.seq_queue_us": per_call(seq_queue, slice_s) * 1e6,
        f"{prefix}.pipeline32_us": per_call(pipeline32, slice_s, start=64) * 1e6,
    }


def _wake_latencies(make_client: Callable[[], Any], samples: int) -> List[float]:
    """Seconds from ``RPUSH`` to a parked ``BLPOP`` returning, per sample."""
    reader, writer = make_client(), make_client()
    latencies: List[float] = []
    parked = threading.Event()
    woken: List[float] = []

    def park(key: str) -> None:
        parked.set()
        reader.blpop(key, timeout=5.0)
        woken.append(time.perf_counter())

    for index in range(samples):
        key = f"probe:wake:{index}"
        parked.clear()
        thread = threading.Thread(target=park, args=(key,), name="probe-wake")
        thread.start()
        parked.wait()
        time.sleep(0.002)  # let the reader reach the server and park
        pushed = time.perf_counter()
        writer.rpush(key, 1)
        thread.join()
        latencies.append(woken.pop() - pushed)
    return latencies


def redisim(slice_s: float) -> Dict[str, float]:
    server = RedisServer()
    try:
        out = _command_mix(RedisClient(server), slice_s, "redisim")
        wakes = _wake_latencies(lambda: RedisClient(server), _samples(slice_s))
        out["redisim.wake_ms_p50"] = median_ms(wakes)
    finally:
        server.close()
    return out


def _samples(slice_s: float) -> int:
    """Wake samples a slice affords (each costs ~3 ms of parking)."""
    return max(5, min(100, int(slice_s / 0.003)))


def net(slice_s: float) -> Dict[str, float]:
    server = RespTCPServer().start()
    clients: List[SocketRedisClient] = []

    def connect() -> SocketRedisClient:
        clients.append(SocketRedisClient(address=server.address))
        return clients[-1]

    try:
        client = connect()
        mix = _command_mix(client, slice_s, "net.client")
        wakes = _wake_latencies(connect, _samples(slice_s))
        out = {
            # Per-command round trip: the mean of the four-command mix.
            "net.client.cmd_us": statistics.mean(
                mix[f"net.client.{k}_us"] for k in ("xadd", "group_cycle", "seq_queue")),
            "net.client.pipeline32_us": mix["net.client.pipeline32_us"],
            "net.server.wake_ms_p50": median_ms(wakes),
            "net.server.wake_ms_p95": p95_ms(wakes),
            "net.server.mixed_entries_per_s": _mixed(connect, slice_s),
        }
        # A dropped connection: the next command redials and retries.
        client.ping()
        server.drop_connections()
        begin = time.perf_counter()
        client.ping()
        out["net.client.reconnect_ms"] = (time.perf_counter() - begin) * 1e3
    finally:
        for opened in clients:
            opened.close()
        server.close()
    return out


def _mixed(connect: Callable[[], SocketRedisClient], slice_s: float) -> float:
    """Entries per second through a pipelined XADD writer beside a blocking
    group reader on the same stream: writes beside reads."""
    writer, reader = connect(), connect()
    key = "probe:mixed"
    reader.xgroup_create(key, "workers", id="0", mkstream=True)
    total = max(320, int(slice_s * 20_000) // 32 * 32)
    got = 0

    def read() -> None:
        nonlocal got
        while got < total:
            reply = reader.xreadgroup("workers", "w0", {key: ">"}, count=64, block=1000)
            if not reply:
                return  # the writer died; the rate below shows it
            entries = reply[0][1]
            reader.xack(key, "workers", *[entry_id for entry_id, _f in entries])
            got += len(entries)

    thread = threading.Thread(target=read, name="probe-mixed-reader")
    begin = time.perf_counter()
    thread.start()
    for _ in range(total // 32):
        pipe = writer.pipeline()
        for _ in range(32):
            pipe.xadd(key, FIELDS)
        pipe.execute()
    thread.join()
    return got / (time.perf_counter() - begin)


def resp(slice_s: float) -> Dict[str, float]:
    command = ["XADD", "probe:stream", "*", "task", b"p" * 150]
    frame = encode_command(command)
    assert 190 <= len(frame) <= 210, len(frame)  # the 200-byte frame the README names
    burst = frame * 32

    def decode(n: int) -> None:
        decoder = RespDecoder()
        for _ in range(max(1, n // 32)):
            decoder.feed(burst)
            decoder.decode_all()

    def decode_split(n: int) -> None:
        decoder = RespDecoder()
        for _ in range(n):
            for at in range(0, len(frame), 7):
                decoder.feed(frame[at:at + 7])
                value = decoder.decode()
            assert value is not INCOMPLETE

    return {
        "net.resp.encode_us": per_call(
            lambda n: [encode_command(command) for _ in range(n)], slice_s) * 1e6,
        "net.resp.decode_us": per_call(decode, slice_s, start=64) * 1e6,
        "net.resp.decode_split_us": per_call(decode_split, slice_s) * 1e6,
    }


def state(slice_s: float) -> Dict[str, float]:
    server = RedisServer()
    try:
        store = RedisSnapshotStore(RedisClient(server), namespace="probe")
        small = {"table": {f"k{i}": float(i) for i in range(60)}}       # ~1 kB pickled
        large = {"table": {f"k{i}": float(i) for i in range(6000)}}     # ~100 kB pickled
        seq = iter(range(1, 10_000_000))

        def save(state: Dict[str, Any]) -> Callable[[int], None]:
            return lambda n: [store.save("inst", next(seq), state) for _ in range(n)]

        out = {
            "state.snapshot_us.1k": per_call(save(small), slice_s, start=8) * 1e6,
            "state.snapshot_us.100k": per_call(save(large), slice_s, start=2) * 1e6,
        }
        out["state.restore_us.100k"] = per_call(
            lambda n: [store.load("inst") for _ in range(n)], slice_s, start=2) * 1e6
    finally:
        server.close()
    return out


# ------------------------------------------------ scheduler, scheduler.service
def scheduler(slice_s: float) -> Dict[str, float]:
    """In-process ``JobScheduler`` over a prewarmed pool: the service without
    its socket.  Two closed-loop submitters, as in ``serve_closed``."""
    jobs = max(4, int(slice_s * 40))
    ids = list(range(serve.JOB_TUPLES))
    submit_s: List[float] = []
    fallbacks: List[int] = []
    with Engine(mapping="dyn_auto_multi", processes=4, time_scale=0.005,
                seed=ENGINE_SEED) as engine:
        with JobScheduler(engine, max_concurrent=2) as sched:
            sched.prewarm("dyn_auto_multi")

            def submitter() -> None:
                for _ in range(jobs):
                    graph = build_sentiment_scoring_workflow(articles=serve.JOB_TUPLES)[0]
                    begin = time.perf_counter()
                    job = sched.submit(graph, None)
                    submit_s.append(time.perf_counter() - begin)
                    job.send("readArticles", ids)
                    job.close_input()
                    for _pair in job.results():
                        pass
                    fallbacks.append(job.wait().counters.get("deploy_busy_fallback", 0))

            threads = [threading.Thread(target=submitter, name=f"probe-sched-{i}")
                       for i in range(serve.CLIENTS)]
            begin = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - begin
            wait = sched.stats.snapshot()["queue_wait_p50"]
    return {
        "scheduler.submit_us": statistics.median(submit_s) * 1e6,
        "scheduler.queue_wait_ms_p50": wait * 1e3,
        "scheduler.inproc_jobs_per_s": len(fallbacks) / wall,
        "scheduler.deploy_busy_fallback": sum(fallbacks),
    }


def service(slice_s: float, src_dir: str, generator_cpu: Optional[int],
            recorder: SpanRecorder) -> Dict[str, float]:
    """A fresh ``repro serve`` daemon: boot, ping, and a short closed-loop
    window whose per-job client timestamps become spans."""
    daemon = serve.Daemon(src_dir, generator_cpu)
    try:
        client = serve.Client(daemon.host, daemon.port)
        ping_s = per_call(lambda n: [client.request(op="ping") for _ in range(n)],
                          slice_s, start=8)
        ids = list(range(serve.JOB_TUPLES))
        jobs = max(4, int(slice_s * 40))
        window = serve.closed_loop(daemon, [ids] * jobs)
        # Result lines read back from finished jobs: the per-line cost alone.
        line_s = []
        for index in range(3):
            record = serve.run_job(client, serve.JobRecord(0, index), ids, drain_first=True)
            if record.error is None and record.values:
                line_s.append((record.stamps["done"] - record.stamps["results_asked"])
                              / (len(record.values) + 1))
        client.close()
        good = [r for r in window.records if r.error is None]
        if not good or not line_s:
            raise RuntimeError("every probe job against repro serve failed")
        for record in good:
            recorder.chain(
                ["serve.submit_reply", "serve.first_result", "serve.done"],
                [record.stamps[k] for k in ("submit", "submit_reply", "first_result", "done")],
                f"probe.c{record.client}.j{record.index}", root="serve.job")
        return {
            "scheduler.service.boot_s": daemon.boot_s,
            "scheduler.service.ping_us": ping_s * 1e6,
            "scheduler.service.submit_reply_ms": median_ms(
                [r.stamps["submit_reply"] - r.stamps["submit"] for r in good]),
            "scheduler.service.result_line_us": statistics.median(line_s) * 1e6,
            "scheduler.service.jobs_per_s": len(good) / window.wall_s,
            "scheduler.service.first_result_ms_p95": p95_ms(
                [r.first_result_ms / 1e3 for r in good]),
            "scheduler.service.load_gen_lag_ms_p95": p95_ms(
                [r.lag_s for r in window.records]),
        }
    finally:
        daemon.stop()


def run_all(budget_s: float, src_dir: str, generator_cpu: Optional[int],
            recorder: SpanRecorder) -> Dict[str, float]:
    """Every probe; each gets one slice of the budget."""
    slice_s = max(MIN_SLICE_S, budget_s / SLICES)
    out: Dict[str, float] = {}
    for probe in (host, core, planner, queues, mappings, redisim, resp, net, state,
                  scheduler):
        out.update(probe(slice_s))
    out.update(service(slice_s, src_dir, generator_cpu, recorder))
    return out
