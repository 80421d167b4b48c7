"""Distributed Redis mapping (``cluster_redis``): worker OS processes over TCP.

The networked end-state of the Redis mapping family: the same dynamic
consumer-group scheduling as :mod:`dyn_redis <repro.mappings.redis_dynamic>`,
but workers are separate **operating-system processes** that join the
deployment by ``host:port`` and speak RESP to a
:class:`~repro.net.server.RespTCPServer` (or genuine Redis) -- nothing in a
worker shares memory with the coordinator.  This is the configuration the
paper's architecture actually describes: dispel4py workers connecting to a
Redis deployment over the network.

How a run is assembled:

- The **coordinator** (:meth:`ClusterRedisMapping._enact`) resolves a server
  address -- an explicit ``address`` option (external ``repro serve-redis``
  daemon), the warm deployment's TCP front-end, or a self-provisioned
  loopback server -- seeds the task board, and publishes a pickled *jobspec*
  (graph, platform, clock scale, seed, transport and termination tuning)
  under ``{ns}:jobspec``.
- Each **worker process** dials the address, fetches the jobspec, rebuilds
  the run context (same ``Clock``/``ExecutionContext``/seed derivation as
  every other mapping, so RNG streams -- and therefore outputs -- are
  identical to ``dyn_redis``), and runs the same
  :class:`~repro.mappings.redis_tasks.StreamWorker` body under the same
  dedicated driver as a ``dyn_redis`` thread -- only its client dials a
  socket.  Results relay back **in band**: the collected outputs of a
  window of entries ride its one settle pipeline as one ``RPUSH
  {ns}:results v1 v2 ...`` ahead of the window's ack (no round trip of
  their own, one pump wake per window, and nothing acked is ever
  unrelayed).  The coordinator's pump pops the list into its collector,
  taking whatever queued with one ``LPOP key count`` per wake-up, and ends
  on the stop sentinel the coordinator pushes once every worker is joined
  -- every worker push precedes it in list order, so nothing waits out a
  blocking-pop timeout.  Counters accumulate locally and flush once at
  exit.
- **Recovery** is inherited wholesale: a worker SIGKILLed mid-run leaves
  its fetched-but-unacked entries in the group PEL, and starved survivors
  adopt them via ``XAUTOCLAIM`` exactly as in-process workers do -- now
  across a real socket and a real process boundary.  The ``crash_workers``
  / ``crash_after`` options inject that failure deterministically for
  tests.

Because workers can start from a bare interpreter (``spawn``) or join from
another machine entirely (``repro join ADDRESS NAMESPACE``), everything a
worker needs travels through the keyspace; the only out-of-band inputs are
the address, the namespace, and a worker index.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
import uuid
from typing import Any, Dict, List, Optional

from repro.autoscale.trace import ScalingTrace
from repro.core.concrete import ConcreteWorkflow, Delivery
from repro.core.context import ExecutionContext
from repro.core.pe import GenericPE
from repro.mappings.base import EnactmentState, Mapping, graph_copy, resolve_batch_size
from repro.mappings.redis_tasks import RedisTaskBoard, StreamWorker, reclaim_threshold_ms
from repro.mappings.registry import Capabilities, register_mapping
from repro.mappings.termination import TerminationPolicy
from repro.net.client import SocketRedisClient
from repro.net.server import RespTCPServer
from repro.redisim.client import Pipeline
from repro.runtime.clock import Clock

#: How long a worker waits for the jobspec before giving up (real seconds).
JOBSPEC_TIMEOUT = 30.0

#: Longest single ``BLPOP`` of the results pump (real seconds).  An idle
#: pump just parks again: it ends on :data:`_PUMP_STOP`, never on a timeout,
#: so this value is not part of any run's wall time.
PUMP_BLOCK = 0.2

#: Most results the pump takes in the one ``LPOP`` behind a wake-up.
PUMP_DRAIN = 512

#: Stop sentinel of the results list (a relayed result is always a triple).
_PUMP_STOP = None


def _dumps(value: Any) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _graph_pes(graph) -> List[GenericPE]:
    """Every PE object a graph transports, including fused members."""
    pes: List[GenericPE] = []
    for pe in graph.pes.values():
        pes.append(pe)
        pes.extend(getattr(pe, "members", ()))
    return pes


def _dumps_jobspec(jobspec: Dict[str, Any]) -> bytes:
    """Pickle the jobspec with run-context handles stripped from the PEs.

    Abstract PEs carry a default :class:`ExecutionContext` whose clock
    holds thread-locals -- meaningless across a process boundary and not
    picklable.  Workers rebuild the real context from the jobspec and
    ``graph_copy`` re-binds ``ctx``/``rng`` on every copy (fused members
    get theirs in ``FusedPE.preprocess``), so ``None`` placeholders are
    never observed.  The originals are restored afterwards: the coordinator
    shares these PE objects with the caller.
    """
    saved = [(pe, pe.ctx, pe.rng) for pe in _graph_pes(jobspec["graph"])]
    try:
        for pe, _, _ in saved:
            pe.ctx = None
            pe.rng = None
        return _dumps(jobspec)
    finally:
        for pe, ctx, rng in saved:
            pe.ctx = ctx
            pe.rng = rng


class _RelayCollector:
    """Worker-side stand-in for :class:`ResultsCollector`.

    Collected emissions cannot land in the coordinator's memory directly --
    there is a process boundary in the way -- so they are buffered while a
    window of entries runs and :meth:`flush` appends them to the window's
    settle pipeline as one ``RPUSH`` onto the run's results list, which the
    coordinator's pump drains into the real collector.  The worker
    assembles that pipeline after the window ran, so the first entry's
    flush takes everything and the later ones find the buffer empty: one
    ``RPUSH`` and one pump wake per window, ahead of its ack.  The
    client pickles each ``(pe, port, value)`` triple like any other list
    payload.
    """

    def __init__(self, results_key: str) -> None:
        self._key = results_key
        self._buffer: List[tuple] = []

    def add(self, pe_name: str, port: str, value: Any) -> None:
        self._buffer.append((pe_name, port, value))

    def flush(self, pipe: Pipeline) -> None:
        if self._buffer:
            results, self._buffer = self._buffer, []
            pipe.rpush(self._key, *results)


class _ClusterWorker:
    """One worker process's run state, rebuilt from the jobspec."""

    def __init__(
        self, client: SocketRedisClient, namespace: str, index: int, spec: Dict[str, Any]
    ) -> None:
        self.client = client
        self.namespace = namespace
        platform = spec["platform"]
        clock = Clock(spec["time_scale"])
        # Identical context derivation to every in-process mapping: same
        # seed, same per-instance RNG streams, same core emulation -- the
        # reason cluster outputs are byte-identical to dyn_redis.
        ctx = ExecutionContext(
            clock=clock,
            cores=platform.make_core_limiter(),
            seed=spec["seed"],
            cpu_speed=platform.cpu_speed,
        )
        self.total_workers: int = spec["total_workers"]
        self.crash_after: Optional[int] = (
            spec["crash_after"] if index in spec["crash_workers"] else None
        )
        graph = spec["graph"]
        copies = graph_copy(graph.pes, ctx)
        self.counters: Dict[str, int] = {"graph_copies": 1}
        self._fetched_entries = 0
        self.board = RedisTaskBoard(client, namespace=namespace)
        self.relay = _RelayCollector(f"{namespace}:results")
        self.worker = StreamWorker(
            self.board,
            client,
            f"cluster-{index}",
            copies,
            ConcreteWorkflow.single_instance(graph),
            self.relay,
            self._inc,
            policy=spec["policy"],
            clock=clock,
            reclaim_idle_ms=spec["reclaim_idle_ms"],
            batch_size=spec["batch_size"],
            publish=self._publish,
            after_fetch=self._maybe_crash,
        )

    def _inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _publish(self, pipe: Pipeline, deliveries: List[Delivery]) -> None:
        """An entry's children and what the window relays, both ahead of the ack."""
        self.worker.publish_tasks(pipe, deliveries)
        self.relay.flush(pipe)

    def flush_counters(self) -> None:
        """One pipelined HINCRBY burst merging local counters into the run's."""
        self._inc("net_retries", self.client.retries)
        counters, self.counters = self.counters, {}
        pipe = self.client.pipeline()
        key = f"{self.namespace}:counters"
        for name, amount in counters.items():
            pipe.hincrby(key, name, amount)
        pipe.execute()

    def _maybe_crash(self, new_entries: int) -> None:
        """Deterministic failure injection for the recovery tests.

        Dies *after* fetching (entries are in this consumer's PEL) but
        *before* processing or acking -- the exact window XAUTOCLAIM
        recovery exists for.  SIGKILL, not an exception: nothing may run
        cleanup, or the entries would be handed back gracefully and the
        adoption path would go untested.
        """
        self._fetched_entries += new_entries
        if self.crash_after is not None and self._fetched_entries > self.crash_after:
            os.kill(os.getpid(), signal.SIGKILL)

    def broadcast_pills(self) -> None:
        # Cross-process once-guard: a threading.Event cannot coordinate
        # separate OS processes, but INCR can -- only the first worker to
        # bump the counter broadcasts.
        if self.client.incr(f"{self.namespace}:pills_sent") == 1:
            self.board.put_pills(self.total_workers)
            self._inc("pills", self.total_workers)

    def run(self) -> None:
        """Consume the stream to termination (the dedicated driver)."""
        self.worker.run_dedicated(self.broadcast_pills)


def run_worker(address: str, namespace: str, index: int) -> None:
    """Join a cluster run as one worker process (also the ``repro join`` entry).

    Dials ``address``, reads ``{namespace}:jobspec`` -- a worker that is
    there before the coordinator parks on ``{namespace}:ready``, where the
    coordinator leaves one token per worker once the jobspec is published --
    rebuilds the run context and consumes the task stream to termination.
    Module-level by necessity: the ``spawn`` start method imports this
    module in a fresh interpreter and looks the target up by qualified name.
    """
    client = SocketRedisClient(address=address)
    try:
        deadline = time.monotonic() + JOBSPEC_TIMEOUT
        while (raw := client.get(f"{namespace}:jobspec")) is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or client.blpop(f"{namespace}:ready", remaining) is None:
                raise TimeoutError(
                    f"no jobspec appeared under {namespace!r} at {address} "
                    f"within {JOBSPEC_TIMEOUT}s"
                )
        spec = pickle.loads(raw)
        worker = _ClusterWorker(client, namespace, index, spec)
        try:
            worker.run()
        finally:
            worker.flush_counters()
    except BaseException as exc:  # noqa: BLE001 - process boundary
        try:
            client.rpush(f"{namespace}:errors", (index, repr(exc)))
        finally:
            client.close()
        raise
    client.close()


@register_mapping(
    Capabilities(
        stateful=False,
        dynamic=True,
        requires_redis=True,
        recoverable=True,
        batching=True,
        networked=True,
        description="Distributed worker processes over RESP/TCP",
    )
)
class ClusterRedisMapping(Mapping):
    """Distributed dynamic scheduling: worker processes joining over TCP."""

    name = "cluster_redis"

    def _enact(self, state: EnactmentState) -> Optional[ScalingTrace]:
        options = state.options
        policy = options.get("termination", TerminationPolicy())
        batch_size = resolve_batch_size(options)
        own_server: Optional[RespTCPServer] = None
        address = options.get("address")
        if address is None:
            net_server = options.get("net_server")
            if net_server is not None:
                address = net_server.address
            else:
                # Cold run (Engine.run / bare execute): self-provision a
                # loopback server.  It fronts the deployment's keyspace if
                # one was provided, else owns a private one.
                own_server = RespTCPServer(options.get("redis_server")).start()
                address = own_server.address
        namespace = options.get(
            "namespace", f"repro:{state.graph.name}:{uuid.uuid4().hex[:8]}"
        )
        client = SocketRedisClient(address=address)
        board = RedisTaskBoard(client, namespace=namespace)
        board.setup()
        results_key = f"{namespace}:results"
        errors_key = f"{namespace}:errors"
        ready_key = f"{namespace}:ready"
        run_keys = (
            f"{namespace}:jobspec", ready_key, results_key, errors_key,
            f"{namespace}:pills_sent", f"{namespace}:counters",
        )
        client.delete(*run_keys)

        # Seed roots before publishing the jobspec: a worker that joins
        # early must find either no jobspec or a fully seeded board, never
        # a board it could drain to "terminated" mid-seed.
        state.counters.inc("seed_tasks", board.seed_roots(state.provided, batch_size))

        crash_workers = options.get("crash_workers", ())
        jobspec = {
            "graph": state.graph,
            "platform": state.platform,
            "time_scale": state.clock.time_scale,
            "seed": state.ctx.seed,
            "policy": policy,
            "batch_size": batch_size,
            "reclaim_idle_ms": reclaim_threshold_ms(options, state.clock),
            "total_workers": state.processes,
            "crash_after": options.get("crash_after"),
            "crash_workers": tuple(crash_workers),
        }
        client.set(f"{namespace}:jobspec", _dumps_jobspec(jobspec))
        # Wake whoever joined before the jobspec existed (``repro join``).
        client.rpush(ready_key, *range(state.processes))

        # Results pump: pops the relay list into the local collector until
        # it meets the stop sentinel.  Once awake it takes whatever else
        # queued with one atomic ``LPOP key count``, so a backlog costs a
        # round trip per PUMP_DRAIN results, not per result.
        def pump() -> None:
            pump_client = SocketRedisClient(address=address)
            try:
                while True:
                    hit = pump_client.blpop(results_key, timeout=PUMP_BLOCK)
                    if hit is None:
                        continue
                    for result in [hit[1], *(pump_client.lpop(results_key, PUMP_DRAIN) or ())]:
                        if result is _PUMP_STOP:
                            return
                        state.collector.add(*result)
            finally:
                pump_client.close()

        pump_thread = threading.Thread(target=pump, name="cluster-pump", daemon=True)
        pump_thread.start()

        mp = multiprocessing.get_context(options.get("start_method", "spawn"))
        workers = [
            mp.Process(
                target=run_worker,
                args=(address, namespace, index),
                name=f"cluster-{index}",
                daemon=True,
            )
            for index in range(state.processes)
        ]
        for index in range(len(workers)):
            state.meter.activate(f"cluster-{index}")
        exit_errors: Dict[int, RuntimeError] = {}
        try:
            for proc in workers:
                proc.start()
            timeout = options.get("join_timeout", 300.0)
            deadline = time.monotonic() + timeout
            for index, proc in enumerate(workers):
                proc.join(timeout=max(0.1, deadline - time.monotonic()))
                if proc.is_alive():
                    state.record_error(
                        TimeoutError(
                            f"worker {proc.name} did not finish in {timeout}s"
                        )
                    )
                    proc.terminate()
                    proc.join(timeout=5.0)
                elif proc.exitcode == -signal.SIGKILL and index in crash_workers:
                    # The injected crash: expected, recovery covers it.
                    state.counters.inc("crashed_workers")
                elif proc.exitcode != 0:
                    exit_errors[index] = RuntimeError(
                        f"worker {proc.name} exited with code {proc.exitcode}"
                    )
        finally:
            for index in range(len(workers)):
                state.meter.deactivate(f"cluster-{index}")
            # Every worker is dead, so all their pushes are in the list:
            # the sentinel lands behind the last result.
            client.rpush(results_key, _PUMP_STOP)
            pump_thread.join(timeout=10.0)
        # What a worker relayed before dying (the PE's own exception) is the
        # diagnosis and goes first; the exit code is only its symptom, kept
        # for workers that died without a word.
        for index, message in client.lrange(errors_key, 0, -1):
            exit_errors.pop(index, None)
            state.record_error(RuntimeError(f"worker {index}: {message}"))
        for error in exit_errors.values():
            state.record_error(error)
        if not state.errors and not board.is_drained():
            state.record_error(
                RuntimeError(
                    f"run ended with {board.outstanding()} task(s) outstanding"
                )
            )
        for name, value in client.hgetall(f"{namespace}:counters").items():
            state.counters.inc(name, int(value))
        board.teardown()
        client.delete(*run_keys)
        client.close()
        if own_server is not None:
            own_server.close()
        return None
