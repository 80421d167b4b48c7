"""Dynamic Redis mapping (``dyn_redis``, Section 3.1.1).

"The multiprocessing queue is replaced with the powerful Redis stream":
identical scheduling structure to :mod:`repro.mappings.dynamic`, but the
global queue is a Redis Stream consumed through a consumer group, tasks are
acknowledged with XACK, and the outstanding counter lives in a Redis
string.  Each worker owns its own client connection; the per-command
latency of the platform profile models the client/server round trip that
makes Redis mappings heavier than their multiprocessing twins
(Section 5.6).

With ``batch_size > 1`` the transport is micro-batched end-to-end: root
seeds and children are published as batch envelopes (one ``XADD`` + one
``INCRBY`` per up-to-``batch_size`` tasks), and workers settle each
fetched envelope with a single conditional ``XACKDECR
amount=len(envelope)`` -- cutting the per-tuple command count (the
round-trip handicap above) by the batch factor while keeping the
outstanding-counter drain proof exact at batch granularity.  Fetches stay
one *entry* per poll: an entry already carries up to ``batch_size``
tuples, and pulling several envelopes at once would hand one worker a
quadratic slice of the backlog and collapse load balancing exactly when
work is scarce.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.autoscale.trace import ScalingTrace
from repro.core.concrete import ConcreteWorkflow
from repro.core.pe import GenericPE
from repro.mappings.base import EnactmentState, Mapping, instantiate, resolve_batch_size
from repro.mappings.redis_tasks import RedisTaskBoard, StreamWorker, reclaim_threshold_ms
from repro.mappings.registry import Capabilities, register_mapping
from repro.mappings.termination import TerminationPolicy
from repro.redisim.client import RedisClient
from repro.redisim.server import RedisServer


class RedisWorkforce:
    """Shared mechanics of the in-process Redis dynamic mappings.

    Owns the run's board, the per-worker graph copies and the once-only
    pill broadcast; the worker body itself is
    :class:`~repro.mappings.redis_tasks.StreamWorker`, driven here under
    the dedicated (:meth:`worker_loop`) and session
    (:meth:`drain_session`) stop policies.
    """

    def __init__(self, state: EnactmentState, policy: TerminationPolicy) -> None:
        self.state = state
        self.policy = policy
        self.server: RedisServer = state.options.get("redis_server") or RedisServer()
        #: Transport granularity: tasks per stream entry / entries per poll.
        self.batch_size: int = resolve_batch_size(state.options)
        #: How long a pending entry must sit unacknowledged before a starved
        #: peer adopts it (XAUTOCLAIM); see :func:`reclaim_threshold_ms`.
        self.reclaim_idle_ms: float = reclaim_threshold_ms(state.options, state.clock)
        self.board = RedisTaskBoard(
            self.client_for_worker(), namespace=f"repro:{state.graph.name}"
        )
        self.board.setup()
        self.concrete = ConcreteWorkflow.single_instance(state.graph)
        self._copies: Dict[str, Dict[str, GenericPE]] = {}
        self._copies_lock = threading.Lock()
        self._pills_sent = threading.Event()

    def client_for_worker(self) -> RedisClient:
        return RedisClient(
            self.server,
            op_latency=self.state.platform.redis_latency,
            clock=self.state.clock,
        )

    def seed_roots(self) -> None:
        self.state.counters.inc(
            "seed_tasks", self.board.seed_roots(self.state.provided, self.batch_size)
        )

    def graph_copy(self, worker_key: str) -> Dict[str, GenericPE]:
        with self._copies_lock:
            copies = self._copies.get(worker_key)
        if copies is None:
            copies = {
                name: instantiate(pe, 0, 1, self.state.ctx)
                for name, pe in self.state.graph.pes.items()
            }
            for pe in copies.values():
                pe.preprocess()
            with self._copies_lock:
                self._copies[worker_key] = copies
            self.state.counters.inc("graph_copies")
        return copies

    def worker(self, worker_key: str, consumer: str) -> StreamWorker:
        """The stream-worker body of one thread, on its own connection."""
        return StreamWorker(
            self.board,
            self.client_for_worker(),
            consumer,
            self.graph_copy(worker_key),
            self.concrete,
            self.state.collector,
            self.state.counters.inc,
            policy=self.policy,
            clock=self.state.clock,
            reclaim_idle_ms=self.reclaim_idle_ms,
            batch_size=self.batch_size,
        )

    def is_terminated(self) -> bool:
        return self.board.is_terminated(self.policy)

    def broadcast_pills(self, count: int) -> None:
        if not self._pills_sent.is_set():
            self._pills_sent.set()
            self.board.put_pills(count)
            self.state.counters.inc("pills", count)

    def worker_loop(self, worker_key: str, consumer: str, total_workers: int) -> None:
        """Dedicated-worker loop (dyn_redis): run until termination."""
        self.worker(worker_key, consumer).run_dedicated(
            lambda: self.broadcast_pills(total_workers)
        )

    def drain_session(self, worker_key: str, consumer: str, chunk: int) -> int:
        """Auto-scaled session (dyn_auto_redis): up to ``chunk`` tasks, stop on empty."""
        return self.worker(worker_key, consumer).run_session(chunk)

    def teardown(self) -> None:
        self.board.teardown()


@register_mapping(
    Capabilities(
        stateful=False,
        dynamic=True,
        requires_redis=True,
        recoverable=True,
        batching=True,
        fusion=True,
        description="Dynamic scheduling on a Redis Stream consumer group",
    )
)
class DynRedisMapping(Mapping):
    """Dynamic scheduling over a Redis Stream consumer group (``dyn_redis``)."""

    name = "dyn_redis"
    supports_stateful = False
    requires_redis = True

    def _enact(self, state: EnactmentState) -> Optional[ScalingTrace]:
        policy = state.options.get("termination", TerminationPolicy())
        workforce = RedisWorkforce(state, policy)
        workforce.seed_roots()

        def run_worker(index: int) -> None:
            worker_id = f"dynredis-{index}"
            try:
                workforce.worker_loop(worker_id, f"consumer-{index}", state.processes)
            except BaseException as exc:  # noqa: BLE001 - worker boundary
                state.record_error(exc)
                workforce.broadcast_pills(state.processes)
            finally:
                state.meter.deactivate(worker_id)

        threads = [
            threading.Thread(
                target=run_worker, args=(i,), name=f"dynredis-{i}", daemon=True
            )
            for i in range(state.processes)
        ]
        # Active from launch initiation (see dynamic.py for the rationale).
        for index in range(len(threads)):
            state.meter.activate(f"dynredis-{index}")
        for thread in threads:
            thread.start()
        timeout = state.options.get("join_timeout", 300.0)
        for thread in threads:
            thread.join(timeout=timeout)
            if thread.is_alive():
                state.record_error(
                    TimeoutError(f"worker {thread.name} did not finish in {timeout}s")
                )
                break
        workforce.teardown()
        return None
