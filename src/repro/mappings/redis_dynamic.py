"""The Redis substrate of the dynamic family (``dyn_redis``, Section 3.1.1).

"The multiprocessing queue is replaced with the powerful Redis stream":
identical scheduling structure to :mod:`repro.mappings.dynamic`, but the
global queue is a Redis Stream consumed through a consumer group, tasks are
acknowledged with XACK, and the outstanding counter lives in a Redis
string.  Each worker owns its own client connection; the per-command
latency of the platform profile models the client/server round trip that
makes Redis mappings heavier than their multiprocessing twins
(Section 5.6).

With ``batch_size > 1`` the transport is micro-batched end-to-end: root
seeds and children are published as batch envelopes (one ``XADD`` per
up-to-``batch_size`` tasks, behind one ``INCRBY`` for the whole pipeline),
and workers settle each fetched envelope all-or-nothing with a conditional
``XACKDECR ... amount=len(envelope)`` -- cutting the per-tuple command count (the
round-trip handicap above) by the batch factor while keeping the
outstanding-counter drain proof exact at batch granularity.  A poll still
fetches one *entry*: an entry already carries up to ``batch_size`` tuples,
and pulling several envelopes at once would hand one worker a quadratic
slice of the backlog and collapse load balancing exactly when work is
scarce.  Only a saturated worker's read-ahead asks for more, and it sizes
that window from its own timings so that it never holds more than about
ten round trips' worth of work (:func:`repro.mappings.redis_tasks.window_size`).
"""

from __future__ import annotations

import threading
from typing import Set

from repro.autoscale.strategies import IdleTimeStrategy, ScalingStrategy
from repro.mappings.base import EnactmentState
from repro.mappings.dynamic import DynamicMapping, Workforce
from repro.mappings.redis_tasks import RedisTaskBoard, StreamWorker, reclaim_threshold_ms
from repro.mappings.registry import register_mapping
from repro.mappings.termination import TerminationPolicy
from repro.redisim.client import RedisClient
from repro.redisim.server import RedisServer


class RedisWorkforce(Workforce):
    """The Redis substrate: a task stream consumed through a consumer group.

    Owns the run's board; the worker body itself is
    :class:`~repro.mappings.redis_tasks.StreamWorker`, driven here under
    the dedicated (:meth:`worker_loop`) and session
    (:meth:`drain_session`) stop policies.  A worker's consumer name is
    derived from its worker key.
    """

    requires_redis = True
    recoverable = True
    dedicated_prefix = "dynredis"
    autoscaled_prefix = "autoredis"

    def __init__(self, state: EnactmentState, policy: TerminationPolicy) -> None:
        super().__init__(state, policy)
        self.server: RedisServer = state.options.get("redis_server") or RedisServer()
        #: How long a pending entry must sit unacknowledged before a starved
        #: peer adopts it (XAUTOCLAIM); see :func:`reclaim_threshold_ms`.
        self.reclaim_idle_ms: float = reclaim_threshold_ms(state.options, state.clock)
        self.board = RedisTaskBoard(
            self.client_for_worker(), namespace=f"repro:{state.graph.name}"
        )
        self.board.setup()
        #: Consumers currently inside a session: whose idle time is load.
        self._active_consumers: Set[str] = set()
        self._active_lock = threading.Lock()

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

    @staticmethod
    def consumer_name(worker_key: str) -> str:
        return f"consumer-{worker_key}"

    def worker(self, worker_key: str) -> StreamWorker:
        """The stream-worker body of one thread, on its own connection."""
        return StreamWorker(
            self.board,
            self.client_for_worker(),
            self.consumer_name(worker_key),
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

    def _put_pills(self, count: int) -> None:
        self.board.put_pills(count)

    def load(self, strategy: ScalingStrategy) -> float:
        """Average idle time (ms) of the consumers in active sessions."""
        with self._active_lock:
            consumers = set(self._active_consumers)
        if not consumers:
            # No active sessions: report the threshold itself so the
            # strategy holds rather than oscillating on no signal.
            return getattr(strategy, "threshold_ms", 0.0)
        return self.board.avg_idle_ms(consumers)

    def default_strategy(self) -> ScalingStrategy:
        """Idle-time scaling at 4x the scaled poll interval, per envelope.

        The idle threshold is per-*interaction*, and with batched
        transport a consumer legitimately goes ``batch_size`` tuples
        between server interactions -- a saturated worker chewing an
        envelope looks exactly as "idle" to XINFO as a starved one.  The
        threshold therefore scales with the envelope size, so the strategy
        keeps measuring starvation, not batch service time.
        """
        poll_ms = self.state.clock.to_real(self.policy.poll_interval) * 1000.0
        return IdleTimeStrategy(threshold_ms=4.0 * poll_ms * self.batch_size)

    def worker_loop(self, worker_key: str, total_workers: int) -> None:
        """Dedicated-worker loop: run until termination."""
        self.worker(worker_key).run_dedicated(
            lambda: self.broadcast_pills(total_workers)
        )

    def drain_session(self, worker_key: str, chunk: int) -> int:
        """Auto-scaled session: up to ``chunk`` tasks, stop on empty."""
        # Active from before its first server interaction (the graph copy
        # of a first session takes a while): a consumer the group has not
        # seen yet reads as idle time 0, i.e. demand, and the scaler ramps.
        consumer = self.consumer_name(worker_key)
        with self._active_lock:
            self._active_consumers.add(consumer)
        try:
            return self.worker(worker_key).run_session(chunk)
        finally:
            with self._active_lock:
                self._active_consumers.discard(consumer)

    def teardown(self) -> None:
        self.board.teardown()


@register_mapping()
class DynRedisMapping(DynamicMapping):
    """Dynamic scheduling on a Redis Stream consumer group"""

    name = "dyn_redis"
    workforce = RedisWorkforce


@register_mapping()
class DynAutoRedisMapping(DynamicMapping):
    """Redis dynamic scheduling + idle-time auto-scaling"""

    name = "dyn_auto_redis"
    workforce = RedisWorkforce
    scaling = True
