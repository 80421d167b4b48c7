"""The auto-scaler: a faithful implementation of the paper's Algorithm 1.

Correspondence with the pseudo-code:

=====================  ====================================================
Algorithm 1            This implementation
=====================  ====================================================
``max_pool_size``      ``pool.size``
``pool``               :class:`repro.runtime.workers.WorkerPool`
``threshold``          owned by the :class:`ScalingStrategy`
``queue``              monitored via the injected ``monitor`` callable
``active_size``        :attr:`Autoscaler.active_size` (starts at ``max/2``)
``active_count``       :attr:`Autoscaler.active_count`
``shrink/grow``        :meth:`shrink` / :meth:`grow` (clamped to [1, max])
``auto_scale``         :meth:`auto_scale` (monitor -> strategy -> ±1)
``start``              :meth:`start` (blocks while count >= size, then
                       ``pool.apply_async(func, args, callback=done)``)
``done``               :meth:`_done` (decrements the count, wakes ``start``)
``is_terminiated``     the injected ``is_terminated`` callable
``process``            :meth:`process` (the central loop)
=====================  ====================================================

Hand-off: ``start`` puts a session on the pool's :class:`queue.SimpleQueue`,
where a parked pool thread takes it in C; ``done`` runs on that thread as
the completion callback, before the session's result settles.

The unit of work submitted by ``process`` is a *worker session*: the session
function drains tasks from the global queue until it finds the queue empty
(or hits its chunk limit) and then returns, handing control back to the
scaler.  Sessions of deactivated capacity simply never start -- that is the
"idle, low-energy standby" state; the per-worker activity meter therefore
accumulates process time only while sessions run, which is exactly how the
paper's *total process time* metric rewards auto-scaling.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from repro.autoscale.strategies import ScalingStrategy
from repro.autoscale.trace import ScalingTrace
from repro.runtime.clock import Clock
from repro.runtime.workers import WorkerPool

#: Lower clamp for ``active_size``: Algorithm 1 shrinks "with a minimum of 1".
MIN_ACTIVE = 1

#: Nominal seconds :meth:`Autoscaler.process` sleeps after *every* session
#: it dispatches, whether or not the backlog is empty: the pacing that keeps
#: an empty-but-unterminated queue from busy-spinning the monitor also paces
#: every dispatch of a full one.  ``ROADMAP.md`` direction 5(b) turns it into
#: the timeout of a wait on the workforce's condition; it stays a plain sleep
#: until the benchmark stops gating ``chain_queue.active_share``, which
#: rewards sleeping.
SCALE_INTERVAL = 0.01


class Autoscaler:
    """Dynamic resource controller for the auto-scaling mappings.

    Parameters
    ----------
    pool:
        Worker pool of ``max_pool_size`` threads.
    strategy:
        Scaling strategy (owns the threshold semantics).
    monitor:
        Zero-argument callable producing the current observation of the
        monitored metric (queue size / average idle time).
    clock:
        Time source; :data:`SCALE_INTERVAL` is expressed in nominal seconds.
    trace:
        Optional :class:`ScalingTrace` to record decisions into.
    """

    def __init__(
        self,
        pool: WorkerPool,
        strategy: ScalingStrategy,
        monitor: Callable[[], float],
        clock: Optional[Clock] = None,
        trace: Optional[ScalingTrace] = None,
    ) -> None:
        self.pool = pool
        self.max_pool_size = pool.size
        self.strategy = strategy
        # getattr: duck-typed strategies only need decide() + metric_name.
        self._wants_active_size = getattr(strategy, "wants_active_size", False)
        self.monitor = monitor
        self.clock = clock if clock is not None else Clock()
        # Algorithm 1 line 6: half the pool starts active.
        self.active_size = max(MIN_ACTIVE, self.max_pool_size // 2)
        self.active_count = 0
        self.trace = trace if trace is not None else ScalingTrace(strategy.metric_name)
        self._cond = threading.Condition()
        self._stopped = False

    # ------------------------------------------------------------- scaling
    # A step that the clamp makes a no-op skips the condition: on a full
    # backlog the scaler votes to grow at ``max_pool_size`` every iteration
    # (in one run each: 5 999 of chain_queue's 6 002 steps, 148 of
    # galaxy_autoscale's 157).
    # Only the scaler thread calls ``grow`` / ``shrink`` (from
    # :meth:`auto_scale`), so it is ``active_size``'s only writer and the
    # unlocked read below is exact; ``start`` reads it under ``_cond``.
    def shrink(self, size_to_shrink: int = 1) -> None:
        """Decrease ``active_size`` (clamped at :data:`MIN_ACTIVE`)."""
        size = self.active_size
        if max(MIN_ACTIVE, size - size_to_shrink) == size:
            return
        with self._cond:
            self.active_size = max(MIN_ACTIVE, self.active_size - size_to_shrink)

    def grow(self, size_to_grow: int = 1) -> None:
        """Increase ``active_size`` (clamped at ``max_pool_size``)."""
        size = self.active_size
        if min(self.max_pool_size, size + size_to_grow) == size:
            return
        with self._cond:
            self.active_size = min(self.max_pool_size, self.active_size + size_to_grow)
            self._cond.notify_all()

    def auto_scale(self) -> int:
        """One monitoring step: observe, decide, apply ±1; returns decision."""
        observation = float(self.monitor())
        if self._wants_active_size:
            decision = self.strategy.decide(observation, self.active_size)
        else:
            decision = self.strategy.decide(observation)
        if decision > 0:
            self.grow(1)
        elif decision < 0:
            self.shrink(1)
        self.trace.record(
            timestamp=self.clock.now(),
            active_size=self.active_size,
            metric=observation,
            decision=decision,
        )
        return decision

    # ----------------------------------------------------------- dispatching
    def start(self, func: Callable[..., Any], args: tuple = ()) -> bool:
        """Dispatch one worker session, honouring the active-size gate.

        Blocks while ``active_count >= active_size`` (Algorithm 1 lines
        31-33).  Returns ``False`` if the scaler was stopped while waiting.
        """
        with self._cond:
            # Untimed: everything that can open the gate notifies -- ``_done``
            # (a slot freed), ``grow`` (the gate widened) and ``stop``.
            while self.active_count >= self.active_size and not self._stopped:
                self._cond.wait()
            if self._stopped:
                return False
            self.active_count += 1
        self.pool.apply_async(func, args, callback=self._done)
        return True

    def _done(self, _result: Any) -> None:
        with self._cond:
            self.active_count -= 1
            self._cond.notify_all()

    def stop(self) -> None:
        """Abort any ``start`` waiting on the gate (used at termination)."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    def wait_all_done(self, timeout: Optional[float] = None) -> bool:
        """Block until no sessions are in flight (``False`` on timeout)."""
        with self._cond:
            return self._cond.wait_for(lambda: self.active_count == 0, timeout)

    # ------------------------------------------------------------- main loop
    def process(
        self,
        session: Callable[[], Any],
        is_terminated: Callable[[], bool],
    ) -> None:
        """Algorithm 1's central loop.

        Repeatedly: run one ``auto_scale`` step; if the workflow is
        terminated, drain in-flight sessions and return; otherwise dispatch
        another worker session through the active-size gate.
        """
        while True:
            self.auto_scale()
            if is_terminated():
                self.stop()
                self.wait_all_done()
                return
            dispatched = self.start(session)
            if not dispatched:
                self.wait_all_done()
                return
            # Paces every dispatch, not only an empty queue's (see
            # :data:`SCALE_INTERVAL`).
            self.clock.sleep(SCALE_INTERVAL)
