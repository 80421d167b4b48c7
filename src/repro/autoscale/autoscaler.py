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
``auto_scale``         a :meth:`process` step's first half (monitor ->
                       strategy -> ±1, traced)
``start``              a :meth:`process` step's second half (blocks while
                       count >= size, then ``pool.apply_async``)
``done``               :meth:`_done` (decrements the count, wakes waiters)
``is_terminiated``     the injected ``is_terminated`` callable
``process``            :meth:`process` (the central loop, a frame a step)
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
        #: The gate.  ``_waiting`` counts the threads parked in it, under the
        #: lock, so a notifier that reads 0 skips the notify and loses nothing.
        self._lock = threading.Lock()
        self._gate = threading.Condition(self._lock)
        self._waiting = 0
        self._stopped = False

    # ------------------------------------------------------------- scaling
    # In a run the scaler thread is ``active_size``'s only writer: its
    # unlocked reads are exact.
    def shrink(self, size_to_shrink: int = 1) -> None:
        """Decrease ``active_size`` (clamped at :data:`MIN_ACTIVE`)."""
        with self._lock:
            self.active_size = max(MIN_ACTIVE, self.active_size - size_to_shrink)

    def grow(self, size_to_grow: int = 1) -> None:
        """Increase ``active_size`` (clamped at ``max_pool_size``)."""
        with self._lock:
            self.active_size = min(self.max_pool_size, self.active_size + size_to_grow)
            if self._waiting:
                self._gate.notify_all()

    # ----------------------------------------------------------- dispatching
    def _done(self, _result: Any) -> None:
        with self._lock:
            self.active_count -= 1
            if self._waiting:
                self._gate.notify_all()

    def stop(self) -> None:
        """Abort a :meth:`process` step waiting on the gate (termination)."""
        with self._lock:
            self._stopped = True
            self._gate.notify_all()

    def wait_all_done(self, timeout: Optional[float] = None) -> bool:
        """Block until no sessions are in flight (``False`` on timeout)."""
        with self._lock:
            self._waiting += 1
            drained = self._gate.wait_for(lambda: self.active_count == 0, timeout)
            self._waiting -= 1
            return drained

    # ------------------------------------------------------------- main loop
    def process(
        self,
        session: Callable[[], Any],
        is_terminated: Callable[[], bool],
    ) -> None:
        """Algorithm 1's central loop, one step per iteration.

        A step is ``auto_scale`` (observe, decide, apply ±1 through
        :meth:`grow` / :meth:`shrink`, record) and, unless the workflow is
        terminated, ``start``: wait at the gate while ``active_count >=
        active_size`` (Algorithm 1 lines 31-33), dispatch a session and
        sleep :data:`SCALE_INTERVAL`.  Termination, or :meth:`stop` while
        the step waits, drains the in-flight sessions and returns.  Every
        session waits on this one thread, so a step runs in this frame; a
        vote the clamp makes a no-op takes no lock (on a full backlog the
        scaler votes to grow at ``max_pool_size`` every step: 5 999 of
        chain_queue's 6 002).
        """
        monitor, decide = self.monitor, self.strategy.decide
        wants_active_size = self._wants_active_size
        record, now, sleep = self.trace.record, self.clock.now, self.clock.sleep
        submit, done = self.pool.apply_async, self._done
        lock, gate, max_size = self._lock, self._gate, self.max_pool_size
        while True:
            observation = float(monitor())
            size = self.active_size
            decision = decide(observation, size) if wants_active_size else decide(observation)
            if decision > 0 and size < max_size:
                self.grow(1)
            elif decision < 0 and size > MIN_ACTIVE:
                self.shrink(1)
            record(now(), self.active_size, observation, decision)
            if is_terminated():
                self.stop()
                break
            with lock:
                # Untimed: everything that can open the gate notifies a
                # waiter -- ``_done`` (a slot freed), ``grow``, ``stop``.
                while self.active_count >= self.active_size and not self._stopped:
                    self._waiting += 1
                    gate.wait()
                    self._waiting -= 1
                if self._stopped:
                    break
                self.active_count += 1
            submit(session, (), done)
            sleep(SCALE_INTERVAL)
        self.wait_all_done()
