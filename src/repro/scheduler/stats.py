"""Lifecycle metrics of a :class:`~repro.scheduler.JobScheduler`.

:class:`SchedulerStats` is the scheduler's observability surface: lifecycle
counters (submitted / admitted / completed / failed / cancelled),
queue and concurrency gauges, the admission order (for fairness audits),
and two latency distributions -- queue wait (submit -> admission) and
submit -> first result, the metric the paper's service scenario cares
about.  All methods are thread-safe; :meth:`snapshot` returns a plain dict
suitable for the ``repro serve`` wire protocol.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Dict, List, Optional


def percentile(samples: List[float], p: float) -> Optional[float]:
    """The ``p``-th percentile (0-100) of ``samples`` by nearest-rank.

    Returns ``None`` on an empty sample set.  Nearest-rank keeps the value
    an actual observation (p99 of 8 samples is the worst one), which reads
    better on small benchmark populations than interpolation.
    """
    if not samples:
        return None
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class SchedulerStats:
    """Thread-safe lifecycle metrics, owned by one scheduler instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.queued = 0
        self.running = 0
        self.peak_running = 0
        #: Tenant of each admission, in admission order (fairness audits).
        self.admissions: List[str] = []
        self._queue_waits: List[float] = []
        self._first_result_latencies: List[float] = []
        self._first_admission_at: Optional[float] = None
        self._last_completion_at: Optional[float] = None

    # ------------------------------------------------------------ recording
    def note_submitted(self) -> None:
        """One job entered the admission queue."""
        with self._lock:
            self.submitted += 1
            self.queued += 1

    def note_dequeued(self) -> None:
        """One queued job left the queue without admission (cancel/close)."""
        with self._lock:
            self.queued = max(0, self.queued - 1)

    def note_admitted(self, tenant: str, queue_wait: float) -> None:
        """One job was admitted after ``queue_wait`` seconds in the queue."""
        with self._lock:
            self.admitted += 1
            self.queued = max(0, self.queued - 1)
            self.running += 1
            self.peak_running = max(self.peak_running, self.running)
            self.admissions.append(tenant)
            self._queue_waits.append(queue_wait)
            if self._first_admission_at is None:
                self._first_admission_at = time.monotonic()

    def note_first_result(self, latency: float) -> None:
        """One job produced its first result ``latency`` s after submit."""
        with self._lock:
            self._first_result_latencies.append(latency)

    def note_slot_released(self) -> None:
        """One admitted job released its concurrency slot (enactment over).

        Kept separate from :meth:`note_terminal`: only a job that was
        admitted holds a slot (one cancelled in the queue does not), and
        the scheduler reports the release before it frees the slot for
        the next admission, which keeps ``peak_running <= max_concurrent``
        exact.
        """
        with self._lock:
            self.running = max(0, self.running - 1)

    def note_terminal(self, outcome: str) -> None:
        """One job reached a terminal state (``done``/``failed``/``cancelled``)."""
        with self._lock:
            if outcome == "done":
                self.completed += 1
                self._last_completion_at = time.monotonic()
            elif outcome == "failed":
                self.failed += 1
            else:
                self.cancelled += 1

    # ----------------------------------------------------------- derivation
    def jobs_per_second(self) -> Optional[float]:
        """Sustained completion throughput: completions over the busy window.

        Measured from the first admission to the latest completion, so idle
        time before the burst does not dilute the rate.  ``None`` until a
        job has completed (or when the window is immeasurably short).
        """
        with self._lock:
            if (
                self.completed == 0
                or self._first_admission_at is None
                or self._last_completion_at is None
            ):
                return None
            window = self._last_completion_at - self._first_admission_at
            if window <= 0:
                return None
            return self.completed / window

    def queue_wait_percentile(self, p: float) -> Optional[float]:
        """The ``p``-th percentile of submit -> admission waits (seconds)."""
        with self._lock:
            return percentile(self._queue_waits, p)

    def first_result_percentile(self, p: float) -> Optional[float]:
        """The ``p``-th percentile of submit -> first-result latency (seconds)."""
        with self._lock:
            return percentile(self._first_result_latencies, p)

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict view of every counter, gauge and percentile."""
        with self._lock:
            waits = list(self._queue_waits)
            latencies = list(self._first_result_latencies)
            out: Dict[str, Any] = {
                "submitted": self.submitted,
                "admitted": self.admitted,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "queued": self.queued,
                "running": self.running,
                "peak_running": self.peak_running,
            }
        out["jobs_per_second"] = self.jobs_per_second()
        out["queue_wait_p50"] = percentile(waits, 50)
        out["queue_wait_p99"] = percentile(waits, 99)
        out["first_result_p50"] = percentile(latencies, 50)
        out["first_result_p99"] = percentile(latencies, 99)
        return out

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"SchedulerStats(submitted={snap['submitted']}, "
            f"running={snap['running']}, queued={snap['queued']}, "
            f"completed={snap['completed']})"
        )
