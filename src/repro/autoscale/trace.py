"""Scaling traces: the data behind Figure 13.

Each auto-scaler iteration is recorded as a :class:`TracePoint`.  The
paper's Figure 13 plots active process count (left axis) against the
monitored metric (right axis: queue size for ``dyn_auto_multi``, average
idle time in ms for ``dyn_auto_redis``) over iterations, where iterations
are "recorded when monitored metrics change" -- :meth:`ScalingTrace.changes`
applies that filter.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple


class TracePoint(NamedTuple):
    """One auto-scaler iteration (a named tuple: immutable, and cheap to
    build once per scaler step)."""

    iteration: int
    timestamp: float
    active_size: int
    metric: float
    decision: int  # +1 grew, -1 shrank, 0 held


@dataclass(frozen=True)
class TraceEvent:
    """A discrete lifecycle event annotated onto a trace.

    Used by the recovery machinery (``hybrid_redis`` checkpoint/restore) to
    record crash detections, re-pins and restores alongside -- or, for
    non-autoscaling mappings, instead of -- the scaling iterations.
    """

    timestamp: float
    kind: str  # "crash" / "respawn" / "restore" / ...
    detail: str = ""


class ScalingTrace:
    """Thread-safe record of auto-scaler decisions.

    Parameters
    ----------
    metric_name:
        Label of the monitored metric ("queue size" / "avg idle time (ms)").
    """

    def __init__(self, metric_name: str = "metric") -> None:
        self.metric_name = metric_name
        self._points: List[TracePoint] = []
        self._events: List[TraceEvent] = []
        self._lock = threading.Lock()

    def note(self, timestamp: float, kind: str, detail: str = "") -> None:
        """Record a lifecycle event (crash, respawn, restore, ...)."""
        with self._lock:
            self._events.append(TraceEvent(timestamp=timestamp, kind=kind, detail=detail))

    @property
    def events(self) -> List[TraceEvent]:
        with self._lock:
            return list(self._events)

    def events_of(self, kind: str) -> List[TraceEvent]:
        """All recorded events of one kind, in order."""
        return [event for event in self.events if event.kind == kind]

    def record(
        self, timestamp: float, active_size: int, metric: float, decision: int
    ) -> None:
        with self._lock:
            points = self._points
            points.append(TracePoint(len(points), timestamp, active_size, metric, decision))

    @property
    def points(self) -> List[TracePoint]:
        with self._lock:
            return list(self._points)

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)

    def changes(self) -> List[TracePoint]:
        """Points where the monitored metric changed (Figure 13's x-axis)."""
        filtered: List[TracePoint] = []
        last_metric: float | None = None
        for point in self.points:
            if last_metric is None or point.metric != last_metric:
                filtered.append(point)
                last_metric = point.metric
        return filtered

    def series(
        self, changes_only: bool = True
    ) -> Tuple[List[int], List[int], List[float]]:
        """(iterations, active_sizes, metrics) ready for plotting/printing."""
        points = self.changes() if changes_only else self.points
        return (
            [p.iteration for p in points],
            [p.active_size for p in points],
            [p.metric for p in points],
        )

    def max_active(self) -> int:
        points = self.points
        return max((p.active_size for p in points), default=0)

    def min_active(self) -> int:
        points = self.points
        return min((p.active_size for p in points), default=0)
