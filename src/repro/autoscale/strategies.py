"""Auto-scaling strategies: *when* and *how much* to scale (Section 3.2.2).

The paper adopts "a simple incremental approach: incrementing the active
size by 1 or -1", with a different monitored metric per mapping family:

- :class:`QueueSizeStrategy` (``dyn_auto_multi``) -- compares the global
  queue size against the previous observation; growth in the backlog
  activates a process, decline deactivates one, and a minimum-queue
  threshold "prevents unnecessary scaling during low demand".
- :class:`IdleTimeStrategy` (``dyn_auto_redis``) -- monitors the Redis
  consumer group's average idle time; idle time above the threshold means
  processes are starved and one is deactivated, below means the group is
  busy and one is activated.  (Note the inverse relationship visible in
  Figures 13b/13e.)
- :class:`RateStrategy` -- an EWMA-smoothed backlog trend, provided as the
  "more refined strategy" the paper defers to future work; used in the
  ablation benchmarks.

Strategies are stateful (they remember previous observations) and must not
be shared across runs.
"""

from __future__ import annotations

from typing import Optional


class ScalingStrategy:
    """Base class: map a monitored observation to a scaling decision."""

    #: Human-readable name of the monitored metric (used by traces).
    metric_name = "metric"

    #: Strategies that compare demand against current capacity set this and
    #: implement :meth:`decide` with the extra ``active_size`` argument.
    wants_active_size = False

    def decide(self, observation: float) -> int:
        """Return +1 (grow), -1 (shrink) or 0 (hold) for this observation."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget history (fresh run)."""


class QueueSizeStrategy(ScalingStrategy):
    """Scale on the *change* in global queue size.

    Parameters
    ----------
    min_queue:
        Backlogs at or below this size always vote to shrink -- the paper's
        "minimum threshold prevents unnecessary scaling during low demand".
    """

    metric_name = "queue size"

    def __init__(self, min_queue: int = 0) -> None:
        if min_queue < 0:
            raise ValueError("min_queue must be >= 0")
        self.min_queue = min_queue
        self._last: Optional[float] = None

    def decide(self, observation: float) -> int:
        last, self._last = self._last, observation
        if observation <= self.min_queue:
            return -1
        if last is None:
            return 0
        if observation > last:
            return +1
        if observation < last:
            return -1
        return 0

    def reset(self) -> None:
        self._last = None


class BacklogStrategy(ScalingStrategy):
    """Scale on backlog *relative to active capacity* (tuned default).

    The queue-delta strategy above reacts to the backlog's trend, which
    fails on workloads whose input is seeded up front: the queue only ever
    declines, so the scaler never grows past its initial size even with
    hundreds of waiting tasks (the inertia the paper observes in Figure 13
    and defers to future work).  This strategy instead compares the queue
    size against the number of active processes:

    - backlog above ``active`` -- capacity is short, grow;
    - backlog below ``active`` (or empty) -- capacity exceeds demand,
      shrink;
    - otherwise hold.

    The active size thus tracks ``min(queue, pool)``: full parallelism
    while a backlog exists, one-by-one deactivation as the stream drains
    -- which is what makes the Table 1 process-time savings materialise
    without giving back runtime.
    """

    metric_name = "queue size"
    wants_active_size = True

    def decide(self, observation: float, active_size: int = 1) -> int:
        if observation <= 0:
            return -1
        if observation > active_size:
            return +1
        if observation < active_size:
            return -1
        return 0


class IdleTimeStrategy(ScalingStrategy):
    """Scale on the consumer group's average idle time (milliseconds).

    If the average idle time of active consumers exceeds the configured
    threshold -- the paper sets it to the time needed for reactivation and
    redeployment on the given platform -- a process is "logically
    deactivated"; otherwise demand is high and one is activated.

    Parameters
    ----------
    threshold_ms:
        Idle-time threshold in milliseconds; an observation exactly at it
        holds.
    """

    metric_name = "avg idle time (ms)"

    def __init__(self, threshold_ms: float) -> None:
        if threshold_ms <= 0:
            raise ValueError("threshold_ms must be positive")
        self.threshold_ms = threshold_ms

    def decide(self, observation: float) -> int:
        if observation > self.threshold_ms:
            return -1
        if observation < self.threshold_ms:
            return +1
        return 0


class RateStrategy(ScalingStrategy):
    """EWMA-smoothed backlog trend (ablation: a "more refined" strategy).

    Smooths the queue-size signal with an exponential moving average and
    scales on the smoothed trend, filtering out the single-sample noise
    that makes :class:`QueueSizeStrategy` oscillate (the lag/overshoot the
    paper observes in Figure 13 and flags for future work).  A smoothed
    backlog at or below zero always votes to shrink.
    """

    metric_name = "queue size (EWMA)"

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._ewma: Optional[float] = None
        self._last_ewma: Optional[float] = None

    def decide(self, observation: float) -> int:
        if self._ewma is None:
            self._ewma = float(observation)
        else:
            self._ewma = self.alpha * observation + (1 - self.alpha) * self._ewma
        last, self._last_ewma = self._last_ewma, self._ewma
        if self._ewma <= 0:
            return -1
        if last is None:
            return 0
        if self._ewma > last:
            return +1
        if self._ewma < last:
            return -1
        return 0

    def reset(self) -> None:
        self._ewma = None
        self._last_ewma = None
