"""Tests for auto-scaling strategies (Section 3.2.2)."""

import pytest

from repro.autoscale.strategies import (
    BacklogStrategy,
    IdleTimeStrategy,
    QueueSizeStrategy,
    RateStrategy,
)


class TestBacklogStrategy:
    def test_grows_when_backlog_exceeds_active(self):
        assert BacklogStrategy().decide(10, active_size=4) == +1

    def test_shrinks_when_backlog_below_active(self):
        assert BacklogStrategy().decide(3, active_size=8) == -1

    def test_holds_at_parity(self):
        assert BacklogStrategy().decide(4, active_size=4) == 0

    def test_wants_active_size_flag(self):
        assert BacklogStrategy.wants_active_size
        assert not QueueSizeStrategy.wants_active_size

    def test_duck_typed_strategy_without_flag_still_works(self):
        """The autoscaler must not require wants_active_size on custom
        strategies that only implement decide() + metric_name."""
        from repro.autoscale.autoscaler import Autoscaler
        from repro.runtime.workers import WorkerPool

        class Minimal:
            metric_name = "q"

            def decide(self, observation):
                return 0

        pool = WorkerPool(2, name="duck")
        try:
            scaler = Autoscaler(pool, Minimal(), monitor=lambda: 1.0)
            scaler.process(lambda: None, lambda: True)
            assert [point.decision for point in scaler.trace.points] == [0]
        finally:
            pool.close()
            pool.join(timeout=5)

    def test_tracks_min_of_queue_and_pool(self):
        """Active size converges towards min(queue, pool) under the
        autoscaler's ±1 stepping."""
        s = BacklogStrategy()
        active = 4
        for _ in range(20):
            active += s.decide(100, active_size=active)
        assert active == 24  # kept growing: huge backlog
        for _ in range(30):
            active = max(1, active + s.decide(2, active_size=active))
        assert active <= 2  # drained queue: shrinks to demand


class TestQueueSizeStrategy:
    def test_first_observation_holds(self):
        assert QueueSizeStrategy().decide(5) == 0

    def test_growth_grows(self):
        s = QueueSizeStrategy()
        s.decide(5)
        assert s.decide(8) == +1

    def test_decline_shrinks(self):
        s = QueueSizeStrategy()
        s.decide(8)
        assert s.decide(5) == -1

    def test_flat_holds(self):
        s = QueueSizeStrategy()
        s.decide(5)
        assert s.decide(5) == 0

    def test_min_queue_always_shrinks(self):
        """The paper's 'minimum threshold prevents unnecessary scaling
        during low demand'."""
        s = QueueSizeStrategy(min_queue=2)
        s.decide(10)
        assert s.decide(2) == -1
        assert s.decide(1) == -1
        # even growth below the floor shrinks:
        assert s.decide(2) == -1

    def test_negative_min_queue_rejected(self):
        with pytest.raises(ValueError):
            QueueSizeStrategy(min_queue=-1)

    def test_reset_forgets(self):
        s = QueueSizeStrategy()
        s.decide(5)
        s.reset()
        assert s.decide(10) == 0

    def test_metric_name(self):
        assert QueueSizeStrategy().metric_name == "queue size"


class TestIdleTimeStrategy:
    def test_high_idle_shrinks(self):
        s = IdleTimeStrategy(threshold_ms=100)
        assert s.decide(250.0) == -1

    def test_low_idle_grows(self):
        s = IdleTimeStrategy(threshold_ms=100)
        assert s.decide(10.0) == +1

    def test_at_threshold_holds(self):
        assert IdleTimeStrategy(threshold_ms=100).decide(100.0) == 0

    def test_binary_rule_has_no_dead_band(self):
        """The paper's rule: any idle time past the threshold shrinks, any
        below it grows."""
        s = IdleTimeStrategy(threshold_ms=100)
        assert s.decide(100.001) == -1
        assert s.decide(99.999) == +1

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            IdleTimeStrategy(threshold_ms=0)


class TestRateStrategy:
    def test_first_observation_holds(self):
        assert RateStrategy().decide(5) == 0

    def test_smooths_single_spikes(self):
        """One spike in a flat series must not flip the decision the way
        the raw queue-delta strategy does."""
        raw = QueueSizeStrategy()
        smooth = RateStrategy(alpha=0.2)
        series = [10, 10, 10, 30, 10, 10]
        raw_decisions = [raw.decide(v) for v in series]
        smooth_decisions = [smooth.decide(v) for v in series]
        # raw: oscillates +1 then -1 on the spike
        assert +1 in raw_decisions and -1 in raw_decisions
        # smooth: after the spike decays, the EWMA drifts back down
        assert smooth_decisions.count(+1) <= raw_decisions.count(+1)

    def test_sustained_growth_grows(self):
        s = RateStrategy(alpha=0.5)
        decisions = [s.decide(v) for v in [1, 4, 8, 16]]
        assert decisions[-1] == +1

    def test_empty_queue_shrinks(self):
        s = RateStrategy(alpha=1.0)
        s.decide(4)
        assert s.decide(0) == -1

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            RateStrategy(alpha=0)
        with pytest.raises(ValueError):
            RateStrategy(alpha=1.5)

    def test_reset(self):
        s = RateStrategy()
        s.decide(5)
        s.reset()
        assert s.decide(50) == 0
