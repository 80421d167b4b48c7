"""Tests for the Algorithm 1 auto-scaler."""

import threading
import time

import pytest

from repro.autoscale.autoscaler import MIN_ACTIVE, SCALE_INTERVAL, Autoscaler
from repro.autoscale.strategies import QueueSizeStrategy, ScalingStrategy
from repro.runtime.clock import Clock
from repro.runtime.workers import WorkerPool


class FixedStrategy(ScalingStrategy):
    """Always returns a canned decision."""

    metric_name = "fixed"

    def __init__(self, decision):
        self.decision = decision

    def decide(self, observation):
        return self.decision


def _pool(size):
    p = WorkerPool(size, name="scaler-test")
    yield p
    p.close()
    p.join()


@pytest.fixture
def pool():
    yield from _pool(4)


@pytest.fixture
def pair():
    """Two workers: half the pool is one active session."""
    yield from _pool(2)


def make_scaler(pool, strategy=None, monitor=lambda: 0.0, **kw):
    return Autoscaler(
        pool,
        strategy or FixedStrategy(0),
        monitor=monitor,
        clock=Clock(0.001),
        **kw,
    )


class TestConstruction:
    def test_starts_at_half_pool(self, pool, pair):
        assert make_scaler(pool).active_size == 2
        assert make_scaler(pair).active_size == 1

    def test_single_worker_pool_starts_at_the_floor(self):
        single = WorkerPool(1, name="scaler-test")
        try:
            assert make_scaler(single).active_size == MIN_ACTIVE
        finally:
            single.close()
            single.join()


class TestGrowShrink:
    def test_grow_caps_at_pool(self, pool):
        scaler = make_scaler(pool)
        scaler.grow(100)
        assert scaler.active_size == 4

    def test_shrink_floors_at_min(self, pool):
        scaler = make_scaler(pool)
        scaler.shrink(100)
        assert scaler.active_size == MIN_ACTIVE == 1

    def test_auto_scale_applies_strategy(self, pool):
        scaler = make_scaler(pool, strategy=FixedStrategy(+1))
        before = scaler.active_size
        scaler.auto_scale()
        assert scaler.active_size == before + 1

    def test_auto_scale_records_trace(self, pool):
        scaler = make_scaler(pool, strategy=FixedStrategy(-1), monitor=lambda: 7.0)
        scaler.auto_scale()
        [point] = scaler.trace.points
        assert point.metric == 7.0
        assert point.decision == -1


class TestStartDoneGate:
    def test_start_runs_session(self, pool):
        scaler = make_scaler(pool)
        done = threading.Event()
        assert scaler.start(done.set)
        assert done.wait(timeout=2)
        scaler.wait_all_done(timeout=2)
        assert scaler.active_count == 0

    def test_gate_blocks_at_active_size(self, pair):
        scaler = make_scaler(pair)
        release = threading.Event()

        def long_session():
            release.wait(timeout=5)

        assert scaler.start(long_session)
        # Second start must block until we grow or the session ends.
        started_second = threading.Event()

        def try_second():
            scaler.start(lambda: None)
            started_second.set()

        t = threading.Thread(target=try_second)
        t.start()
        time.sleep(0.05)
        assert not started_second.is_set()  # still gated
        scaler.grow(1)  # open the gate
        assert started_second.wait(timeout=2)
        release.set()
        t.join(timeout=2)
        scaler.wait_all_done(timeout=2)

    def test_stop_unblocks_start(self, pair):
        scaler = make_scaler(pair)
        release = threading.Event()
        scaler.start(lambda: release.wait(timeout=5))
        returned = []

        def blocked_start():
            returned.append(scaler.start(lambda: None))

        t = threading.Thread(target=blocked_start)
        t.start()
        time.sleep(0.02)
        scaler.stop()
        t.join(timeout=2)
        assert returned == [False]
        release.set()
        scaler.wait_all_done(timeout=2)


class TestProcessLoop:
    def test_process_until_terminated(self, pool):
        """The central Algorithm 1 loop: dispatch sessions until the
        termination condition holds."""
        work = {"remaining": 10}
        lock = threading.Lock()

        def session():
            with lock:
                if work["remaining"] > 0:
                    work["remaining"] -= 1

        def terminated():
            with lock:
                return work["remaining"] == 0

        scaler = make_scaler(
            pool,
            strategy=QueueSizeStrategy(),
            monitor=lambda: work["remaining"],
        )
        scaler.process(session, terminated)
        assert work["remaining"] == 0
        assert len(scaler.trace) >= 1

    def test_sleeps_scale_interval_after_every_dispatch(self, pool):
        class RecordingClock(Clock):
            def __init__(self):
                super().__init__(0.001)
                self.sleeps = []

            def sleep(self, nominal_seconds):
                self.sleeps.append(nominal_seconds)

        clock = RecordingClock()
        sessions = []
        scaler = Autoscaler(pool, FixedStrategy(0), monitor=lambda: 1.0, clock=clock)
        scaler.process(lambda: sessions.append(1), lambda: len(sessions) >= 5)
        # ``process`` returns once every dispatched session ran: one sleep
        # per dispatch, however many slipped in before termination showed.
        assert len(sessions) >= 5
        assert clock.sleeps == [SCALE_INTERVAL] * len(sessions)

    def test_shrinks_to_floor_on_empty_monitor(self, pool):
        scaler = make_scaler(
            pool,
            strategy=QueueSizeStrategy(),
            monitor=lambda: 0.0,
        )
        counter = {"n": 0}

        def session():
            counter["n"] += 1

        scaler.process(session, lambda: counter["n"] >= 5)
        assert scaler.active_size == MIN_ACTIVE
