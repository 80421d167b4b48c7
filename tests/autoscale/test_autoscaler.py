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

    def test_a_step_applies_strategy(self, pool):
        scaler = make_scaler(pool, strategy=FixedStrategy(+1))
        before = scaler.active_size
        scaler.process(lambda: None, lambda: True)  # one step, then terminated
        assert scaler.active_size == before + 1

    def test_a_step_records_trace(self, pool):
        scaler = make_scaler(pool, strategy=FixedStrategy(-1), monitor=lambda: 7.0)
        scaler.process(lambda: None, lambda: True)
        [point] = scaler.trace.points
        assert point.metric == 7.0
        assert point.decision == -1


def _until(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.001)


class _Run:
    """``process`` on a thread, over sessions that hold their slot until
    ``release`` is set; ``terminate`` ends the workflow."""

    def __init__(self, scaler):
        self.scaler = scaler
        self.release = threading.Event()
        self.terminate = threading.Event()
        self.sessions = 0
        self.thread = threading.Thread(
            target=scaler.process, args=(self.session, self.terminate.is_set), daemon=True
        )

    def session(self):
        self.sessions += 1
        self.release.wait(timeout=5)

    def finish(self):
        self.terminate.set()
        self.release.set()
        self.thread.join(timeout=2)
        assert not self.thread.is_alive()


class TestGate:
    """The gate inside ``process`` (Algorithm 1's ``start``).  It notifies
    only when a thread waits in it (``_waiting``), so each test parks the
    waiter first, then fires the event that must release it; the waits are
    untimed, so a lost wakeup hangs the run and fails its join."""

    @pytest.fixture
    def full_gate(self, pair):
        """One session holds the only slot; the next step is parked."""
        run = _Run(make_scaler(pair))
        run.thread.start()
        _until(lambda: run.scaler._waiting == 1 and run.sessions == 1)
        yield run
        run.finish()
        assert run.scaler.active_count == 0

    def test_a_parked_step_wakes_on_done(self, full_gate):
        full_gate.release.set()  # the session ends: ``_done`` frees the slot
        _until(lambda: full_gate.sessions >= 2)

    def test_a_parked_step_wakes_on_grow(self, full_gate):
        full_gate.scaler.grow(1)
        _until(lambda: full_gate.sessions == 2)
        assert full_gate.scaler.active_size == 2
        _until(lambda: full_gate.scaler._waiting == 1)  # full again
        assert full_gate.sessions == 2

    def test_a_parked_step_wakes_on_stop(self, full_gate):
        scaler, draining = full_gate.scaler, threading.Event()
        drain = scaler.wait_all_done
        scaler.wait_all_done = lambda: draining.set() or drain()
        scaler.stop()
        assert draining.wait(timeout=2)  # the step left the gate to drain
        assert full_gate.thread.is_alive()
        full_gate.release.set()
        full_gate.thread.join(timeout=2)
        assert not full_gate.thread.is_alive()
        assert full_gate.sessions == 1

    def test_termination_drains_until_the_last_session_ends(self, full_gate):
        scaler = full_gate.scaler
        full_gate.terminate.set()
        scaler.grow(1)  # the parked step dispatches; the next sees termination
        _until(lambda: scaler._stopped and scaler._waiting == 1)
        assert full_gate.thread.is_alive()
        assert full_gate.sessions == 2 and scaler.active_count == 2
        full_gate.release.set()
        full_gate.thread.join(timeout=2)
        assert not full_gate.thread.is_alive()

    def test_wait_all_done_returns_when_the_last_session_ends_after_stop(self, full_gate):
        scaler = full_gate.scaler
        scaler.stop()
        _until(lambda: scaler._waiting == 1)  # ``process`` drains
        returned = []
        waiter = threading.Thread(
            target=lambda: returned.append(scaler.wait_all_done()), daemon=True
        )
        waiter.start()
        _until(lambda: scaler._waiting == 2)
        assert not returned
        full_gate.release.set()
        waiter.join(timeout=2)
        assert returned == [True]

    def test_done_with_nobody_waiting_leaves_the_gate_usable(self, pool):
        scaler = make_scaler(pool)
        sessions = []
        run = threading.Thread(
            target=scaler.process,
            args=(lambda: sessions.append(1), lambda: len(sessions) >= 20),
            daemon=True,
        )
        run.start()
        run.join(timeout=2)
        assert not run.is_alive() and len(sessions) >= 20
        assert scaler._waiting == 0 and scaler.active_count == 0
        assert scaler.wait_all_done(timeout=0)


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
