"""Tests for the clock's sleep-debt batching and overshoot compensation."""

import threading
import time

from repro.runtime.clock import Clock


class TestSleepDebt:
    def test_sub_resolution_sleeps_batched(self):
        """Many tiny sleeps must not each pay the OS sleep floor."""
        clock = Clock(0.0001)  # 1 nominal second -> 0.1 ms (sub-resolution)
        start = time.monotonic()
        for _ in range(50):
            clock.sleep(1.0)  # 50 x 0.1 ms = 5 ms total
        elapsed = time.monotonic() - start
        # Unbatched this would cost 50 sleep floors (~50+ ms).
        assert elapsed < 0.05

    def test_total_sleep_preserved(self, monkeypatch):
        """The batched total must converge to the requested total.

        Load-proof on both sides: what ``Clock`` *asks* ``time.sleep`` for
        (seen through a recording stub) never adds up to more than the
        nominal total -- each sleep's overshoot is carried as negative
        debt, however large the machine makes it -- and the wall clock
        bounds from below only, because ``time.sleep`` never returns early.
        """
        requested = []
        real_sleep = time.sleep

        def recording_sleep(seconds):
            requested.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", recording_sleep)
        clock = Clock(0.001)
        start = time.monotonic()
        for _ in range(40):
            clock.sleep(1.0)  # 40 x 1 ms = 40 ms nominal total
        elapsed = time.monotonic() - start
        assert requested and min(requested) >= Clock.SLEEP_RESOLUTION
        assert sum(requested) <= 0.040 + 1e-9
        assert elapsed >= 0.030

    def test_overshoot_compensated(self):
        """Individual sleeps overshoot (OS timer slack); the carried debt
        must keep the cumulative total near nominal instead of inflating
        by the per-sleep overshoot."""
        clock = Clock(1.0)
        start = time.monotonic()
        for _ in range(20):
            clock.sleep(0.002)  # 20 x 2 ms = 40 ms nominal
        elapsed = time.monotonic() - start
        # Uncompensated this measures ~60+ ms on Linux.
        assert elapsed < 0.058

    def test_debt_is_per_thread(self):
        clock = Clock(0.0001)
        errors = []

        def worker():
            try:
                for _ in range(20):
                    clock.sleep(1.0)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_zero_sleep_no_debt(self):
        clock = Clock(1.0)
        clock.sleep(0.0)
        assert getattr(clock._debt, "value", 0.0) == 0.0
