"""Tests for the WorkerPool (apply_async semantics)."""

import threading
import time

import pytest

from repro.runtime.workers import WorkerPool


def _drained(pool):
    """Close ``pool`` and wait for its threads: every submitted call and
    callback has run by the time this returns."""
    pool.close()
    pool.join(timeout=5)


class TestWorkerPool:
    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_callback_fires_with_value(self):
        pool = WorkerPool(2)
        seen = []
        done = threading.Event()

        def callback(value):
            seen.append(value)
            done.set()

        try:
            pool.apply_async(lambda: 42, callback=callback)
            assert done.wait(timeout=2)
            assert seen == [42]
        finally:
            pool.close()
            pool.join()

    def test_submission_returns_nothing(self):
        """No completion handle is built per call: the callback is the signal."""
        pool = WorkerPool(1)
        try:
            assert pool.apply_async(int) is None
        finally:
            _drained(pool)

    def test_exception_recorded_and_printed(self, capsys):
        pool = WorkerPool(1)

        def boom():
            raise ValueError("kapow")

        pool.apply_async(boom)
        _drained(pool)
        assert [str(e) for e in pool.errors] == ["kapow"]
        assert "ValueError: kapow" in capsys.readouterr().err

    def test_callback_fires_even_on_error(self):
        """active_count accounting must not leak when a session dies."""
        pool = WorkerPool(1)
        done = threading.Event()

        def boom():
            raise RuntimeError("x")

        try:
            pool.apply_async(boom, callback=lambda _v: done.set())
            assert done.wait(timeout=2)
        finally:
            pool.close()
            pool.join()

    def test_parallelism(self):
        pool = WorkerPool(4)
        barrier = threading.Barrier(4, timeout=2)

        def wait_at_barrier():
            barrier.wait()
            return True

        returned = []
        for _ in range(4):
            pool.apply_async(wait_at_barrier, callback=returned.append)
        _drained(pool)
        assert returned == [True] * 4
        assert pool.errors == []

    def test_submit_after_close_raises(self):
        pool = WorkerPool(1)
        pool.close()
        pool.join()
        with pytest.raises(RuntimeError):
            pool.apply_async(lambda: 1)

    def test_join_before_close_raises(self):
        pool = WorkerPool(1)
        try:
            with pytest.raises(RuntimeError):
                pool.join()
        finally:
            pool.close()
            pool.join()

    def test_raising_callback_leaves_the_thread_serving(self, capsys):
        """The callback's failure lands in ``errors`` and is printed, and
        the pool's one thread goes on to the next call."""
        pool = WorkerPool(1)
        after = threading.Event()

        def bad_callback(_value):
            raise ValueError("boom")

        try:
            pool.apply_async(lambda: 1, callback=bad_callback)
            pool.apply_async(after.set)
            assert after.wait(timeout=2)
            assert [str(e) for e in pool.errors] == ["boom"]
            assert "ValueError: boom" in capsys.readouterr().err
        finally:
            _drained(pool)

    def test_callback_error_after_func_error_records_both(self):
        """When func failed, the callback still runs (with ``None``), and
        both failures are recorded, func's first."""
        pool = WorkerPool(1)

        def boom():
            raise KeyError("func-error")

        def bad_callback(value):
            raise ValueError(f"callback-error {value}")

        pool.apply_async(boom, callback=bad_callback)
        _drained(pool)
        assert [type(e) for e in pool.errors] == [KeyError, ValueError]
        assert str(pool.errors[1]) == "callback-error None"

    def test_backlog_processed_after_close(self):
        pool = WorkerPool(1)
        slept = []
        for _ in range(5):
            pool.apply_async(time.sleep, (0.01,), callback=slept.append)
        _drained(pool)
        assert slept == [None] * 5


def _pool_threads(name):
    return [t for t in threading.enumerate() if t.name.startswith(f"{name}-")]


class TestPoolShutdown:
    def test_close_ends_parked_threads(self):
        """Idle pool threads sit in the dispatch queue's ``get``; each takes
        one stop sentinel and exits."""
        pool = WorkerPool(3, name="parked-pool")
        time.sleep(0.02)
        assert len(_pool_threads("parked-pool")) == 3
        pool.close()
        pool.join(timeout=5)
        assert _pool_threads("parked-pool") == []

    def test_close_is_idempotent(self):
        pool = WorkerPool(2, name="twice-closed")
        pool.close()
        pool.close()  # no second round of sentinels
        pool.join(timeout=5)
        assert _pool_threads("twice-closed") == []

    def test_close_racing_apply_async_strands_nothing(self):
        """A submission either raises or runs and fires its callback: none
        can land behind the stop sentinels, where no thread would take it."""
        for round_ in range(30):
            pool = WorkerPool(2, name=f"race-{round_}")
            fired = []
            accepted = []
            start = threading.Barrier(2, timeout=5)

            def submit():
                start.wait()
                for index in range(10_000):
                    try:
                        pool.apply_async(int, (index,), callback=fired.append)
                    except RuntimeError:
                        return
                    accepted.append(index)

            submitter = threading.Thread(target=submit)
            submitter.start()
            start.wait()
            pool.close()
            submitter.join(timeout=5)
            pool.join(timeout=5)
            assert not submitter.is_alive()
            assert _pool_threads(f"race-{round_}") == []
            assert sorted(fired) == accepted
