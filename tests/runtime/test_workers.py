"""Tests for the WorkerPool (apply_async semantics)."""

import threading
import time

import pytest

from repro.runtime.workers import AsyncResult, WorkerPool


class TestAsyncResult:
    def test_not_ready_initially(self):
        assert not AsyncResult().ready()


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

    def test_exception_recorded_and_printed(self, capsys):
        pool = WorkerPool(1)

        def boom():
            raise ValueError("kapow")

        try:
            result = pool.apply_async(boom)
            result.wait(timeout=2)
            assert result.ready()
            assert [str(e) for e in pool.errors] == ["kapow"]
            assert "ValueError: kapow" in capsys.readouterr().err
        finally:
            pool.close()
            pool.join()

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

        try:
            results = [pool.apply_async(wait_at_barrier) for _ in range(4)]
            for result in results:
                result.wait(timeout=3)
            assert all(result.ready() for result in results)
            assert pool.errors == []
        finally:
            pool.close()
            pool.join()

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

    def test_raising_callback_does_not_hang_waiters(self, capsys):
        """Regression: the result must be ready either way -- a waiter
        blocked in wait() would otherwise hang forever.  The callback's
        failure lands in ``errors`` and is printed."""
        pool = WorkerPool(1)

        def bad_callback(_value):
            raise ValueError("boom")

        try:
            result = pool.apply_async(lambda: 1, callback=bad_callback)
            result.wait(timeout=2)
            assert result.ready()
            assert [str(e) for e in pool.errors] == ["boom"]
            assert "ValueError: boom" in capsys.readouterr().err
        finally:
            pool.close()
            pool.join()

    def test_callback_error_after_func_error_records_both(self):
        """When func failed, the callback still runs (with ``None``), and
        both failures are recorded, func's first."""
        pool = WorkerPool(1)

        def boom():
            raise KeyError("func-error")

        def bad_callback(value):
            raise ValueError(f"callback-error {value}")

        try:
            result = pool.apply_async(boom, callback=bad_callback)
            result.wait(timeout=2)
            assert result.ready()
            assert [type(e) for e in pool.errors] == [KeyError, ValueError]
            assert str(pool.errors[1]) == "callback-error None"
        finally:
            pool.close()
            pool.join()

    def test_backlog_processed_after_close(self):
        pool = WorkerPool(1)
        results = [pool.apply_async(time.sleep, (0.01,)) for _ in range(5)]
        pool.close()
        pool.join(timeout=5)
        assert all(r.ready() for r in results)


class TestAsyncResultWaiters:
    def test_every_waiter_returns(self):
        """Waiters pass the finished call's lock one after another: none
        may be left parked behind another."""
        result = AsyncResult()
        returned = []
        parked = threading.Barrier(7, timeout=5)

        def waiter():
            parked.wait()
            # The timeout outlasts the join below: a waiter that returns
            # only because it timed out fails the test.
            result.wait(timeout=60)
            returned.append(result.ready())

        threads = [threading.Thread(target=waiter, daemon=True) for _ in range(6)]
        for thread in threads:
            thread.start()
        parked.wait()
        time.sleep(0.02)  # let the waiters reach the lock
        result._finish()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
        assert returned == [True] * 6

    def test_ready_stays_true_while_waiters_pass(self):
        result = AsyncResult()
        result._finish()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                result.wait()

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            assert all(result.ready() for _ in range(20_000))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5)

    @pytest.mark.parametrize("timeout", [0, -1.0, 0.01])
    def test_unsettled_wait_returns_after_timeout(self, timeout):
        result = AsyncResult()
        result.wait(timeout=timeout)
        assert not result.ready()


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
                        accepted.append(pool.apply_async(int, (index,), callback=fired.append))
                    except RuntimeError:
                        return

            submitter = threading.Thread(target=submit)
            submitter.start()
            start.wait()
            pool.close()
            submitter.join(timeout=5)
            pool.join(timeout=5)
            assert not submitter.is_alive()
            assert _pool_threads(f"race-{round_}") == []
            assert all(result.ready() for result in accepted)
            assert sorted(fired) == list(range(len(accepted)))
