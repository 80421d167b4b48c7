"""Tests for the WorkerPool (apply_async semantics)."""

import threading
import time

import pytest

from repro.runtime.workers import AsyncResult, CallbackError, WorkerPool


class TestAsyncResult:
    def test_not_ready_initially(self):
        assert not AsyncResult().ready()

    def test_successful_before_ready_raises(self):
        with pytest.raises(ValueError):
            AsyncResult().successful()

    def test_get_timeout(self):
        with pytest.raises(TimeoutError):
            AsyncResult().get(timeout=0.01)


class TestWorkerPool:
    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_apply_async_returns_value(self):
        pool = WorkerPool(2)
        try:
            result = pool.apply_async(lambda a, b: a + b, (2, 3))
            assert result.get(timeout=2) == 5
            assert result.successful()
        finally:
            pool.close()
            pool.join()

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

    def test_exception_recorded_and_reraised(self):
        pool = WorkerPool(1)

        def boom():
            raise ValueError("kapow")

        try:
            result = pool.apply_async(boom)
            with pytest.raises(ValueError, match="kapow"):
                result.get(timeout=2)
            assert not result.successful()
            assert any(isinstance(e, ValueError) for e in pool.errors)
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
            assert all(r.get(timeout=3) for r in results)
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

    def test_raising_callback_rejects_result(self):
        """A callback failure must surface through get(), not vanish into
        the pool thread while the result reports success."""
        pool = WorkerPool(1)

        def bad_callback(_value):
            raise RuntimeError("callback kapow")

        try:
            result = pool.apply_async(lambda: 42, callback=bad_callback)
            with pytest.raises(CallbackError) as info:
                result.get(timeout=2)
            assert isinstance(info.value.__cause__, RuntimeError)
            assert "callback kapow" in str(info.value.__cause__)
            assert not result.successful()
            assert any(isinstance(e, RuntimeError) for e in pool.errors)
        finally:
            pool.close()
            pool.join()

    def test_raising_callback_does_not_hang_waiters(self):
        """Regression: the result must resolve either way -- a waiter
        blocked in get() would otherwise hang forever."""
        pool = WorkerPool(1)

        def bad_callback(_value):
            raise ValueError("boom")

        try:
            result = pool.apply_async(lambda: 1, callback=bad_callback)
            result.wait(timeout=2)
            assert result.ready()
        finally:
            pool.close()
            pool.join()

    def test_callback_error_after_func_error_keeps_original(self):
        """When func itself failed, get() must re-raise func's error, not
        the callback's."""
        pool = WorkerPool(1)

        def boom():
            raise KeyError("func-error")

        def bad_callback(_value):
            raise ValueError("callback-error")

        try:
            result = pool.apply_async(boom, callback=bad_callback)
            with pytest.raises(KeyError, match="func-error"):
                result.get(timeout=2)
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
    @pytest.mark.parametrize("outcome", ["resolve", "reject"])
    def test_every_waiter_returns(self, outcome):
        """Waiters pass the settled result's lock one after another: none
        may be left parked behind another."""
        result = AsyncResult()
        seen = []
        parked = threading.Barrier(7, timeout=5)

        def waiter(use_get):
            parked.wait()
            # The timeout outlasts the join below: a waiter that returns
            # only because it timed out fails the test.
            try:
                seen.append(result.get(timeout=60) if use_get else result.wait(timeout=60))
            except KeyError as exc:
                seen.append(exc)

        threads = [
            threading.Thread(target=waiter, args=(i % 2 == 0,), daemon=True) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        parked.wait()
        time.sleep(0.02)  # let the waiters reach the lock
        if outcome == "resolve":
            result._resolve(7)
        else:
            result._reject(KeyError("lost"))
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
        assert result.ready() and result.successful() == (outcome == "resolve")
        gets = [value for value in seen if value is not None]
        assert len(seen) == 6 and len(gets) == 3
        if outcome == "resolve":
            assert gets == [7, 7, 7]
        else:
            assert all(isinstance(value, KeyError) for value in gets)

    def test_ready_stays_true_while_waiters_pass(self):
        result = AsyncResult()
        result._resolve(1)
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
        with pytest.raises(TimeoutError):
            result.get(timeout=timeout)


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
