"""Tests for repro.runtime.queues."""

import sys
import threading
import time

import pytest

from repro.runtime.queues import (
    POISON_PILL,
    Batch,
    BatchingBuffer,
    CloseableQueue,
    Empty,
    TrackedQueue,
    as_envelope,
    batch_items,
    batch_len,
    chunked,
)


class TestCloseableQueue:
    def test_fifo_order(self):
        q = CloseableQueue()
        for i in range(5):
            q.put(i)
        assert [q.get() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_get_timeout_raises_empty(self):
        q = CloseableQueue()
        with pytest.raises(Empty):
            q.get(timeout=0.01)

    def test_get_nowait_raises_empty(self):
        with pytest.raises(Empty):
            CloseableQueue().get_nowait()

    def test_close_delivers_one_pill_per_consumer(self):
        q = CloseableQueue()
        q.close(consumers=3)
        assert all(q.get() is POISON_PILL for _ in range(3))

    def test_close_negative_rejected(self):
        with pytest.raises(ValueError):
            CloseableQueue().close(consumers=-1)

    def test_close_is_idempotent(self):
        """A second close must not re-broadcast pills: counted-termination
        consumers would misread the extras as more finished producers."""
        q = CloseableQueue()
        q.close(consumers=3)
        q.close(consumers=3)
        assert q.qsize() == 3

    def test_closed_property(self):
        q = CloseableQueue()
        assert not q.closed
        q.close()
        assert q.closed

    def test_reclose_with_different_count_ignored(self):
        q = CloseableQueue()
        q.close(consumers=1)
        q.close(consumers=5)
        assert q.qsize() == 1

    def test_qsize_and_empty(self):
        q = CloseableQueue()
        assert q.empty()
        q.put("x")
        assert q.qsize() == 1 and not q.empty()


class TestBatchEnvelope:
    def test_iteration_and_len(self):
        batch = Batch([1, 2, 3])
        assert len(batch) == 3
        assert list(batch) == [1, 2, 3]

    def test_batch_items_unwraps(self):
        assert batch_items(Batch(["a", "b"])) == ["a", "b"]
        assert batch_items("bare") == ["bare"]

    def test_batch_len(self):
        assert batch_len(Batch([1, 2])) == 2
        assert batch_len(("pe", "port", 1)) == 1

    def test_as_envelope_single_is_bare(self):
        """One tuple travels unwrapped -- the batch_size=1 identity."""
        assert as_envelope(["only"]) == "only"
        assert isinstance(as_envelope([1, 2]), Batch)

    def test_chunked(self):
        assert list(chunked([1, 2, 3, 4, 5], 2)) == [[1, 2], [3, 4], [5]]
        assert list(chunked([], 3)) == []
        with pytest.raises(ValueError):
            list(chunked([1], 0))


class TestBatchingBuffer:
    def test_size_triggered_flush(self):
        out = []
        buf = BatchingBuffer(out.append, batch_size=3)
        assert not buf.add("a")
        assert not buf.add("b")
        assert buf.add("c")  # third tuple fills the envelope
        assert len(out) == 1 and isinstance(out[0], Batch)
        assert list(out[0]) == ["a", "b", "c"]
        assert buf.pending == 0

    def test_passthrough_at_size_one(self):
        """batch_size=1 forwards bare items immediately -- no envelope."""
        out = []
        buf = BatchingBuffer(out.append, batch_size=1)
        assert buf.add("x")
        assert out == ["x"]

    def test_flush_single_item_is_bare(self):
        out = []
        buf = BatchingBuffer(out.append, batch_size=4)
        buf.add("solo")
        assert buf.flush()
        assert out == ["solo"]  # no Batch wrapper for one tuple

    def test_flush_empty_is_noop(self):
        out = []
        buf = BatchingBuffer(out.append, batch_size=4)
        assert not buf.flush()
        assert out == []

    def test_linger_triggered_flush(self):
        """The oldest buffered tuple waits at most ``linger`` seconds."""
        out = []
        clock = [0.0]
        buf = BatchingBuffer(out.append, batch_size=10, linger=0.5, now=lambda: clock[0])
        buf.add("a")
        clock[0] = 0.2
        assert not buf.poll()
        clock[0] = 0.6  # past the deadline: next add (or poll) flushes
        assert buf.add("b")
        assert len(out) == 1 and list(out[0]) == ["a", "b"]

    def test_poll_flushes_expired_tail(self):
        out = []
        clock = [0.0]
        buf = BatchingBuffer(out.append, batch_size=10, linger=0.5, now=lambda: clock[0])
        buf.add("tail")
        clock[0] = 1.0
        assert buf.poll()
        assert out == ["tail"]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BatchingBuffer(lambda item: None, batch_size=0)
        with pytest.raises(ValueError):
            BatchingBuffer(lambda item: None, batch_size=2, linger=-1.0)


class TestCloseFlushesBuffers:
    def test_close_flushes_linger_buffered_tail(self):
        """Regression: a linger-buffered tail tuple must never be dropped
        at shutdown -- close() flushes attached buffers *before* the pills,
        so per-queue FIFO puts the data ahead of end-of-stream."""
        q = CloseableQueue()
        buf = q.buffer(batch_size=8, linger=60.0)
        buf.add("tail-tuple")  # would linger for a minute
        q.close(consumers=1)
        assert q.get() == "tail-tuple"
        assert q.get() is POISON_PILL

    def test_close_flushes_multiple_buffers(self):
        q = CloseableQueue()
        first, second = q.buffer(batch_size=4), q.buffer(batch_size=4)
        first.add("a")
        second.add("b")
        second.add("c")
        q.close(consumers=2)
        items = [q.get() for _ in range(4)]
        assert items[0] == "a"
        assert list(items[1]) == ["b", "c"]
        assert items[2] is POISON_PILL and items[3] is POISON_PILL

    def test_reclose_does_not_reflush(self):
        """Close is idempotent for buffers too: a tuple added after the
        first close stays buffered rather than leaking past the pills."""
        q = CloseableQueue()
        buf = q.buffer(batch_size=8)
        buf.add("early")
        q.close(consumers=1)
        buf.add("late")
        q.close(consumers=1)
        assert q.get() == "early"
        assert q.get() is POISON_PILL
        assert q.empty()
        assert buf.pending == 1

    def test_external_buffer_attachable(self):
        q = CloseableQueue()
        buf = BatchingBuffer(q, batch_size=8)  # queue sink auto-attaches
        buf.add("x")
        q.close()
        assert q.get() == "x"


class TestTrackedQueueBatches:
    def test_batch_put_counts_tuples(self):
        q = TrackedQueue()
        q.put(Batch([("t", None, 1), ("t", None, 2), ("t", None, 3)]))
        assert q.outstanding == 3
        assert q.total_put == 3
        assert q.qsize() == 1  # one envelope on the wire

    def test_pending_tasks_gauge_counts_tuples(self):
        """The auto-scaler's backlog signal: tuples enqueued, not items --
        and unlike qsize, pills do not inflate it."""
        q = TrackedQueue()
        q.put(Batch([1, 2, 3]))
        q.put("bare")
        q.put_pill()
        assert q.qsize() == 3
        assert q.pending_tasks == 4
        q.get()  # the envelope leaves the wire, its tasks stay outstanding
        assert q.pending_tasks == 1
        assert q.outstanding == 4

    def test_batch_drains_per_tuple(self):
        q = TrackedQueue()
        q.put(Batch([1, 2]))
        item = q.get()
        assert q.total_got == 2
        for _ in batch_items(item):
            q.mark_done()
        assert q.is_drained()

    def test_batch_settled_as_unit(self):
        q = TrackedQueue()
        q.put(Batch([1, 2, 3]))
        q.get()
        q.mark_done(3)
        assert q.is_drained()

    def test_mark_done_overdraw_raises(self):
        q = TrackedQueue()
        q.put(Batch([1, 2]))
        q.get()
        with pytest.raises(RuntimeError):
            q.mark_done(3)

    def test_mark_done_rejects_nonpositive(self):
        q = TrackedQueue()
        q.put("x")
        q.get()
        with pytest.raises(ValueError):
            q.mark_done(0)


class TestTrackedQueueAccounting:
    def test_starts_drained(self):
        q = TrackedQueue()
        assert q.is_drained()
        assert q.outstanding == 0

    def test_put_makes_outstanding(self):
        q = TrackedQueue()
        q.put("a")
        assert q.outstanding == 1
        assert not q.is_drained()

    def test_get_does_not_drain(self):
        """A fetched-but-unfinished task is still outstanding (the race the
        paper's plain emptiness check loses)."""
        q = TrackedQueue()
        q.put("a")
        q.get()
        assert q.empty()
        assert not q.is_drained()

    def test_mark_done_drains(self):
        q = TrackedQueue()
        q.put("a")
        q.get()
        q.mark_done()
        assert q.is_drained()

    def test_children_keep_queue_undrained(self):
        q = TrackedQueue()
        q.put("parent")
        q.get()
        q.put("child")  # enqueued before parent completes
        q.mark_done()
        assert not q.is_drained()
        q.get()
        q.mark_done()
        assert q.is_drained()

    def test_mark_done_without_get_raises(self):
        with pytest.raises(RuntimeError):
            TrackedQueue().mark_done()

    def test_counters(self):
        q = TrackedQueue()
        q.put("a")
        q.put("b")
        q.get()
        assert q.total_put == 2
        assert q.total_got == 1


class TestTrackedQueuePills:
    def test_pills_bypass_accounting(self):
        q = TrackedQueue()
        q.put_pill(2)
        assert q.is_drained()
        assert q.get() is POISON_PILL
        assert q.get() is POISON_PILL
        assert q.total_got == 0

    def test_put_pill_via_put(self):
        q = TrackedQueue()
        q.put(POISON_PILL)
        assert q.is_drained()
        assert q.get() is POISON_PILL


class TestTrackedQueueWaiting:
    def test_wait_drained_immediate(self):
        assert TrackedQueue().wait_drained(timeout=0.01)

    def test_wait_drained_timeout(self):
        q = TrackedQueue()
        q.put("x")
        assert not q.wait_drained(timeout=0.02)

    def test_wait_drained_wakes_on_completion(self):
        q = TrackedQueue()
        q.put("x")
        woke = threading.Event()

        def waiter():
            if q.wait_drained(timeout=2.0):
                woke.set()

        t = threading.Thread(target=waiter)
        t.start()
        q.get()
        q.mark_done()
        t.join(timeout=2.0)
        assert woke.is_set()

    def test_get_blocking_timeout(self):
        q = TrackedQueue()
        with pytest.raises(Empty):
            q.get(timeout=0.01)

    def test_timed_get_wakes_on_put(self):
        q = TrackedQueue()
        got = []
        t = threading.Thread(target=lambda: got.append(q.get(timeout=5.0)))
        t.start()
        q.put("x")
        t.join(timeout=5.0)
        assert not t.is_alive() and got == ["x"]

    def test_wait_drained_wakes_exactly_at_drain(self):
        """Settling a parent *with* a child must not release the waiter;
        settling the last childless task must."""
        q = TrackedQueue()
        q.put("parent")
        woke = threading.Event()

        def waiter():
            if q.wait_drained(timeout=5.0):
                woke.set()

        t = threading.Thread(target=waiter)
        t.start()
        q.get()
        q.settle(["child"])
        assert not woke.wait(timeout=0.05)
        assert q.outstanding == 1
        q.get()
        q.settle()
        t.join(timeout=5.0)
        assert not t.is_alive() and woke.is_set()


class TestTrackedQueueSettle:
    def test_settle_enqueues_children_and_settles_parent(self):
        q = TrackedQueue()
        q.put("parent")
        q.get()
        q.settle(["a", "b"])
        assert q.outstanding == 2 and q.pending_tasks == 2
        assert q.total_put == 3 and q.qsize() == 2
        assert [q.get(), q.get()] == ["a", "b"]

    def test_settle_counts_batch_children_per_tuple(self):
        q = TrackedQueue()
        q.put(Batch([1, 2]))
        q.get()
        q.settle([Batch([3, 4, 5]), 6], count=2)
        assert q.outstanding == 4 and q.qsize() == 2

    def test_failed_task_settles_without_children(self):
        q = TrackedQueue()
        q.put("doomed")
        q.get()
        q.settle()
        assert q.is_drained() and q.empty()

    def test_over_settling_raises_and_enqueues_nothing(self):
        q = TrackedQueue()
        q.put("x")
        q.get()
        with pytest.raises(RuntimeError):
            q.settle(["orphan"], count=2)
        assert q.empty() and q.outstanding == 1
        q.settle()
        with pytest.raises(RuntimeError):
            q.settle()

    def test_settle_rejects_nonpositive(self):
        q = TrackedQueue()
        q.put("x")
        q.get()
        with pytest.raises(ValueError):
            q.settle(count=0)

    def test_pills_wake_parked_getters_without_accounting(self):
        q = TrackedQueue()
        got = []
        threads = [
            threading.Thread(target=lambda: got.append(q.get(timeout=5.0)))
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        q.put_pill(3)
        for t in threads:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads)
        assert got == [POISON_PILL] * 3
        assert q.total_put == 0 and q.total_got == 0 and q.is_drained()


class _YieldingChildren(list):
    """Children whose iteration parks the calling thread, so every other
    thread gets to look at the queue from *inside* the settle."""

    def __iter__(self):
        time.sleep(0.0005)
        return super().__iter__()


class TestTrackedQueueStress:
    WORKERS = 8  # more than the sandbox's cores

    def test_settle_is_atomic_under_contention(self):
        """N producers, N consumers: ``outstanding`` must never read 0
        while a child is still to be enqueued.

        Every task of depth ``n > 0`` has exactly one child ``n - 1``, so
        the queue is legitimately drained only once every chain reached 0.
        The short chains contend; the one slow chain outlives them, is then
        the only task in flight, and hands its child over through
        :class:`_YieldingChildren` -- a settle that dropped the parent
        before adding the child would show the monitor ``outstanding == 0``
        at each of its steps.
        """
        chains = [(40, False)] * (self.WORKERS * 4) + [(60, True)]
        expected = sum(depth + 1 for depth, _ in chains)
        q = TrackedQueue()

        def produce(share):
            for task in share:
                q.put(task)

        producers = [
            threading.Thread(target=produce, args=(chains[i :: self.WORKERS],))
            for i in range(self.WORKERS)
        ]
        for t in producers:
            t.start()
        for t in producers:
            t.join(timeout=10.0)
        assert q.outstanding == q.pending_tasks == len(chains)

        early_zero = []
        stop = threading.Event()

        def monitor():
            while not stop.is_set():
                if q.outstanding == 0 and q.total_put < expected:
                    early_zero.append(q.total_put)

        def consumer():
            while True:
                task = q.get(timeout=10.0)
                if task is POISON_PILL:
                    return
                depth, slow = task
                children = [(depth - 1, slow)] if depth else []
                q.settle(_YieldingChildren(children) if slow else children)

        threads = [threading.Thread(target=consumer) for _ in range(self.WORKERS)]
        watcher = threading.Thread(target=monitor)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            watcher.start()
            for t in threads:
                t.start()
            drained = q.wait_drained(timeout=30.0)
            q.put_pill(self.WORKERS)
            for t in threads:
                t.join(timeout=10.0)
        finally:
            stop.set()
            watcher.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert drained and not any(t.is_alive() for t in threads)
        assert not early_zero
        assert q.total_put == q.total_got == expected
        assert q.outstanding == 0 and q.pending_tasks == 0 and q.qsize() == 0
