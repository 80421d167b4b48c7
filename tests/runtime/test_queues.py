"""Tests for repro.runtime.queues."""

import sys
import threading
import time

import pytest

from repro.runtime.queues import (
    POISON_PILL,
    TIMED_OUT,
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

    def test_put_never_blocks(self):
        """Unbounded: a producer is never held up by a slow consumer."""
        q = CloseableQueue()
        for i in range(10_000):
            q.put(i)
        assert q.qsize() == 10_000

    def test_qsize_and_empty(self):
        q = CloseableQueue()
        assert q.empty()
        q.put("x")
        assert q.qsize() == 1 and not q.empty()

    def test_close_queues_pills_behind_data(self):
        """FIFO end-of-stream: what a producer put (its flushed envelopes)
        reaches the consumer before the pills ``close`` adds."""
        q = CloseableQueue()
        q.put(Batch(["a", "b"]))
        q.put("c")
        q.close(consumers=2)
        assert list(q.get()) == ["a", "b"]
        assert q.get() == "c"
        assert q.get() is POISON_PILL and q.get() is POISON_PILL


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

    def test_partial_envelope_waits_for_owner_flush(self):
        """No timer: a partial envelope stays put until its owner flushes."""
        out = []
        buf = BatchingBuffer(out.append, batch_size=4)
        buf.add("a")
        buf.add("b")
        time.sleep(0.02)
        assert out == [] and buf.pending == 2
        assert buf.flush()
        assert list(out[0]) == ["a", "b"]

    def test_flush_sends_only_the_tail(self):
        out = []
        buf = BatchingBuffer(out.append, batch_size=3)
        for item in "abcde":
            buf.add(item)
        assert buf.pending == 2
        buf.flush()
        assert [list(envelope) for envelope in out] == [["a", "b", "c"], ["d", "e"]]
        assert buf.pending == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BatchingBuffer(lambda item: None, batch_size=0)


class TestTrackedQueueBatches:
    def test_batch_put_counts_tuples(self):
        q = TrackedQueue()
        q.put(Batch([("t", None, 1), ("t", None, 2), ("t", None, 3)]))
        assert q.outstanding == q.pending_tasks == 3
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
        assert q.pending_tasks == 0 and q.outstanding == 2
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
        assert q.pending_tasks == 1
        assert q.outstanding == 2


class TestTrackedQueuePills:
    def test_pills_bypass_accounting(self):
        q = TrackedQueue()
        q.put_pill(2)
        assert q.is_drained()
        assert q.get() is POISON_PILL
        assert q.get() is POISON_PILL
        assert q.pending_tasks == q.outstanding == 0

    def test_put_pill_via_put(self):
        q = TrackedQueue()
        q.put(POISON_PILL)
        assert q.is_drained()
        assert q.get() is POISON_PILL


class TestTrackedQueueWaiting:
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


class TestTrackedQueueSettle:
    def test_settle_enqueues_children_and_settles_parent(self):
        q = TrackedQueue()
        q.put("parent")
        q.get()
        q.settle(["a", "b"])
        assert q.outstanding == 2 and q.pending_tasks == 2
        assert q.qsize() == 2
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
        assert q.pending_tasks == 0 and q.is_drained()


class TestTrackedQueueSettleAndGet:
    def test_settles_then_takes(self):
        q = TrackedQueue()
        q.put("parent")
        assert q.settle_and_get(None) == "parent"
        assert q.settle_and_get(["a", "b"]) == "a"
        assert q.outstanding == 2 and q.pending_tasks == 1
        assert q.settle_and_get([]) == "b"
        q.settle()
        assert q.is_drained() and q.empty()

    def test_none_settles_nothing(self):
        q = TrackedQueue()
        q.put("x")
        assert q.settle_and_get(None) == "x"
        assert q.outstanding == 1

    def test_batch_children_counted_per_tuple(self):
        q = TrackedQueue()
        q.put("parent")
        q.get()
        assert q.settle_and_get([Batch([1, 2, 3])]).items == [1, 2, 3]
        assert q.outstanding == 3 and q.pending_tasks == 0

    def test_timeout_takes_nothing_and_keeps_the_settle(self):
        q = TrackedQueue()
        q.put("parent")
        q.get()
        assert q.settle_and_get([], timeout=0.01) is TIMED_OUT
        assert q.is_drained() and q.empty() and q.pending_tasks == 0

    def test_a_parked_taker_owes_nothing(self):
        """The settle lands before the wait: a termination check made while
        the worker is parked already sees its task done."""
        q = TrackedQueue()
        q.put("parent")
        q.get()
        got = []
        taker = threading.Thread(target=lambda: got.append(q.settle_and_get([], timeout=5.0)))
        taker.start()
        deadline = time.monotonic() + 5.0
        while not q._waiting and time.monotonic() < deadline:
            time.sleep(0.001)
        assert q._waiting == 1 and q.is_drained()
        q.put("next")
        taker.join(timeout=5.0)
        assert not taker.is_alive() and got == ["next"]
        assert q.outstanding == 1

    def test_over_settling_raises_and_takes_nothing(self):
        q = TrackedQueue()
        q.put_pill()
        with pytest.raises(RuntimeError):
            q.settle_and_get(["orphan"])
        assert q.qsize() == 1 and q.outstanding == 0

    def test_pill_is_returned_without_accounting(self):
        q = TrackedQueue()
        q.put("x")
        q.get()
        q.put_pill()
        assert q.settle_and_get([]) is POISON_PILL
        assert q.is_drained()


class _YieldingChildren(list):
    """Children whose iteration parks the calling thread, so every other
    thread gets to look at the queue from *inside* the settle."""

    def __iter__(self):
        time.sleep(0.0005)
        return super().__iter__()


class TestTrackedQueueStress:
    WORKERS = 8  # more than the sandbox's cores

    @pytest.mark.parametrize("fused", [False, True], ids=["get-settle", "settle_and_get"])
    def test_settle_is_atomic_under_contention(self, fused):
        """N producers, N consumers: ``outstanding`` must never read 0
        while a child is still to be enqueued.

        Consumers either ``get`` and ``settle`` each task, or settle it
        with the take of their next one (:meth:`TrackedQueue.settle_and_get`,
        the worker loops' hand-off), where a task's children stay pending
        in the consumer's hands until that take.

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

        # A task is tallied once got, before its settle: ``outstanding``
        # can only read 0 with every task tallied.
        got = []
        early_zero = []
        stop = threading.Event()

        def monitor():
            while not stop.is_set():
                if q.outstanding == 0 and len(got) < expected:
                    early_zero.append(len(got))

        def children_of(task):
            depth, slow = task
            children = [(depth - 1, slow)] if depth else []
            return _YieldingChildren(children) if slow else children

        def consumer():
            if not fused:
                while True:
                    task = q.get(timeout=10.0)
                    if task is POISON_PILL:
                        return
                    got.append(task)
                    q.settle(children_of(task))
            children = None
            while True:
                task = q.settle_and_get(children, timeout=10.0)
                if task is POISON_PILL or task is TIMED_OUT:
                    return
                got.append(task)
                children = children_of(task)

        threads = [threading.Thread(target=consumer) for _ in range(self.WORKERS)]
        watcher = threading.Thread(target=monitor)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            watcher.start()
            for t in threads:
                t.start()
            deadline = time.monotonic() + 30.0
            while not q.is_drained() and time.monotonic() < deadline:
                time.sleep(0.001)
            drained = q.is_drained()
            q.put_pill(self.WORKERS)
            for t in threads:
                t.join(timeout=10.0)
        finally:
            stop.set()
            watcher.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert drained and not any(t.is_alive() for t in threads)
        assert not early_zero
        assert len(got) == expected
        assert q.outstanding == 0 and q.pending_tasks == 0 and q.qsize() == 0
