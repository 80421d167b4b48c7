"""Queues and batched-transport primitives used by the mappings.

Two queue flavours are provided:

- :class:`CloseableQueue` -- a thin wrapper over :class:`queue.Queue` with
  poison-pill close semantics, used for the port-to-port channels of the
  static ``multi`` mapping.
- :class:`TrackedQueue` -- a global task queue with *outstanding-work*
  accounting.  A task is outstanding from the moment it is put until the
  worker that consumed it calls :meth:`TrackedQueue.settle` (which
  enqueues its child tasks in the same critical section).
  ``outstanding == 0`` therefore proves no further work can ever appear,
  which is the safe termination condition the paper's retry + poison-pill
  strategy (Section 3.2.3) approximates.

Both flavours also count puts/gets so the monitoring framework (queue size
for the ``dyn_auto_multi`` auto-scaling strategy, Figure 13) can observe them
without touching internals.

Batched transport
-----------------
Shipping every tuple as its own queue/stream operation makes the per-tuple
enactment overhead (lock handoffs, round trips, wakeups) the dominant cost
of fine-grained streams.  :class:`Batch` is the transport envelope that
amortizes it: ``k`` tuples travel as one queue item / one Redis command,
and batch-aware worker loops iterate the envelope without re-entering the
dispatch machinery per tuple.  :class:`BatchingBuffer` accumulates tuples
on the producer side and flushes on either trigger of the classic pair:

- **size** -- ``batch_size`` tuples are buffered (a full envelope), or
- **linger** -- the oldest buffered tuple has waited ``linger`` seconds
  (bounded staleness for trickle-rate producers).

Both queue flavours understand envelopes natively: a :class:`Batch` put on
a :class:`TrackedQueue` accounts one outstanding unit *per tuple*, so the
drain proof stays exact at any batch size, and :meth:`CloseableQueue.close`
flushes every attached buffer before broadcasting pills, so a
linger-buffered tail tuple can never be dropped at shutdown.

``batch_size=1`` (the default everywhere) bypasses the envelope entirely --
single tuples travel bare, exactly as before batching existed.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Iterable, Iterator, List, Optional, Sequence, Union


class _PoisonPill:
    """Sentinel broadcast on queues to accelerate worker termination."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<POISON_PILL>"


#: Module-level singleton; identity-compared by workers.
POISON_PILL = _PoisonPill()


class Empty(Exception):
    """Raised by non-blocking/timed gets when no item is available."""


class Batch:
    """Transport envelope carrying several tuples as one queue/stream item.

    Deliberately minimal: a ``Batch`` is *transport*, not semantics.  The
    tuples inside are exactly what would otherwise have been shipped one by
    one, in the same order; consumers iterate the envelope and feed each
    tuple through the unchanged dispatch machinery.
    """

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Any]) -> None:
        self.items = list(items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.items)

    def __repr__(self) -> str:
        return f"Batch({len(self.items)} items)"


def batch_items(item: Any) -> List[Any]:
    """The tuples carried by ``item``: its contents for a :class:`Batch`,
    the item itself (as a singleton list) otherwise."""
    if isinstance(item, Batch):
        return item.items
    return [item]


def batch_len(item: Any) -> int:
    """How many tuples ``item`` carries (1 for a bare tuple)."""
    if isinstance(item, Batch):
        return len(item.items)
    return 1


def chunked(items: List[Any], size: int) -> Iterator[List[Any]]:
    """Split ``items`` into consecutive runs of at most ``size``."""
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    for start in range(0, len(items), size):
        yield items[start : start + size]


def as_envelope(items: List[Any]) -> Any:
    """The transport form of ``items``: bare for one tuple, else a Batch.

    Single tuples always travel unwrapped so the ``batch_size=1``
    configuration is byte-identical to pre-batching transport (and so
    consumers never pay envelope overhead for unbatchable traffic).
    """
    if len(items) == 1:
        return items[0]
    return Batch(items)


class BatchingBuffer:
    """Producer-side tuple accumulator with size- and linger-triggered flush.

    Parameters
    ----------
    sink:
        Where flushed envelopes go: a callable taking one transport item
        (a bare tuple or a :class:`Batch`).
    batch_size:
        Flush as soon as this many tuples are buffered.  ``1`` makes the
        buffer a transparent pass-through (every ``add`` forwards
        immediately, no envelope).
    linger:
        Maximum *real* seconds the oldest buffered tuple may wait before a
        flush is forced.  ``0`` disables the linger trigger (size-only).
        The check runs on every :meth:`add` and on :meth:`poll` -- this is
        a cooperative buffer, there is no background flusher thread, so
        owners must :meth:`flush` at natural barriers (end of stream,
        before termination markers).  :meth:`CloseableQueue.close` does
        this automatically for attached buffers.
    now:
        Clock used for the linger age (defaults to ``time.monotonic``).

    A buffer is intentionally **not** thread-safe: each producer owns its
    buffers, exactly as each producer owns its client connection in the
    Redis mappings.
    """

    def __init__(
        self,
        sink: Union[Callable[[Any], Any], "CloseableQueue"],
        batch_size: int = 1,
        linger: float = 0.0,
        now: Optional[Callable[[], float]] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if linger < 0:
            raise ValueError(f"linger must be >= 0, got {linger}")
        if isinstance(sink, CloseableQueue):
            queue_sink = sink
            sink.attach_buffer(self)
            self._sink: Callable[[Any], Any] = queue_sink.put
        else:
            self._sink = sink
        self.batch_size = batch_size
        self.linger = linger
        self._now = now if now is not None else time.monotonic
        self._items: List[Any] = []
        self._oldest: float = 0.0
        #: Envelopes flushed so far (monitoring).
        self.flushes = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def pending(self) -> int:
        """Tuples currently buffered (0 right after a flush)."""
        return len(self._items)

    def _expired(self) -> bool:
        return (
            self.linger > 0
            and bool(self._items)
            and (self._now() - self._oldest) >= self.linger
        )

    def add(self, item: Any) -> bool:
        """Buffer one tuple; returns True when this call flushed."""
        if self.batch_size <= 1:
            self._sink(item)
            self.flushes += 1
            return True
        if not self._items:
            self._oldest = self._now()
        self._items.append(item)
        if len(self._items) >= self.batch_size or self._expired():
            self.flush()
            return True
        return False

    def poll(self) -> bool:
        """Flush if the linger deadline passed; returns True when flushed.

        For producers with idle periods: call between ``add`` bursts so a
        buffered tail does not wait past ``linger`` for a companion tuple
        that may never come.
        """
        if self._expired():
            self.flush()
            return True
        return False

    def flush(self) -> bool:
        """Emit everything buffered as one envelope; True if anything went."""
        if not self._items:
            return False
        items, self._items = self._items, []
        self._sink(as_envelope(items))
        self.flushes += 1
        return True


class CloseableQueue:
    """FIFO queue with poison-pill close, for port-to-port channels.

    ``close(n)`` enqueues ``n`` poison pills so that ``n`` consumers each
    observe end-of-stream exactly once.  Counted-termination logic (waiting
    for one pill per upstream producer instance) lives in the mappings.

    Batched producers should create their buffer via :meth:`buffer` (or
    attach an external one with :meth:`attach_buffer`): attached buffers
    are flushed by :meth:`close` *before* the pills go out, so end-of-stream
    can never overtake a linger-buffered tail tuple.
    """

    def __init__(self, maxsize: int = 0) -> None:
        self._q: "queue.Queue[Any]" = queue.Queue(maxsize=maxsize)
        self._close_lock = threading.Lock()
        self._closed = False
        self._buffers: List["BatchingBuffer"] = []

    def put(self, item: Any) -> None:
        self._q.put(item)

    def get(self, timeout: Optional[float] = None) -> Any:
        """Blocking get; raises :class:`Empty` on timeout."""
        try:
            if timeout is None:
                return self._q.get()
            return self._q.get(timeout=timeout)
        except queue.Empty:
            raise Empty() from None

    def get_nowait(self) -> Any:
        try:
            return self._q.get_nowait()
        except queue.Empty:
            raise Empty() from None

    def qsize(self) -> int:
        return self._q.qsize()

    def empty(self) -> bool:
        return self._q.empty()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- batching ----------------------------------------------------------
    def buffer(
        self,
        batch_size: int = 1,
        linger: float = 0.0,
        now: Optional[Callable[[], float]] = None,
    ) -> "BatchingBuffer":
        """A producer-side :class:`BatchingBuffer` feeding this queue.

        The buffer is attached, so :meth:`close` flushes it first.
        """
        return BatchingBuffer(self, batch_size=batch_size, linger=linger, now=now)

    def attach_buffer(self, buffer: "BatchingBuffer") -> None:
        """Register a buffer to be flushed by :meth:`close`."""
        with self._close_lock:
            self._buffers.append(buffer)

    def close(self, consumers: int = 1) -> None:
        """Signal end-of-stream to ``consumers`` readers.  Idempotent.

        Attached batching buffers are flushed before the pills are
        broadcast: a linger-buffered tail tuple must land ahead of
        end-of-stream, or counted-termination consumers would stop reading
        with data still in flight (and silently drop it).

        Only the first call broadcasts pills: re-closing (e.g. an error
        path unwinding after a clean shutdown already closed the channel)
        must not enqueue ``consumers`` more pills, which counted-termination
        consumers downstream would misread as extra finished producers.
        """
        if consumers < 0:
            raise ValueError("consumers must be >= 0")
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            buffers = list(self._buffers)
        for buffer in buffers:
            buffer.flush()
        for _ in range(consumers):
            self._q.put(POISON_PILL)


class TrackedQueue:
    """Global task queue with outstanding-work accounting.

    Used by the dynamic mappings: workers ``get`` a task, process it, then
    :meth:`settle` it -- enqueueing its child tasks and declaring it done
    in one critical section.  The queue counts *outstanding* work items --
    tasks that have been put but whose processing has not completed.  When
    ``outstanding`` drops to zero the workflow is provably drained, because
    a completed task graph can no longer grow.

    The paper's native dynamic termination merely checks queue emptiness,
    which races with a worker that is about to enqueue children (the
    "extreme cases" of Section 3.2.3).  The outstanding counter closes that
    race; the retry/poison-pill strategy is layered on top of it in
    :mod:`repro.mappings.termination`.

    One ``deque`` and every counter live under one lock, so a task costs
    its worker two lock takes: the ``get`` and the ``settle``.
    """

    def __init__(self) -> None:
        self._items: Deque[Any] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._drained = threading.Condition(self._lock)
        #: Getters parked in ``_not_empty``; producers skip the notify at 0.
        self._waiting = 0
        self._outstanding = 0
        self._pending_tasks = 0
        self._total_put = 0
        self._total_got = 0

    # -- producer side -----------------------------------------------------
    def put(self, item: Any) -> None:
        """Enqueue a task or a :class:`Batch` of tasks.

        A batch is one queue item but ``len(batch)`` outstanding work
        units: the drain proof counts *tuples*, not envelopes, so batching
        the transport cannot weaken the termination condition.
        """
        if item is POISON_PILL:
            self.put_pill()
            return
        with self._lock:
            self._enqueue((item,))

    def put_pill(self, count: int = 1) -> None:
        """Broadcast ``count`` poison pills (control messages, not work:
        they bypass the accounting)."""
        with self._lock:
            self._items.extend([POISON_PILL] * count)
            if self._waiting:
                self._not_empty.notify(count)

    def _enqueue(self, items: Sequence[Any]) -> None:
        """Append work items and account their tuples (lock held)."""
        count = 0
        for item in items:
            count += batch_len(item)
        self._items.extend(items)
        self._outstanding += count
        self._pending_tasks += count
        self._total_put += count
        if self._waiting:
            self._not_empty.notify(len(items))

    # -- consumer side -----------------------------------------------------
    def get(self, timeout: Optional[float] = None) -> Any:
        """Blocking get; raises :class:`Empty` once ``timeout`` elapsed."""
        with self._lock:
            if not self._items:
                self._waiting += 1
                try:
                    if not self._not_empty.wait_for(self._items.__len__, timeout):
                        raise Empty()
                finally:
                    self._waiting -= 1
            item = self._items.popleft()
            if item is not POISON_PILL:
                count = batch_len(item)
                self._total_got += count
                self._pending_tasks -= count
        return item

    def settle(self, children: Sequence[Any] = (), count: int = 1) -> None:
        """Enqueue ``children`` and declare ``count`` consumed tasks done.

        One critical section for both halves: no reader can see the parent
        settled while a child is still to be enqueued, so ``outstanding``
        reaches zero only when the task graph really is exhausted.  Must be
        called exactly once per non-pill *tuple* returned by :meth:`get` (a
        :class:`Batch` item carries several) -- tuple by tuple, or once per
        envelope with ``count=len(batch)`` -- and also when the task failed
        (with whatever children it did produce).  ``children`` are queue
        items as :meth:`put` takes them, never pills.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        with self._lock:
            if self._outstanding < count:
                raise RuntimeError("more tasks settled than were got")
            if children:
                # Children first: unlocked ``outstanding`` readers must
                # never see the parent gone and the children not yet there.
                self._enqueue(children)
            self._outstanding -= count
            if self._outstanding == 0:
                self._drained.notify_all()

    def mark_done(self, count: int = 1) -> None:
        """:meth:`settle` for ``count`` tasks whose children, if any, were
        already :meth:`put`."""
        self.settle((), count)

    # -- monitoring --------------------------------------------------------
    def qsize(self) -> int:
        return len(self._items)

    @property
    def pending_tasks(self) -> int:
        """Tuples currently enqueued (not yet got), at tuple granularity.

        The backlog signal for auto-scaling under batched transport:
        ``qsize`` counts queue *items*, which undercounts the backlog by
        the batch factor once envelopes are in play, and pills inflate it.
        """
        with self._lock:
            return self._pending_tasks

    def empty(self) -> bool:
        return not self._items

    @property
    def outstanding(self) -> int:
        return self._outstanding

    @property
    def total_put(self) -> int:
        return self._total_put

    @property
    def total_got(self) -> int:
        return self._total_got

    def is_drained(self) -> bool:
        """True when every task ever put has been fully processed."""
        with self._lock:
            return self._outstanding == 0

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until drained (or timeout); returns drained status."""
        with self._lock:
            return self._drained.wait_for(lambda: self._outstanding == 0, timeout)
