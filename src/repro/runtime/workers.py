"""Worker pool with ``multiprocessing.Pool``-compatible dispatch.

Algorithm 1 of the paper drives workers through ``Pool.apply_async(func,
args, callback=done)``.  :class:`WorkerPool` reproduces that interface on
threads: a fixed set of pool threads pulls submitted calls from an internal
dispatch queue, executes them and fires the completion callback.  The
auto-scaler's ``start``/``done`` bookkeeping (the ``active_count`` guard)
sits on top of this, exactly as in the paper.

The pool is also used directly by the dynamic mappings without an
auto-scaler, in which case one long-running worker session is submitted per
process.

The hand-off is paid once per auto-scaled session, so it is kept to C
primitives: the dispatch queue is a :class:`queue.SimpleQueue` (its ``get``
parks in C, no Python-level condition), and a submission builds no handle
-- the callback is the one completion signal, and a caller that waits
passes one that releases a lock of its own.
"""

from __future__ import annotations

import queue
import threading
import traceback
from typing import Any, Callable, List, Optional


_STOP = object()


class WorkerPool:
    """Fixed-size thread pool with ``apply_async`` semantics.

    Parameters
    ----------
    size:
        Number of pool workers (the paper's ``max_pool_size``).
    name:
        Prefix for worker thread names (useful in stack dumps).
    """

    def __init__(self, size: int, name: str = "pool") -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size!r}")
        self.size = size
        self.name = name
        self._dispatch: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        #: Makes "not closed, so enqueue" one step against ``close``: no
        #: submission can land behind the stop sentinels.
        self._submit_lock = threading.Lock()
        self._closed = False
        self._threads: List[threading.Thread] = []
        self._errors: List[BaseException] = []
        self._errors_lock = threading.Lock()
        for index in range(size):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"{name}-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    # -- submission ---------------------------------------------------------
    def apply_async(
        self,
        func: Callable[..., Any],
        args: tuple = (),
        callback: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Schedule ``func(*args)`` on a pool worker.

        ``callback`` fires (on the worker thread) with the return value --
        this is the hook the auto-scaler's ``done`` procedure uses to
        decrement ``active_count``.  If ``func`` raises, the exception is
        recorded in :attr:`errors` and printed, and the callback still fires
        with ``None`` so active-count accounting cannot leak on worker
        errors; a raising callback is recorded the same way.  Unlike
        ``Pool.apply_async`` it returns nothing: the callback is the
        completion signal.
        """
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed pool")
            self._dispatch.put((func, args, callback))

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Stop accepting work and shut pool threads down after the backlog.

        One stop sentinel per thread goes in behind everything already
        submitted; a thread exits on the first sentinel it takes, so the
        backlog runs to the end first.
        """
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            for _ in range(self.size):
                self._dispatch.put(_STOP)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for pool threads to exit (``close`` must be called first)."""
        if not self._closed:
            raise RuntimeError("join() before close()")
        deadline = None if timeout is None else (timeout / max(len(self._threads), 1))
        for thread in self._threads:
            thread.join(timeout=deadline)

    @property
    def errors(self) -> List[BaseException]:
        """Exceptions raised by submitted calls (for post-run assertions)."""
        with self._errors_lock:
            return list(self._errors)

    # -- internals ----------------------------------------------------------
    def _worker_loop(self) -> None:
        take = self._dispatch.get
        while True:
            job = take()
            if job is _STOP:
                return
            func, args, callback = job
            value = None
            try:
                value = func(*args)
            except BaseException as exc:  # noqa: BLE001 - worker boundary
                self._record(exc)
            if callback is not None:
                try:
                    callback(value)
                except BaseException as exc:  # noqa: BLE001 - callback boundary
                    self._record(exc)

    def _record(self, exc: BaseException) -> None:
        with self._errors_lock:
            self._errors.append(exc)
        traceback.print_exc()
