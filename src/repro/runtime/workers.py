"""Worker pool with ``multiprocessing.Pool``-compatible dispatch.

Algorithm 1 of the paper drives workers through ``Pool.apply_async(func,
args, callback=done)``.  :class:`WorkerPool` reproduces that interface on
threads: a fixed set of pool threads pulls submitted calls from an internal
dispatch queue, executes them, resolves an :class:`AsyncResult` and fires the
completion callback.  The auto-scaler's ``start``/``done`` bookkeeping (the
``active_count`` guard) sits on top of this, exactly as in the paper.

The pool is also used directly by the dynamic mappings without an
auto-scaler, in which case one long-running worker session is submitted per
process.

The hand-off is paid once per auto-scaled session, so it is kept to C
primitives: the dispatch queue is a :class:`queue.SimpleQueue` (its ``get``
parks in C, no Python-level condition), and an :class:`AsyncResult` waits
on one bare lock rather than a :class:`threading.Event`.
"""

from __future__ import annotations

import _thread
import queue
import threading
import traceback
from typing import Any, Callable, List, Optional


class AsyncResult:
    """Handle for a submitted call, mirroring ``multiprocessing.pool.AsyncResult``.

    ``_done`` is held from construction until the result is settled; a
    waiter acquires it and at once releases it again, so every waiter
    passes in turn.  ``_ready`` is set before the release and never
    cleared: a waiter briefly holding the lock does not make a settled
    result look unsettled.
    """

    __slots__ = ("_done", "_ready", "_value", "_error")

    def __init__(self) -> None:
        self._done = _thread.allocate_lock()
        self._done.acquire()
        self._ready = False
        self._value: Any = None
        self._error: Optional[BaseException] = None

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._ready = True
        self._done.release()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._ready = True
        self._done.release()

    def ready(self) -> bool:
        return self._ready

    def successful(self) -> bool:
        if not self._ready:
            raise ValueError("result is not ready")
        return self._error is None

    def wait(self, timeout: Optional[float] = None) -> None:
        if self._ready:
            return
        if timeout is None:
            passed = self._done.acquire()
        elif timeout > 0:
            passed = self._done.acquire(True, timeout)
        else:
            passed = self._done.acquire(False)
        if passed:
            self._done.release()

    def get(self, timeout: Optional[float] = None) -> Any:
        """Block for the result; re-raises the worker's exception if any."""
        self.wait(timeout)
        if not self._ready:
            raise TimeoutError("AsyncResult.get timed out")
        if self._error is not None:
            raise self._error
        return self._value


class CallbackError(RuntimeError):
    """A completion callback raised; chained from the original exception."""


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
    ) -> AsyncResult:
        """Schedule ``func(*args)`` on a pool worker.

        ``callback`` fires (on the worker thread) with the return value after
        successful completion -- this is the hook the auto-scaler's ``done``
        procedure uses to decrement ``active_count``.  If ``func`` raises,
        the exception is stored on the :class:`AsyncResult` *and* the
        callback still fires with ``None`` so active-count accounting cannot
        leak on worker errors.
        """
        result = AsyncResult()
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed pool")
            self._dispatch.put((func, args, callback, result))
        return result

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
            func, args, callback, result = job
            try:
                value = func(*args)
            except BaseException as exc:  # noqa: BLE001 - worker boundary
                with self._errors_lock:
                    self._errors.append(exc)
                result._reject(exc)
                traceback.print_exc()
                if callback is not None:
                    # The result already carries func's error; a callback
                    # failure here is only recorded.
                    self._fire_callback(callback, None)
            else:
                if callback is not None:
                    cb_exc = self._fire_callback(callback, value)
                    if cb_exc is not None:
                        # The callback is part of the completion contract
                        # (the auto-scaler's ``done`` bookkeeping runs
                        # there): if it raises, the submission did not
                        # complete cleanly.  Reject the result so ``get()``
                        # surfaces the failure -- otherwise it is lost to
                        # the pool thread, and a never-resolved result
                        # would hang its waiters.
                        try:
                            raise CallbackError(
                                "completion callback raised after the call succeeded"
                            ) from cb_exc
                        except CallbackError as wrapped:
                            result._reject(wrapped)
                        continue
                result._resolve(value)

    def _fire_callback(
        self, callback: Callable[[Any], None], value: Any
    ) -> Optional[BaseException]:
        """Run a completion callback; returns the exception it raised, if any."""
        try:
            callback(value)
        except BaseException as exc:  # noqa: BLE001 - callback boundary
            with self._errors_lock:
                self._errors.append(exc)
            traceback.print_exc()
            return exc
        return None
