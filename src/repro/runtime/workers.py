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
"""

from __future__ import annotations

import threading
import traceback
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple


class AsyncResult:
    """Handle for a submitted call, mirroring ``multiprocessing.pool.AsyncResult``."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._event.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def ready(self) -> bool:
        return self._event.is_set()

    def successful(self) -> bool:
        if not self._event.is_set():
            raise ValueError("result is not ready")
        return self._error is None

    def wait(self, timeout: Optional[float] = None) -> None:
        self._event.wait(timeout=timeout)

    def get(self, timeout: Optional[float] = None) -> Any:
        """Block for the result; re-raises the worker's exception if any."""
        if not self._event.wait(timeout=timeout):
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
        self._dispatch: "Deque[Tuple[Callable[..., Any], tuple, Optional[Callable[[Any], None]], AsyncResult]]" = deque()
        self._dispatch_lock = threading.Condition()
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
        with self._dispatch_lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed pool")
            self._dispatch.append((func, args, callback, result))
            self._dispatch_lock.notify()
        return result

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Stop accepting work and shut pool threads down after the backlog."""
        with self._dispatch_lock:
            if self._closed:
                return
            self._closed = True
            self._dispatch_lock.notify_all()

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
        while True:
            with self._dispatch_lock:
                while not self._dispatch and not self._closed:
                    self._dispatch_lock.wait()
                if self._dispatch:
                    func, args, callback, result = self._dispatch.popleft()
                elif self._closed:
                    return
                else:  # pragma: no cover - spurious wakeup
                    continue
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
