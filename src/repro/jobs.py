"""Job handles for streaming enactment sessions.

:meth:`repro.engine.Engine.submit` starts enactment immediately and returns
a :class:`Job` -- the long-lived handle of one workflow run on a (possibly
warm) deployment.  One submission is one ``Job``: a
:class:`~repro.scheduler.JobScheduler` hands out the same object while the
job still queues for admission and later launches *it*, so what the caller
holds and what the engine drives never differ:

- **incremental ingestion** -- :meth:`Job.send` pushes more tuples into a
  live source PE, :meth:`Job.close_input` signals end-of-stream;
- **streaming consumption** -- :meth:`Job.results` yields
  ``("<pe>.<port>", value)`` pairs as the collector receives them, before
  the run completes; :meth:`Job.wait` blocks for the final
  :class:`~repro.metrics.result.RunResult` (today's ``run()`` contract);
- **lifecycle control** -- :meth:`Job.cancel`, a ``deadline`` passed at
  submit time, and :attr:`Job.state` (:class:`JobState`).

On mappings declaring ``Capabilities.streaming`` the workflow runs while
input is still open; on other mappings the job *buffers* ingestion and
enacts once the input closes (results still stream out as produced).  The
handle itself is mapping-agnostic: the enactment side wires the
``send``/``close``/``cancel`` callbacks plus the ``launch`` hook that starts
the driver thread on a deployment, and drives the state machine through the
``_mark_*``/``_finish*`` methods.  A job that is prepared but not yet
launched already accepts ``send``/``close_input`` (ingestion buffers) and
``cancel`` (the handle resolves without ever enacting).
"""

from __future__ import annotations

import enum
import numbers
import queue
import threading
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.metrics.result import RunResult


class JobState(enum.Enum):
    """Lifecycle states of a :class:`Job`.

    ``PENDING -> RUNNING -> DRAINING -> DONE`` is the happy path: a job is
    *pending* until its enactment actually starts (scheduled jobs until
    admission, buffered jobs until :meth:`Job.close_input`), *running* while
    input is still open, *draining* once input closed but work remains,
    *done* when the final :class:`~repro.metrics.result.RunResult` is
    available.  ``FAILED`` and ``CANCELLED`` are the terminal error states;
    a deadline expiry cancels the job.
    """

    PENDING = "pending"
    RUNNING = "running"
    DRAINING = "draining"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States from which no further transition happens.
TERMINAL_STATES = frozenset({JobState.DONE, JobState.FAILED, JobState.CANCELLED})


class JobCancelledError(RuntimeError):
    """Raised by :meth:`Job.wait`/:meth:`Job.results` on a cancelled job."""


def check_seconds(name: str, value: Any) -> Optional[float]:
    """``None``, or a ``deadline`` / ``timeout`` in real seconds that a timer
    can be given: a real, non-bool, finite ``0 < value <= TIMEOUT_MAX``.
    Anything else -- ``NaN`` fires at once, ``inf`` kills the timer thread,
    ``True`` reads as one second -- raises ``ValueError``."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        0 < value <= threading.TIMEOUT_MAX
    ):
        raise ValueError(f"{name} must be seconds in (0, TIMEOUT_MAX], got {value!r}")
    return float(value)


#: Sentinel closing the streaming results channel.
_END = object()


class Job:
    """Handle of one submitted workflow enactment.

    Jobs are created by :meth:`repro.mappings.base.Mapping.prepare` -- the
    only construction site -- usually via :meth:`repro.engine.Engine.submit`
    or a scheduler; user code only consumes the public API below.  All
    methods are thread-safe; :meth:`results` is a single-consumer stream.
    """

    def __init__(self, mapping: str, workflow: str, streaming: bool) -> None:
        #: Registry name of the enacting mapping.
        self.mapping = mapping
        #: Name of the submitted workflow graph.
        self.workflow = workflow
        #: True when the mapping runs the full streaming path
        #: (``Capabilities.streaming``); False for buffered fallback.
        self.streaming = streaming
        self._lock = threading.Lock()
        self._state = JobState.PENDING
        self._input_closed = False
        self._terminal = threading.Event()
        self._results_q: "queue.Queue[Any]" = queue.Queue()
        self._result: Optional[RunResult] = None
        self._error: Optional[BaseException] = None
        self._cancel_reason: Optional[str] = None
        # Wired by the enactment side before the job is handed out.
        self._send_fn: Optional[Callable[[Any, Any], None]] = None
        self._close_fn: Optional[Callable[[], None]] = None
        self._cancel_fn: Optional[Callable[[], None]] = None
        self._launch_fn: Optional[Callable[[Any, bool], None]] = None
        # Guarded by ``_lock`` against ``cancel``: a job is launched at most
        # once, and never after it was cancelled.
        self._launched = False
        self._resolved = False
        self._deadline_timer: Optional[threading.Timer] = None
        self._terminal_hooks: List[Callable[["Job"], None]] = []
        self._first_result_hook: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------- inspection
    @property
    def state(self) -> JobState:
        """The current :class:`JobState` (thread-safe snapshot)."""
        with self._lock:
            return self._state

    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self._terminal.is_set()

    @property
    def result(self) -> Optional[RunResult]:
        """The final result if the job completed successfully, else None."""
        with self._lock:
            return self._result

    def __repr__(self) -> str:
        return (
            f"Job({self.workflow!r} on {self.mapping!r}, "
            f"{self.state.value}, streaming={self.streaming})"
        )

    # -------------------------------------------------------------- ingestion
    def send(self, pe_or_port: Any, tuples: Any) -> None:
        """Feed more input to a live source PE.

        Parameters
        ----------
        pe_or_port:
            A source PE (by name, PE object, or ``"<pe>.<port>"`` string
            targeting a named input port).
        tuples:
            An iterable of data items (or full input mappings); a single
            non-iterable value is not accepted -- wrap it in a list.

        On streaming mappings the tuples enter the running workflow
        immediately; on buffered mappings they are queued until
        :meth:`close_input` starts the enactment.  Raises ``RuntimeError``
        after :meth:`close_input`, and :class:`JobCancelledError` on a
        cancelled job.
        """
        with self._lock:
            if self._state is JobState.CANCELLED:
                raise JobCancelledError(self._cancel_message())
            if self._state in TERMINAL_STATES or self._input_closed:
                raise RuntimeError(
                    f"cannot send to job in state {self._state.value!r}: "
                    f"input is closed"
                )
            send = self._send_fn
        assert send is not None, "job was handed out before wiring"
        send(pe_or_port, tuples)

    def close_input(self) -> None:
        """Signal end-of-stream: no further :meth:`send` calls will come.

        Idempotent.  A running streaming job moves to ``DRAINING``; a
        pending buffered job starts enacting its buffered input.
        """
        with self._lock:
            if self._input_closed or self._state in TERMINAL_STATES:
                return
            self._input_closed = True
            if self._state is JobState.RUNNING:
                self._state = JobState.DRAINING
            close = self._close_fn
        if close is not None:
            close()

    # ------------------------------------------------------------ consumption
    def results(self, timeout: Optional[float] = None) -> Iterator[Tuple[str, Any]]:
        """Yield ``("<pe>.<port>", value)`` pairs as the run produces them.

        The stream ends when the job completes; a failed job re-raises its
        error after the last yielded pair, a cancelled one raises
        :class:`JobCancelledError`.  ``timeout`` bounds the wait for *each*
        pair (raising ``TimeoutError`` when exceeded).  Single consumer:
        each emitted pair is yielded exactly once across all iterators
        (the end-of-stream marker itself is sticky, so a late or second
        iterator terminates immediately instead of hanging).
        """
        while True:
            try:
                item = self._results_q.get(timeout=timeout)
            except queue.Empty:
                raise TimeoutError(
                    f"no result within {timeout}s (job is {self.state.value})"
                ) from None
            if item is _END:
                # Re-put the sentinel: it marks the channel closed for
                # every current and future iterator, not just this one.
                self._results_q.put(_END)
                break
            yield item
        self._raise_if_failed()

    def wait(self, timeout: Optional[float] = None) -> RunResult:
        """Close the input and block until the final result.

        The record ``Engine.run()`` returns: waiting implies no further
        input is coming, so the input is closed first.  Raises
        ``TimeoutError`` if the job is not terminal within ``timeout``,
        re-raises the enactment error on failure, and raises
        :class:`JobCancelledError` on a cancelled job (after teardown has
        completed -- a returned ``wait()`` means no workers remain).
        """
        self.close_input()
        if not self._terminal.wait(timeout=timeout):
            raise TimeoutError(
                f"job {self.workflow!r} still {self.state.value} after {timeout}s"
            )
        self._raise_if_failed()
        result = self.result
        assert result is not None
        return result

    # --------------------------------------------------------------- control
    def cancel(self, reason: Optional[str] = None) -> bool:
        """Request cancellation; returns False if the job was already terminal.

        The state flips to ``CANCELLED`` immediately (further ``send`` calls
        raise) while workers unwind in the background; :meth:`wait` /
        :meth:`results` return only after teardown finished, so a joined
        cancelled job leaks no workers.  A job that was never launched
        (still queued for admission) has nothing to unwind and resolves
        here, without ever enacting.
        """
        with self._lock:
            if self._state in TERMINAL_STATES:
                return False
            self._state = JobState.CANCELLED
            self._cancel_reason = reason
            cancel = self._cancel_fn
            launched = self._launched
        if cancel is not None:
            cancel()
        if not launched:
            self._finish_cancelled()
        return True

    # ----------------------------------------------- enactment-side plumbing
    def _wire(
        self,
        send: Callable[[Any, Any], None],
        close: Callable[[], None],
        cancel: Callable[[], None],
        launch: Callable[[Any, bool], None],
    ) -> None:
        """Install the enactment-side callbacks (before hand-out).

        ``launch(deployment, busy_fallback)`` starts the driver thread; the
        other three work from the moment they are wired, launched or not.
        """
        self._send_fn = send
        self._close_fn = close
        self._cancel_fn = cancel
        self._launch_fn = launch

    def _gate_send(
        self, gate: Callable[[Callable[[Any, Any], None], Any, Any], None]
    ) -> None:
        """Re-wire ``send`` to run ``gate(send, target, tuples)`` instead.

        The scheduler's admission backpressure: the gate meters tuples
        while the job queues and forwards to the wired ``send``.
        """
        send = self._send_fn
        assert send is not None, "gate installed before wiring"
        self._send_fn = lambda target, tuples: gate(send, target, tuples)

    def _launch(self, deployment: Any = None, busy_fallback: bool = False) -> bool:
        """Start enacting on ``deployment`` (``None``: ephemeral resources).

        Returns False, touching nothing, when the job was cancelled first
        or already launched.  A launch that raises fails the handle (so its
        hooks fire and its deadline disarms) and re-raises.
        """
        with self._lock:
            if self._launched or self._state in TERMINAL_STATES:
                return False
            self._launched = True
            launch = self._launch_fn
        assert launch is not None, "job was launched before wiring"
        try:
            launch(deployment, busy_fallback)
        except BaseException as exc:
            self._fail(exc)
            raise
        return True

    def _arm_deadline(self, deadline: Optional[float]) -> None:
        """Cancel the job ``deadline`` real seconds from now (if set).

        The value was validated by the submitting side *before* any wiring
        (raising here would orphan an already-wired handle).
        """
        if deadline is None:
            return
        timer = threading.Timer(
            deadline, lambda: self.cancel(reason=f"deadline of {deadline}s exceeded")
        )
        timer.daemon = True
        self._deadline_timer = timer
        timer.start()

    def _on_terminal(self, hook: Callable[["Job"], None]) -> None:
        """Register a hook fired once when the job reaches a terminal state.

        Hooks run on the resolving thread *before* :meth:`wait` /
        :meth:`results` callers are released, so whoever observes the job
        done also observes what its hooks did (deployment back in its pool,
        scheduler slot and stats settled, engine tracking dropped).
        """
        with self._lock:
            if not self._resolved:
                self._terminal_hooks.append(hook)
                return
        hook(self)

    def _set_first_result_hook(self, hook: Callable[[], None]) -> None:
        """Register a hook fired once, just before the first emitted result.

        The scheduler's submit->first-result latency probe.  Installing it
        after results already flowed fires it on the *next* emission (close
        enough for a probe armed at submit time, before any enactment).
        """
        with self._lock:
            self._first_result_hook = hook

    def _emit(self, key: str, value: Any) -> None:
        """Collector tap target: one streamed result pair."""
        with self._lock:
            hook, self._first_result_hook = self._first_result_hook, None
        if hook is not None:
            hook()
        self._results_q.put((key, value))

    def _mark_running(self) -> None:
        with self._lock:
            if self._state is JobState.PENDING:
                self._state = (
                    JobState.DRAINING if self._input_closed else JobState.RUNNING
                )

    def _finish(self, result: RunResult) -> None:
        self._resolve(JobState.DONE, result=result)

    def _fail(self, error: BaseException) -> None:
        self._resolve(JobState.FAILED, error=error)

    def _finish_cancelled(self) -> None:
        self._resolve(JobState.CANCELLED)

    def _resolve(
        self,
        state: JobState,
        result: Optional[RunResult] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            if self._resolved:  # a failed launch, then its caller's _fail
                return
            self._resolved = True
            # A cancel that already flipped the state wins over the driver's
            # outcome: the user asked for cancellation, the partial result
            # is discarded.
            if self._state is not JobState.CANCELLED:
                self._state = state
                self._result = result
                self._error = error
            self._input_closed = True
            hooks, self._terminal_hooks = self._terminal_hooks, []
            timer = self._deadline_timer
        if timer is not None:
            timer.cancel()
        try:
            for hook in hooks:
                hook(self)
        finally:
            self._terminal.set()
            self._results_q.put(_END)

    def _cancel_message(self) -> str:
        base = f"job {self.workflow!r} was cancelled"
        if self._cancel_reason:
            return f"{base}: {self._cancel_reason}"
        return base

    def _raise_if_failed(self) -> None:
        with self._lock:
            state, error = self._state, self._error
        if state is JobState.FAILED:
            assert error is not None
            raise error
        if state is JobState.CANCELLED:
            raise JobCancelledError(self._cancel_message())
