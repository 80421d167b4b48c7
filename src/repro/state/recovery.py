"""Crash injection for the recovery harness.

A :class:`CrashInjector` is handed to a run via the ``crash_injector``
option; pinned stateful workers consult it once per invocation and die
(abruptly, mid-loop -- no error report, no abort broadcast, exactly like a
killed process) when their trigger fires.  The mapping's supervisor then
detects the dead worker, re-pins the instance on a fresh worker, restores
the latest snapshot and replays the instance's pending entries.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional


class InjectedCrash(BaseException):
    """Raised inside a worker to simulate its process dying.

    Deliberately a ``BaseException``: an injected crash must not be caught
    by the worker's normal error boundary (which would report the error and
    abort the whole run) -- it unwinds the worker silently, as a SIGKILL
    would, leaving detection to the supervisor.
    """

    def __init__(self, instance_id: str, invocation: int) -> None:
        super().__init__(f"injected crash of {instance_id} at invocation {invocation}")
        self.instance_id = instance_id
        self.invocation = invocation


class CrashInjector:
    """Kill pinned workers at chosen invocation counts.

    Parameters
    ----------
    crash_after:
        ``instance_id -> n``: the worker pinned to that instance dies when
        it reaches its ``n``-th invocation (1-based, counted across
        re-pins, so a respawned worker continues the count and does not
        re-trigger an already-fired crash).
    max_crashes:
        Times each instance's trigger fires before going quiet (default 1:
        crash once, then let the replacement run to completion).
    point:
        When the crash fires relative to the triggering invocation:
        ``"post-process"`` (default) -- after the PE mutated its state but
        *before* its emissions were dispatched downstream, the
        interesting window for recovery correctness; ``"post-dispatch"``
        -- after downstream delivery, which on recovery duplicates the
        invocation's emissions (the documented at-least-once caveat).
    """

    _POINTS = ("post-process", "post-dispatch")

    def __init__(
        self,
        crash_after: Dict[str, int],
        max_crashes: int = 1,
        point: str = "post-process",
    ) -> None:
        if point not in self._POINTS:
            raise ValueError(f"point must be one of {self._POINTS}, got {point!r}")
        for instance_id, n in crash_after.items():
            if n < 1:
                raise ValueError(
                    f"crash_after[{instance_id!r}] must be >= 1, got {n}"
                )
        self.crash_after = dict(crash_after)
        self.max_crashes = max_crashes
        self.point = point
        self._lock = threading.Lock()
        self._invocations: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}

    def record_invocation(self, instance_id: str) -> int:
        """Count one invocation; returns the new total for the instance."""
        with self._lock:
            count = self._invocations.get(instance_id, 0) + 1
            self._invocations[instance_id] = count
            return count

    def maybe_crash(self, instance_id: str, at_point: str) -> None:
        """Raise :class:`InjectedCrash` if this instance's trigger fires here."""
        if at_point != self.point:
            return
        with self._lock:
            trigger = self.crash_after.get(instance_id)
            count = self._invocations.get(instance_id, 0)
            if trigger is None or count < trigger:
                return
            if self._fired.get(instance_id, 0) >= self.max_crashes:
                return
            self._fired[instance_id] = self._fired.get(instance_id, 0) + 1
        raise InjectedCrash(instance_id, count)

    def crashes_fired(self, instance_id: Optional[str] = None) -> int:
        """Total crashes injected (optionally for one instance)."""
        with self._lock:
            if instance_id is not None:
                return self._fired.get(instance_id, 0)
            return sum(self._fired.values())
