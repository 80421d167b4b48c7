"""Core limiter: emulate a machine with a fixed number of CPU cores.

The paper evaluates three platforms -- *server* (16 cores), *cloud* (8
cores) and *HPC* (64 cores) -- while running up to 16 (or 64) workflow
processes.  When processes outnumber cores, the OS time-slices them and
runtime degrades (visible as the dip at 12/16 processes in the paper's
cloud figures).

We reproduce that effect with a counting semaphore holding one token per
emulated core.  A worker must hold a token while it "computes"; sleeps that
model *waiting* (network, disk, blocking reads) do not consume a core.  This
mirrors how a real OS scheduler treats CPU-bound vs. blocked processes.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.runtime.clock import Clock


class CoreLimiter:
    """Token semaphore with one token per emulated core.

    Parameters
    ----------
    cores:
        Number of emulated cores, or ``None`` for an unconstrained machine
        (useful in unit tests).
    """

    def __init__(self, cores: Optional[int] = None) -> None:
        if cores is not None and cores < 1:
            raise ValueError(f"cores must be >= 1 or None, got {cores!r}")
        self.cores = cores
        self._sem = threading.Semaphore(cores) if cores is not None else None
        self._held = 0
        self._held_lock = threading.Lock()

    @property
    def in_use(self) -> int:
        """Number of core tokens currently held (approximate, for metrics)."""
        return self._held

    @contextmanager
    def core(self) -> Iterator[None]:
        """Hold one core token for the duration of the ``with`` block."""
        if self._sem is None:
            yield
            return
        self._sem.acquire()
        with self._held_lock:
            self._held += 1
        try:
            yield
        finally:
            with self._held_lock:
                self._held -= 1
            self._sem.release()

    def compute(self, clock: Clock, nominal_seconds: float) -> None:
        """Burn ``nominal_seconds`` of CPU time on one emulated core.

        The calling worker blocks until a core token is available, then
        holds it while the (scaled) duration elapses.  This is the primitive
        all synthetic CPU-bound PE workloads are built on.
        """
        if self._sem is None:
            # No core to wait for: skip the generator context manager, which
            # costs more than the sleep itself at small time scales.
            clock.sleep(nominal_seconds)
            return
        with self.core():
            clock.sleep(nominal_seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CoreLimiter(cores={self.cores})"
