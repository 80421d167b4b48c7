"""Execution substrate for the workflow engine.

This package provides the low-level machinery every mapping is built on:

- :mod:`repro.runtime.clock` -- a scalable clock so that workloads expressed
  in "paper seconds" can be replayed in milliseconds without changing any
  scheduling logic.
- :mod:`repro.runtime.cores` -- a token-semaphore *core limiter* that emulates
  a machine with a fixed number of CPU cores, reproducing oversubscription
  effects (the paper's 8-core *cloud* platform running 16 processes).
- :mod:`repro.runtime.queues` -- closeable/tracked queues with poison-pill
  support and in-flight task accounting used by the termination strategies.
- :mod:`repro.runtime.workers` -- a ``multiprocessing.Pool``-style thread pool
  (``apply_async`` + completion callbacks) used by the auto-scaler and by
  warm deployments.  The dedicated-worker helper is
  :func:`repro.mappings.base.run_workers`.
- :mod:`repro.runtime.accounting` -- per-worker activity meters implementing
  the paper's *total process time* metric (sum of active process durations).

The paper runs workers as OS processes.  The in-process mappings run them
as threads of this package's pools: every workload here is
sleep/IO-dominated, so threads preserve the queueing and contention
dynamics while keeping the suite portable and fast.  ``cluster_redis``
runs its workers as OS processes
(``multiprocessing.get_context(start_method).Process``, ``spawn`` by
default), which reach the keyspace over TCP; ``repro join`` adds more from
other processes or hosts.
"""

from repro.runtime.accounting import ActivityMeter
from repro.runtime.clock import Clock
from repro.runtime.cores import CoreLimiter
from repro.runtime.queues import POISON_PILL, CloseableQueue, TrackedQueue
from repro.runtime.workers import WorkerPool

__all__ = [
    "ActivityMeter",
    "Clock",
    "CloseableQueue",
    "CoreLimiter",
    "POISON_PILL",
    "TrackedQueue",
    "WorkerPool",
]
