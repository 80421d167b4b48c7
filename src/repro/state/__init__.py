"""Checkpoint/restore subsystem for stateful enactment.

The paper makes dispel4py stateful under dynamic scheduling by pinning
stateful PE instances to dedicated workers (``hybrid_redis``, Section
3.1.2) -- but pinned local state dies with its worker.  This package treats
instance state as a first-class, persistable artifact:

- :class:`StateStore` -- where snapshots live: :class:`InMemoryStateStore`
  for tests and single-process runs, :class:`RedisSnapshotStore` on the
  run's Redis deployment (the default for ``hybrid_redis``), built on the
  substrate's sequence-guarded SNAPSHOT/RESTORE commands.
- :class:`Snapshot` -- one captured state: the PE's
  :meth:`~repro.core.pe.GenericPE.get_state` dict plus the cursor of the
  last private-stream entry it covers.
- :class:`CrashInjector` / :class:`InjectedCrash` -- the fault-injection
  harness: kills a pinned worker after a chosen number of invocations so
  recovery (re-pin, restore, replay) can be exercised deterministically.

Recovery semantics are at-least-once: deliveries between the last
checkpoint and the crash are replayed from the instance's pending-entry
list and deduplicated against the snapshot's cursor, but their *downstream*
emissions may be re-sent.  Exactly-once would require transactional
cross-queue dispatch; the paper's workflows (running aggregates, latest-
wins tables) are tolerant by construction.
"""

from repro.state.recovery import CrashInjector, InjectedCrash
from repro.state.store import (
    InMemoryStateStore,
    RedisSnapshotStore,
    Snapshot,
    StateStore,
)

#: Private-queue deliveries between checkpoints at the default interval.
DEFAULT_CHECKPOINT_INTERVAL = 25

__all__ = [
    "CrashInjector",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "InMemoryStateStore",
    "InjectedCrash",
    "RedisSnapshotStore",
    "Snapshot",
    "StateStore",
]
