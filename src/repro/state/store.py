"""Snapshot stores: where checkpointed PE-instance state lives.

A store maps an *instance id* (``"happyState.2"``) to its latest
:class:`Snapshot`.  Saves are guarded by the snapshot's sequence number --
a save that would move the cursor backwards is rejected -- so a stale
writer (a presumed-dead worker flushing one last checkpoint after its
instance was re-pinned elsewhere) can never clobber newer state.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol, runtime_checkable

from repro.redisim.client import RedisClient


@dataclass(frozen=True)
class Snapshot:
    """One checkpointed instance state.

    Attributes
    ----------
    seq:
        The last private-stream entry whose effect is included in
        ``state``, as one integer that orders like its ID
        (:func:`repro.mappings.hybrid.entry_seq`).  Replay after restore
        skips entries at or below it (the at-least-once dedup cursor).
    state:
        The dict captured by :meth:`repro.core.pe.GenericPE.get_state`.
    """

    seq: int
    state: Dict[str, Any]


@runtime_checkable
class StateStore(Protocol):
    """Protocol every snapshot store implements."""

    def save(self, instance_id: str, seq: int, state: Dict[str, Any]) -> bool:
        """Persist a snapshot; ``False`` if a newer one already exists."""
        ...

    def load(self, instance_id: str) -> Optional[Snapshot]:
        """The latest snapshot for ``instance_id``, or ``None``."""
        ...

    def delete(self, instance_id: str) -> None:
        """Drop the snapshot for ``instance_id`` (no-op when absent)."""
        ...

    def instance_ids(self) -> List[str]:
        """Instance ids that currently have a snapshot."""
        ...


class InMemoryStateStore:
    """Thread-safe in-process store (tests, single-machine runs).

    State dicts are deep-copied on both save and load so a live instance
    and its snapshot can never alias each other -- the same isolation the
    Redis store gets from pickling.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshots: Dict[str, Snapshot] = {}

    def save(self, instance_id: str, seq: int, state: Dict[str, Any]) -> bool:
        with self._lock:
            existing = self._snapshots.get(instance_id)
            if existing is not None and existing.seq > seq:
                return False
            self._snapshots[instance_id] = Snapshot(int(seq), copy.deepcopy(state))
            return True

    def load(self, instance_id: str) -> Optional[Snapshot]:
        with self._lock:
            snap = self._snapshots.get(instance_id)
        if snap is None:
            return None
        return Snapshot(snap.seq, copy.deepcopy(snap.state))

    def delete(self, instance_id: str) -> None:
        with self._lock:
            self._snapshots.pop(instance_id, None)

    def instance_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._snapshots)


class RedisSnapshotStore:
    """Snapshots on a Redis deployment (the default for ``hybrid_redis``).

    One hash key per namespace holds every instance's latest snapshot; the
    substrate's SNAPSHOT command enforces the monotonic-sequence guard
    server-side, and the client's pickle round-trip provides isolation (and
    models what shipping state to a real Redis would cost).

    Parameters
    ----------
    client:
        Connection to the deployment that should hold the snapshots.  Use a
        dedicated client per writer thread, as with any connection.
    namespace:
        Key prefix isolating this run's snapshots (``<namespace>:snapshots``).
    """

    def __init__(self, client: RedisClient, namespace: str = "repro") -> None:
        self.client = client
        self.namespace = namespace
        self.key = f"{namespace}:snapshots"

    def save(self, instance_id: str, seq: int, state: Dict[str, Any]) -> bool:
        return self.client.snapshot(self.key, instance_id, seq, state)

    def load(self, instance_id: str) -> Optional[Snapshot]:
        hit = self.client.restore(self.key, instance_id)
        if hit is None:
            return None
        seq, state = hit
        return Snapshot(seq, state)

    def delete(self, instance_id: str) -> None:
        self.client.hdel(self.key, instance_id)

    def instance_ids(self) -> List[str]:
        return sorted(self.client.hgetall(self.key))

    def for_client(self, client: RedisClient) -> "RedisSnapshotStore":
        """The same logical store accessed over a different connection."""
        return RedisSnapshotStore(client, self.namespace)
