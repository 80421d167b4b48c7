"""Redis Stream data structures: entries, IDs, consumer groups, PELs.

This module models the parts of Redis Streams that give the paper's Redis
mappings their semantics:

- append-only log of entries with monotonically increasing ``ms-seq`` IDs,
- consumer groups with a *last-delivered* cursor, so multiple workers
  cooperatively consume a single stream (the "Global Queue" of Figure 2),
- per-group pending entry lists (PEL) recording which consumer holds each
  delivered-but-unacknowledged entry, with delivery timestamps -- the
  substrate for at-least-once delivery and for XAUTOCLAIM recovery,
- per-consumer idle times, the metric the ``dyn_auto_redis`` auto-scaling
  strategy monitors (Section 3.2.2: "we utilize Redis's consumer group's
  average idle time").

Locking is owned by :class:`repro.redisim.server.RedisServer`; the classes
here are plain data structures and must only be touched under the server
lock.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import total_ordering
from typing import Dict, List, Mapping, Optional, Tuple

from repro.redisim.errors import StreamIDError


@total_ordering
class StreamID:
    """A Redis stream entry ID: ``<milliseconds>-<sequence>``."""

    __slots__ = ("ms", "seq")

    def __init__(self, ms: int, seq: int) -> None:
        if ms < 0 or seq < 0:
            raise StreamIDError(f"stream ID components must be non-negative: {ms}-{seq}")
        self.ms = ms
        self.seq = seq

    @classmethod
    def parse(cls, raw: "str | StreamID", default_seq: int = 0) -> "StreamID":
        """Parse ``"ms-seq"`` or ``"ms"`` (sequence defaults to ``default_seq``)."""
        if isinstance(raw, StreamID):
            return raw
        text = str(raw)
        try:
            if "-" in text:
                ms_part, seq_part = text.split("-", 1)
                return cls(int(ms_part), int(seq_part))
            return cls(int(text), default_seq)
        except (TypeError, ValueError) as exc:
            raise StreamIDError(f"invalid stream ID {raw!r}") from exc

    def next(self) -> "StreamID":
        """Smallest ID strictly greater than this one."""
        return StreamID(self.ms, self.seq + 1)

    def _key(self) -> Tuple[int, int]:
        return (self.ms, self.seq)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StreamID) and self._key() == other._key()

    def __lt__(self, other: "StreamID") -> bool:
        if not isinstance(other, StreamID):
            return NotImplemented
        return self._key() < other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        return f"{self.ms}-{self.seq}"

    def __repr__(self) -> str:
        return f"StreamID({self.ms}, {self.seq})"


#: Identity of "the very beginning" / "the very end" in range queries.
MIN_ID = StreamID(0, 0)
MAX_ID = StreamID(2**63 - 1, 2**63 - 1)


@dataclass
class StreamEntry:
    """One appended entry: an ID plus a flat field mapping."""

    id: StreamID
    fields: Dict[str, object]


@dataclass
class PendingEntry:
    """PEL record: who holds an entry, and since when."""

    consumer: str
    delivery_time: float


@dataclass
class Consumer:
    """Per-group consumer bookkeeping (idle time source for the auto-scaler)."""

    name: str
    last_seen: float
    pending: set = field(default_factory=set)

    def idle_ms(self, now: float) -> float:
        """Milliseconds since this consumer last interacted with the group."""
        return max(0.0, (now - self.last_seen) * 1000.0)


class ConsumerGroup:
    """A consumer group over one stream."""

    def __init__(self, name: str, last_delivered: StreamID) -> None:
        self.name = name
        self.last_delivered = last_delivered
        self.consumers: Dict[str, Consumer] = {}
        self.pel: Dict[StreamID, PendingEntry] = {}
        self.entries_read = 0

    def get_consumer(self, name: str, now: float, refresh: bool = True) -> Consumer:
        """Fetch-or-create a consumer, optionally refreshing last-seen.

        ``refresh=False`` is used by polling reads that deliver nothing:
        the ``dyn_auto_redis`` strategy needs idle time to mean "time since
        this consumer last received or acknowledged work", so that starved
        consumers accumulate idle time even while they keep polling.
        """
        consumer = self.consumers.get(name)
        if consumer is None:
            consumer = Consumer(name=name, last_seen=now)
            self.consumers[name] = consumer
        elif refresh:
            consumer.last_seen = now
        return consumer


class Stream:
    """Append-only log with consumer groups; an entry, once added, stays.

    Entries are kept sorted by ID; a parallel key list supports ``bisect``
    range queries, keeping XRANGE/XREADGROUP scans :math:`O(\\log n + k)`.
    """

    def __init__(self) -> None:
        self.entries: List[StreamEntry] = []
        self._keys: List[Tuple[int, int]] = []
        self.last_id = StreamID(0, 0)
        self.groups: Dict[str, ConsumerGroup] = {}

    # -- append ----------------------------------------------------------------
    def add(self, fields: Mapping[str, object], now_ms: int, entry_id: Optional[str] = None) -> StreamID:
        """Append an entry; ``entry_id`` of ``None``/``"*"`` auto-generates."""
        if not fields:
            raise StreamIDError("XADD requires at least one field")
        if entry_id is None or entry_id == "*":
            if now_ms > self.last_id.ms:
                new_id = StreamID(now_ms, 0)
            else:
                new_id = StreamID(self.last_id.ms, self.last_id.seq + 1)
        else:
            new_id = StreamID.parse(entry_id)
            # Redis rule: explicit IDs must be strictly increasing, and 0-0
            # is never a valid entry ID.
            if new_id <= self.last_id or new_id == StreamID(0, 0):
                raise StreamIDError(
                    f"XADD id {new_id} is not greater than last id {self.last_id}"
                )
        entry = StreamEntry(id=new_id, fields=dict(fields))
        self.entries.append(entry)
        self._keys.append(new_id._key())
        self.last_id = new_id
        return new_id

    # -- range queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def range(
        self,
        start: StreamID = MIN_ID,
        end: StreamID = MAX_ID,
        count: Optional[int] = None,
    ) -> List[StreamEntry]:
        """Entries with ``start <= id <= end`` in ID order."""
        lo = bisect.bisect_left(self._keys, start._key())
        hi = bisect.bisect_right(self._keys, end._key())
        selected = self.entries[lo:hi]
        if count is not None:
            selected = selected[:count]
        return selected

    def after(self, last: StreamID, count: Optional[int] = None) -> List[StreamEntry]:
        """Entries with ``id > last`` (the ``>`` cursor of XREADGROUP)."""
        lo = bisect.bisect_right(self._keys, last._key())
        selected = self.entries[lo:]
        if count is not None:
            selected = selected[:count]
        return selected

    def get(self, entry_id: StreamID) -> Optional[StreamEntry]:
        """Entry with exactly this ID, or None."""
        index = bisect.bisect_left(self._keys, entry_id._key())
        if index < len(self._keys) and self._keys[index] == entry_id._key():
            return self.entries[index]
        return None
