"""Redis Stream data structures: entries, IDs, consumer groups, PELs.

This module models the parts of Redis Streams that give the paper's Redis
mappings their semantics:

- a log of entries with monotonically increasing ``ms-seq`` IDs, from
  which an entry every group has settled with ``XACKDECR`` is deleted
  (plain ``XACK`` keeps it, as in Redis),
- consumer groups with a *last-delivered* cursor, so multiple workers
  cooperatively consume a single stream (the "Global Queue" of Figure 2),
- per-group pending entry lists (PEL) recording which consumer holds each
  delivered-but-unacknowledged entry -- the substrate for at-least-once
  delivery, and what the adopter of a consumer named dead reads,
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
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, List, Mapping, Optional

from repro.redisim.errors import StreamIDError


class StreamID(tuple):
    """A Redis stream entry ID: ``<milliseconds>-<sequence>``.

    A ``(ms, seq)`` tuple, so hashing, equality and ordering are the
    tuple's own and run in C -- a stream's index bisects on them.
    """

    __slots__ = ()

    def __new__(cls, ms: int, seq: int) -> "StreamID":
        if ms < 0 or seq < 0:
            raise StreamIDError(f"stream ID components must be non-negative: {ms}-{seq}")
        return tuple.__new__(cls, (ms, seq))

    ms = property(itemgetter(0))
    seq = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

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
        return StreamID(self[0], self[1] + 1)

    def __str__(self) -> str:
        return f"{self[0]}-{self[1]}"

    def __repr__(self) -> str:
        return f"StreamID({self[0]}, {self[1]})"


#: Identity of "the very beginning" / "the very end" in range queries.
MIN_ID = StreamID(0, 0)
MAX_ID = StreamID(2**63 - 1, 2**63 - 1)


class StreamEntry:
    """One appended entry: its ID, that ID's wire form, and a field mapping.

    ``wire`` is ``str(id)``, formatted once at ``XADD``: every reply naming
    the entry reuses it, and the group's PEL is keyed by it.  ``fields`` is
    ``None`` once the entry is deleted (:meth:`Stream.delete`).
    """

    __slots__ = ("id", "wire", "fields")

    def __init__(self, entry_id: StreamID, fields: Dict[str, object]) -> None:
        self.id = entry_id
        self.wire = f"{entry_id[0]}-{entry_id[1]}"
        self.fields: Optional[Dict[str, object]] = fields


class PendingEntry:
    """PEL record: the delivered entry and who holds it."""

    __slots__ = ("entry", "consumer")

    def __init__(self, entry: StreamEntry, consumer: str) -> None:
        self.entry = entry
        self.consumer = consumer


#: Sort key putting PEL records in stream order (not wire-string order).
by_id = attrgetter("entry.id")


@dataclass
class Consumer:
    """Per-group consumer bookkeeping (idle time source for the auto-scaler).

    ``pending`` holds the wire IDs of the entries this consumer holds.
    """

    name: str
    last_seen: float
    pending: set = field(default_factory=set, init=False)

    def idle_ms(self, now: float) -> float:
        """Milliseconds since this consumer last interacted with the group."""
        return max(0.0, (now - self.last_seen) * 1000.0)


class ConsumerGroup:
    """A consumer group over one stream.

    ``pel`` maps the wire ID of every delivered-but-unacknowledged entry to
    its :class:`PendingEntry`: an ack names the entry as the reply did, so
    it resolves with one dict lookup, and anything that needs stream order
    sorts the records by :data:`by_id`.
    """

    def __init__(self, name: str, last_delivered: StreamID) -> None:
        self.name = name
        self.last_delivered = last_delivered
        self.consumers: Dict[str, Consumer] = {}
        self.pel: Dict[str, PendingEntry] = {}
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


#: Fewest deleted entries worth a compaction of a stream's index.
COMPACT_MIN = 64


class Stream:
    """A log of entries with consumer groups; what every group settled leaves.

    Entries are kept sorted by ID; a parallel ID list supports ``bisect``
    range queries, keeping XRANGE/XREADGROUP scans :math:`O(\\log n + k)`
    (plus the marked entries inside the range, while there are any).

    :meth:`delete` drops a settled entry's fields at once and marks it
    (``fields is None``); the marked entries leave ``entries`` and ``_ids``
    together once they are at least :data:`COMPACT_MIN` and half the index,
    so a compaction costs :math:`O(1)` per deleted entry.  Every marked
    entry had been delivered to every group when it was deleted, so a
    group's ``>`` cursor never lands before one: only a group created
    later below ``_dead_max`` (``XGROUP CREATE ... 0``) reads past marks.
    """

    def __init__(self) -> None:
        self.entries: List[StreamEntry] = []
        self._ids: List[StreamID] = []
        self.last_id = MIN_ID
        self.groups: Dict[str, ConsumerGroup] = {}
        #: Marked entries still in the index, and the highest marked ID.
        self._dead = 0
        self._dead_max = MIN_ID

    # -- append ----------------------------------------------------------------
    def add(self, fields: Mapping[str, object], now_ms: int, entry_id: Optional[str] = None) -> str:
        """Append an entry; ``entry_id`` of ``None``/``"*"`` auto-generates.

        Returns the new entry's wire ID.
        """
        if not fields:
            raise StreamIDError("XADD requires at least one field")
        last = self.last_id
        if entry_id is None or entry_id == "*":
            # Both parts are known non-negative: skip the parsing constructor.
            new_id = tuple.__new__(
                StreamID, (now_ms, 0) if now_ms > last[0] else (last[0], last[1] + 1)
            )
        else:
            new_id = StreamID.parse(entry_id)
            # Redis rule: explicit IDs must be strictly increasing, and 0-0
            # is never a valid entry ID.
            if new_id <= last or new_id == MIN_ID:
                raise StreamIDError(f"XADD id {new_id} is not greater than last id {last}")
        entry = StreamEntry(new_id, dict(fields))
        self.entries.append(entry)
        self._ids.append(new_id)
        self.last_id = new_id
        return entry.wire

    def add_each(self, field: str, values: Iterable[object], now_ms: int) -> List[str]:
        """Append one ``{field: value}`` entry per value, in order, with auto IDs.

        ``values`` holds at least one value.  The IDs are the ones as many
        auto-ID :meth:`add` calls at ``now_ms`` would assign.  Returns the
        new entries' wire IDs.
        """
        ms, seq = self.last_id
        if now_ms > ms:
            ms, seq = now_ms, -1
        entries, ids = self.entries, self._ids
        first = len(entries)
        for value in values:
            seq += 1
            # Both parts are known non-negative: skip the parsing constructor.
            new_id = tuple.__new__(StreamID, (ms, seq))
            entries.append(StreamEntry(new_id, {field: value}))
            ids.append(new_id)
        self.last_id = ids[-1]
        return [entry.wire for entry in entries[first:]]

    # -- deletion --------------------------------------------------------------
    def delete(self, entry: StreamEntry) -> bool:
        """Delete ``entry`` if every group has settled it; ``True`` if it went.

        Settled means delivered to the group and not in its PEL, so an entry
        another group has yet to read, or still holds, stays (``XACKDEL``'s
        ``ACKED`` rule); on a stream with one group, the ack that called
        this settled it.
        """
        entry_id, wire = entry.id, entry.wire
        for grp in self.groups.values():
            if entry_id > grp.last_delivered or wire in grp.pel:
                return False
        entry.fields = None
        self._dead += 1
        if entry_id > self._dead_max:
            self._dead_max = entry_id
        if self._dead >= COMPACT_MIN and 2 * self._dead >= len(self.entries):
            self.entries = live = [e for e in self.entries if e.fields is not None]
            self._ids = [e.id for e in live]
            self._dead, self._dead_max = 0, MIN_ID
        return True

    @staticmethod
    def _live(entries: List[StreamEntry]) -> List[StreamEntry]:
        """``entries`` without the deleted ones."""
        return [e for e in entries if e.fields is not None]

    # -- range queries ---------------------------------------------------------
    def __len__(self) -> int:
        """Live entries (XLEN): a deleted one no longer counts."""
        return len(self.entries) - self._dead

    def range(
        self,
        start: StreamID = MIN_ID,
        end: StreamID = MAX_ID,
        count: Optional[int] = None,
    ) -> List[StreamEntry]:
        """Live entries with ``start <= id <= end`` in ID order."""
        lo = bisect.bisect_left(self._ids, start)
        hi = bisect.bisect_right(self._ids, end)
        if self._dead:
            return self._live(self.entries[lo:hi])[:count]
        return self.entries[lo : hi if count is None else min(hi, lo + count)]

    def after(self, last: StreamID, count: Optional[int] = None) -> List[StreamEntry]:
        """At most ``count`` live entries with ``id > last`` (the ``>`` cursor
        of XREADGROUP); slices only what it returns."""
        lo = bisect.bisect_right(self._ids, last)
        if last < self._dead_max:  # a group created below a deleted entry
            return self._live(self.entries[lo:])[:count]
        if count is None:
            return self.entries[lo:]
        return self.entries[lo : lo + count]

    def lag(self, last: StreamID) -> int:
        """How many live entries have ``id > last`` (XINFO GROUPS' ``lag``)."""
        lo = bisect.bisect_right(self._ids, last)
        if last < self._dead_max:
            return len(self._live(self.entries[lo:]))
        return len(self._ids) - lo
