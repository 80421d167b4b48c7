"""Thread-safe in-process Redis server.

Holds a single keyspace mapping keys to typed values (string, list, hash,
stream) and implements the commands the workflow mappings send.  All
commands run under one re-entrant lock.  A blocking command (``BLPOP``,
``BLMOVE``, blocking ``XREADGROUP``) that finds nothing parks on its own
condition over that lock, registered under every key it waits on, and a
write wakes only the clients registered under the key it wrote -- Redis's
per-key blocked-client lists, so an idle consumer of one queue sleeps
through every other queue's traffic.

Commands follow the semantics documented at redis.io closely; deliberate
simplifications (no expiry, no persistence, no cluster) are listed in the
package docstring.
"""

from __future__ import annotations

import fnmatch
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.redisim.errors import (
    BusyGroupError,
    ConnectionError,
    NoGroupError,
    RedisError,
    WrongTypeError,
)
from repro.redisim.streams import (
    MAX_ID,
    MIN_ID,
    ConsumerGroup,
    PendingEntry,
    Stream,
    StreamID,
    by_id,
)

_TYPE_STRING = "string"
_TYPE_LIST = "list"
_TYPE_HASH = "hash"
_TYPE_STREAM = "stream"


def _parse_range_id(raw: str, *, is_start: bool) -> StreamID:
    """Parse XRANGE-style boundary IDs (``-`` and ``+`` sentinels allowed)."""
    if raw == "-":
        return MIN_ID
    if raw == "+":
        return MAX_ID
    return StreamID.parse(raw, default_seq=0 if is_start else (2**63 - 1))


def _is_int(value: Any, at_least: int) -> bool:
    """A real integer no smaller than ``at_least`` (``True`` and ``"5"`` are not)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= at_least


class RedisServer:
    """The in-process server: one keyspace, one big lock, condition wakeups.

    Parameters
    ----------
    now:
        Monotonic time source (seconds).  Injectable for deterministic tests
        of idle-time behaviour.
    """

    def __init__(self, now: Callable[[], float] = time.monotonic) -> None:
        self._now = now
        self._lock = threading.RLock()
        #: key -> the condition of every client parked on it (see :meth:`_park`).
        self._blocked: Dict[str, List[threading.Condition]] = {}
        #: Clients waiting in :meth:`_park` right now (read under the lock).
        self._parked = 0
        self._data: Dict[str, Tuple[str, Any]] = {}
        self._seq: Dict[str, int] = {}
        self._closed = False
        self.command_count: Dict[str, int] = {}

    # ------------------------------------------------------------- lifecycle
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the server down, waking every blocked reader.

        Clients parked in blocking commands (``BLPOP``, ``BLMOVE``, blocking
        ``XREADGROUP``) are released immediately with
        :class:`~repro.redisim.errors.ConnectionError` -- without this, a
        reader blocked with ``timeout=None`` would hang forever once the
        server goes away, because nothing would ever notify its condition
        variable again.  Non-blocking commands issued after close also fail
        with :class:`~repro.redisim.errors.ConnectionError`.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wake_all()

    @property
    def parked(self) -> int:
        """How many clients wait in a blocking command right now."""
        with self._lock:
            return self._parked

    def _check_open(self) -> None:
        if self._closed:
            raise ConnectionError("redisim server is closed")

    def wake(self) -> None:
        """Wake every parked blocking command to re-check its ``cancelled``
        predicate (the TCP front-end's, when a connection of its dies)."""
        with self._lock:
            self._wake_all()

    def _wake_all(self) -> None:
        for key in self._blocked:
            self._notify(key)

    def _park(
        self,
        keys: Iterable[str],
        deadline: Optional[float],
        cancelled: Optional[Callable[[], bool]],
    ) -> bool:
        """The one wait of every blocking command: lock held, nothing found.

        Registers the client under each of ``keys`` and releases the lock
        until a write to one of them, or :meth:`wake`.  ``False`` tells the
        command to give up -- return empty, consuming nothing -- because
        ``deadline`` passed or ``cancelled()`` turned true; a closed server
        raises instead.
        """
        waiter = threading.Condition(self._lock)
        blocked = self._blocked
        for key in keys:
            blocked.setdefault(key, []).append(waiter)
        self._parked += 1
        try:
            if deadline is None:
                timed_out = not waiter.wait()
            else:
                remaining = deadline - self._now()
                timed_out = remaining <= 0 or not waiter.wait(timeout=remaining)
        finally:
            self._parked -= 1
            for key in keys:
                waiters = blocked[key]
                waiters.remove(waiter)
                if not waiters:
                    del blocked[key]
        self._check_open()
        return not (timed_out or (cancelled is not None and cancelled()))

    def _notify(self, key: str) -> None:
        """Wake the clients parked on ``key`` after a write to it.

        Every write runs under the lock a parking client holds until it
        has registered and waits, so a write cannot miss a waiter.
        """
        for waiter in self._blocked.get(key, ()):
            waiter.notify()

    # ------------------------------------------------------------------ util
    def _count(self, command: str) -> None:
        if self._closed:
            raise ConnectionError("redisim server is closed")
        counts = self.command_count
        counts[command] = counts.get(command, 0) + 1

    def _get_typed(self, key: str, expected: str) -> Any:
        slot = self._data.get(key)
        if slot is None:
            return None
        actual, value = slot
        if actual != expected:
            raise WrongTypeError(key, expected, actual)
        return value

    def _now_ms(self) -> int:
        return int(self._now() * 1000)

    def time_ms(self) -> int:
        """Server clock in milliseconds (used by tests)."""
        with self._lock:
            return self._now_ms()

    # ----------------------------------------------------------- transactions
    #: Commands executable inside a transaction (MULTI/EXEC equivalent).
    _TXN_COMMANDS = frozenset(
        {
            "set", "get", "incrby", "decrby", "delete",
            "rpush", "rpushseq", "lpop", "hdel", "hincrby",
            "xadd", "xaddn", "xack", "xackdecr", "snapshot", "xreadgroup",
        }
    )

    def transaction(self, commands):
        """Execute a command batch atomically under one lock acquisition.

        The in-process equivalent of Redis MULTI/EXEC (or a pipeline with a
        single round trip): ``commands`` is a list of
        ``(name, args, kwargs)`` triples restricted to
        :data:`_TXN_COMMANDS`.  Returns the list of results.  Each write
        wakes the clients parked on its own key as it runs; they take the
        lock only once the batch has released it.

        ``xreadgroup``, the one admitted command that can block, must not
        (``block_ms`` absent): parking inside the batch would release the
        lock mid-transaction and void its atomicity.
        """
        results = []
        allowed = self._TXN_COMMANDS
        with self._lock:
            for name, args, kwargs in commands:
                if name not in allowed:
                    raise RedisError(f"command {name!r} not allowed in a transaction")
                if name == "xreadgroup" and (
                    len(args) > 4 or kwargs.get("block_ms") is not None
                ):
                    raise RedisError("blocking xreadgroup not allowed in a transaction")
                results.append(getattr(self, name)(*args, **kwargs))
        return results

    # --------------------------------------------------------------- generic
    def dbsize(self) -> int:
        with self._lock:
            self._count("dbsize")
            return len(self._data)

    def keys(self, pattern: str = "*") -> List[str]:
        with self._lock:
            self._count("keys")
            return [k for k in self._data if fnmatch.fnmatchcase(k, pattern)]

    def delete(self, *keys: str) -> int:
        with self._lock:
            self._count("delete")
            removed = 0
            for key in keys:
                self._seq.pop(key, None)
                if key in self._data:
                    del self._data[key]
                    removed += 1
                    self._notify(key)
            return removed

    def exists(self, *keys: str) -> int:
        with self._lock:
            self._count("exists")
            return sum(1 for key in keys if key in self._data)

    # --------------------------------------------------------------- strings
    def set(self, key: str, value: Any) -> bool:
        # No notify: nothing blocks on string values, and waking every
        # BLPOP/XREADGROUP waiter per counter write is pure contention.
        with self._lock:
            self._count("set")
            self._data[key] = (_TYPE_STRING, value)
            return True

    def get(self, key: str) -> Any:
        with self._lock:
            self._count("get")
            return self._get_typed(key, _TYPE_STRING)

    def incrby(self, key: str, amount: int = 1) -> int:
        with self._lock:
            self._count("incrby")
            current = self._get_typed(key, _TYPE_STRING)
            if current is None:
                current = 0
            try:
                new_value = int(current) + amount
            except (TypeError, ValueError) as exc:
                raise RedisError(f"value at {key!r} is not an integer") from exc
            self._data[key] = (_TYPE_STRING, new_value)
            return new_value

    def decrby(self, key: str, amount: int = 1) -> int:
        return self.incrby(key, -amount)

    # ----------------------------------------------------------------- lists
    def _list_for_write(self, key: str) -> deque:
        value = self._get_typed(key, _TYPE_LIST)
        if value is None:
            value = deque()
            self._data[key] = (_TYPE_LIST, value)
        return value

    def rpush(self, key: str, *values: Any) -> int:
        with self._lock:
            self._count("rpush")
            lst = self._list_for_write(key)
            lst.extend(values)
            self._notify(key)
            return len(lst)

    def _pop(self, key: str) -> Any:
        """Pop the head of the list at ``key``, dropping the key once empty."""
        lst = self._get_typed(key, _TYPE_LIST)
        if not lst:
            return None
        value = lst.popleft()
        if not lst:
            del self._data[key]
        return value

    def _take(self, key: str, lst: deque, count: int) -> List[Any]:
        """Pop up to ``count`` from the head of ``lst``, the list at ``key``."""
        taken = [lst.popleft() for _ in range(min(count, len(lst)))]
        if not lst:
            del self._data[key]
        return taken

    def lpop(self, key: str, count: Optional[int] = None) -> Any:
        """Pop the head; ``LPOP key count`` (Redis >= 6.2) pops up to ``count``
        in one atomic step and answers a list, ``None`` for a missing key."""
        if count is not None and not _is_int(count, 0):
            raise RedisError(f"value is out of range, must be positive: {count!r}")
        with self._lock:
            self._count("lpop")
            if count is None:
                return self._pop(key)
            lst = self._get_typed(key, _TYPE_LIST)
            if not lst:
                return None
            return self._take(key, lst, count)

    def blpop(
        self,
        keys: Iterable[str],
        timeout: Optional[float] = None,
        cancelled: Optional[Callable[[], bool]] = None,
    ) -> Optional[Tuple[str, Any]]:
        """Blocking left-pop across ``keys``; ``None`` on timeout.

        ``timeout`` is in seconds; ``None`` or ``0`` blocks forever (as in
        Redis, where 0 means block indefinitely).  ``cancelled``, on every
        blocking command, lets the caller abandon the wait: see :meth:`wake`.
        """
        keys = list(keys)
        deadline = self._now() + timeout if timeout else None
        with self._lock:
            self._count("blpop")
            while True:
                for key in keys:
                    lst = self._get_typed(key, _TYPE_LIST)
                    if lst:
                        return key, self._pop(key)
                if not self._park(keys, deadline, cancelled):
                    return None

    def blmove(
        self,
        source: str,
        destination: str,
        timeout: Optional[float] = None,
        cancelled: Optional[Callable[[], bool]] = None,
    ) -> Any:
        """Blocking ``LMOVE source destination LEFT RIGHT``; ``None`` on timeout.

        Atomically pops the head of ``source`` and appends it to the tail of
        ``destination`` -- the reliable-queue idiom (redis.io: pattern behind
        ``BLMOVE``): the element is never in limbo, so a consumer that dies
        mid-processing leaves it recoverable on ``destination``.
        """
        deadline = self._now() + timeout if timeout else None
        with self._lock:
            self._count("blmove")
            while True:
                if self._get_typed(source, _TYPE_LIST):
                    moved = self._pop(source)
                    self._list_for_write(destination).append(moved)
                    self._notify(destination)
                    return moved
                if not self._park((source,), deadline, cancelled):
                    return None

    def rpushseq(self, key: str, *values: Any) -> List[int]:
        """Append values tagged with a per-key monotonic sequence number.

        Each stored element is a ``(seq, value)`` pair where ``seq`` counts
        total appends to ``key`` since the key space was created -- the
        sequence survives the list emptying out (unlike the list value
        itself), so consumers can use it as a stable replay cursor across
        crashes.  Returns the assigned sequence numbers.
        """
        with self._lock:
            self._count("rpushseq")
            lst = self._list_for_write(key)
            assigned = []
            seq = self._seq.get(key, 0)
            for value in values:
                seq += 1
                lst.append((seq, value))
                assigned.append(seq)
            self._seq[key] = seq
            self._notify(key)
            return assigned

    def llen(self, key: str) -> int:
        with self._lock:
            self._count("llen")
            lst = self._get_typed(key, _TYPE_LIST)
            return 0 if lst is None else len(lst)

    def lrange(self, key: str, start: int, end: int) -> List[Any]:
        with self._lock:
            self._count("lrange")
            lst = self._get_typed(key, _TYPE_LIST)
            if lst is None:
                return []
            items = list(lst)
            # Redis end index is inclusive; -1 means "through the last item".
            if end == -1:
                return items[start:]
            return items[start : end + 1]

    # ---------------------------------------------------------------- hashes
    def hdel(self, key: str, *fields: str) -> int:
        with self._lock:
            self._count("hdel")
            mapping = self._get_typed(key, _TYPE_HASH)
            if mapping is None:
                return 0
            removed = 0
            for field in fields:
                if field in mapping:
                    del mapping[field]
                    removed += 1
            if not mapping:
                del self._data[key]
            return removed

    def hgetall(self, key: str) -> Dict[str, Any]:
        with self._lock:
            self._count("hgetall")
            mapping = self._get_typed(key, _TYPE_HASH)
            return {} if mapping is None else dict(mapping)

    def hincrby(self, key: str, field: str, amount: int = 1) -> int:
        with self._lock:
            self._count("hincrby")
            mapping = self._get_typed(key, _TYPE_HASH)
            if mapping is None:
                mapping = {}
                self._data[key] = (_TYPE_HASH, mapping)
            try:
                new_value = int(mapping.get(field, 0)) + amount
            except (TypeError, ValueError) as exc:
                raise RedisError(f"hash field {key!r}/{field!r} is not an integer") from exc
            mapping[field] = new_value
            return new_value

    # ------------------------------------------------------------- snapshots
    def snapshot(self, key: str, snapshot_id: str, seq: int, blob: Any) -> bool:
        """Store an opaque state snapshot under ``key``/``snapshot_id``.

        Snapshots live in a hash keyed by ``snapshot_id`` (one per pinned PE
        instance), each holding a ``(seq, blob)`` pair.  ``seq`` is the
        replay cursor the snapshot covers; a write with a *lower* sequence
        than the stored one is rejected (returns ``False``), so a stale
        writer -- e.g. a presumed-dead worker checkpointing after its
        instance was already re-pinned and advanced elsewhere -- can never
        clobber newer state.
        """
        with self._lock:
            self._count("snapshot")
            mapping = self._get_typed(key, _TYPE_HASH)
            if mapping is None:
                mapping = {}
                self._data[key] = (_TYPE_HASH, mapping)
            existing = mapping.get(snapshot_id)
            if existing is not None and existing[0] > seq:
                return False
            mapping[snapshot_id] = (int(seq), blob)
            return True

    def restore(self, key: str, snapshot_id: str) -> Optional[Tuple[int, Any]]:
        """Fetch the latest snapshot as ``(seq, blob)``, or ``None``."""
        with self._lock:
            self._count("restore")
            mapping = self._get_typed(key, _TYPE_HASH)
            if mapping is None:
                return None
            return mapping.get(snapshot_id)

    # --------------------------------------------------------------- streams
    def _stream_for_write(self, key: str) -> Stream:
        stream = self._get_typed(key, _TYPE_STREAM)
        if stream is None:
            stream = Stream()
            self._data[key] = (_TYPE_STREAM, stream)
        return stream

    def _stream_or_none(self, key: str) -> Optional[Stream]:
        return self._get_typed(key, _TYPE_STREAM)

    def _group(self, key: str, group: str) -> ConsumerGroup:
        stream = self._stream_or_none(key)
        if stream is None or group not in stream.groups:
            raise NoGroupError(key, group)
        return stream.groups[group]

    def xadd(self, key: str, fields: Mapping[str, Any], entry_id: str = "*") -> str:
        with self._lock:
            self._count("xadd")
            stream = self._stream_or_none(key)
            if stream is not None:
                wire = stream.add(fields, self._now_ms(), entry_id)
            else:
                stream = Stream()
                wire = stream.add(fields, self._now_ms(), entry_id)
                # Stored once the entry is in, so a refused XADD makes no key.
                self._data[key] = (_TYPE_STREAM, stream)
            self._notify(key)
            return wire

    def xaddn(self, key: str, field: str, *values: Any) -> List[str]:
        """XADDN: one auto-ID entry ``{field: value}`` per value, in order.

        A redisim extension: a window's children in one atomic step, one
        command and one wakeup, not one ``XADD`` each.  Answers the new
        IDs.  Refused whole -- no key made, no entry added -- on an empty
        value list or a key holding another type.
        """
        if not values:
            raise RedisError("wrong number of arguments for 'xaddn' command")
        with self._lock:
            self._count("xaddn")
            stream = self._stream_or_none(key)
            if stream is None:
                stream = Stream()
                self._data[key] = (_TYPE_STREAM, stream)
            wires = stream.add_each(field, values, self._now_ms())
            self._notify(key)
            return wires

    def xlen(self, key: str) -> int:
        with self._lock:
            self._count("xlen")
            stream = self._stream_or_none(key)
            return 0 if stream is None else len(stream)

    def xrange(
        self,
        key: str,
        min_id: str = "-",
        max_id: str = "+",
        count: Optional[int] = None,
    ) -> List[Tuple[str, Dict[str, Any]]]:
        with self._lock:
            self._count("xrange")
            stream = self._stream_or_none(key)
            if stream is None:
                return []
            start = _parse_range_id(min_id, is_start=True)
            end = _parse_range_id(max_id, is_start=False)
            return [(e.wire, dict(e.fields)) for e in stream.range(start, end, count)]

    def xgroup_create(
        self, key: str, group: str, entry_id: str = "$", mkstream: bool = False
    ) -> bool:
        with self._lock:
            self._count("xgroup_create")
            stream = self._stream_or_none(key)
            if stream is None:
                if not mkstream:
                    raise RedisError(
                        f"stream {key!r} does not exist (use mkstream=True)"
                    )
                stream = self._stream_for_write(key)
            if group in stream.groups:
                raise BusyGroupError(key, group)
            start = stream.last_id if entry_id == "$" else StreamID.parse(entry_id)
            stream.groups[group] = ConsumerGroup(group, last_delivered=start)
            return True

    def xreadgroup(
        self,
        group: str,
        consumer: str,
        streams: Mapping[str, str],
        count: Optional[int] = None,
        block_ms: Optional[int] = None,
        cancelled: Optional[Callable[[], bool]] = None,
    ) -> List[Tuple[str, List[Tuple[str, Dict[str, Any]]]]]:
        """Consumer-group read; ``block_ms`` ``None`` does not block, ``0``
        blocks forever (as in Redis).

        ``">"`` delivers entries never delivered to this group (advancing the
        group cursor and inserting into the PEL); an explicit ID replays the
        calling consumer's own pending entries after that ID.
        """
        deadline = self._now() + block_ms / 1000.0 if block_ms else None
        with self._lock:
            self._count("xreadgroup")
            while True:
                reply = []
                now = self._now()
                for key, cursor in streams.items():
                    stream = self._stream_or_none(key)
                    grp = None if stream is None else stream.groups.get(group)
                    if grp is None:
                        raise NoGroupError(key, group)
                    member = grp.get_consumer(consumer, now, refresh=False)
                    if cursor == ">":
                        entries = stream.after(grp.last_delivered, count)
                        if entries:
                            member.last_seen = now  # delivery refreshes idle
                            grp.last_delivered = entries[-1].id
                            grp.entries_read += len(entries)
                            pel, held = grp.pel, member.pending
                            for entry in entries:
                                pel[entry.wire] = PendingEntry(entry, consumer)
                                held.add(entry.wire)
                            reply.append(
                                (key, [(entry.wire, dict(entry.fields)) for entry in entries])
                            )
                    else:
                        # Replay this consumer's PEL after the given ID.
                        start = StreamID.parse(cursor)
                        own = sorted(
                            (grp.pel[wire] for wire in member.pending),
                            key=by_id,
                        )
                        own = [p.entry for p in own if p.entry.id > start][:count]
                        replayed = [(entry.wire, dict(entry.fields)) for entry in own]
                        # Per Redis: replay returns (possibly empty) history
                        # immediately and never blocks.
                        reply.append((key, replayed))
                # A ">" read replies only once something was delivered;
                # history reads return immediately even when empty.
                if reply:
                    return reply
                if block_ms is None or not self._park(streams, deadline, cancelled):
                    return []

    def xackdecr(
        self, key: str, group: str, entry_id: str, counter_key: str, amount: int = 1,
        *more: Any,
    ) -> int:
        """XACK entries, delete them and DECRBY a counter by what they carried.

        Ack, delete, decrement: the shape Redis 8.2 gave ``XACKDEL``.  Each
        entry it acks leaves the stream once every group has settled it
        (:meth:`Stream.delete`), which frees its payload, so a task stream
        holds what is in flight, not all a job ever ran.  The
        in-process equivalent of a Lua script on a real deployment:
        completion counting must be exactly-once per entry, and an
        unconditional ``XACK + DECR`` pipeline double-decrements when an
        entry is finished twice -- by a worker and by the adopter of its
        PEL, or by a settle sent again after a dropped connection.

        ``amount`` is the number of work units the entry carried -- one for
        a bare task, ``len(batch)`` for a batch envelope -- so counted
        termination stays exact at batch granularity: either the whole
        envelope's credits are released (first successful ack) or none are.

        ``more`` settles further entries in the same atomic step, as
        ``id, amount`` pairs (``XACKDECR key group id counter amount [id
        amount ...]``): each is acked in order, and one ``DECRBY`` releases
        the amounts of those actually acked -- none for an unknown or
        already-acked id, once for an id named twice.  Returns how many were
        acked; nothing is acked when any amount is malformed.
        """
        if len(more) % 2:
            raise RedisError("xackdecr takes entry ids and amounts in pairs")
        settled = [(entry_id, amount), *zip(more[::2], more[1::2])]
        for _entry_id, units in settled:
            if not _is_int(units, 1):
                raise RedisError(f"xackdecr amount must be an integer >= 1, got {units!r}")
        with self._lock:
            self._count("xackdecr")
            grp, now = self._group(key, group), self._now()
            stream: Stream = self._data[key][1]
            released = 0
            acked = 0
            for each, units in settled:
                pending = self._ack(grp, each, now)
                if pending is not None:
                    stream.delete(pending.entry)
                    released += units
                    acked += 1
            if acked:
                self.decrby(counter_key, released)
            return acked

    def xack(self, key: str, group: str, *entry_ids: str) -> int:
        """Redis's XACK: the acked entries leave the PEL and stay in the stream."""
        with self._lock:
            self._count("xack")
            grp, now = self._group(key, group), self._now()
            return sum(self._ack(grp, raw, now) is not None for raw in entry_ids)

    @staticmethod
    def _ack(grp: ConsumerGroup, raw: str, now: float) -> Optional[PendingEntry]:
        """Drop one entry from the group's PEL; its record, ``None`` if it was
        not pending.

        ``raw`` is looked up as the wire ID a reply named; only a miss is
        parsed, so another spelling of a pending ID (``"5"`` for ``"5-0"``)
        still acks it and a malformed one still raises.
        """
        pending = grp.pel.pop(raw, None)
        if pending is None:
            wire = str(StreamID.parse(raw))
            if wire == raw or (pending := grp.pel.pop(wire, None)) is None:
                return None
        member = grp.consumers.get(pending.consumer)
        if member is not None:
            member.pending.discard(pending.entry.wire)
            member.last_seen = now
        return pending

    def xpending(self, key: str, group: str) -> Dict[str, Any]:
        """Summary form: count, min/max pending IDs, per-consumer counts."""
        with self._lock:
            self._count("xpending")
            grp = self._group(key, group)
            if not grp.pel:
                return {"pending": 0, "min": None, "max": None, "consumers": {}}
            records = grp.pel.values()
            per_consumer: Dict[str, int] = {}
            for record in records:
                per_consumer[record.consumer] = per_consumer.get(record.consumer, 0) + 1
            return {
                "pending": len(grp.pel),
                "min": min(records, key=by_id).entry.wire,
                "max": max(records, key=by_id).entry.wire,
                "consumers": per_consumer,
            }

    def xinfo_groups(self, key: str) -> List[Dict[str, Any]]:
        with self._lock:
            self._count("xinfo_groups")
            stream = self._stream_or_none(key)
            if stream is None:
                raise RedisError(f"no such key {key!r}")
            rows = []
            for grp in stream.groups.values():
                lag = stream.lag(grp.last_delivered)
                rows.append(
                    {
                        "name": grp.name,
                        "consumers": len(grp.consumers),
                        "pending": len(grp.pel),
                        "last-delivered-id": str(grp.last_delivered),
                        "entries-read": grp.entries_read,
                        "lag": lag,
                    }
                )
            return rows

    def xinfo_consumers(self, key: str, group: str) -> List[Dict[str, Any]]:
        """Per-consumer state; ``idle`` (ms) feeds the auto-scaling strategy."""
        with self._lock:
            self._count("xinfo_consumers")
            grp = self._group(key, group)
            now = self._now()
            return [
                {
                    "name": member.name,
                    "pending": len(member.pending),
                    "idle": member.idle_ms(now),
                }
                for member in grp.consumers.values()
            ]
