"""Thread-safe in-process Redis server.

Holds a single keyspace mapping keys to typed values (string, list, hash,
set, stream) and implements the command subset the workflow mappings use.
All commands run under one re-entrant lock; blocking commands (``BLPOP``,
blocking ``XREAD``/``XREADGROUP``) wait on a condition variable that every
mutation notifies, which mirrors the event-driven wakeup behaviour of a real
Redis client connection.

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
)

_TYPE_STRING = "string"
_TYPE_LIST = "list"
_TYPE_HASH = "hash"
_TYPE_SET = "set"
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
        self._cond = threading.Condition(self._lock)
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
        ``XREAD``/``XREADGROUP``) are released immediately with
        :class:`~repro.redisim.errors.ConnectionError` -- without this, a
        reader blocked with ``timeout=None`` would hang forever once the
        server goes away, because nothing would ever notify its condition
        variable again.  Non-blocking commands issued after close also fail
        with :class:`~repro.redisim.errors.ConnectionError`.  Idempotent.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()

    def _check_open(self) -> None:
        if self._closed:
            raise ConnectionError("redisim server is closed")

    def wake(self) -> None:
        """Wake every parked blocking command to re-check its ``cancelled``
        predicate (the TCP front-end's, when a connection of its dies)."""
        with self._cond:
            self._cond.notify_all()

    def _park(
        self, deadline: Optional[float], cancelled: Optional[Callable[[], bool]]
    ) -> bool:
        """The one wait of every blocking command: lock held, nothing found.

        Releases the lock until the next mutation or :meth:`wake`.  ``False``
        tells the command to give up -- return empty, consuming nothing --
        because ``deadline`` passed or ``cancelled()`` turned true; a closed
        server raises instead.
        """
        if deadline is None:
            timed_out = not self._cond.wait()
        else:
            remaining = deadline - self._now()
            timed_out = remaining <= 0 or not self._cond.wait(timeout=remaining)
        self._check_open()
        return not (timed_out or (cancelled is not None and cancelled()))

    # ------------------------------------------------------------------ util
    def _count(self, command: str) -> None:
        self._check_open()
        self.command_count[command] = self.command_count.get(command, 0) + 1

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
            "lpush", "rpush", "rpushseq", "lpop", "rpop", "ltrim",
            "hset", "hdel", "hincrby", "sadd", "srem",
            "xadd", "xack", "xackdecr", "xtrim", "snapshot", "xreadgroup",
        }
    )

    def transaction(self, commands):
        """Execute a command batch atomically under one lock acquisition.

        The in-process equivalent of Redis MULTI/EXEC (or a pipeline with a
        single round trip): ``commands`` is a list of
        ``(name, args, kwargs)`` triples restricted to
        :data:`_TXN_COMMANDS`.  Returns the list of results.  One wakeup is
        issued at the end instead of one per command -- under contention
        this collapses the per-command lock/GIL handoff storm that
        dominates fine-grained task streams.

        ``xreadgroup``, the one admitted command that can block, must not
        (``block_ms`` absent): parking inside the batch would release the
        lock mid-transaction and void its atomicity.
        """
        results = []
        with self._cond:
            for name, args, kwargs in commands:
                if name not in self._TXN_COMMANDS:
                    raise RedisError(f"command {name!r} not allowed in a transaction")
                if name == "xreadgroup" and (
                    len(args) > 4 or kwargs.get("block_ms") is not None
                ):
                    raise RedisError("blocking xreadgroup not allowed in a transaction")
                results.append(getattr(self, name)(*args, **kwargs))
            self._cond.notify_all()
        return results

    # --------------------------------------------------------------- generic
    def flushall(self) -> None:
        with self._cond:
            self._count("flushall")
            self._data.clear()
            self._seq.clear()
            self._cond.notify_all()

    def dbsize(self) -> int:
        with self._lock:
            self._count("dbsize")
            return len(self._data)

    def keys(self, pattern: str = "*") -> List[str]:
        with self._lock:
            self._count("keys")
            return [k for k in self._data if fnmatch.fnmatchcase(k, pattern)]

    def type(self, key: str) -> str:
        with self._lock:
            self._count("type")
            slot = self._data.get(key)
            return "none" if slot is None else slot[0]

    def delete(self, *keys: str) -> int:
        with self._cond:
            self._count("delete")
            removed = 0
            for key in keys:
                self._seq.pop(key, None)
                if key in self._data:
                    del self._data[key]
                    removed += 1
            if removed:
                self._cond.notify_all()
            return removed

    def exists(self, *keys: str) -> int:
        with self._lock:
            self._count("exists")
            return sum(1 for key in keys if key in self._data)

    # --------------------------------------------------------------- strings
    def set(self, key: str, value: Any) -> bool:
        # No notify: nothing blocks on string values, and waking every
        # BLPOP/XREADGROUP waiter per counter write is pure contention.
        with self._cond:
            self._count("set")
            self._data[key] = (_TYPE_STRING, value)
            return True

    def get(self, key: str) -> Any:
        with self._lock:
            self._count("get")
            return self._get_typed(key, _TYPE_STRING)

    def incrby(self, key: str, amount: int = 1) -> int:
        with self._cond:
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

    def lpush(self, key: str, *values: Any) -> int:
        with self._cond:
            self._count("lpush")
            lst = self._list_for_write(key)
            for value in values:
                lst.appendleft(value)
            self._cond.notify_all()
            return len(lst)

    def rpush(self, key: str, *values: Any) -> int:
        with self._cond:
            self._count("rpush")
            lst = self._list_for_write(key)
            for value in values:
                lst.append(value)
            self._cond.notify_all()
            return len(lst)

    def _pop(self, key: str, left: bool) -> Any:
        lst = self._get_typed(key, _TYPE_LIST)
        if not lst:
            return None
        value = lst.popleft() if left else lst.pop()
        if not lst:
            del self._data[key]
        return value

    def lpop(self, key: str, count: Optional[int] = None) -> Any:
        """Pop the head; ``LPOP key count`` (Redis >= 6.2) pops up to ``count``
        in one atomic step and answers a list, ``None`` for a missing key."""
        if count is not None and not _is_int(count, 0):
            raise RedisError(f"value is out of range, must be positive: {count!r}")
        with self._cond:
            self._count("lpop")
            if count is None:
                return self._pop(key, left=True)
            lst = self._get_typed(key, _TYPE_LIST)
            if not lst:
                return None
            return [self._pop(key, left=True) for _ in range(min(count, len(lst)))]

    def rpop(self, key: str) -> Any:
        with self._cond:
            self._count("rpop")
            return self._pop(key, left=False)

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
        with self._cond:
            self._count("blpop")
            while True:
                for key in keys:
                    lst = self._get_typed(key, _TYPE_LIST)
                    if lst:
                        return key, self._pop(key, left=True)
                if not self._park(deadline, cancelled):
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
        with self._cond:
            self._count("blmove")
            while True:
                lst = self._get_typed(source, _TYPE_LIST)
                if lst:
                    value = self._pop(source, left=True)
                    self._list_for_write(destination).append(value)
                    self._cond.notify_all()
                    return value
                if not self._park(deadline, cancelled):
                    return None

    def rpushseq(self, key: str, *values: Any) -> List[int]:
        """Append values tagged with a per-key monotonic sequence number.

        Each stored element is a ``(seq, value)`` pair where ``seq`` counts
        total appends to ``key`` since the key space was created -- the
        sequence survives the list emptying out (unlike the list value
        itself), so consumers can use it as a stable replay cursor across
        crashes.  Returns the assigned sequence numbers.
        """
        with self._cond:
            self._count("rpushseq")
            lst = self._list_for_write(key)
            assigned = []
            seq = self._seq.get(key, 0)
            for value in values:
                seq += 1
                lst.append((seq, value))
                assigned.append(seq)
            self._seq[key] = seq
            self._cond.notify_all()
            return assigned

    def ltrim(self, key: str, start: int, end: int) -> bool:
        """Trim the list to ``[start, end]`` (inclusive, as in Redis LTRIM)."""
        with self._cond:
            self._count("ltrim")
            lst = self._get_typed(key, _TYPE_LIST)
            if lst is None:
                return True
            items = list(lst)
            kept = items[start:] if end == -1 else items[start : end + 1]
            if kept:
                self._data[key] = (_TYPE_LIST, deque(kept))
            else:
                del self._data[key]
            return True

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

    #: LRANGESEQ: the wire names the read of a sequenced list separately
    #: (its elements frame as ``[seq, value]`` pairs); in-process the
    #: stored pairs come back as they are.
    lrangeseq = lrange

    # ---------------------------------------------------------------- hashes
    def hset(self, key: str, field: str, value: Any) -> int:
        with self._cond:
            self._count("hset")
            mapping = self._get_typed(key, _TYPE_HASH)
            if mapping is None:
                mapping = {}
                self._data[key] = (_TYPE_HASH, mapping)
            created = 0 if field in mapping else 1
            mapping[field] = value
            return created

    def hget(self, key: str, field: str) -> Any:
        with self._lock:
            self._count("hget")
            mapping = self._get_typed(key, _TYPE_HASH)
            return None if mapping is None else mapping.get(field)

    def hdel(self, key: str, *fields: str) -> int:
        with self._cond:
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

    def hlen(self, key: str) -> int:
        with self._lock:
            self._count("hlen")
            mapping = self._get_typed(key, _TYPE_HASH)
            return 0 if mapping is None else len(mapping)

    def hincrby(self, key: str, field: str, amount: int = 1) -> int:
        with self._cond:
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

    # ------------------------------------------------------------------ sets
    def sadd(self, key: str, *members: Any) -> int:
        with self._cond:
            self._count("sadd")
            value = self._get_typed(key, _TYPE_SET)
            if value is None:
                value = set()
                self._data[key] = (_TYPE_SET, value)
            before = len(value)
            value.update(members)
            return len(value) - before

    def srem(self, key: str, *members: Any) -> int:
        with self._cond:
            self._count("srem")
            value = self._get_typed(key, _TYPE_SET)
            if value is None:
                return 0
            removed = 0
            for member in members:
                if member in value:
                    value.discard(member)
                    removed += 1
            if not value:
                del self._data[key]
            return removed

    def smembers(self, key: str) -> set:
        with self._lock:
            self._count("smembers")
            value = self._get_typed(key, _TYPE_SET)
            return set() if value is None else set(value)

    def scard(self, key: str) -> int:
        with self._lock:
            self._count("scard")
            value = self._get_typed(key, _TYPE_SET)
            return 0 if value is None else len(value)

    def sismember(self, key: str, member: Any) -> bool:
        with self._lock:
            self._count("sismember")
            value = self._get_typed(key, _TYPE_SET)
            return False if value is None else member in value

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
        with self._cond:
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

    def xadd(
        self,
        key: str,
        fields: Mapping[str, Any],
        entry_id: str = "*",
        maxlen: Optional[int] = None,
    ) -> str:
        with self._cond:
            self._count("xadd")
            stream = self._stream_for_write(key)
            new_id = stream.add(fields, now_ms=self._now_ms(), entry_id=entry_id)
            if maxlen is not None:
                stream.trim_maxlen(maxlen)
            self._cond.notify_all()
            return str(new_id)

    def xlen(self, key: str) -> int:
        with self._lock:
            self._count("xlen")
            stream = self._stream_or_none(key)
            return 0 if stream is None else len(stream)

    def xtrim(self, key: str, maxlen: int) -> int:
        with self._cond:
            self._count("xtrim")
            stream = self._stream_or_none(key)
            return 0 if stream is None else stream.trim_maxlen(maxlen)

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
            return [(str(e.id), dict(e.fields)) for e in stream.range(start, end, count)]

    def xread(
        self,
        streams: Mapping[str, str],
        count: Optional[int] = None,
        block_ms: Optional[int] = None,
        cancelled: Optional[Callable[[], bool]] = None,
    ) -> List[Tuple[str, List[Tuple[str, Dict[str, Any]]]]]:
        """Plain (group-less) stream read; ``$`` means "only new entries".

        ``block_ms`` ``None`` does not block; ``0`` blocks forever (as in
        Redis).  ``$`` is resolved once, at entry, under the lock.
        """
        deadline = self._now() + block_ms / 1000.0 if block_ms else None
        with self._cond:
            self._count("xread")
            cursors: Dict[str, StreamID] = {}
            for key, raw in streams.items():
                if raw == "$":
                    stream = self._stream_or_none(key)
                    cursors[key] = stream.last_id if stream is not None else StreamID(0, 0)
                else:
                    cursors[key] = StreamID.parse(raw)
            while True:
                reply = []
                for key, last in cursors.items():
                    stream = self._stream_or_none(key)
                    if stream is None:
                        continue
                    entries = stream.after(last, count)
                    if entries:
                        reply.append(
                            (key, [(str(e.id), dict(e.fields)) for e in entries])
                        )
                if reply:
                    return reply
                if block_ms is None or not self._park(deadline, cancelled):
                    return []

    def xgroup_create(
        self, key: str, group: str, entry_id: str = "$", mkstream: bool = False
    ) -> bool:
        with self._cond:
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

    def xgroup_destroy(self, key: str, group: str) -> int:
        with self._cond:
            self._count("xgroup_destroy")
            stream = self._stream_or_none(key)
            if stream is None or group not in stream.groups:
                return 0
            del stream.groups[group]
            return 1

    def xgroup_delconsumer(self, key: str, group: str, consumer: str) -> int:
        """Remove a consumer; returns the number of pending entries it held."""
        with self._cond:
            self._count("xgroup_delconsumer")
            grp = self._group(key, group)
            member = grp.consumers.pop(consumer, None)
            if member is None:
                return 0
            pending = len(member.pending)
            for entry_id in member.pending:
                grp.pel.pop(entry_id, None)
            return pending

    def xreadgroup(
        self,
        group: str,
        consumer: str,
        streams: Mapping[str, str],
        count: Optional[int] = None,
        block_ms: Optional[int] = None,
        noack: bool = False,
        cancelled: Optional[Callable[[], bool]] = None,
    ) -> List[Tuple[str, List[Tuple[str, Dict[str, Any]]]]]:
        """Consumer-group read; ``block_ms`` as for :meth:`xread`.

        ``">"`` delivers entries never delivered to this group (advancing the
        group cursor and inserting into the PEL); an explicit ID replays the
        calling consumer's own pending entries after that ID.
        """
        deadline = self._now() + block_ms / 1000.0 if block_ms else None
        with self._cond:
            self._count("xreadgroup")
            while True:
                reply = []
                now = self._now()
                for key, cursor in streams.items():
                    grp = self._group(key, group)
                    stream = self._stream_or_none(key)
                    member = grp.get_consumer(consumer, now, refresh=False)
                    if cursor == ">":
                        entries = stream.after(grp.last_delivered, count)
                        if entries:
                            member.last_seen = now  # delivery refreshes idle
                            delivered = []
                            for entry in entries:
                                grp.last_delivered = entry.id
                                grp.entries_read += 1
                                if not noack:
                                    grp.pel[entry.id] = PendingEntry(
                                        consumer=consumer, delivery_time=now
                                    )
                                    member.pending.add(entry.id)
                                delivered.append((str(entry.id), dict(entry.fields)))
                            reply.append((key, delivered))
                    else:
                        # Replay this consumer's PEL after the given ID.
                        start = StreamID.parse(cursor)
                        own = sorted(
                            eid for eid in member.pending if eid > start
                        )
                        if count is not None:
                            own = own[:count]
                        replayed = []
                        for entry_id in own:
                            entry = stream.get(entry_id)
                            fields = {} if entry is None else dict(entry.fields)
                            replayed.append((str(entry_id), fields))
                        # Per Redis: replay returns (possibly empty) history
                        # immediately and never blocks.
                        reply.append((key, replayed))
                if any(entries for _, entries in reply):
                    return reply
                if any(cursor != ">" for cursor in streams.values()):
                    # History reads return immediately even when empty.
                    return reply
                if block_ms is None or not self._park(deadline, cancelled):
                    return []

    def xackdecr(
        self, key: str, group: str, entry_id: str, counter_key: str, amount: int = 1,
        *more: Any,
    ) -> int:
        """XACK entries and DECRBY a counter by what the still-pending ones carried.

        The in-process equivalent of the Lua script real deployments pair
        with XAUTOCLAIM: completion counting must be exactly-once per
        entry, and an unconditional ``XACK + DECR`` pipeline double-
        decrements when a reclaimed entry is finished by both its original
        (slow but alive) consumer and its adopter.

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
        with self._cond:
            self._count("xackdecr")
            grp, now = self._group(key, group), self._now()
            released = [units for each, units in settled if self._ack(grp, each, now)]
            if released:
                self.decrby(counter_key, sum(released))
            return len(released)

    def xack(self, key: str, group: str, *entry_ids: str) -> int:
        with self._cond:
            self._count("xack")
            grp, now = self._group(key, group), self._now()
            return sum(self._ack(grp, raw, now) for raw in entry_ids)

    @staticmethod
    def _ack(grp: ConsumerGroup, raw: str, now: float) -> bool:
        """Drop one entry from the group's PEL; ``False`` if it was not pending."""
        entry_id = StreamID.parse(raw)
        pending = grp.pel.pop(entry_id, None)
        if pending is None:
            return False
        member = grp.consumers.get(pending.consumer)
        if member is not None:
            member.pending.discard(entry_id)
            member.last_seen = now
        return True

    def xpending(self, key: str, group: str) -> Dict[str, Any]:
        """Summary form: count, min/max pending IDs, per-consumer counts."""
        with self._lock:
            self._count("xpending")
            grp = self._group(key, group)
            if not grp.pel:
                return {"pending": 0, "min": None, "max": None, "consumers": {}}
            ids = sorted(grp.pel)
            per_consumer: Dict[str, int] = {}
            for entry in grp.pel.values():
                per_consumer[entry.consumer] = per_consumer.get(entry.consumer, 0) + 1
            return {
                "pending": len(ids),
                "min": str(ids[0]),
                "max": str(ids[-1]),
                "consumers": per_consumer,
            }

    def xpending_range(
        self,
        key: str,
        group: str,
        min_id: str = "-",
        max_id: str = "+",
        count: int = 10,
        consumer: Optional[str] = None,
        min_idle_ms: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Extended form: per-entry pending details, optionally filtered."""
        with self._lock:
            self._count("xpending_range")
            grp = self._group(key, group)
            now = self._now()
            start = _parse_range_id(min_id, is_start=True)
            end = _parse_range_id(max_id, is_start=False)
            rows = []
            for entry_id in sorted(grp.pel):
                if not (start <= entry_id <= end):
                    continue
                pending = grp.pel[entry_id]
                if consumer is not None and pending.consumer != consumer:
                    continue
                idle = (now - pending.delivery_time) * 1000.0
                if min_idle_ms is not None and idle < min_idle_ms:
                    continue
                rows.append(
                    {
                        "message_id": str(entry_id),
                        "consumer": pending.consumer,
                        "time_since_delivered": idle,
                        "times_delivered": pending.delivery_count,
                    }
                )
                if len(rows) >= count:
                    break
            return rows

    def xclaim(
        self,
        key: str,
        group: str,
        consumer: str,
        min_idle_ms: float,
        entry_ids: Iterable[str],
    ) -> List[Tuple[str, Dict[str, Any]]]:
        """Transfer ownership of sufficiently idle pending entries."""
        with self._cond:
            self._count("xclaim")
            grp = self._group(key, group)
            stream = self._stream_or_none(key)
            now = self._now()
            claimer = grp.get_consumer(consumer, now)
            claimed = []
            for raw in entry_ids:
                entry_id = StreamID.parse(raw)
                pending = grp.pel.get(entry_id)
                if pending is None:
                    continue
                idle = (now - pending.delivery_time) * 1000.0
                if idle < min_idle_ms:
                    continue
                previous = grp.consumers.get(pending.consumer)
                if previous is not None:
                    previous.pending.discard(entry_id)
                entry = stream.get(entry_id)
                if entry is None:
                    # Entry was trimmed: Redis deletes such PEL records.
                    del grp.pel[entry_id]
                    continue
                pending.consumer = consumer
                pending.delivery_time = now
                pending.delivery_count += 1
                claimer.pending.add(entry_id)
                claimed.append((str(entry_id), dict(entry.fields)))
            return claimed

    def xautoclaim(
        self,
        key: str,
        group: str,
        consumer: str,
        min_idle_ms: float,
        start: str = "0-0",
        count: int = 100,
    ) -> Tuple[str, List[Tuple[str, Dict[str, Any]]]]:
        """Scan the PEL from ``start`` claiming idle entries; returns cursor."""
        with self._cond:
            self._count("xautoclaim")
            grp = self._group(key, group)
            start_id = StreamID.parse(start)
            candidates = sorted(eid for eid in grp.pel if eid >= start_id)
            claimed = self.xclaim(
                key, group, consumer, min_idle_ms, [str(e) for e in candidates[:count]]
            )
            if len(candidates) > count:
                cursor = str(candidates[count])
            else:
                cursor = "0-0"
            return cursor, claimed

    def xinfo_stream(self, key: str) -> Dict[str, Any]:
        with self._lock:
            self._count("xinfo_stream")
            stream = self._stream_or_none(key)
            if stream is None:
                raise RedisError(f"no such key {key!r}")
            return {
                "length": len(stream),
                "last-generated-id": str(stream.last_id),
                "groups": len(stream.groups),
                "entries-added": stream.length_added,
            }

    def xinfo_groups(self, key: str) -> List[Dict[str, Any]]:
        with self._lock:
            self._count("xinfo_groups")
            stream = self._stream_or_none(key)
            if stream is None:
                raise RedisError(f"no such key {key!r}")
            rows = []
            for grp in stream.groups.values():
                lag = len(stream.after(grp.last_delivered))
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
