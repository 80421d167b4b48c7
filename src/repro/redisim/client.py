"""The one Redis command facade: :class:`RedisClient` over a two-method transport.

The client exists for three reasons:

1. **API fidelity** -- method names and signatures mirror redis-py, so the
   mappings read exactly like code written against a real Redis server and
   could be pointed at one by swapping this class out.
2. **Marshalling realism** -- a real Redis client pickles/encodes payloads and
   ships them over a socket.  We keep the pickle round-trip for task payloads
   (stream fields and list values), which both models the serialization cost
   and guarantees producer/consumer isolation: a consumer can never observe
   mutations the producer makes after sending (the same guarantee processes
   get for free).
3. **Latency injection** -- ``op_latency`` adds a configurable nominal
   round-trip delay per command.  This is the knob that reproduces the
   paper's consistent observation that the Redis mappings are somewhat
   slower than their Multiprocessing counterparts (Section 5.6).

Every command -- and every :class:`Pipeline` batch -- reaches the keyspace
through ``transport.begin(commands)``, where a command is a
``(name, args, kwargs)`` triple in :class:`RedisServer`'s own method
vocabulary.  A round trip has two halves: ``begin`` *sends* the batch and
returns a :class:`Flight`, ``flight.result()`` *reads* its replies, and
``execute(commands)`` is ``begin(commands).result()`` -- one path, whether
or not the caller does something else in between.
:class:`InProcessTransport` hands the triple straight to the server object
(no wire codec on that path) and its flights have landed before ``begin``
returns; :class:`repro.net.client.ConnectionPool` translates to RESP and
back, and its flights land when read.  Marshalling, latency and accounting
therefore exist once, whichever side of a socket the keyspace lives on.

Each client instance tracks how many commands it issued (``ops``) so
benchmarks can report communication volume.
"""

from __future__ import annotations

import pickle
from functools import partial
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Protocol, Tuple, Union,
)

from repro.redisim.server import RedisServer
from repro.runtime.clock import Clock

#: One command as transports see it: ``(server method name, args, kwargs)``.
Command = Tuple[str, tuple, dict]


class Flight:
    """The second half of a round trip: a batch already sent, replies to read.

    ``landed`` says whether the replies are at hand (an in-process batch ran
    inside ``begin``; a socket's are still on the wire).  :meth:`result`
    reads them -- waiting if it must -- and answers the same list ever after.
    A flight is begun and read by one thread of one process.
    """

    def __init__(
        self,
        replies: Optional[List[Any]] = None,
        read: Optional[Callable[[], List[Any]]] = None,
    ) -> None:
        self._replies = replies
        self._read = read

    @property
    def landed(self) -> bool:
        return self._read is None

    def result(self) -> List[Any]:
        if self._read is not None:
            self._replies = self._read()
            self._read = None
        return self._replies

    def then(self, decode: Callable[[List[Any]], List[Any]]) -> "Flight":
        """This flight with ``decode`` applied to its replies, as landed as it is."""
        if self._read is None:
            return Flight(decode(self._replies))
        return Flight(read=lambda: decode(self.result()))


class Transport(Protocol):
    """Where commands go: a batch sent, its replies read, and a way to hang up.

    A transport supplies :meth:`begin` and :meth:`close`; :meth:`execute` is
    defined here, once, for every transport that derives from this class.
    """

    def begin(self, commands: List[Command]) -> Flight:
        """Send ``commands`` as one round trip; the flight reads one reply each."""

    def execute(self, commands: List[Command]) -> List[Any]:
        """The round trip, waited out."""
        return self.begin(commands).result()

    def close(self) -> None:
        """Release whatever per-process handles the transport owns."""


class InProcessTransport(Transport):
    """Direct method calls on a :class:`RedisServer` in the same process."""

    def __init__(self, server: RedisServer) -> None:
        self._server = server

    def begin(self, commands: List[Command]) -> Flight:
        # A lone command is its own atomic step; only a real batch needs
        # the server's one-lock, one-wakeup transaction.
        if len(commands) == 1:
            name, args, kwargs = commands[0]
            return Flight([getattr(self._server, name)(*args, **kwargs)])
        return Flight(self._server.transaction(commands))

    def close(self) -> None:
        """Nothing to release: the server outlives its clients."""


#: ``value -> bytes``, one C call (no Python frame of its own).
_dumps = partial(pickle.dumps, protocol=pickle.HIGHEST_PROTOCOL)


def _loads(value: Any) -> Any:
    if isinstance(value, bytes):
        return pickle.loads(value)
    return value


class Pipeline:
    """Batched command execution: one round trip, one lock acquisition.

    Mirrors redis-py's pipeline: queue commands, then :meth:`execute`.
    Payload values are encoded at queue time (as a real client would
    serialize into its output buffer); the single latency charge models the
    one round trip that makes pipelining worthwhile on a real deployment.
    """

    def __init__(self, client: "RedisClient") -> None:
        self._client = client
        self._commands: List[Command] = []
        #: Reply decoders by command position (reads are the exception).
        self._decoders: Dict[int, Callable[[Any], Any]] = {}

    def __len__(self) -> int:
        return len(self._commands)

    def _queue(self, name: str, *args: Any, **kwargs: Any) -> "Pipeline":
        self._commands.append((name, args, kwargs))
        return self

    def set(self, key: str, value: Any) -> "Pipeline":
        return self._queue("set", key, value)

    def incrby(self, key: str, amount: int = 1) -> "Pipeline":
        return self._queue("incrby", key, amount)

    incr = incrby

    def decrby(self, key: str, amount: int = 1) -> "Pipeline":
        return self._queue("decrby", key, amount)

    decr = decrby

    def rpush(self, key: str, *values: Any) -> "Pipeline":
        return self._queue("rpush", key, *[self._client._enc(v) for v in values])

    def rpush_seq(self, key: str, *values: Any) -> "Pipeline":
        return self._queue("rpushseq", key, *[self._client._enc(v) for v in values])

    def hincrby(self, key: str, field: str, amount: int = 1) -> "Pipeline":
        return self._queue("hincrby", key, field, amount)

    def xadd(self, key: str, fields: Mapping[str, Any], id: str = "*") -> "Pipeline":  # noqa: A002
        return self._queue("xadd", key, self._client._enc_fields(fields), entry_id=id)

    def xaddn(self, key: str, field: str, *values: Any) -> "Pipeline":
        return self._queue("xaddn", key, field, *[self._client._enc(v) for v in values])

    def xack(self, key: str, group: str, *entry_ids: str) -> "Pipeline":
        return self._queue("xack", key, group, *entry_ids)

    def xack_decr(
        self, key: str, group: str, entry_id: str, counter_key: str, amount: int = 1,
        *more: Any,
    ) -> "Pipeline":
        return self._queue("xackdecr", key, group, entry_id, counter_key, amount, *more)

    def xreadgroup(
        self,
        groupname: str,
        consumername: str,
        streams: Mapping[str, str],
        count: Optional[int] = None,
    ) -> "Pipeline":
        """Queue a **non-blocking** group read (there is no ``block``).

        A batch is one atomic step on the in-process keyspace and one reply
        burst on a socket; a read that parks would stall every command
        queued behind it.  The reply has :meth:`RedisClient.xreadgroup`'s
        shape (``[]`` when nothing is deliverable).
        """
        self._decoders[len(self._commands)] = self._client._dec_streams
        return self._queue("xreadgroup", groupname, consumername, streams, count=count)

    def delete(self, *keys: str) -> "Pipeline":
        return self._queue("delete", *keys)

    def begin(self) -> Flight:
        """Send the batch and clear the pipeline; the flight reads the results."""
        if not self._commands:
            return Flight([])
        self._client._charge()
        commands, self._commands = self._commands, []
        flight = self._client._transport.begin(commands)
        if not self._decoders:
            return flight
        decoders, self._decoders = self._decoders, {}

        def decoded(replies: List[Any]) -> List[Any]:
            for position, decode in decoders.items():
                replies[position] = decode(replies[position])
            return replies

        return flight.then(decoded)

    def execute(self) -> List[Any]:
        """Run the batch; clears the pipeline and returns per-command results."""
        return self.begin().result()


class RedisClient:
    """A connection-like handle to a Redis keyspace.

    Parameters
    ----------
    server:
        The shared in-process :class:`RedisServer` (one per "deployment"),
        or any :class:`Transport` that reaches one -- see
        :class:`repro.net.client.SocketRedisClient` for the TCP pairing.
    op_latency:
        Nominal seconds of round-trip latency charged per command; scaled by
        ``clock``.  ``0`` disables latency injection.
    clock:
        Clock used to charge latency.  Required when ``op_latency > 0``.

    Payload values (stream fields, list items, snapshots) are always
    pickled.  String, hash and counter values are *not* marshalled: the
    in-process transport hands back the stored object, a socket hands back
    ``bytes`` (callers already ``int(...)`` their counters, which accepts
    ``b"5"``).
    """

    #: How often the connection was redialled: never, in process.  A worker
    #: that sees it move adopts its own PEL (a re-sent settle read ahead twice).
    retries = 0

    def __init__(
        self,
        server: Union[RedisServer, Transport],
        op_latency: float = 0.0,
        clock: Optional[Clock] = None,
    ) -> None:
        if op_latency < 0:
            raise ValueError("op_latency must be >= 0")
        if op_latency > 0 and clock is None:
            raise ValueError("a clock is required when op_latency > 0")
        self._transport: Transport = (
            InProcessTransport(server) if isinstance(server, RedisServer) else server
        )
        self._latency = op_latency
        self._clock = clock
        self.ops = 0

    def close(self) -> None:
        """Hang up: release the transport's connections (a no-op in-process)."""
        self._transport.close()

    # ------------------------------------------------------------------ util
    def _charge(self) -> None:
        self.ops += 1
        if self._latency:  # a clock comes with any latency (see __init__)
            self._clock.sleep(self._latency)

    def _call(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """One command, one charged round trip on the transport."""
        self._charge()
        return self._transport.execute([(name, args, kwargs)])[0]

    _enc = staticmethod(_dumps)
    _dec = staticmethod(_loads)

    def _enc_fields(self, fields: Mapping[str, Any]) -> Dict[str, Any]:
        return {name: self._enc(value) for name, value in fields.items()}

    def _dec_entries(
        self, entries: List[Tuple[str, Dict[str, Any]]]
    ) -> List[Tuple[str, Dict[str, Any]]]:
        dec = self._dec
        return [
            (eid, {name: dec(value) for name, value in fields.items()})
            for eid, fields in entries
        ]

    def _dec_streams(
        self, reply: List[Tuple[str, List[Tuple[str, Dict[str, Any]]]]]
    ) -> List[Tuple[str, List[Tuple[str, Dict[str, Any]]]]]:
        """Decode an ``XREADGROUP`` reply, lone or pipelined."""
        return [(key, self._dec_entries(entries)) for key, entries in reply]

    def _dec_hit(self, hit: Optional[Tuple[Any, Any]]) -> Optional[Tuple[Any, Any]]:
        """Decode the payload half of a ``(tag, payload)`` reply; nil stays nil."""
        return None if hit is None else (hit[0], self._dec(hit[1]))

    def pipeline(self) -> Pipeline:
        """Start a command batch (single round trip on execute)."""
        return Pipeline(self)

    # --------------------------------------------------------------- generic
    def dbsize(self) -> int:
        return self._call("dbsize")

    def keys(self, pattern: str = "*") -> List[str]:
        return self._call("keys", pattern)

    def delete(self, *keys: str) -> int:
        return self._call("delete", *keys)

    def exists(self, *keys: str) -> int:
        return self._call("exists", *keys)

    # --------------------------------------------------------------- strings
    def set(self, key: str, value: Any) -> bool:
        return self._call("set", key, value)

    def get(self, key: str) -> Any:
        return self._call("get", key)

    def incrby(self, key: str, amount: int = 1) -> int:
        return self._call("incrby", key, amount)

    incr = incrby

    def decrby(self, key: str, amount: int = 1) -> int:
        return self._call("decrby", key, amount)

    decr = decrby

    # ----------------------------------------------------------------- lists
    def rpush(self, key: str, *values: Any) -> int:
        return self._call("rpush", key, *(self._enc(v) for v in values))

    def lpop(self, key: str, count: Optional[int] = None) -> Any:
        """Pop the head; with ``count`` (Redis >= 6.2) up to that many, as a
        list -- ``None`` either way when the key does not exist."""
        if count is None:
            return self._dec(self._call("lpop", key))
        popped = self._call("lpop", key, count)
        return None if popped is None else [self._dec(v) for v in popped]

    def blpop(
        self, keys: "str | Iterable[str]", timeout: Optional[float] = None
    ) -> Optional[Tuple[str, Any]]:
        if isinstance(keys, str):
            keys = [keys]
        return self._dec_hit(self._call("blpop", keys, timeout=timeout))

    def llen(self, key: str) -> int:
        return self._call("llen", key)

    def lrange(self, key: str, start: int, end: int) -> List[Any]:
        return [self._dec(v) for v in self._call("lrange", key, start, end)]

    # ------------------------------------------------- sequenced lists
    def rpush_seq(self, key: str, *values: Any) -> List[int]:
        """RPUSHSEQ: append values tagged with monotonic per-key sequences."""
        return self._call("rpushseq", key, *(self._enc(v) for v in values))

    def blmove_seq(
        self, source: str, destination: str, timeout: Optional[float] = None
    ) -> Any:
        """Blocking move of one sequenced entry; returns ``(seq, value)``.

        The raw ``(seq, blob)`` pair lands on ``destination`` untouched;
        ``None`` on timeout.
        """
        return self._dec_hit(self._call("blmove", source, destination, timeout=timeout))

    # ------------------------------------------------------------- snapshots
    def snapshot(self, key: str, snapshot_id: str, seq: int, state: Any) -> bool:
        """SNAPSHOT: persist an instance-state blob guarded by ``seq``."""
        return self._call("snapshot", key, snapshot_id, seq, self._enc(state))

    def restore(self, key: str, snapshot_id: str) -> Optional[Tuple[int, Any]]:
        """RESTORE: fetch the latest ``(seq, state)`` snapshot, or ``None``."""
        return self._dec_hit(self._call("restore", key, snapshot_id))

    # ---------------------------------------------------------------- hashes
    def hdel(self, key: str, *fields: str) -> int:
        return self._call("hdel", key, *fields)

    def hgetall(self, key: str) -> Dict[str, Any]:
        return self._call("hgetall", key)

    def hincrby(self, key: str, field: str, amount: int = 1) -> int:
        return self._call("hincrby", key, field, amount)

    # --------------------------------------------------------------- streams
    def xadd(
        self,
        key: str,
        fields: Mapping[str, Any],
        id: str = "*",  # noqa: A002 - redis-py parameter name
    ) -> str:
        return self._call("xadd", key, self._enc_fields(fields), entry_id=id)

    def xaddn(self, key: str, field: str, *values: Any) -> List[str]:
        """XADDN (redisim): one auto-ID entry ``{field: value}`` per value,
        in order, as one command; returns the new IDs."""
        return self._call("xaddn", key, field, *(self._enc(v) for v in values))

    def xlen(self, key: str) -> int:
        return self._call("xlen", key)

    def xrange(
        self,
        key: str,
        min: str = "-",  # noqa: A002 - redis-py parameter name
        max: str = "+",  # noqa: A002 - redis-py parameter name
        count: Optional[int] = None,
    ) -> List[Tuple[str, Dict[str, Any]]]:
        return self._dec_entries(self._call("xrange", key, min, max, count))

    def xgroup_create(
        self, key: str, group: str, id: str = "$", mkstream: bool = False  # noqa: A002
    ) -> bool:
        return self._call("xgroup_create", key, group, entry_id=id, mkstream=mkstream)

    def xreadgroup(
        self,
        groupname: str,
        consumername: str,
        streams: Mapping[str, str],
        count: Optional[int] = None,
        block: Optional[int] = None,
    ) -> List[Tuple[str, List[Tuple[str, Dict[str, Any]]]]]:
        return self._dec_streams(
            self._call(
                "xreadgroup", groupname, consumername, streams, count=count, block_ms=block
            )
        )

    def xack(self, key: str, group: str, *entry_ids: str) -> int:
        return self._call("xack", key, group, *entry_ids)

    def xack_decr(
        self, key: str, group: str, entry_id: str, counter_key: str, amount: int = 1,
        *more: Any,
    ) -> int:
        """XACK + conditional DECRBY in one atomic server-side step.

        ``amount`` is the entry's work-unit count (``len(batch)`` for batch
        envelopes), released all-or-nothing with the ack.  ``more`` settles
        further entries in the same step, as ``id, amount`` pairs.
        """
        return self._call("xackdecr", key, group, entry_id, counter_key, amount, *more)

    def xpending(self, key: str, group: str) -> Dict[str, Any]:
        return self._call("xpending", key, group)

    def xinfo_groups(self, key: str) -> List[Dict[str, Any]]:
        return self._call("xinfo_groups", key)

    def xinfo_consumers(self, key: str, group: str) -> List[Dict[str, Any]]:
        return self._call("xinfo_consumers", key, group)
