"""The socket transport of :class:`repro.redisim.client.RedisClient`.

:class:`ConnectionPool` is the RESP-over-TCP form of the facade's
transport: ``begin`` translates each ``(name, args, kwargs)`` command into
RESP2 words and ships the batch to a
:class:`~repro.net.server.RespTCPServer` (or genuine Redis -- the
``real_redis`` parity lane); the flight it returns reads the replies and
folds each back into the shape
:class:`~repro.redisim.server.RedisServer` returns in process.  The wire
syntax of every command lives in one table (:data:`_CODEC`); the command
methods, pipeline, marshalling and latency accounting are the facade's
own, so the task-board and mapping layers are transport-agnostic: hand
them either pairing and they cannot tell the difference.
:class:`SocketRedisClient` is the thin constructor of the TCP pairing.

Connection handling follows what production Redis clients do:

- **Pooling** -- a small pool of TCP connections checked out per command
  batch; a blocking command (``BLPOP``, blocking ``XREADGROUP``) parks one
  connection without starving concurrent callers on other threads.
- **Reconnect with backoff** -- a dead socket (server restart, dropped
  connection) is discarded and the command retried on a fresh dial after
  ``BACKOFF * 2**attempt`` seconds, surfacing as redisim's
  :class:`~repro.redisim.errors.ConnectionError` only once retries are
  exhausted.
- **Fork safety** -- the pool records the PID that created each socket.
  After ``fork`` the child discards inherited connections before its first
  command (closing them is safe: the kernel refcounts the duplicated
  descriptors, so the parent's connections keep working) and dials its
  own.  Without this, parent and child interleave replies on one socket
  and both read garbage.  This is the SafeRedis/per-pid-cursor pattern,
  and it is what makes ``spawn`` and ``fork`` start methods behave
  identically for the cluster mapping.  It is the only fork guard: a
  flight's connection is out of the pool between its two halves, and a
  flight is begun and read in one process.

String/hash/counter values travel raw and come back as ``bytes`` (callers
already ``int(...)`` their counters, which accepts ``b"5"``); list values
and stream fields are pickled by the facade on both transports.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.net.resp import INCOMPLETE, ErrorReply, RespDecoder, encode_command
from repro.redisim.client import Command, Flight, RedisClient, Transport
from repro.redisim.errors import ConnectionError as RedisConnectionError
from repro.redisim.errors import RedisError
from repro.runtime.clock import Clock


class ReplyError(RedisError):
    """An application error (``-`` reply) raised client-side.

    Subclasses :class:`RedisError` so mapping code catching redisim errors
    works unchanged over the wire.  ``code`` is the conventional leading
    word of the message (``WRONGTYPE``, ``NOGROUP``, ``ERR``, ...).
    """

    def __init__(self, reply: ErrorReply) -> None:
        super().__init__(reply.message)
        self.code = reply.code


# ------------------------------------------------------------------ codec
# One row per command: how the (args, kwargs) of the RedisServer method
# become RESP words, and how the RESP reply becomes that method's return
# value.  This table is the only place client-side RESP syntax is written.


def _verb(*words: str) -> Callable[..., List[Any]]:
    """Encoder for commands that are just ``words`` plus positional args."""
    return lambda *args: [*words, *args]


def _blpop(keys: List[str], timeout: Optional[float] = None) -> List[Any]:
    # Redis wire semantics: timeout 0 blocks forever (= the facade's None).
    return ["BLPOP", *keys, timeout or 0]


def _blmove(source: str, destination: str, timeout: Optional[float] = None) -> List[Any]:
    return ["BLMOVESEQ", source, destination, timeout or 0]


def _xadd(key: str, fields: Dict[str, Any], entry_id: str = "*") -> List[Any]:
    words: List[Any] = ["XADD", key, entry_id]
    for field, value in fields.items():
        words += [field, value]
    return words


def _xrange(
    key: str, min_id: str = "-", max_id: str = "+", count: Optional[int] = None
) -> List[Any]:
    words: List[Any] = ["XRANGE", key, min_id, max_id]
    if count is not None:
        words += ["COUNT", count]
    return words


def _xreadgroup(
    group: str, consumer: str, streams: Dict[str, str],
    count: Optional[int] = None, block_ms: Optional[int] = None,
) -> List[Any]:
    words: List[Any] = ["XREADGROUP", "GROUP", group, consumer]
    if count is not None:
        words += ["COUNT", count]
    if block_ms is not None:
        words += ["BLOCK", block_ms]
    return [*words, "STREAMS", *streams.keys(), *streams.values()]


def _xgroup_create(
    key: str, group: str, entry_id: str = "$", mkstream: bool = False
) -> List[Any]:
    words = ["XGROUP", "CREATE", key, group, entry_id]
    return [*words, "MKSTREAM"] if mkstream else words


def _raw(reply: Any) -> Any:
    return reply


def _str(value: Any) -> str:
    return value.decode("utf-8") if isinstance(value, bytes) else str(value)


def _ok(reply: Any) -> bool:
    return _str(reply) == "OK"


def _num(value: Any) -> Any:
    """Best-effort numeric coercion for XINFO-style metadata values."""
    if isinstance(value, bytes):
        value = value.decode("utf-8", "replace")
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError:
                return value
    return value


def _pairs(flat: List[Any]) -> Iterator[Tuple[str, Any]]:
    """A flat ``[field, value, ...]`` reply as ``(field, value)`` pairs."""
    return ((_str(flat[i]), flat[i + 1]) for i in range(0, len(flat), 2))


def _hit(reply: Any) -> Optional[Tuple[Any, Any]]:
    """``[tag, payload]`` or nil (timeout / missing); BLPOP's key tag decodes."""
    if reply is None:
        return None
    tag, payload = reply
    return (_str(tag) if isinstance(tag, bytes) else tag), payload


def _entries(raw: Any) -> List[Tuple[str, Dict[str, Any]]]:
    return [(_str(entry_id), dict(_pairs(flat))) for entry_id, flat in raw or []]


def _streams(raw: Any) -> List[Tuple[str, List[Tuple[str, Dict[str, Any]]]]]:
    # nil: a blocking read that timed out (or found nothing).
    return [(_str(key), _entries(entries)) for key, entries in raw or []]


def _info_rows(rows: Any) -> List[Dict[str, Any]]:
    return [{field: _num(value) for field, value in _pairs(row)} for row in rows]


def _xpending(reply: Any) -> Dict[str, Any]:
    pending, min_id, max_id, consumers = reply
    return {
        "pending": pending,
        "min": None if min_id is None else _str(min_id),
        "max": None if max_id is None else _str(max_id),
        "consumers": {_str(name): int(count) for name, count in (consumers or [])},
    }


_CODEC: Dict[str, Tuple[Callable[..., List[Any]], Callable[[Any], Any]]] = {
    "ping": (_verb("PING"), lambda reply: _str(reply) == "PONG"),
    "dbsize": (_verb("DBSIZE"), _raw),
    "keys": (_verb("KEYS"), lambda reply: [_str(k) for k in reply]),
    "delete": (_verb("DEL"), _raw),
    "exists": (_verb("EXISTS"), _raw),
    "set": (_verb("SET"), _ok),
    "get": (_verb("GET"), _raw),
    "incrby": (_verb("INCRBY"), _raw),
    "decrby": (_verb("DECRBY"), _raw),
    "rpush": (_verb("RPUSH"), _raw),
    "lpop": (_verb("LPOP"), _raw),  # with a count: an array, nil for no key
    "blpop": (_blpop, _hit),
    "llen": (_verb("LLEN"), _raw),
    "lrange": (_verb("LRANGE"), _raw),
    "rpushseq": (_verb("RPUSHSEQ"), _raw),
    "blmove": (_blmove, _hit),
    "snapshot": (_verb("SNAPSHOT"), bool),
    "restore": (_verb("RESTORE"), _hit),
    "hdel": (_verb("HDEL"), _raw),
    "hgetall": (_verb("HGETALL"), lambda reply: dict(_pairs(reply))),
    "hincrby": (_verb("HINCRBY"), _raw),
    "xadd": (_xadd, _str),
    "xaddn": (_verb("XADDN"), lambda reply: [_str(entry_id) for entry_id in reply]),
    "xlen": (_verb("XLEN"), _raw),
    "xrange": (_xrange, _entries),
    "xgroup_create": (_xgroup_create, _ok),
    "xreadgroup": (_xreadgroup, _streams),
    "xack": (_verb("XACK"), _raw),
    "xackdecr": (_verb("XACKDECR"), _raw),
    "xpending": (_verb("XPENDING"), _xpending),
    "xinfo_groups": (_verb("XINFO", "GROUPS"), _info_rows),
    "xinfo_consumers": (_verb("XINFO", "CONSUMERS"), _info_rows),
}


# -------------------------------------------------------------- transport
class _Connection:
    """One TCP connection with its own incremental decoder."""

    def __init__(self, host: str, port: int, connect_timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout=connect_timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Reads must be able to park in server-side blocking commands, so
        # no read timeout; liveness comes from recv() returning b"" on a
        # closed peer.
        self.sock.settimeout(None)
        self.decoder = RespDecoder()
        self.pid = os.getpid()

    def send(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def read_reply(self) -> Any:
        while (value := self.decoder.decode()) is INCOMPLETE:
            data = self.sock.recv(65536)
            if not data:
                raise OSError("connection closed by server")
            self.decoder.feed(data)
        return value

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class ConnectionPool(Transport):
    """A small thread-safe pool of RESP connections to one ``host:port``.

    The socket :class:`~repro.redisim.client.Transport`.
    :data:`MAX_CONNECTIONS` bounds how many *idle* connections are
    retained; concurrent demand beyond it dials extra connections that are
    closed on release rather than pooled (a soft cap -- blocking commands
    must never deadlock waiting for a pool slot).
    """

    MAX_CONNECTIONS = 4
    #: Seconds allowed for one TCP dial.
    CONNECT_TIMEOUT = 5.0
    #: Redials of a dead connection before giving up, ``BACKOFF * 2**n``
    #: seconds apart.
    RETRIES = 3
    BACKOFF = 0.05

    def __init__(self, address: str) -> None:
        host, _, raw_port = address.rpartition(":")
        if not host or not raw_port.isdigit():
            raise ValueError(f"address must look like 'host:port', got {address!r}")
        self.host = host
        self.port = int(raw_port)
        self._idle: List[_Connection] = []
        self._lock = threading.Lock()
        self._pid = os.getpid()
        #: Redials after a dead socket or a refused dial, over the pool's life.
        self.retries = 0

    # ----------------------------------------------------------- fork safety
    def _check_pid(self) -> None:
        """Discard connections inherited across ``fork``.

        Safe to close them in the child: the kernel reference-counts the
        dup'd file descriptors, so the parent's end stays usable.
        """
        if os.getpid() == self._pid:
            return
        with self._lock:
            if os.getpid() == self._pid:
                return
            stale, self._idle = self._idle, []
            self._pid = os.getpid()
        for conn in stale:
            conn.close()

    # ------------------------------------------------------------- lifecycle
    def _acquire(self) -> _Connection:
        with self._lock:
            while self._idle:
                conn = self._idle.pop()
                if conn.pid == os.getpid():
                    return conn
                conn.close()
        return _Connection(self.host, self.port, self.CONNECT_TIMEOUT)

    def _release(self, conn: _Connection) -> None:
        # A decoder with buffered bytes means replies went unread
        # (interrupted batch) -- the connection is out of sync, drop it.
        if len(conn.decoder):
            conn.close()
            return
        with self._lock:
            if len(self._idle) < self.MAX_CONNECTIONS:
                self._idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # --------------------------------------------------------------- execute
    def begin(self, commands: List[Command]) -> Flight:
        """Send a command batch on one connection; the flight reads its replies.

        One ``sendall`` of the concatenated frames -- pipelining -- and the
        connection stays checked out until :meth:`Flight.result` has read
        exactly ``len(commands)`` replies back in order.  A connection found
        dead at either half is replaced and the batch *sent again*, with
        exponential backoff, before giving up with redisim's
        ``ConnectionError``: at-least-once, as a synchronous round trip
        always was.  An error reply raises :class:`ReplyError`.
        """
        self._check_pid()
        frames, decoders = [], []
        for name, args, kwargs in commands:
            encode, decode = _CODEC[name]
            frames.append(encode_command(encode(*args, **kwargs)))
            decoders.append(decode)
        payload = b"".join(frames)
        try:
            conn, error = self._send(payload), None
        except OSError as exc:
            conn, error = None, exc

        def read() -> List[Any]:
            out = []
            for reply, decode in zip(self._land(conn, payload, len(frames), error), decoders):
                if isinstance(reply, ErrorReply):
                    raise ReplyError(reply)
                out.append(decode(reply))
            return out

        return Flight(read=read)

    def _send(self, payload: bytes) -> _Connection:
        conn = self._acquire()
        try:
            conn.send(payload)
        except OSError:
            conn.close()
            raise
        return conn

    def _land(
        self,
        conn: Optional[_Connection],
        payload: bytes,
        expected: int,
        last_error: Optional[Exception],
    ) -> List[Any]:
        """Read the replies to ``payload``, sent on ``conn`` unless that failed."""
        for redial in range(self.RETRIES + 1):
            if redial:
                self.retries += 1
                time.sleep(self.BACKOFF * (2 ** (redial - 1)))
                try:
                    conn = self._send(payload)
                except OSError as exc:
                    conn, last_error = None, exc
            if conn is None:
                continue
            try:
                replies = [conn.read_reply() for _ in range(expected)]
            except OSError as exc:
                conn.close()
                conn, last_error = None, exc
                continue
            self._release(conn)
            return replies
        raise RedisConnectionError(
            f"cannot reach redis server at {self.host}:{self.port} "
            f"after {self.RETRIES + 1} attempts: {last_error}"
        )


class SocketRedisClient(RedisClient):
    """:class:`~repro.redisim.client.RedisClient` over TCP.

    Nothing but the constructor of the (facade, :class:`ConnectionPool`)
    pairing: every command method and the pipeline are the facade's own.

    Parameters
    ----------
    address:
        ``"host:port"`` of the server (the form workers are handed).
    op_latency / clock:
        As on :class:`~repro.redisim.client.RedisClient`.  ``op_latency``
        usually stays 0 here -- the socket provides *real* latency, which
        is the point.
    """

    def __init__(
        self,
        address: str,
        op_latency: float = 0.0,
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(ConnectionPool(address), op_latency, clock)
        self.address = address

    def ping(self) -> bool:
        """Liveness probe: one round trip, ``True`` on ``PONG``."""
        return self._call("ping")

    @property
    def retries(self) -> int:
        """How often this client's pool had to redial (0 on a healthy link)."""
        return self._transport.retries
