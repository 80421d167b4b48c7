"""Threaded RESP-over-TCP front-end for the redisim keyspace.

:class:`RespTCPServer` maps decoded RESP command arrays onto an existing
:class:`~repro.redisim.server.RedisServer` -- the same keyspace in-process
clients use, so a deployment can serve both transports at once.  Listener,
accept thread, connection registry and lifecycle are
:class:`repro.net.core.SocketServer`; this module adds the RESP framing
(:meth:`RespTCPServer.handle`) and the command table.

**A blocking command parks once.**  ``BLPOP`` / ``BLMOVESEQ`` / blocking
``XREADGROUP`` hand the client's whole timeout to the keyspace and wait on
its condition variable (which releases the keyspace lock: it is never held
across the wire) exactly as an in-process caller does -- one
``command_count`` tick.  The waiter is unparked by
data, by its deadline, or -- through :meth:`RedisServer.wake` -- by its
connection dying or shutdown, and then returns *without* consuming
anything.  A client that disappears while its command is parked is
noticed at the command's deadline or at shutdown.

The command set is the one the system sends (see :mod:`repro.redisim` for
the list and the rule that admits a command): strings, lists, hashes,
streams, consumer groups, XAUTOCLAIM -- plus redisim's own extensions
(``RPUSHSEQ``/``LRANGESEQ``/``BLMOVESEQ``, ``SNAPSHOT``/``RESTORE``,
``XACKDECR``).  Any other verb, or an option outside a command's syntax,
answers ``-ERR`` and the connection serves its next command.  Pipelining needs no special handling: a connection's
commands execute strictly in arrival order, which preserves the
INCRBY-before-XADD ordering the termination drain proof relies on, and
``XACKDECR`` keeps ack+decrement a single atomic command.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.core import Connection, SocketServer
from repro.net.resp import (
    INCOMPLETE,
    NIL_ARRAY,
    ErrorReply,
    ProtocolError,
    RespDecoder,
    SimpleString,
    encode_reply,
)
from repro.redisim.errors import ConnectionError as RedisConnectionError
from repro.redisim.errors import RedisError
from repro.redisim.server import RedisServer

OK = SimpleString("OK")

#: Commands that can park in the keyspace; their handlers also take the
#: connection's ``cancelled`` predicate.
_PARKING = frozenset({"BLPOP", "BLMOVESEQ", "XREADGROUP"})


def _s(raw: bytes) -> str:
    return raw.decode("utf-8")


#: Digits only: int() would also take "1_000" and " 5 " (Python literals).
_is_integer = re.compile(rb"-?\d+").fullmatch


def _i(raw: bytes) -> int:
    if not _is_integer(raw):
        raise RedisError(f"value is not an integer or out of range: {raw!r}")
    return int(raw)


def _f(raw: bytes) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    # Finite and spelled as a number: float() also takes "inf", "nan",
    # "1_0" and " 5 ".
    if not math.isfinite(value) or b"_" in raw or raw != raw.strip():
        raise RedisError(f"value is not a valid float: {raw!r}")
    return value


def _timeout(value: float, limit: float = threading.TIMEOUT_MAX) -> float:
    """A blocking command's timeout: one a parked wait can be given."""
    if not 0 <= value <= limit:
        raise RedisError("timeout is negative or out of range")
    return value


def _value_bytes(value: Any) -> Any:
    """Keyspace value -> wire value.  Values written over the wire are
    bytes already; values written in-process may be ints (counters) or str."""
    if value is None or isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, (int, float)):
        return str(value).encode("ascii")
    raise RedisError(
        f"value of type {type(value).__name__} is not representable on the "
        f"wire (written by an in-process client?)"
    )


def _entries_reply(entries: List[Tuple[str, Dict[str, Any]]]) -> list:
    """Stream entries -> RESP shape ``[[id, [field, value, ...]], ...]``."""
    out = []
    for entry_id, fields in entries:
        flat: List[Any] = []
        for field, value in fields.items():
            flat.append(field)
            flat.append(_value_bytes(value))
        out.append([entry_id, flat])
    return out


def _streams_reply(reply: List[Tuple[str, list]]) -> Any:
    if not reply:
        return NIL_ARRAY
    return [[key, _entries_reply(entries)] for key, entries in reply]


def _flat_map(mapping: Dict[str, Any]) -> list:
    flat: List[Any] = []
    for field, value in mapping.items():
        flat.append(field)
        flat.append(value if isinstance(value, (int, list)) else _value_bytes(value))
    return flat


class RespTCPServer(SocketServer):
    """A TCP server speaking RESP2 over an in-process redisim keyspace.

    Parameters
    ----------
    keyspace:
        The :class:`RedisServer` to front.  ``None`` creates a private one
        that is closed together with this server (standalone daemon mode,
        ``repro serve-redis``); a provided keyspace is left open on close
        so in-process clients can keep using it.
    host / port:
        Bind address; port ``0`` picks a free ephemeral port (tests).
    """

    thread_prefix = "resp"

    def __init__(
        self,
        keyspace: Optional[RedisServer] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port)
        self.keyspace = keyspace if keyspace is not None else RedisServer()
        self._owns_keyspace = keyspace is None
        self._commands = _build_command_table(self.keyspace)

    def close(self) -> None:
        """Stop accepting, unwind every connection thread, release the port.

        Closes the keyspace too when this server owns it (standalone mode);
        a fronted external keyspace stays open.  Idempotent.
        """
        super().close()
        if self._owns_keyspace:
            self.keyspace.close()

    def unpark(self) -> None:
        """Wake parked blocking commands; the dead connection's one gives up."""
        self.keyspace.wake()

    # -------------------------------------------------------------- framing
    def handle(self, conn: Connection) -> None:
        """RESP read -> :meth:`_dispatch` -> reply, one batch per ``recv``."""
        decoder = RespDecoder()
        try:
            while conn.alive:
                data = conn.sock.recv(65536)
                if not data:
                    return
                decoder.feed(data)
                out: List[bytes] = []
                quit_seen = False
                while (command := decoder.decode()) is not INCOMPLETE:
                    reply, quit_seen = self._dispatch(conn, command)
                    out.append(encode_reply(reply))
                    if quit_seen:
                        break
                if out:
                    conn.sock.sendall(b"".join(out))
                if quit_seen:
                    return
        except ProtocolError as exc:
            conn.sock.sendall(encode_reply(ErrorReply(f"ERR protocol error: {exc}")))

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, conn: Connection, command: Any) -> Tuple[Any, bool]:
        """Run one decoded command array; returns ``(reply, close_after)``."""
        if not isinstance(command, list) or not command:
            return ErrorReply("ERR protocol error: expected a command array"), False
        if not all(isinstance(part, bytes) for part in command):
            return ErrorReply("ERR protocol error: command of bulk strings expected"), False
        name = command[0].decode("ascii", "replace").upper()
        if name == "QUIT":
            return OK, True
        handler = self._commands.get(name)
        if handler is None:
            return ErrorReply(f"ERR unknown command {name!r}"), False
        try:
            if name in _PARKING:
                return handler(command[1:], lambda: not conn.alive), False
            return handler(command[1:]), False
        except RedisConnectionError:
            return ErrorReply("ERR redisim keyspace is closed"), True
        except RedisError as exc:
            message = str(exc)
            head = message.split(" ", 1)[0]
            if not head.isupper() or not head.isalpha():
                message = f"ERR {message}"
            return ErrorReply(message), False
        except ProtocolError as exc:
            return ErrorReply(f"ERR protocol error: {exc}"), False


def _build_command_table(ks: RedisServer) -> Dict[str, Callable]:
    """The RESP command name -> handler table over the keyspace ``ks``."""

    def arity(args: List[bytes], at_least: int, name: str) -> None:
        if len(args) < at_least:
            raise RedisError(f"wrong number of arguments for '{name.lower()}' command")

    # ---------------------------------------------------------------- generic
    def ping(args: List[bytes]) -> Any:
        return SimpleString(_s(args[0])) if args else SimpleString("PONG")

    def dbsize(args: List[bytes]) -> Any:
        return ks.dbsize()

    def keys(args: List[bytes]) -> Any:
        arity(args, 1, "KEYS")
        return [k.encode() for k in ks.keys(_s(args[0]))]

    def delete(args: List[bytes]) -> Any:
        arity(args, 1, "DEL")
        return ks.delete(*(_s(a) for a in args))

    def exists(args: List[bytes]) -> Any:
        arity(args, 1, "EXISTS")
        return ks.exists(*(_s(a) for a in args))

    # ---------------------------------------------------------------- strings
    def set_(args: List[bytes]) -> Any:
        arity(args, 2, "SET")
        ks.set(_s(args[0]), args[1])
        return OK

    def get(args: List[bytes]) -> Any:
        arity(args, 1, "GET")
        return _value_bytes(ks.get(_s(args[0])))

    def incrby(args: List[bytes]) -> Any:
        arity(args, 2, "INCRBY")
        return ks.incrby(_s(args[0]), _i(args[1]))

    def decrby(args: List[bytes]) -> Any:
        arity(args, 2, "DECRBY")
        return ks.decrby(_s(args[0]), _i(args[1]))

    # ------------------------------------------------------------------ lists
    def rpush(args: List[bytes]) -> Any:
        arity(args, 2, "RPUSH")
        return ks.rpush(_s(args[0]), *args[1:])

    def lpop(args: List[bytes]) -> Any:
        # LPOP key [count]: with a count, an array (nil for a missing key).
        arity(args, 1, "LPOP")
        if len(args) == 1:
            return _value_bytes(ks.lpop(_s(args[0])))
        popped = ks.lpop(_s(args[0]), _i(args[1]))
        return NIL_ARRAY if popped is None else [_value_bytes(v) for v in popped]

    def llen(args: List[bytes]) -> Any:
        arity(args, 1, "LLEN")
        return ks.llen(_s(args[0]))

    def lrange(args: List[bytes]) -> Any:
        arity(args, 3, "LRANGE")
        return [_value_bytes(v) for v in ks.lrange(_s(args[0]), _i(args[1]), _i(args[2]))]

    def ltrim(args: List[bytes]) -> Any:
        arity(args, 3, "LTRIM")
        ks.ltrim(_s(args[0]), _i(args[1]), _i(args[2]))
        return OK

    def blpop(args: List[bytes], cancelled: Callable[[], bool]) -> Any:
        # BLPOP key [key ...] timeout -- Redis semantics: 0 blocks forever.
        arity(args, 2, "BLPOP")
        hit = ks.blpop([_s(a) for a in args[:-1]], _timeout(_f(args[-1])), cancelled)
        if hit is None:
            return NIL_ARRAY
        key, value = hit
        return [key, _value_bytes(value)]

    # -------------------------------------------- redisim sequenced lists
    def rpushseq(args: List[bytes]) -> Any:
        arity(args, 2, "RPUSHSEQ")
        return ks.rpushseq(_s(args[0]), *args[1:])

    def blmoveseq(args: List[bytes], cancelled: Callable[[], bool]) -> Any:
        # BLMOVESEQ source destination timeout [COUNT n] (0 blocks forever);
        # with COUNT, a list of [seq, value] pairs.
        arity(args, 3, "BLMOVESEQ")
        count = None
        if len(args) > 3:
            if len(args) != 5 or args[3].upper() != b"COUNT":
                raise RedisError("syntax error in 'blmoveseq'")
            count = _i(args[4])
        hit = ks.blmove(
            _s(args[0]), _s(args[1]), _timeout(_f(args[2])), cancelled, count=count
        )
        if hit is None:
            return NIL_ARRAY
        if count is None:
            return [hit[0], _value_bytes(hit[1])]
        return [[seq, _value_bytes(value)] for seq, value in hit]

    def lrangeseq(args: List[bytes]) -> Any:
        arity(args, 3, "LRANGESEQ")
        return [
            [seq, _value_bytes(value)]
            for seq, value in ks.lrange(_s(args[0]), _i(args[1]), _i(args[2]))
        ]

    def snapshot(args: List[bytes]) -> Any:
        arity(args, 4, "SNAPSHOT")
        return int(ks.snapshot(_s(args[0]), _s(args[1]), _i(args[2]), args[3]))

    def restore(args: List[bytes]) -> Any:
        arity(args, 2, "RESTORE")
        hit = ks.restore(_s(args[0]), _s(args[1]))
        if hit is None:
            return NIL_ARRAY
        seq, blob = hit
        return [seq, _value_bytes(blob)]

    # ----------------------------------------------------------------- hashes
    def hdel(args: List[bytes]) -> Any:
        arity(args, 2, "HDEL")
        return ks.hdel(_s(args[0]), *(_s(a) for a in args[1:]))

    def hgetall(args: List[bytes]) -> Any:
        arity(args, 1, "HGETALL")
        flat: List[Any] = []
        for field, value in ks.hgetall(_s(args[0])).items():
            flat.append(field)
            flat.append(_value_bytes(value))
        return flat

    def hincrby(args: List[bytes]) -> Any:
        arity(args, 3, "HINCRBY")
        return ks.hincrby(_s(args[0]), _s(args[1]), _i(args[2]))

    # ---------------------------------------------------------------- streams
    def xadd(args: List[bytes]) -> Any:
        # XADD key id field value [field value ...]
        arity(args, 4, "XADD")
        if len(args) % 2:
            raise RedisError("wrong number of arguments for 'xadd' command")
        fields = {_s(args[i]): args[i + 1] for i in range(2, len(args), 2)}
        return ks.xadd(_s(args[0]), fields, entry_id=_s(args[1]))

    def xlen(args: List[bytes]) -> Any:
        arity(args, 1, "XLEN")
        return ks.xlen(_s(args[0]))

    def xrange(args: List[bytes]) -> Any:
        arity(args, 3, "XRANGE")
        rest = list(args)
        key, min_id, max_id = _s(rest[0]), _s(rest[1]), _s(rest[2])
        count = None
        if len(rest) >= 5 and rest[3].upper() == b"COUNT":
            count = _i(rest[4])
        return _entries_reply(ks.xrange(key, min_id, max_id, count))

    def xreadgroup(args: List[bytes], cancelled: Callable[[], bool]) -> Any:
        # XREADGROUP GROUP g consumer [COUNT n] [BLOCK ms] STREAMS key... id...
        # (BLOCK 0 blocks forever, as in Redis).
        arity(args, 6, "XREADGROUP")
        rest = list(args)
        if rest.pop(0).upper() != b"GROUP":
            raise RedisError("syntax error: XREADGROUP must start with GROUP")
        group, consumer = _s(rest.pop(0)), _s(rest.pop(0))
        count = block_ms = None
        while rest and rest[0].upper() != b"STREAMS":
            word = rest.pop(0).upper()
            if word == b"COUNT" and rest:
                count = _i(rest.pop(0))
            elif word == b"BLOCK" and rest:
                block_ms = _timeout(_i(rest.pop(0)), threading.TIMEOUT_MAX * 1000)
            else:
                raise RedisError(f"syntax error in 'xreadgroup' near {word!r}")
        if not rest or rest.pop(0).upper() != b"STREAMS":
            raise RedisError("wrong number of arguments for 'xreadgroup' command")
        if len(rest) % 2 or not rest:
            raise RedisError(
                "unbalanced 'xreadgroup' list of streams: keys and IDs must pair up"
            )
        half = len(rest) // 2
        streams = {_s(rest[i]): _s(rest[half + i]) for i in range(half)}
        # History reads (explicit cursor) come back as [[key, []]], not nil.
        return _streams_reply(
            ks.xreadgroup(group, consumer, streams, count, block_ms, cancelled)
        )

    def xgroup(args: List[bytes]) -> Any:
        arity(args, 2, "XGROUP")
        sub = args[0].upper()
        if sub == b"CREATE":
            arity(args, 4, "XGROUP CREATE")
            mkstream = any(a.upper() == b"MKSTREAM" for a in args[4:])
            ks.xgroup_create(_s(args[1]), _s(args[2]), entry_id=_s(args[3]), mkstream=mkstream)
            return OK
        raise RedisError(f"unknown XGROUP subcommand {sub!r}")

    def xack(args: List[bytes]) -> Any:
        arity(args, 3, "XACK")
        return ks.xack(_s(args[0]), _s(args[1]), *(_s(a) for a in args[2:]))

    def xackdecr(args: List[bytes]) -> Any:
        # XACKDECR key group id counter amount [id amount ...] (redisim extension).
        arity(args, 5, "XACKDECR")
        more = [_i(a) if position % 2 else _s(a) for position, a in enumerate(args[5:])]
        return ks.xackdecr(
            _s(args[0]), _s(args[1]), _s(args[2]), _s(args[3]), _i(args[4]), *more
        )

    def xpending(args: List[bytes]) -> Any:
        # XPENDING key group: the summary form only.
        if len(args) != 2:
            raise RedisError("wrong number of arguments for 'xpending' command")
        summary = ks.xpending(_s(args[0]), _s(args[1]))
        consumers = [
            [name, str(count)] for name, count in sorted(summary["consumers"].items())
        ]
        return [
            summary["pending"],
            summary["min"],
            summary["max"],
            consumers or NIL_ARRAY,
        ]

    def xautoclaim(args: List[bytes]) -> Any:
        # XAUTOCLAIM key group consumer min-idle-time start [COUNT n]
        arity(args, 5, "XAUTOCLAIM")
        count = 100
        if len(args) >= 7 and args[5].upper() == b"COUNT":
            count = _i(args[6])
        cursor, claimed = ks.xautoclaim(
            _s(args[0]), _s(args[1]), _s(args[2]), _f(args[3]),
            start=_s(args[4]), count=count,
        )
        return [cursor, _entries_reply(claimed)]

    def xinfo(args: List[bytes]) -> Any:
        arity(args, 2, "XINFO")
        sub = args[0].upper()
        if sub == b"GROUPS":
            return [_flat_map(row) for row in ks.xinfo_groups(_s(args[1]))]
        if sub == b"CONSUMERS":
            arity(args, 3, "XINFO CONSUMERS")
            return [_flat_map(row) for row in ks.xinfo_consumers(_s(args[1]), _s(args[2]))]
        raise RedisError(f"unknown XINFO subcommand {sub!r}")

    return {
        "PING": ping, "DBSIZE": dbsize, "KEYS": keys, "DEL": delete, "EXISTS": exists,
        "SET": set_, "GET": get, "INCRBY": incrby, "DECRBY": decrby,
        "RPUSH": rpush, "LPOP": lpop, "LLEN": llen, "LRANGE": lrange,
        "LTRIM": ltrim, "BLPOP": blpop,
        "RPUSHSEQ": rpushseq, "BLMOVESEQ": blmoveseq, "LRANGESEQ": lrangeseq,
        "SNAPSHOT": snapshot, "RESTORE": restore,
        "HDEL": hdel, "HGETALL": hgetall, "HINCRBY": hincrby,
        "XADD": xadd, "XLEN": xlen, "XRANGE": xrange,
        "XREADGROUP": xreadgroup, "XGROUP": xgroup, "XACK": xack,
        "XACKDECR": xackdecr, "XPENDING": xpending, "XAUTOCLAIM": xautoclaim,
        "XINFO": xinfo,
    }
