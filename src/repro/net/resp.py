"""RESP2 wire codec (REdis Serialization Protocol, version 2).

The five RESP2 types and their markers, exactly as genuine Redis frames
them (redis.io/docs/reference/protocol-spec):

==============  ======  ===========================================
Type            Marker  Python mapping (decode)
==============  ======  ===========================================
Simple string   ``+``   :class:`SimpleString` (a ``str`` subclass)
Error           ``-``   :class:`ErrorReply`
Integer         ``:``   ``int``
Bulk string     ``$``   ``bytes`` (``None`` for the ``$-1`` nil)
Array           ``*``   ``list`` (``None`` for the ``*-1`` nil)
==============  ======  ===========================================

Encoding is symmetric: ``bytes``/``str`` become bulk strings, ``int``
integers, ``list``/``tuple`` arrays, ``None`` the nil bulk string, and the
:data:`NIL_ARRAY` sentinel the nil array (the shape ``BLPOP`` uses for a
timeout).  Commands are always encoded as arrays of bulk strings
(:func:`encode_command`), which is what every Redis client sends.

:class:`RespDecoder` is *incremental*: feed it whatever ``recv`` returned
-- half a bulk string, three pipelined replies, one byte -- and it yields
complete values as they become parseable, holding partial input across
calls.  This is the property the chunked-reassembly tests pin down.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple, Union

CRLF = b"\r\n"

#: Returned by :meth:`RespDecoder.decode` when the buffer holds no
#: complete value yet (distinct from any decodable value, None included).
INCOMPLETE = object()

#: Encode sentinel for the RESP nil *array* (``*-1\r\n``); plain ``None``
#: encodes as the nil bulk string (``$-1\r\n``).  Both decode to ``None``.
NIL_ARRAY = object()


class ProtocolError(Exception):
    """Malformed RESP data on the wire (framing, not application, errors)."""


class SimpleString(str):
    """A decoded ``+`` reply; compares equal to the plain ``str`` it wraps."""

    __slots__ = ()


class ErrorReply(Exception):
    """A decoded ``-`` reply (an application error shipped as data).

    Decoders return it as a *value* (one reply of a pipelined batch may be
    an error while its neighbours succeed); clients decide whether to
    raise.  ``code`` is the conventional leading word (``ERR``,
    ``WRONGTYPE``, ``NOGROUP``, ...).
    """

    @property
    def message(self) -> str:
        return self.args[0]

    @property
    def code(self) -> str:
        head = self.message.split(" ", 1)[0]
        return head if head.isupper() else "ERR"


def _bulk(payload: bytes) -> bytes:
    return b"$%d\r\n%s\r\n" % (len(payload), payload)


def _as_bytes(value: Any) -> bytes:
    """Coerce one command argument / bulk payload to wire bytes."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, bool):
        # bool is an int subclass; Redis has no boolean wire type.
        return b"1" if value else b"0"
    if isinstance(value, int):
        return b"%d" % value
    if isinstance(value, float):
        return repr(value).encode("ascii")
    raise ProtocolError(f"cannot encode {type(value).__name__} as a RESP bulk string")


def encode_command(args: Iterable[Any]) -> bytes:
    """Encode one command as an array of bulk strings (the client frame)."""
    parts = [_as_bytes(arg) for arg in args]
    if not parts:
        raise ProtocolError("cannot encode an empty command")
    out = [b"*%d\r\n" % len(parts)]
    out.extend(_bulk(part) for part in parts)
    return b"".join(out)


def encode_reply(value: Any) -> bytes:
    """Encode one server reply value (the server frame).

    ``str`` payloads encode as bulk strings like every Redis reply value;
    use :class:`SimpleString` for the ``+OK`` style status replies.
    """
    if value is None:
        return b"$-1\r\n"
    if value is NIL_ARRAY:
        return b"*-1\r\n"
    if isinstance(value, SimpleString):
        return b"+%s\r\n" % value.encode("utf-8")
    if isinstance(value, ErrorReply):
        return b"-%s\r\n" % value.message.encode("utf-8")
    if isinstance(value, bool):
        return b":%d\r\n" % int(value)
    if isinstance(value, int):
        return b":%d\r\n" % value
    if isinstance(value, (bytes, str, float)):
        return _bulk(_as_bytes(value))
    if isinstance(value, (list, tuple)):
        return b"*%d\r\n" % len(value) + b"".join(encode_reply(v) for v in value)
    raise ProtocolError(f"cannot encode {type(value).__name__} as a RESP reply")


class _NeedMore(Exception):
    """Internal: the buffer ends before the value does."""


def _parse(buf: Union[bytes, bytearray, memoryview], pos: int) -> Tuple[Any, int]:
    """Parse one value at ``pos``; returns ``(value, next_pos)``.

    Raises :class:`_NeedMore` when the buffer is a prefix of a valid
    value, :class:`ProtocolError` when it cannot be one.
    """
    if pos >= len(buf):
        raise _NeedMore
    marker = buf[pos : pos + 1]
    line_end = buf.find(b"\r\n", pos + 1)
    if line_end < 0:
        raise _NeedMore
    line = bytes(buf[pos + 1 : line_end])
    body = line_end + 2
    if marker == b"+":
        return SimpleString(line.decode("utf-8", "replace")), body
    if marker == b"-":
        return ErrorReply(line.decode("utf-8", "replace")), body
    if marker == b":":
        try:
            return int(line), body
        except ValueError:
            raise ProtocolError(f"malformed integer reply {line!r}") from None
    if marker == b"$":
        try:
            length = int(line)
        except ValueError:
            raise ProtocolError(f"malformed bulk length {line!r}") from None
        if length == -1:
            return None, body
        if length < 0:
            raise ProtocolError(f"negative bulk length {length}")
        end = body + length
        if len(buf) < end + 2:
            raise _NeedMore
        if bytes(buf[end : end + 2]) != CRLF:
            raise ProtocolError("bulk string not terminated by CRLF")
        return bytes(buf[body:end]), end + 2
    if marker == b"*":
        try:
            count = int(line)
        except ValueError:
            raise ProtocolError(f"malformed array length {line!r}") from None
        if count == -1:
            return None, body
        if count < 0:
            raise ProtocolError(f"negative array length {count}")
        items: List[Any] = []
        cursor = body
        for _ in range(count):
            # A command is an array of bulk strings: those are read here,
            # without a call each; anything else recurses.
            if buf[cursor : cursor + 1] == b"$":
                line_end = buf.find(b"\r\n", cursor + 1)
                if line_end < 0:
                    raise _NeedMore
                try:
                    length = int(buf[cursor + 1 : line_end])
                except ValueError:
                    length = -2
                end = line_end + 2 + length
                if length >= 0 and buf[end : end + 2] == CRLF:
                    items.append(bytes(buf[line_end + 2 : end]))
                    cursor = end + 2
                    continue
            item, cursor = _parse(buf, cursor)
            items.append(item)
        return items, cursor
    raise ProtocolError(f"unknown RESP marker {bytes(marker)!r}")


class RespDecoder:
    """Incremental RESP decoder over a chunked byte stream.

    Usage::

        decoder = RespDecoder()
        decoder.feed(sock.recv(65536))
        while (value := decoder.decode()) is not INCOMPLETE:
            handle(value)

    Partial input stays buffered across :meth:`feed` calls; a complete
    value is consumed from the buffer exactly once.  Consuming moves a read
    cursor; the bytes behind it are dropped once per :meth:`feed`, not once
    per value, so a burst of pipelined values is not shifted down per value.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0

    def __len__(self) -> int:
        """Bytes fed and not yet consumed."""
        return len(self._buf) - self._pos

    def feed(self, data: bytes) -> None:
        if self._pos:
            del self._buf[: self._pos]
            self._pos = 0
        self._buf += data

    def decode(self) -> Any:
        """One complete value, or :data:`INCOMPLETE` if none is buffered."""
        try:
            value, self._pos = _parse(self._buf, self._pos)
        except _NeedMore:
            return INCOMPLETE
        return value

    def decode_all(self) -> List[Any]:
        """Every complete value currently buffered (pipelined batches)."""
        values = []
        while (value := self.decode()) is not INCOMPLETE:
            values.append(value)
        return values
