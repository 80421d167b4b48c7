"""Error hierarchy mirroring the errors redis-py raises for the same misuse."""

from __future__ import annotations


class RedisError(Exception):
    """Base class for all errors raised by the in-process Redis substrate."""


class ConnectionError(RedisError):  # noqa: A001 - redis-py shadows the builtin too
    """Server is shut down (or shutting down) under a blocked/issuing client.

    Mirrors ``redis.exceptions.ConnectionError``: clients parked in blocking
    reads (``BLPOP``, ``BLMOVE``, blocking ``XREADGROUP``) are
    woken with this error when the server closes, instead of waiting out
    their timeouts (or hanging forever with ``timeout=None``).
    """


class WrongTypeError(RedisError):
    """Operation against a key holding the wrong kind of value (WRONGTYPE)."""

    def __init__(self, key: str, expected: str, actual: str) -> None:
        super().__init__(
            f"WRONGTYPE key {key!r} holds {actual}, operation requires {expected}"
        )
        self.key = key
        self.expected = expected
        self.actual = actual


class NoGroupError(RedisError):
    """XREADGROUP/XACK against a consumer group that does not exist (NOGROUP)."""

    def __init__(self, stream: str, group: str) -> None:
        super().__init__(f"NOGROUP no such consumer group {group!r} for stream {stream!r}")
        self.stream = stream
        self.group = group


class BusyGroupError(RedisError):
    """XGROUP CREATE for a group name that already exists (BUSYGROUP)."""

    def __init__(self, stream: str, group: str) -> None:
        super().__init__(f"BUSYGROUP consumer group {group!r} already exists on {stream!r}")
        self.stream = stream
        self.group = group


class StreamIDError(RedisError):
    """Malformed stream entry ID, or an ID not greater than the last one."""
