"""Networked substrate: RESP over TCP for the redisim keyspace.

Everything "distributed" in the repro was single-host until this package:
the redisim server lives in-process and clients call it through a Python
method table.  ``repro.net`` puts a real socket in the middle:

- :mod:`repro.net.resp` -- an RESP2 wire codec (the protocol genuine Redis
  speaks): encoder for command arrays and reply values, and an incremental
  decoder that reassembles values from arbitrarily chunked socket reads.
- :mod:`repro.net.core` -- :class:`~repro.net.core.SocketServer`, the
  thread-per-connection server core under the RESP server and ``repro serve``.
- :mod:`repro.net.server` -- :class:`~repro.net.server.RespTCPServer`, a
  threaded TCP front-end mapping RESP command arrays onto an existing
  :class:`~repro.redisim.server.RedisServer` keyspace, including the
  blocking commands (``BLPOP``, blocking ``XREAD``/``XREADGROUP``) without
  holding the keyspace lock across the wire.
- :mod:`repro.net.client` -- the socket transport of the one command
  facade, :class:`~repro.redisim.client.RedisClient`:
  :class:`~repro.net.client.ConnectionPool` (pooled TCP connections with
  reconnect-and-backoff, per-pid fork safety, and the single table of
  client-side RESP syntax) and :class:`~repro.net.client.SocketRedisClient`,
  the thin constructor pairing the two.  Because it speaks real RESP, it
  also runs against a genuine Redis server (the ``real_redis`` parity
  lane), which keeps redisim honest.

The :mod:`cluster_redis mapping <repro.mappings.cluster>` builds on all
of them: worker OS processes join a coordinator by ``host:port`` and consume
the task stream over the socket.
"""

from repro.net.client import ReplyError, SocketRedisClient
from repro.net.resp import ErrorReply, ProtocolError, RespDecoder, encode_command
from repro.net.server import RespTCPServer

__all__ = [
    "ErrorReply",
    "ProtocolError",
    "ReplyError",
    "RespDecoder",
    "RespTCPServer",
    "SocketRedisClient",
    "encode_command",
]
