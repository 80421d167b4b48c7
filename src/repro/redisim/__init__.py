"""In-process Redis substrate.

The paper's Redis mappings (Section 3.1) are built on a Redis 5.0 server:
the global task queue becomes a **Redis Stream** consumed through a
**consumer group**, private queues of stateful workers are Redis lists, and
the ``dyn_auto_redis`` auto-scaling strategy monitors the consumer group's
average idle time (Section 3.2.2).

No Redis server is available in this environment, so this package implements
the commands those mappings send, from scratch, as a thread-safe in-process
data-structure server:

- strings (GET/SET/INCRBY/DECRBY) -- shared counters,
- lists (RPUSH/LPOP/BLPOP/LTRIM/LLEN/LRANGE) -- private queues and
  per-instance pending (replay) logs, plus redisim's sequenced lists
  (RPUSHSEQ/BLMOVESEQ/LRANGESEQ) for crash-recoverable delivery,
- SNAPSHOT/RESTORE -- sequence-guarded state snapshots backing the
  checkpoint/restore subsystem (:mod:`repro.state`),
- hashes (HINCRBY/HGETALL/HDEL) -- cluster counters, and listing and
  deleting the snapshots of :mod:`repro.state`,
- streams (XADD/XLEN/XRANGE) with **consumer groups** (XGROUP CREATE,
  XREADGROUP, XACK, XACKDECR, the summary form of XPENDING, XAUTOCLAIM,
  XINFO GROUPS/CONSUMERS) including pending-entry lists and per-consumer
  idle times,
- generic reads (KEYS/DBSIZE/EXISTS) and DEL.

The rule that keeps the list this short: a command lands with its first
non-test caller.  The mappings, benchmarks and scripts send every command
above, except the reads tests and operators use to check a run (KEYS,
DBSIZE, EXISTS, XRANGE, XPENDING, XLEN, LLEN).  Anything else --
``SADD``, ``XREAD``, ``XADD ... MAXLEN`` and the like -- is an unknown
command, in process (no such method) and on the wire (``-ERR``).

Semantics follow the Redis documentation closely enough that the mappings
could be pointed at a real server by swapping :class:`RedisClient` for
``redis.Redis`` (method names and signatures mirror redis-py).  See
``docs/architecture.md`` ("Substrates") for how the keyspace, its client
and its wire front-end fit together.
"""

from repro.redisim.client import RedisClient
from repro.redisim.errors import (
    BusyGroupError,
    ConnectionError,
    NoGroupError,
    RedisError,
    StreamIDError,
    WrongTypeError,
)
from repro.redisim.server import RedisServer
from repro.redisim.streams import StreamID

__all__ = [
    "BusyGroupError",
    "ConnectionError",
    "NoGroupError",
    "RedisClient",
    "RedisError",
    "RedisServer",
    "StreamID",
    "StreamIDError",
    "WrongTypeError",
]
