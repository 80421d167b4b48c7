"""Redis-backed global task board shared by the Redis mappings.

Replaces the multiprocessing global queue of Figure 2 with a **Redis
Stream** consumed through a consumer group (Section 3.1.1): producers
``XADD`` tasks, workers ``XREADGROUP`` with the ``>`` cursor (cooperative
consumption, at-least-once), and ``XACK`` on completion.  A Redis string
counter tracks *outstanding* work for the safe termination condition, and
``XINFO CONSUMERS`` provides the per-consumer idle times the
``dyn_auto_redis`` strategy monitors.

Poison pills are stream entries with a ``pill`` field; they carry no
outstanding-count so they never interfere with the drain proof.

Batched transport: a stream entry's ``task`` field may carry a
:class:`~repro.runtime.queues.Batch` envelope of up to ``batch_size``
tasks instead of a single one.  The outstanding counter still counts
*tasks* -- producers ``INCRBY len(batch)`` before publishing, and
completion releases the whole envelope's credits with one conditional
``XACKDECR amount=len(batch)`` -- so the drain proof is exact at batch
granularity while the command count (the per-tuple round-trip cost the
paper identifies as the Redis mappings' handicap, Section 5.6) drops by
the batch factor.

:class:`StreamWorker` is the consuming side: the one fetch -> invoke ->
settle (``XACKDECR``) -> reclaim (``XAUTOCLAIM``) body every Redis mapping
runs, whichever transport its client rides and whoever decides when the
run is over.  Its settle pipeline also reads the next entry, so a saturated
worker pays one round trip per entry (see the class docstring).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.concrete import ConcreteWorkflow, Delivery
from repro.core.pe import GenericPE
from repro.mappings.base import dispatch_emissions
from repro.mappings.termination import TerminationPolicy
from repro.redisim.client import Pipeline, RedisClient
from repro.runtime.clock import Clock
from repro.runtime.queues import as_envelope, batch_items, chunked

#: Sentinel returned by :meth:`RedisTaskBoard.fetch` for pill entries.
PILL = "__pill__"

#: ``budget`` of a worker that may always read ahead.
UNLIMITED = float("inf")

#: Commands per pipelined seeding frame: seeding costs a round trip per few
#: hundred commands, and no single frame ever carries the whole input.
SEED_FRAME = 256


def reclaim_threshold_ms(options, clock) -> float:
    """Resolve the XAUTOCLAIM idle threshold shared by the Redis mappings.

    ``reclaim_idle`` is in *nominal* seconds -- scaled by the clock like
    every other time knob, so the margin over task service times (nominal
    too) survives any time_scale; the default sits far above the paper's
    second-scale tasks, so only genuinely dead consumers are robbed.  A
    100 ms real floor prevents sub-millisecond theft windows at test-speed
    scales.  Tests can pin the threshold directly with ``reclaim_idle_ms``
    (real milliseconds).
    """
    reclaim_idle = options.get("reclaim_idle", 30.0)
    return options.get(
        "reclaim_idle_ms", max(1000.0 * clock.to_real(reclaim_idle), 100.0)
    )


class RedisTaskBoard:
    """Global task stream + outstanding counter on one Redis deployment.

    Parameters
    ----------
    client:
        Redis connection of the coordinating thread.  Workers should use
        their own clients (one "connection" each) created from the same
        server, passing them to the per-call methods.
    namespace:
        Key prefix isolating this run from others on the shared server.
    group:
        Consumer group name.
    """

    def __init__(
        self, client: RedisClient, namespace: str = "repro", group: str = "workers"
    ) -> None:
        self.client = client
        self.namespace = namespace
        self.group = group
        self.stream_key = f"{namespace}:tasks"
        self.counter_key = f"{namespace}:outstanding"

    # ------------------------------------------------------------ lifecycle
    def setup(self) -> None:
        """Create the stream + group and zero the outstanding counter."""
        self.client.delete(self.stream_key, self.counter_key)
        self.client.xgroup_create(self.stream_key, self.group, id="0", mkstream=True)
        self.client.set(self.counter_key, 0)

    def teardown(self) -> None:
        self.client.delete(self.stream_key, self.counter_key)

    # ------------------------------------------------------------- producer
    def put(self, task: Any, client: Optional[RedisClient] = None) -> str:
        """Enqueue one task (increments outstanding *before* publishing)."""
        c = client if client is not None else self.client
        c.incr(self.counter_key)
        return c.xadd(self.stream_key, {"task": task})

    def queue_tasks(self, pipe, tasks: List[Any], batch_size: int) -> None:
        """Append the publication commands for ``tasks`` to a pipeline.

        Credits are added (``INCRBY``) before each envelope's ``XADD``
        within the same transaction, preserving the put-before-publish
        ordering the drain proof relies on.
        """
        for chunk in chunked(tasks, max(1, batch_size)):
            if len(chunk) == 1:
                pipe.incr(self.counter_key)
            else:
                pipe.incrby(self.counter_key, len(chunk))
            pipe.xadd(self.stream_key, {"task": as_envelope(chunk)})

    def put_tasks(
        self, tasks: List[Any], batch_size: int, client: Optional[RedisClient] = None
    ) -> None:
        """Publish ``tasks`` in pipelined frames of :data:`SEED_FRAME` commands.

        Every batch size takes this path: envelopes of up to ``batch_size``
        (an unbatched task is an envelope of one), two commands each.
        Frames break on envelope boundaries, so the stream holds the same
        entries in the same order as one unbounded pipeline would leave.
        """
        pipe = (client if client is not None else self.client).pipeline()
        for frame in chunked(tasks, SEED_FRAME // 2 * max(1, batch_size)):
            self.queue_tasks(pipe, frame, batch_size)
            pipe.execute()

    def seed_roots(self, provided: Mapping[str, Iterable[Any]], batch_size: int = 1) -> int:
        """Publish every root input as a task; returns the outstanding count."""
        self.put_tasks(
            [(root, None, item) for root, items in provided.items() for item in items],
            batch_size,
        )
        return self.outstanding()

    def put_pills(self, count: int, client: Optional[RedisClient] = None) -> None:
        c = client if client is not None else self.client
        for _ in range(count):
            c.xadd(self.stream_key, {"pill": 1})

    # ------------------------------------------------------------- consumer
    def fetch(
        self,
        consumer: str,
        client: RedisClient,
        block_ms: Optional[int] = None,
        count: int = 1,
    ) -> List[Tuple[str, Any]]:
        """Read new entries for ``consumer``; pills come back as ``PILL``."""
        return self.fetched(
            client.xreadgroup(
                self.group,
                consumer,
                {self.stream_key: ">"},
                count=count,
                block=block_ms,
            )
        )

    def queue_fetch(self, pipe: Pipeline, consumer: str) -> None:
        """Append a non-blocking one-entry read for ``consumer`` to a pipeline.

        Decode its reply with :meth:`fetched`.
        """
        pipe.xreadgroup(self.group, consumer, {self.stream_key: ">"}, count=1)

    @staticmethod
    def fetched(reply: List[Tuple[str, list]]) -> List[Tuple[str, Any]]:
        """An ``XREADGROUP`` reply as ``(entry_id, payload | PILL)`` pairs."""
        return [
            (entry_id, PILL if "pill" in fields else fields["task"])
            for _key, entries in reply
            for entry_id, fields in entries
        ]

    def ack(self, entry_id: str, client: RedisClient) -> None:
        client.xack(self.stream_key, self.group, entry_id)

    def complete(self, client: RedisClient) -> None:
        """Declare one fetched task fully processed (children already put)."""
        client.decr(self.counter_key)

    def finish(self, entry_id: str, children: List[Any], client: RedisClient) -> None:
        """Publish children + XACK + complete in one pipelined round trip.

        The per-task hot path: doing these as individual commands costs one
        client/server round trip (and one server-lock acquisition) each,
        which under many workers dominates fine-grained task streams; a
        real deployment pipelines them for exactly the same reason.
        """
        pipe = client.pipeline()
        self.queue_tasks(pipe, children, 1)
        self.queue_settle(pipe, entry_id, 1)
        pipe.execute()

    def queue_settle(self, pipe: Pipeline, entry_id: str, amount: int) -> None:
        """Append the settlement of one consumed entry to a pipeline.

        The ack and the completion decrement are one conditional step
        (XACKDECR): when an entry was reclaimed (XAUTOCLAIM) and finished
        by both its original consumer and its adopter, only the first
        finisher's ack succeeds and only that one decrements -- the
        outstanding counter stays exactly-once per entry and can never go
        negative.  ``amount`` is the entry's task count (``len(batch)`` for
        an envelope), released all-or-nothing with the ack.
        """
        pipe.xack_decr(self.stream_key, self.group, entry_id, self.counter_key, amount)

    # ------------------------------------------------------------ monitoring
    def outstanding(self, client: Optional[RedisClient] = None) -> int:
        c = client if client is not None else self.client
        value = c.get(self.counter_key)
        return 0 if value is None else int(value)

    def is_drained(self, client: Optional[RedisClient] = None) -> bool:
        # Strict == 0: completion is exactly-once per entry (XACKDECR), so
        # the counter never goes negative, and a hypothetical accounting bug
        # should surface as a visible join timeout rather than silently
        # dropping still-outstanding work.
        return self.outstanding(client) == 0

    def is_terminated(self, policy: TerminationPolicy) -> bool:
        """The policy's termination condition (Section 3.2.3): the
        drained proof, or the paper's raw emptiness check."""
        if policy.unsafe_empty_check:
            return self.backlog() == 0
        return self.is_drained()

    def backlog(self, client: Optional[RedisClient] = None) -> int:
        """Entries not yet delivered to the group (the group's lag)."""
        c = client if client is not None else self.client
        for info in c.xinfo_groups(self.stream_key):
            if info["name"] == self.group:
                return int(info["lag"])
        return 0

    def avg_idle_ms(
        self,
        consumers: Optional[Iterable[str]] = None,
        client: Optional[RedisClient] = None,
    ) -> float:
        """Average idle time (ms) of the given consumers (default: all)."""
        c = client if client is not None else self.client
        rows = c.xinfo_consumers(self.stream_key, self.group)
        if consumers is not None:
            wanted = set(consumers)
            rows = [row for row in rows if row["name"] in wanted]
        if not rows:
            return 0.0
        return float(sum(row["idle"] for row in rows) / len(rows))

    # -------------------------------------------------------------- recovery
    def recover_stale(
        self, consumer: str, client: RedisClient, min_idle_ms: float
    ) -> List[Tuple[str, Any]]:
        """Claim tasks stuck with dead consumers (XAUTOCLAIM recovery).

        The at-least-once safety net: if a worker crashes after fetching
        but before acking, its entries stay in the PEL and any peer can
        adopt them once they are idle enough.
        """
        _cursor, entries = client.xautoclaim(
            self.stream_key, self.group, consumer, min_idle_ms
        )
        recovered: List[Tuple[str, Any]] = []
        for entry_id, fields in entries:
            if "pill" in fields:
                # Pills are immediately re-acked; they were for the dead
                # consumer and termination broadcasting re-sends as needed.
                client.xack(self.stream_key, self.group, entry_id)
                continue
            recovered.append((entry_id, fields["task"]))
        return recovered


class StreamWorker:
    """One consumer of the task stream: fetch, invoke, settle, reclaim.

    The single worker body of ``dyn_redis``, ``dyn_auto_redis``,
    ``cluster_redis`` and hybrid's stateless plane.  Only what truly
    differs between them is a parameter:

    client / collector / count:
        The worker's own connection, where collected output lands, and the
        counter sink ``count(name, amount=1)`` -- in-process state for
        threads, a relay buffer and a local tally for worker processes.
    publish:
        ``publish(pipe, deliveries)`` appends what an entry produced to the
        settling pipeline, ahead of the ack.  Default
        (:meth:`publish_tasks`): batch envelopes on the task stream; hybrid
        routes stateful destinations to private queues, cluster workers add
        their relayed results.
    after_fetch:
        Called with the number of real entries of each non-empty fetch,
        prefetched ones included, before any is run (``crash_after``
        failure injection).

    **Round-trip budget.**  One pipeline settles an entry (children,
    ``XACKDECR``) *and* reads the next with a non-blocking ``XREADGROUP >
    COUNT 1``: a saturated worker costs one round trip per entry.  Only an
    empty prefetch falls back to the separate blocking :meth:`_fetch` (two
    trips for that entry), where backoff, the termination check and the
    ``XAUTOCLAIM`` cadence live.  A worker prefetches unless the entry
    raised, its fetch carried a pill, or it exhausts the session's budget --
    so nobody returns holding an entry only reclaim could free.

    The three ``run_*`` drivers differ only in who ends the run.
    """

    def __init__(
        self,
        board: RedisTaskBoard,
        client: RedisClient,
        consumer: str,
        copies: Dict[str, GenericPE],
        concrete: ConcreteWorkflow,
        collector: Any,
        count: Callable[..., None],
        *,
        policy: TerminationPolicy,
        clock: Clock,
        reclaim_idle_ms: float,
        batch_size: int = 1,
        publish: Optional[Callable[[Pipeline, List[Delivery]], None]] = None,
        after_fetch: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.board = board
        self.client = client
        self.consumer = consumer
        self.copies = copies
        self.concrete = concrete
        self.collector = collector
        self.count = count
        self.policy = policy
        self.reclaim_idle_ms = reclaim_idle_ms
        self.batch_size = batch_size
        self.publish = publish if publish is not None else self.publish_tasks
        self.after_fetch = after_fetch
        #: Blocking-read length of an unstarved poll (real milliseconds).
        self.base_block_ms = max(1, int(clock.to_real(policy.poll_interval) * 1000))
        #: What the last settle pipeline read ahead; the next fetch hands it out.
        self._prefetched: List[Tuple[str, Any]] = []

    # ------------------------------------------------------------ the body
    def publish_tasks(self, pipe: Pipeline, deliveries: List[Delivery]) -> None:
        self.board.queue_tasks(
            pipe, [(d.dst, d.dst_port, d.data) for d in deliveries], self.batch_size
        )

    def process_entry(self, entry_id: str, payload: Any, budget: float = UNLIMITED) -> int:
        """Run every task carried by one stream entry; returns the count.

        The batch-aware hot path: an entry may be a single task or a batch
        envelope.  All tasks are executed without re-entering the fetch/ack
        machinery per tuple; their children are gathered and the entry is
        settled once -- one pipelined round trip publishing the children,
        releasing the entry's credits with a conditional
        ``XACKDECR amount=len(entry)`` and reading the next entry.

        ``budget`` is how many more tasks the caller means to run; an entry
        that uses it up (``0``: any entry) does not read ahead.
        """
        tasks = batch_items(payload)
        deliveries: List[Delivery] = []
        prefetch = False
        try:
            for pe_name, port, item in tasks:
                inputs = item if port is None else {port: item}
                emissions = self.copies[pe_name]._invoke(inputs)
                self.count("tasks")
                deliveries.extend(
                    dispatch_emissions(self.concrete, self.collector, pe_name, 0, emissions)
                )
            prefetch = len(tasks) < budget
        finally:
            # Settle even when a PE raised: the entry must not linger in
            # the PEL for a peer to adopt and fail on again.  What it
            # published lands before its ack, so a crash in between can
            # only repeat work (at-least-once), never lose it.
            pipe = self.client.pipeline()
            self.publish(pipe, deliveries)
            self.board.queue_settle(pipe, entry_id, len(tasks))
            if prefetch:
                self.board.queue_fetch(pipe, self.consumer)
            replies = pipe.execute()
        if prefetch:
            self._prefetched = self.board.fetched(replies[-1])
        return len(tasks)

    def consume(
        self, fetched: List[Tuple[str, Any]], budget: float = UNLIMITED
    ) -> Tuple[int, bool]:
        """Run one fetch's entries; returns ``(tasks run, saw a pill)``.

        Pills always trail real work in stream order (they are only
        broadcast once the board drained), so tasks run first and the
        caller exits on the pill.  A multi-entry fetch may pull pills meant
        for peers into our PEL; ack them all -- the peers still terminate
        through their own stop condition.  Only the last entry of a
        pill-free fetch reads ahead, within ``budget`` tasks.
        """
        if self.after_fetch is not None:
            self.after_fetch(sum(1 for _, payload in fetched if payload is not PILL))
        tasks, got_pill = 0, any(payload is PILL for _, payload in fetched)
        for entry_id, payload in fetched:
            if payload is PILL:
                self.board.ack(entry_id, self.client)
            else:
                ahead = not got_pill and entry_id == fetched[-1][0]
                tasks += self.process_entry(entry_id, payload, budget - tasks if ahead else 0)
        return tasks, got_pill

    def reclaim_stale(self) -> int:
        """Adopt and run tasks stuck with dead consumers (the recovery path).

        A consumer that dies between XREADGROUP and XACK leaves its entries
        in the PEL, where no ``>`` read will ever see them again -- without
        reclaim the outstanding counter never drains and the run hangs.
        Starved workers call this once the queue looks empty but work is
        still outstanding.  Returns the number of tasks recovered.
        """
        tasks = 0
        for entry_id, payload in self.board.recover_stale(
            self.consumer, self.client, min_idle_ms=self.reclaim_idle_ms
        ):
            self.count("reclaimed")
            tasks += self.process_entry(entry_id, payload, budget=0)
        return tasks

    def _fetch(self, empty_streak: int = 0) -> List[Tuple[str, Any]]:
        """The next entries: what the last settle read ahead, else a blocking read."""
        if self._prefetched:
            fetched, self._prefetched = self._prefetched, []
            return fetched
        # Exponential backoff while starved (capped at 32x): idle consumers
        # polling at 1 kHz would contend on the server lock and the GIL.
        block_ms = self.base_block_ms << min(empty_streak, 5)
        return self.board.fetch(self.consumer, self.client, block_ms=block_ms)

    def _reclaim_due(self, empty_streak: int) -> bool:
        # On the first starved poll past the retry budget, then every 8th --
        # not per poll, which would add one XAUTOCLAIM round trip per
        # interval per worker for the whole starved tail of a run.
        over = empty_streak - self.policy.empty_retries
        return over >= 0 and over % 8 == 0

    # ------------------------------------------------------------- drivers
    def run_dedicated(self, broadcast_pills: Callable[[], None]) -> None:
        """Dedicated worker: run until the board terminates or a pill lands.

        The worker that decides termination calls ``broadcast_pills`` to
        hurry its peers out.
        """
        empty_streak = 0
        while True:
            fetched = self._fetch(empty_streak)
            if fetched:
                empty_streak = 0
                if self.consume(fetched)[1]:
                    return
                continue
            empty_streak += 1
            self.count("empty_polls")
            if empty_streak >= self.policy.empty_retries:
                if self.board.is_terminated(self.policy):
                    broadcast_pills()
                    return
                # Starved but not drained: the missing work may be pending
                # under a dead consumer.
                if self._reclaim_due(empty_streak) and self.reclaim_stale():
                    empty_streak = 0

    def run_session(self, chunk: int) -> int:
        """Auto-scaled session: process up to ``chunk`` tasks, stop on empty.

        ``chunk`` is a soft cap at batch granularity: a session never
        splits a fetched envelope, so it may overshoot by at most one
        fetch's worth of tasks.  The entry that reaches ``chunk`` does not
        read ahead: each session runs a fresh worker, and an entry left in
        this one's hands would sit in the PEL until a peer reclaimed it.
        """
        processed = 0
        while processed < chunk:
            fetched = self._fetch()
            if not fetched:
                if not self.board.is_terminated(self.policy):
                    processed += self.reclaim_stale()
                break
            tasks, got_pill = self.consume(fetched, budget=chunk - processed)
            processed += tasks
            if got_pill:
                break
        return processed

    def run_until(self, stop: Callable[[], bool]) -> None:
        """Externally shut down: poll until ``stop()`` or a pill.

        The coordinator owns termination (hybrid's staged close), so a
        starved worker only ever reclaims -- and only while work is
        outstanding: in recoverable runs the counter legitimately stays
        > 0 between stateful checkpoints.
        """
        empty_streak = 0
        while not stop():
            fetched = self._fetch(empty_streak)
            if fetched:
                empty_streak = 0
                if self.consume(fetched)[1]:
                    return
                continue
            empty_streak += 1
            if (
                self._reclaim_due(empty_streak)
                and not self.board.is_drained(self.client)
                and self.reclaim_stale()
            ):
                empty_streak = 0
