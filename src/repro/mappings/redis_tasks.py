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
*tasks* -- producers ``INCRBY`` one credit per task, once per pipeline and
before anything in it is published, and completion releases the whole
envelope's credits with one conditional ``XACKDECR amount=len(batch)`` --
so the drain proof is exact at batch granularity while the command count
(the per-tuple round-trip cost the paper identifies as the Redis mappings'
handicap, Section 5.6) drops by the batch factor.

:class:`StreamWorker` is the consuming side: the one fetch -> invoke ->
settle (``XACKDECR``) -> reclaim (``XAUTOCLAIM``) body every Redis mapping
runs, whichever transport its client rides and whoever decides when the
run is over.  It works in *windows*: one pipeline settles every entry of a
window in fetch order and reads the next window, so a saturated worker pays
one round trip per window -- and a window is as many entries as make that
trip a small share of the work it carries (:func:`window_size`), which for
entries that dwarf a trip is one.  Where a trip takes time at all, the
worker does not wait it out either: it *sends* a window's settle and *reads*
it a window later, running what it already holds in between (see the class
docstring).
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.concrete import ConcreteWorkflow, Delivery
from repro.core.pe import GenericPE
from repro.mappings.base import dispatch_emissions
from repro.mappings.termination import TerminationPolicy
from repro.redisim.client import Flight, Pipeline, RedisClient
from repro.runtime.clock import Clock
from repro.runtime.queues import as_envelope, batch_items, chunked

#: Sentinel returned by :meth:`RedisTaskBoard.fetch` for pill entries.
PILL = "__pill__"

#: ``budget`` of a worker that may always read ahead.
UNLIMITED = float("inf")

#: Most commands per pipelined seeding frame: seeding costs a round trip per
#: few hundred commands, and no single frame ever carries the whole input.
SEED_FRAME = 256

#: Largest share of a window's work its settle trip may cost: a worker reads
#: ahead as many entries as bring the trip down to this share.
TRIP_SHARE = 0.1

#: Most entries one window carries.  Measured on ``cluster_tcp``, the saving
#: per avoided trip flattens past 8, while what a crash repeats and what a
#: peer cannot steal keep growing with the window.
WINDOW_CAP = 8


def window_size(trip: float, service: float, reclaim_idle: float) -> int:
    """Entries per window, from a worker's own measurements (one time unit).

    ``trip`` is the wall time of a settle round trip and ``service`` the
    wall time of running one entry.  The window is the smallest that keeps
    the trip within :data:`TRIP_SHARE` of the work it settles, at most
    :data:`WINDOW_CAP`, and never more than a quarter of ``reclaim_idle`` of
    measured work: a live worker's last entry must not sit in the PEL long
    enough to look abandoned, and a worker whose settles fly holds two
    windows -- half of ``reclaim_idle``.  Entries that cost ten trips or
    more get 1.
    """
    if service <= 0:
        return WINDOW_CAP
    wanted = math.ceil(min(trip / (TRIP_SHARE * service), WINDOW_CAP))
    return max(1, min(wanted, int(reclaim_idle / (4 * service))))


def _ewma(mean: Optional[float], sample: float) -> float:
    """Fold one measurement into a running mean (the first one is the mean)."""
    return sample if mean is None else 0.75 * mean + 0.25 * sample


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

    def book(self, pipe, credit: int) -> None:
        """Append the credit of everything a pipeline is about to publish.

        Whoever owns a pipeline books it once, ahead of every payload --
        the put-before-publish ordering the drain proof relies on: the
        counter may run ahead of what is published, never behind it.
        """
        if credit:
            pipe.incrby(self.counter_key, credit)

    def queue_tasks(self, pipe, tasks: List[Any], batch_size: int) -> None:
        """Append ``tasks`` to a pipeline as envelopes of up to ``batch_size``.

        Payloads only: their credit (one per task) is the pipeline owner's
        to :meth:`book` first.
        """
        for chunk in chunked(tasks, max(1, batch_size)):
            pipe.xadd(self.stream_key, {"task": as_envelope(chunk)})

    def put_tasks(
        self, tasks: List[Any], batch_size: int, client: Optional[RedisClient] = None
    ) -> None:
        """Publish ``tasks`` in pipelined frames of half :data:`SEED_FRAME` envelopes.

        Every batch size takes this path: envelopes of up to ``batch_size``
        (an unbatched task is an envelope of one) behind the frame's credit.
        Frames break on envelope boundaries, so the stream holds the same
        entries in the same order as one unbounded pipeline would leave.
        """
        pipe = (client if client is not None else self.client).pipeline()
        for frame in chunked(tasks, SEED_FRAME // 2 * max(1, batch_size)):
            self.book(pipe, len(frame))
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

    def queue_fetch(self, pipe: Pipeline, consumer: str, count: int = 1) -> None:
        """Append a non-blocking read of up to ``count`` entries to a pipeline.

        Decode its reply with :meth:`fetched`.
        """
        pipe.xreadgroup(self.group, consumer, {self.stream_key: ">"}, count=count)

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

    def queue_pills(self, pipe: Pipeline, pill_ids: List[str], own: int = 1) -> None:
        """Append the acks of the pills a worker pulled to a pipeline.

        The first ``own`` are the fetching worker's to end on.  Every
        further one was meant for a peer and is published again behind its
        ack, so the peer still ends on a pill instead of polling out its
        retry budget.
        """
        for position, entry_id in enumerate(pill_ids):
            pipe.xack(self.stream_key, self.group, entry_id)
            if position >= own:
                pipe.xadd(self.stream_key, {"pill": 1})

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
        self.book(pipe, len(children))
        self.queue_tasks(pipe, children, 1)
        self.queue_settle(pipe, [(entry_id, 1)])
        pipe.execute()

    def queue_settle(self, pipe: Pipeline, settled: List[Tuple[str, int]]) -> None:
        """Append the settlement of consumed entries, as one command.

        ``settled`` is ``(entry id, amount)`` pairs in fetch order.  The
        ack and the completion decrement are one conditional step
        (XACKDECR): when an entry was reclaimed (XAUTOCLAIM) and finished
        by both its original consumer and its adopter, only the first
        finisher's ack succeeds and only that one decrements -- the
        outstanding counter stays exactly-once per entry and can never go
        negative, and a batch sent twice releases nothing the second time.
        ``amount`` is the entry's task count (``len(batch)`` for an
        envelope), released all-or-nothing with its ack.
        """
        if settled:
            (entry_id, amount), *more = settled
            pipe.xack_decr(
                self.stream_key, self.group, entry_id, self.counter_key, amount,
                *(word for pair in more for word in pair),
            )

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

    **Round-trip budget.**  A fetch's entries are one *window*: they run
    back to back and one pipeline settles them all: the credit of everything
    the window published (one ``INCRBY``, ahead of every payload), each
    entry's children in fetch order, one ``XACKDECR`` naming every entry in
    fetch order, the acks of the pills the fetch pulled, and a non-blocking
    ``XREADGROUP > COUNT n`` that reads ahead.  A saturated worker costs one
    round trip per window.  ``w`` is no option.  Each worker keeps a running
    mean of its settle trip's wall time and of its wall time per entry and
    reads ahead :func:`window_size` entries: as many as make the trip a
    tenth of the work it settles, so entries that dwarf a trip keep
    ``w == 1`` -- one fused settle-and-fetch trip per entry -- and only
    fine-grained streams batch their trips.  A worker with no measurement
    yet, and a budgeted session (whose idle time is the scaler's signal and
    which must return holding nothing), read one entry ahead.  Only an empty
    read-ahead falls back to the separate blocking :meth:`_fetch`, where
    backoff, the termination check and the ``XAUTOCLAIM`` cadence live.  A
    window reads ahead unless an entry raised, the caller's ``stop()`` cut it
    short, its fetch carried a pill, or it exhausts the session's budget.

    **Sent, then read.**  A settle is *sent* (:meth:`Pipeline.begin`) and its
    replies are *read* when the worker next needs them: just before it sends
    the next pipeline, when its hand is empty, or on the way out.  So at most
    one settle is in flight, and it is left in flight only while there is a
    window in hand to run meanwhile.  The read-ahead refills the hand to
    **two** windows only where that can pay -- the worker has seen a flight
    of its own that had not landed when ``begin`` returned (never so on an
    in-process keyspace) and ``w > 1`` -- and to one everywhere else, where
    every settle is read at once and the wire carries one trip per window as
    before.  Coarse entries (``w == 1``) are never held back from a starved
    peer, and budgeted sessions never fly.

    **What a failure leaves.**  Nothing of a window is published or acked
    before its one settle, and a settle is one frame: a worker killed with a
    settle in flight has delivered either all of it or none of it.  What it
    holds -- the window it is running and its hand, at most two windows
    (``2 * WINDOW_CAP`` entries) once the keyspace has answered -- stays in
    the PEL and its adopter re-runs all of it: at-least-once, never lost.  A
    connection that dies under a flight makes :meth:`Flight.result` send the
    batch again; the repeated ``XACKDECR`` finds nothing pending and releases
    nothing, so the outstanding counter still ends at 0 (what the lost reply
    had read ahead waits in this worker's PEL to be reclaimed).  A PE raising in
    entry *j* first reads the settle in flight, then settles e1..e*j*
    synchronously (the children gathered so far, then the acks) before the
    exception propagates; the unstarted tail and the hand stay pending,
    exactly as a crash leaves them.  ``stop()`` and a pill read the settle in
    flight before the worker returns, and pills it had read ahead for peers
    are acked and published again with the last trip.

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
        #: Windows read ahead and not yet run, oldest first: at most two.
        self._hand: Deque[List[Tuple[str, Any]]] = deque()
        #: The settle sent and not yet read, with the window size its
        #: read-ahead is cut by (0: it reads nothing ahead).
        self._flight: Optional[Tuple[Flight, int]] = None
        #: Whether a settle of this worker was ever still on the wire when
        #: ``begin`` returned: only then is there a wait to work through.
        self._flew = False
        #: Running means (real seconds) of a settle trip and of one entry's
        #: run; ``None`` until measured.  They size the next window.
        self._trip: Optional[float] = None
        self._service: Optional[float] = None

    # ------------------------------------------------------------ the body
    def publish_tasks(self, pipe: Pipeline, deliveries: List[Delivery]) -> None:
        self.board.queue_tasks(
            pipe, [(d.dst, d.dst_port, d.data) for d in deliveries], self.batch_size
        )

    def _window(self) -> int:
        """How many entries the next read-ahead asks for."""
        if self._trip is None or self._service is None:
            return 1
        return window_size(self._trip, self._service, self.reclaim_idle_ms / 1000.0)

    def consume(
        self,
        fetched: List[Tuple[str, Any]],
        budget: float = UNLIMITED,
        stop: Optional[Callable[[], bool]] = None,
    ) -> Tuple[int, bool]:
        """Run one fetch's entries as a window; returns ``(tasks run, saw a pill)``.

        The batch-aware hot path: an entry may be a single task or a batch
        envelope (settled whole, ``XACKDECR amount=len(entry)``), and no
        entry re-enters the fetch/ack machinery on its own -- everything the
        window produced goes out in the one :meth:`_settle` trip.

        Pills always trail real work in stream order (they are only
        broadcast once the board drained), so tasks run first and the
        caller exits on the pill.  ``stop`` is asked before every entry;
        once true, the rest of the window stays pending.  ``budget`` is how
        many more tasks the caller means to run: a window that uses it up
        does not read ahead (``0``: never), and a finite one reads a single
        entry ahead.
        """
        pills = [entry_id for entry_id, payload in fetched if payload is PILL]
        #: ``(entry id, tasks carried, children)`` of every entry started.
        ran: List[Tuple[str, int, List[Delivery]]] = []
        tasks, window = 0, 0
        started = time.perf_counter()
        try:
            for entry_id, payload in fetched:
                if payload is PILL:
                    continue
                if stop is not None and stop():
                    break
                items = batch_items(payload)
                deliveries: List[Delivery] = []
                ran.append((entry_id, len(items), deliveries))
                for pe_name, port, item in items:
                    inputs = item if port is None else {port: item}
                    emissions = self.copies[pe_name]._invoke(inputs)
                    self.count("tasks")
                    deliveries.extend(
                        dispatch_emissions(self.concrete, self.collector, pe_name, 0, emissions)
                    )
                tasks += len(items)
            else:
                if not pills and tasks < budget:
                    window = self._window() if budget == UNLIMITED else 1
        finally:
            # Settle even when a PE raised: a started entry must not linger
            # in the PEL for a peer to adopt and fail on again.
            self._settle(ran, pills, window, started)
        return tasks, bool(pills)

    def _settle(
        self,
        ran: List[Tuple[str, int, List[Delivery]]],
        pills: List[str],
        window: int,
        started: float,
    ) -> None:
        """The one trip of a window: settle ``ran``, read ahead in windows of ``window``.

        Credit first, then what each entry published, then the acks: a crash
        in between can only repeat work (at-least-once), never lose it.  The
        pipeline is assembled here, after the window ran, so a ``publish``
        that carries per-window state (cluster's relayed results) lands it
        with the first entry -- ahead of the window's ack.

        ``window == 0`` is the way out (a pill, a raise, ``stop()``, a spent
        budget, an adopted entry): nothing is read ahead, the trip is waited
        out, and pills still in hand -- a peer's, every one -- go back with it.
        """
        ran_until = time.perf_counter()
        self._land()
        own = 1 if pills else 0
        if not window:
            pills = pills + [
                entry_id for held in self._hand for entry_id, payload in held if payload is PILL
            ]
        pipe = self.client.pipeline()
        self.board.book(pipe, sum(len(deliveries) for _id, _amount, deliveries in ran))
        for _entry_id, _amount, deliveries in ran:
            self.publish(pipe, deliveries)
        self.board.queue_settle(pipe, [(entry_id, amount) for entry_id, amount, _d in ran])
        self.board.queue_pills(pipe, pills, own)
        # Two windows in hand where a settle can fly over the first of them.
        ahead = ((2 if window > 1 and self._flew else 1) - len(self._hand)) * window
        if ahead > 0:
            self.board.queue_fetch(pipe, self.consumer, ahead)
        sent = time.perf_counter()
        flight = pipe.begin()
        self._flight = (flight, window if ahead > 0 else 0)
        self._flew = self._flew or not flight.landed
        if ran:
            self.count("settle_trips")
            self._service = _ewma(self._service, (ran_until - started) / len(ran))
        if window and self._hand:
            self.count("settles_in_flight")
            return
        self._land()
        if ran:
            self._trip = _ewma(self._trip, time.perf_counter() - sent)

    def _land(self) -> None:
        """Read the settle in flight, if any; what it read ahead joins the hand."""
        if self._flight is None:
            return
        (flight, window), self._flight = self._flight, None
        replies = flight.result()
        if window:
            self._hand.extend(chunked(self.board.fetched(replies[-1]), window))

    def reclaim_stale(self) -> int:
        """Adopt and run tasks stuck with dead consumers (the recovery path).

        A consumer that dies between XREADGROUP and XACK leaves its entries
        in the PEL, where no ``>`` read will ever see them again -- without
        reclaim the outstanding counter never drains and the run hangs.
        Starved workers call this once the queue looks empty but work is
        still outstanding.  Each adopted entry is a window of its own that
        reads nothing ahead.  Returns the number of tasks recovered.
        """
        tasks = 0
        for entry in self.board.recover_stale(
            self.consumer, self.client, min_idle_ms=self.reclaim_idle_ms
        ):
            self.count("reclaimed")
            tasks += self.consume([entry], budget=0)[0]
        return tasks

    def _fetch(self, empty_streak: int = 0) -> List[Tuple[str, Any]]:
        """The next window: one a settle read ahead, else a blocking read."""
        if not self._hand:
            self._land()
        if self._hand:
            fetched = self._hand.popleft()
        else:
            # Exponential backoff while starved (capped at 32x): idle consumers
            # polling at 1 kHz would contend on the server lock and the GIL.
            block_ms = self.base_block_ms << min(empty_streak, 5)
            fetched = self.board.fetch(self.consumer, self.client, block_ms=block_ms)
        if fetched and self.after_fetch is not None:
            self.after_fetch(sum(1 for _, payload in fetched if payload is not PILL))
        return fetched

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
                if self.consume(fetched, stop=stop)[1]:
                    return
                continue
            empty_streak += 1
            if (
                self._reclaim_due(empty_streak)
                and not self.board.is_drained(self.client)
                and self.reclaim_stale()
            ):
                empty_streak = 0
        # Stopped between two windows: the way out with nothing to settle.
        self._settle([], [], 0, 0.0)
