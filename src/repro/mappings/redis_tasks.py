"""Redis-backed global task board shared by the Redis mappings.

Replaces the multiprocessing global queue of Figure 2 with a **Redis
Stream** consumed through a consumer group (Section 3.1.1): producers
append tasks (one ``XADDN`` carries all that a pipeline publishes),
workers ``XREADGROUP`` with the ``>`` cursor (cooperative consumption,
at-least-once), and ``XACK`` on completion.  A Redis string
counter tracks *outstanding* work for the safe termination condition, and
``XINFO CONSUMERS`` provides the per-consumer idle times the
``dyn_auto_redis`` strategy monitors.

Poison pills are stream entries with a ``pill`` field, and *death
markers* ones with a ``dead`` field naming a consumer whose pending entries
are to be adopted (:meth:`StreamWorker.adopt`); neither carries an
outstanding-count, so they never interfere with the drain proof.

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
settle (``XACKDECR``) -> adopt the named dead body every Redis mapping
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
from typing import Any, Callable, Deque, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.core.concrete import ConcreteWorkflow
from repro.core.pe import GenericPE
from repro.mappings.base import dispatch_emissions
from repro.mappings.termination import TerminationPolicy
from repro.redisim.client import Flight, Pipeline, RedisClient
from repro.runtime.clock import Clock
from repro.runtime.queues import as_envelope, batch_items, chunked

#: Sentinel returned by :meth:`RedisTaskBoard.fetch` for pill entries.
PILL = "__pill__"


class Death(NamedTuple):
    """A death marker as :meth:`RedisTaskBoard.fetch` returns it."""

    consumer: str

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
#: starved peer cannot take keep growing with the window.  Also an
#: adoption's page.
WINDOW_CAP = 8

#: The consumer group every worker of a task board reads through.
GROUP = "workers"



def window_size(trip: float, service: float) -> int:
    """Entries per window, from a worker's own measurements (one time unit).

    ``trip`` is the wall time of a settle round trip and ``service`` the
    wall time of running one entry.  The window is the smallest that keeps
    the trip within :data:`TRIP_SHARE` of the work it settles, at most
    :data:`WINDOW_CAP`.  Entries that cost ten trips or more get 1.
    """
    if service <= 0:
        return WINDOW_CAP
    return max(1, math.ceil(min(trip / (TRIP_SHARE * service), WINDOW_CAP)))


def _ewma(mean: Optional[float], sample: float) -> float:
    """Fold one measurement into a running mean (the first one is the mean)."""
    return sample if mean is None else 0.75 * mean + 0.25 * sample



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
    """

    def __init__(self, client: RedisClient, namespace: str = "repro") -> None:
        self.client = client
        self.namespace = namespace
        self.stream_key = f"{namespace}:tasks"
        self.counter_key = f"{namespace}:outstanding"

    # ------------------------------------------------------------ lifecycle
    def setup(self) -> None:
        """Create the stream + group and zero the outstanding counter."""
        self.client.delete(self.stream_key, self.counter_key)
        self.client.xgroup_create(self.stream_key, GROUP, id="0", mkstream=True)
        self.client.set(self.counter_key, 0)

    def teardown(self) -> None:
        self.client.delete(self.stream_key, self.counter_key)

    # ------------------------------------------------------------- producer
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

        One stream entry per envelope, in order, all in one ``XADDN``: a
        window's children cost the keyspace one command, not one each.
        Payloads only: their credit (one per task) is the pipeline owner's
        to :meth:`book` first.
        """
        if not tasks:
            return
        if batch_size > 1:
            tasks = [as_envelope(chunk) for chunk in chunked(tasks, batch_size)]
        pipe.xaddn(self.stream_key, "task", *tasks)

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
        """Publish ``count`` pills in one ``XADDN``."""
        if count:
            c = client if client is not None else self.client
            c.xaddn(self.stream_key, "pill", *[1] * count)

    def put_dead(self, consumer: str) -> None:
        """Name ``consumer`` dead: the worker handed this marker adopts its PEL."""
        self.client.xaddn(self.stream_key, "dead", consumer)

    # ------------------------------------------------------------- consumer
    def fetch(
        self,
        consumer: str,
        client: RedisClient,
        block_ms: Optional[int] = None,
        count: int = 1,
    ) -> List[Tuple[str, Any]]:
        """Read new entries for ``consumer``: pills as ``PILL``, death markers as ``Death``."""
        return self.fetched(
            client.xreadgroup(
                GROUP,
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
        pipe.xreadgroup(GROUP, consumer, {self.stream_key: ">"}, count=count)

    def pending(self, consumer: str, client: RedisClient, after: str = "0") -> List[Tuple]:
        """Up to :data:`WINDOW_CAP` of ``consumer``'s pending entries past ``after``.

        Read *as* ``consumer``: a history read that moves nothing, which any
        client may make.
        """
        return self.fetched(
            client.xreadgroup(GROUP, consumer, {self.stream_key: after}, count=WINDOW_CAP)
        )

    @staticmethod
    def fetched(reply: List[Tuple[str, list]]) -> List[Tuple[str, Any]]:
        """An ``XREADGROUP`` reply as ``(entry_id, payload | PILL | Death)`` pairs."""
        return [
            (entry_id, fields["task"] if "task" in fields else
             PILL if "pill" in fields else Death(fields["dead"]))
            for _key, entries in reply
            for entry_id, fields in entries
        ]

    def queue_pills(self, pipe: Pipeline, pill_ids: List[str], own: int = 1) -> None:
        """Append the acks of the pills a worker pulled to a pipeline.

        The first ``own`` are the fetching worker's to end on.  Every
        further one was meant for a peer and is published again behind the
        acks, all in one ``XADDN``, so the peer still ends on a pill instead
        of polling out its retry budget.
        """
        for entry_id in pill_ids:
            pipe.xack(self.stream_key, GROUP, entry_id)
        if len(pill_ids) > own:
            pipe.xaddn(self.stream_key, "pill", *[1] * (len(pill_ids) - own))

    def queue_settle(self, pipe: Pipeline, settled: List[Tuple[str, int]]) -> None:
        """Append the settlement of consumed entries, as one command.

        ``settled`` is ``(entry id, amount)`` pairs in fetch order.  The
        ack and the completion decrement are one conditional step
        (XACKDECR): when an entry is finished twice -- by a worker and by
        the adopter of its PEL, or by a settle sent again after a dropped
        connection -- only the first ack succeeds and only that one
        decrements: the outstanding counter stays exactly-once per entry
        and can never go negative.
        ``amount`` is the entry's task count (``len(batch)`` for an
        envelope), released all-or-nothing with its ack.  The settled
        entry leaves the stream, so the stream holds only work in flight.
        """
        if settled:
            (entry_id, amount), *more = settled
            pipe.xack_decr(
                self.stream_key, GROUP, entry_id, self.counter_key, amount,
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
            if info["name"] == GROUP:
                return int(info["lag"])
        return 0

    def avg_idle_ms(
        self,
        consumers: Optional[Iterable[str]] = None,
        client: Optional[RedisClient] = None,
    ) -> float:
        """Average idle time (ms) of the given consumers (default: all)."""
        c = client if client is not None else self.client
        rows = c.xinfo_consumers(self.stream_key, GROUP)
        if consumers is not None:
            wanted = set(consumers)
            rows = [row for row in rows if row["name"] in wanted]
        if not rows:
            return 0.0
        return float(sum(row["idle"] for row in rows) / len(rows))


class StreamWorker:
    """One consumer of the task stream: fetch, invoke, settle, adopt the dead.

    The single worker body of ``dyn_redis``, ``dyn_auto_redis``,
    ``cluster_redis`` and hybrid's stateless plane.  Only what truly
    differs between them is a parameter:

    client / collector / count:
        The worker's own connection, where collected output lands, and the
        counter sink ``count(name, amount=1)`` -- in-process state for
        threads, a relay buffer and a local tally for worker processes.
    publish:
        ``publish(pipe, deliveries)`` appends what a window produced, every
        entry's ``(dst, dst_port, dst_index, data)`` children in fetch order,
        to the settling pipeline in one call, ahead of the ack.  Default
        (:meth:`publish_tasks`): batch envelopes of ``(dst, dst_port, data)``
        tasks on the task stream; hybrid routes stateful destinations to
        private queues by index, cluster workers add their relayed results.
    after_fetch:
        Called with the number of tasks of each non-empty fetch, prefetched
        ones included and pills and death markers not, before any is run
        (``crash_after`` failure injection).

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
    backoff and the termination check live.  A window reads ahead unless an
    entry raised, the caller's ``stop()`` cut it short, its fetch carried a
    pill or a death marker, or it exhausts the session's budget.

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

    **The dead, and only the dead.**  The window that fetched a death marker
    settles, then :meth:`adopt` runs what the named consumer held.  A live
    worker keeps its entries however long it takes: one that hangs while
    still connected fails the run at ``JOIN_TIMEOUT``, never runs twice.

    **What a failure leaves.**  Nothing of a window is published or acked
    before its one settle, and a settle is one frame: a worker killed with a
    settle in flight has delivered either all of it or none of it.  What it
    holds -- the window it is running and its hand, at most two windows
    (``2 * WINDOW_CAP`` entries) once the keyspace has answered -- stays in
    the PEL, and once the worker is named dead its adopter re-runs all of
    it: at-least-once, never lost.  A connection that dies under a flight
    makes :meth:`Flight.result` send the batch again; the repeated
    ``XACKDECR`` finds nothing pending and releases nothing, so the
    outstanding counter still ends at 0, and what the lost reply had read
    ahead waits in this worker's own PEL: once the client's ``retries`` has
    moved and its hand is empty, the worker adopts itself.  A PE raising in
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
        batch_size: int = 1,
        publish: Optional[Callable[[Pipeline, List[tuple]], None]] = None,
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
        #: The client's redials seen: a move means a re-sent settle read ahead.
        self._retries = client.retries
        #: Running means (real seconds) of a settle trip and of one entry's
        #: run; ``None`` until measured.  They size the next window.
        self._trip: Optional[float] = None
        self._service: Optional[float] = None

    # ------------------------------------------------------------ the body
    def publish_tasks(self, pipe: Pipeline, deliveries: List[tuple]) -> None:
        tasks = [(dst, dst_port, data) for dst, dst_port, _index, data in deliveries]
        self.board.queue_tasks(pipe, tasks, self.batch_size)

    def _window(self) -> int:
        """How many entries the next read-ahead asks for."""
        if self._trip is None or self._service is None:
            return 1
        return window_size(self._trip, self._service)

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
        caller exits on the pill.  Death markers are adopted once the
        window has settled, and their tasks count as run.  ``stop`` is
        asked before every entry; once true, the rest of the window stays
        pending.  ``budget`` is how many more tasks the caller means to
        run: a window that uses it up does not read ahead (``0``: never),
        and a finite one reads a single entry ahead.
        """
        pills = [entry_id for entry_id, payload in fetched if payload is PILL]
        deaths = [(entry_id, payload) for entry_id, payload in fetched if type(payload) is Death]
        #: ``(entry id, tasks carried)`` of every entry started, and what
        #: they produced, in fetch order.
        ran: List[Tuple[str, int]] = []
        children: List[tuple] = []
        tasks, window, leaving = 0, 0, True
        started = time.perf_counter()
        try:
            for entry_id, payload in fetched:
                if payload is PILL or type(payload) is Death:
                    continue
                if stop is not None and stop():
                    break
                items = batch_items(payload)
                ran.append((entry_id, len(items)))
                for pe_name, port, item in items:
                    inputs = item if port is None else {port: item}
                    emissions = self.copies[pe_name]._invoke(inputs)
                    children.extend(
                        dispatch_emissions(self.concrete, self.collector, pe_name, 0, emissions)
                    )
                tasks += len(items)
            else:
                leaving = bool(pills)
                if not pills and not deaths and tasks < budget:
                    window = self._window() if budget == UNLIMITED else 1
        finally:
            # Every entry that ran whole, counted once per window.
            if tasks:
                self.count("tasks", tasks)
            # Settle even when a PE raised: a started entry must not stay
            # in the PEL for a peer to adopt and fail on again.
            self._settle(ran, children, pills, window, started, leaving)
        for entry_id, death in deaths:
            tasks += self.adopt(death.consumer)
            self.client.xack(self.board.stream_key, GROUP, entry_id)
        return tasks, bool(pills)

    def _settle(
        self,
        ran: List[Tuple[str, int]],
        children: List[tuple],
        pills: List[str],
        window: int,
        started: float,
        leaving: bool,
    ) -> None:
        """The one trip of a window: settle ``ran``, read ahead in windows of ``window``.

        Credit first, then what the window published, then the acks: a crash
        in between can only repeat work (at-least-once), never lose it.  The
        pipeline is assembled here, after the window ran, and ``publish``
        is called once with every child in fetch order, so per-window state
        (cluster's relayed results) lands with them -- ahead of the ack.

        ``window == 0`` reads nothing ahead and waits the trip out (a pill,
        a raise, ``stop()``, a spent budget, a death marker, an adopted
        page).  ``leaving`` is the way out: the hand will not be run, and
        the pills still in it -- a peer's, every one -- go back with it.
        """
        ran_until = time.perf_counter()
        self._land()
        own = 1 if pills else 0
        if leaving:
            pills = pills + [
                entry_id for held in self._hand for entry_id, payload in held if payload is PILL
            ]
        pipe = self.client.pipeline()
        self.board.book(pipe, len(children))
        if ran:
            self.publish(pipe, children)
        self.board.queue_settle(pipe, ran)
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

    def adopt(self, consumer: str) -> int:
        """Run what ``consumer`` holds to an empty PEL; returns the tasks run.

        ``consumer`` is one named dead, or this worker after a re-sent settle.
        Each page of its PEL runs as a window that reads nothing ahead, and
        ``XACKDECR`` releases every credit once.  Its pills are only acked; a
        death marker it held (it died adopting) is adopted in turn.
        """
        tasks, cursor = 0, "0"
        while True:
            page = self.board.pending(consumer, self.client, cursor)
            if not page:
                return tasks
            cursor = page[-1][0]
            pills = [entry_id for entry_id, payload in page if payload is PILL]
            if pills:
                self.client.xack(self.board.stream_key, GROUP, *pills)
            work = [(entry_id, payload) for entry_id, payload in page if payload is not PILL]
            if work:
                self.count("reclaimed", sum(type(payload) is not Death for _id, payload in work))
                tasks += self.consume(work, budget=0)[0]
            if len(page) < WINDOW_CAP:
                return tasks

    def _fetch(self, empty_streak: int = 0) -> List[Tuple[str, Any]]:
        """The next window: one a settle read ahead, else a blocking read.

        An empty hand after a redial first adopts this worker's own PEL.
        """
        if not self._hand:
            self._land()
        if not self._hand and self.client.retries != self._retries:
            self._retries = self.client.retries
            self.adopt(self.consumer)
        if self._hand:
            fetched = self._hand.popleft()
        else:
            # Exponential backoff while starved (capped at 32x): idle consumers
            # polling at 1 kHz would contend on the server lock and the GIL.
            block_ms = self.base_block_ms << min(empty_streak, 5)
            fetched = self.board.fetch(self.consumer, self.client, block_ms=block_ms)
        if fetched and self.after_fetch is not None:
            self.after_fetch(
                sum(payload is not PILL and type(payload) is not Death for _, payload in fetched)
            )
        return fetched

    # ------------------------------------------------------------- drivers
    def run_dedicated(self, broadcast_pills: Callable[[], None]) -> None:
        """Dedicated worker: run until the board terminates or a pill lands.

        The worker that decides termination calls ``broadcast_pills`` to
        hurry its peers out; a starved one waits for work or a death marker.
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
            if empty_streak >= self.policy.empty_retries and self.board.is_terminated(self.policy):
                broadcast_pills()
                return

    def run_session(self, chunk: int) -> int:
        """Auto-scaled session: process up to ``chunk`` tasks, stop on empty.

        ``chunk`` is a soft cap at batch granularity: a session never
        splits a fetched envelope, so it may overshoot by at most one
        fetch's worth of tasks.  The entry that reaches ``chunk`` does not
        read ahead: each session runs a fresh worker, and nobody names a
        session dead, so it returns holding nothing.
        """
        processed = 0
        while processed < chunk:
            fetched = self._fetch()
            if not fetched:
                break
            tasks, got_pill = self.consume(fetched, budget=chunk - processed)
            processed += tasks
            if got_pill:
                break
        return processed

    def run_until(self, stop: Callable[[], bool]) -> None:
        """Externally shut down: poll until ``stop()`` or a pill.

        The coordinator owns termination (hybrid's staged close), and a
        worker that fails aborts the run, so nobody is ever named dead here.
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
        # Stopped between two windows: the way out with nothing to settle.
        self._settle([], [], [], 0, 0.0, leaving=True)
