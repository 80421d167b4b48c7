"""Hybrid Redis mapping (``hybrid_redis``, Section 3.1.2).

The mapping that reconciles dynamic scheduling with stateful applications:

- **Stateful PE instances are pinned to dedicated processes** holding local
  state and a *private queue* (a Redis list consumed with BLPOP), so
  group-by and global groupings are honoured without any global state
  synchronisation.  An instance no grouping can feed gets no process: a
  non-root PE whose every input is exactly ``AllToOne`` (the global
  grouping) is only ever routed to instance 0, so its other instances --
  the paper's "static inefficiency" -- are instantiated and preprocessed
  by the coordinator, which flushes them when their stage closes.
- **Stateless PEs are scheduled dynamically** by the remaining
  ``N - #threaded-stateful-instances`` processes through the same global
  Redis stream as ``dyn_redis`` -- with the extra capability of "depositing
  their outputs into private queues specifically designated for stateful
  tasks".

A private-queue message is ``(port, data)``; ``port`` None means ``data``
is the whole inputs mapping (a root's seed), as on the task stream.  The
staged-close marker is :data:`CLOSE`, a 1-tuple no message equals, and it
never travels inside a batch.

One run is one :class:`_HybridRun`
----------------------------------
Its attributes are what the run's threads share (the task board, the
allocation, the private-queue keys, the ``stop`` event, the recovery
settings, the pinned plane's threads, completions and respawns); its
methods are the parts:

- :meth:`~_HybridRun.seed` clears what an earlier run left under the
  namespace and publishes every root input as a delivery: a stateful
  root's inputs go round-robin over its instances, one counter for all
  roots, in frames of at most :data:`SEED_FRAME` commands whose credit is
  booked ahead of their payloads.
- :meth:`~_HybridRun.deliver` books a pipeline's credit, then appends
  routed deliveries: stateless tasks as stream envelopes, private messages
  grouped per pinned instance into envelopes of up to ``batch_size``, one
  push per instance.  Seeding shares its grouping (:meth:`~_HybridRun.queue`).
- :meth:`~_HybridRun.run_pinned` is a pinned instance's thread: preprocess,
  consume (:meth:`~_HybridRun.consume_plain` or
  :meth:`~_HybridRun.consume_recoverable`), then flush.
- :meth:`~_HybridRun.run_window` is the window body both protocols share:
  run elements in order until the close marker, count them once, dispatch
  every child in one pipeline.  After a blocking pop hits, a window takes
  up to ``WINDOW_CAP - 1`` more elements in one command (``LPOP key
  count``; one ``XREADGROUP ... COUNT`` in recoverable mode).
- :meth:`~_HybridRun.flush` runs ``postprocess`` of an instance, threaded
  or not, and routes what it wrote.
- :meth:`~_HybridRun.run_stateless` is a stateless worker: the shared
  :class:`~repro.mappings.redis_tasks.StreamWorker` publishing through
  :meth:`~_HybridRun.deliver`.
- :meth:`~_HybridRun.close_stages`, :meth:`~_HybridRun.wait_drained` and
  :meth:`~_HybridRun.teardown` end the run (below).

Termination is staged, and the shared outstanding counter is its only
proof.  :meth:`~_HybridRun.wait_drained` polls it to zero (supervising
pinned workers meanwhile).  :meth:`~_HybridRun.close_stages` then closes
the stateful PEs in topological order: it pushes one close marker per
threaded instance of a stage, and flushes the stage's unthreaded
instances, in the pipeline that books one credit per marker and per
flushed delivery.  An instance that consumes its marker flushes its
aggregate and releases the marker's credit in the pipeline that
dispatches the flush, behind the flush's own credit.  So the next time the
counter reads zero, the stage has flushed and everything downstream of its
flush has drained; then the next stage closes.  An instance stopped by an
abort never consumed its marker and releases nothing.
:meth:`~_HybridRun.teardown` releases the stateless workers with poison
pills, joins every worker thread once and deletes the run's keys.

Crash recovery (``repro.state``)
--------------------------------
Pinned local state dies with its worker, so the mapping optionally runs the
stateful plane in *recoverable* mode (enabled by any of the
``checkpoint_interval`` / ``state_store`` / ``crash_injector`` options),
in :meth:`~_HybridRun.consume_recoverable`:

- each pinned instance's private queue is a **stream** read by one
  consumer group, under the instance id as consumer name: ``XADDN``
  delivers (the entry ID is the delivery's sequence number) and
  ``XREADGROUP >`` reads a window into the group's pending-entry list
  (PEL), so nothing is destroyed before its effect is checkpointed --
  the stateless plane's own protocol (:mod:`repro.mappings.redis_tasks`);
- every ``checkpoint_interval`` deliveries (and whenever the queue goes
  idle with uncommitted work) :meth:`~_HybridRun.checkpoint` snapshots the
  instance's state -- tagged with the last applied entry ID as one integer
  that orders like the ID (:func:`entry_seq`) -- into the
  :class:`~repro.state.store.StateStore`, then acks the covered entries
  with one ``XACKDECR``, which releases their credits exactly once;
- :meth:`~_HybridRun.supervise`, on the coordinator thread, detects
  silently-dead pinned workers and **re-pins** the instance on a fresh
  thread under the same consumer name (:meth:`~_HybridRun.spawn`); the new
  one restores the latest snapshot and replays the consumer's own PEL
  (``XREADGROUP ... 0``, paged; entries at or below the snapshot's cursor
  are deduplicated) before resuming the queue; an instance that dies more
  than :data:`MAX_RESPAWNS` times fails the run.

Deliveries between a checkpoint and a crash are therefore applied exactly
once to the instance's state, but their downstream emissions may be sent
twice (at-least-once): the credit of an uncommitted delivery is only
released by the checkpoint that covers it, which also keeps the drain
proof honest across crashes.  A close marker found in the PEL on replay
releases its credit exactly once, with the flush that follows the final
checkpoint.  The run's private streams and its own snapshot hash are
deleted at teardown; a user-supplied ``state_store`` keeps its snapshots.

Batched transport (``batch_size``)
----------------------------------
Both planes micro-batch with ``batch_size > 1``: stateless tasks travel as
batch envelopes on the global stream (as in ``dyn_redis``), and a private
queue's element -- in recoverable mode a stream entry -- carries up to
``batch_size`` messages, its ``len(batch)`` credits booked by the pipeline
that carries it.  Recovery operates at batch granularity throughout: an
envelope is one PEL entry, acked all-or-nothing by the checkpoint that
covers it (``XACKDECR ... amount=len(batch)``), and replay dedup compares
the envelope's entry ID.

The paper evaluates this mapping against ``multi`` on the Sentiment
Analysis workflow (Figure 12, Table 3), where it reaches as low as 32% of
the baseline runtime.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.autoscale.trace import ScalingTrace
from repro.core.concrete import ConcreteWorkflow
from repro.core.exceptions import MappingError
from repro.core.graph import WorkflowGraph
from repro.core.groupings import AllToOne
from repro.core.pe import GenericPE
from repro.mappings.base import (
    JOIN_TIMEOUT,
    EnactmentState,
    Mapping,
    dispatch_emissions,
    graph_copy,
    instantiate,
    resolve_batch_size,
)
from repro.mappings.redis_tasks import (
    GROUP,
    SEED_FRAME,
    WINDOW_CAP,
    RedisTaskBoard,
    StreamWorker,
)
from repro.mappings.registry import Capabilities, register_mapping
from repro.mappings.termination import TerminationPolicy
from repro.redisim.client import RedisClient
from repro.redisim.server import RedisServer
from repro.redisim.streams import StreamID
from repro.runtime.clock import Clock
from repro.runtime.queues import as_envelope, batch_items, batch_len, chunked
from repro.state import (
    CrashInjector,
    DEFAULT_CHECKPOINT_INTERVAL,
    InjectedCrash,
    RedisSnapshotStore,
    StateStore,
)

#: Respawns the supervisor grants one pinned instance before it gives up.
MAX_RESPAWNS = 3

#: The field of a recoverable private-stream entry that holds its message.
MESSAGE = "message"

#: The staged-close marker.  Messages are ``(port, data)`` pairs, so it is
#: told apart by its shape, never by a port name or by identity (it crosses
#: the keyspace pickled).
CLOSE = ("close",)


def entry_seq(entry_id: str) -> int:
    """A stream entry ID as one integer that orders like the ID: the
    snapshot cursor of a recoverable pinned instance."""
    ms, seq = StreamID.parse(entry_id)
    return ms << 64 | seq


def _entries(reply) -> List[Tuple[str, object]]:
    """A private stream's ``XREADGROUP`` reply as ``(entry id, message)`` pairs."""
    return [(eid, fields[MESSAGE]) for _key, entries in reply for eid, fields in entries]


@register_mapping(
    Capabilities(
        stateful=True,
        dynamic=True,
        requires_redis=True,
        recoverable=True,
        batching=True,
        description="Stateful-aware hybrid: pinned state + dynamic stateless pool",
    )
)
class HybridRedisMapping(Mapping):
    """Stateful-aware dynamic scheduling over Redis (``hybrid_redis``)."""

    name = "hybrid_redis"

    @staticmethod
    def pinned_instances(graph: WorkflowGraph) -> Dict[str, int]:
        """Instances of every PE that must keep pinned state, by name."""
        return {pe.name: pe.numprocesses or 1 for pe in graph.stateful_pes()}

    @classmethod
    def process_floor(cls, graph: WorkflowGraph) -> int:
        """Every pinned stateful instance, plus one stateless worker.

        Instances no grouping can feed (:meth:`fed_instances`) still count:
        they get no thread, but the floor, and with it admission and
        ``mapping="auto"`` selection, is the paper's static one.
        """
        return sum(cls.pinned_instances(graph).values()) + 1

    @classmethod
    def fed_instances(cls, graph: WorkflowGraph) -> Dict[str, int]:
        """Pinned instances a tuple can reach, by name: those get a thread.

        A PE that is not a root and whose every input is exactly
        ``AllToOne`` (matched by type, as the router's direct path is: a
        subclass may override ``route``) is only ever routed to instance 0;
        a root's seeds go round-robin over all of its instances.
        """
        fed = cls.pinned_instances(graph)
        for name in fed:
            edges = graph.in_edges(name)
            if edges and all(type(graph.effective_grouping(e)) is AllToOne for e in edges):
                fed[name] = 1
        return fed

    def _enact(self, state: EnactmentState) -> Optional[ScalingTrace]:
        return _HybridRun(self, state).execute()


class _HybridRun:
    """One enactment of :class:`HybridRedisMapping`: what its threads share,
    and its parts as methods (see the module docstring for the map)."""

    def __init__(self, mapping: HybridRedisMapping, state: EnactmentState) -> None:
        self.state = state
        graph, options = state.graph, state.options
        self.policy: TerminationPolicy = options.get("termination", TerminationPolicy())
        self.server: RedisServer = options.get("redis_server") or RedisServer()
        interval: Optional[int] = options.get("checkpoint_interval")
        store: Optional[StateStore] = options.get("state_store")
        self.injector: Optional[CrashInjector] = options.get("crash_injector")
        self.recovery = interval is not None or store is not None or self.injector is not None
        if self.recovery and interval is None:
            interval = DEFAULT_CHECKPOINT_INTERVAL
        if interval is not None and interval < 1:
            raise MappingError(f"checkpoint_interval must be >= 1, got {interval}")
        self.checkpoint_interval = interval
        self.batch_size = resolve_batch_size(options)
        self.trace = ScalingTrace(metric_name="recovery events") if self.recovery else None

        namespace = f"repro:{graph.name}"
        self.board = RedisTaskBoard(self.connect(), namespace=namespace)
        self.board.setup()
        #: Only the run's *own* default store (on the run's deployment) is
        #: rebound onto each pinned worker's connection, and deleted at
        #: teardown; a user-supplied one keeps its connection and snapshots.
        self.own_store = self.recovery and store is None
        if self.own_store:
            store = RedisSnapshotStore(self.connect(), namespace=namespace)
        self.store = store
        #: The coordinator's connection: seeding, the drain proof, the closes.
        self.client = self.connect()

        self.pinned = mapping.pinned_instances(graph)
        self.allocation = {name: self.pinned.get(name, 1) for name in graph.pes}
        self.concrete = ConcreteWorkflow(graph, self.allocation)
        # Only instances a grouping can feed get a thread; the slots of the
        # rest go to the stateless plane.
        self.threaded = mapping.fed_instances(graph)
        n_threaded = sum(self.threaded.values())
        state.counters.inc("stateful_instances", n_threaded)
        state.counters.inc("stateless_workers", state.processes - n_threaded)
        #: Private-queue key by ``(pe, index)``, formatted once per run.
        self.private_keys = {
            (name, idx): f"{namespace}:private:{name}:{idx}"
            for name in self.pinned
            for idx in range(self.allocation[name])
        }
        #: Every worker's exit: set by the first worker error, which aborts
        #: the run, and by the coordinator once it is done, drained or not.
        #: With batched fetches one stateless worker can swallow pills meant
        #: for peers; the event is the peers' pill-independent exit.
        self.stop = threading.Event()
        self.workers = [
            threading.Thread(
                target=self.run_stateless, args=(i,), name=f"hybrid-stateless-{i}", daemon=True
            )
            for i in range(state.processes - n_threaded)
        ]
        #: The pinned plane: the live thread of each instance (replaced on
        #: re-pin), the instances done with, and the respawns granted.
        self.threads: Dict[Tuple[str, int], threading.Thread] = {}
        self.completed: Set[Tuple[str, int]] = set()
        self.respawns: Dict[Tuple[str, int], int] = {}
        self.lock = threading.Lock()

    def connect(self) -> RedisClient:
        """A new connection to the run's deployment: one per thread."""
        return RedisClient(
            self.server, op_latency=self.state.platform.redis_latency, clock=self.state.clock
        )

    def execute(self) -> Optional[ScalingTrace]:
        self.seed()
        slots = [
            (name, idx)
            for name in self.state.graph.topological_order()
            if name in self.pinned
            for idx in range(self.threaded[name])
        ]
        # Dedicated workers are active from launch initiation (see
        # dynamic.py for the spawn-stagger rationale).
        meter = self.state.meter
        for name, idx in slots:
            meter.activate(f"stateful-{name}.{idx}")
        for i in range(len(self.workers)):
            meter.activate(f"stateless-{i}")
        for name, idx in slots:
            self.spawn(name, idx)
        for worker in self.workers:
            worker.start()
        try:
            self.close_stages()
        except Exception as exc:  # noqa: BLE001 - unthreaded instances run PE code here
            self.state.record_error(exc)
        finally:
            self.teardown()
        return self.trace

    # ------------------------------------------------------------ publishing
    def push(self, target, key: str, *messages: object) -> None:
        """Push messages onto a private queue (client or pipeline): the one
        place that decides list vs stream.  In recoverable mode every
        private message -- deliveries, seeds and close markers alike -- is a
        stream entry, whose ID is the consumer's replay and dedup cursor."""
        if self.recovery:
            target.xaddn(key, MESSAGE, *messages)
        else:
            target.rpush(key, *messages)

    def queue(self, pipe, deliveries: List[tuple]) -> int:
        """Append routed ``(dst, dst_port, dst_index, data)`` deliveries to a
        pipeline, payloads only; returns how many went to private queues.

        Stateless tasks become stream-entry envelopes; private messages are
        grouped per pinned instance into envelopes of up to ``batch_size``
        (an envelope of one is the bare message), all of an instance's
        envelopes in one push.
        """
        tasks: List[tuple] = []
        private: Dict[str, List[tuple]] = {}
        for dst, port, index, data in deliveries:
            if dst in self.pinned:
                private.setdefault(self.private_keys[dst, index], []).append((port, data))
            else:
                tasks.append((dst, port, data))
        self.board.queue_tasks(pipe, tasks, self.batch_size)
        for key, messages in private.items():
            if self.batch_size > 1:
                messages = [as_envelope(chunk) for chunk in chunked(messages, self.batch_size)]
            self.push(pipe, key, *messages)
        return len(deliveries) - len(tasks)

    def deliver(self, pipe, deliveries: List[tuple], credit: int = 0) -> None:
        """Book ``credit``, then :meth:`queue` ``deliveries`` behind it.

        Private queues bypass the global stream; the shared outstanding
        counter still covers them, one credit per delivery, booked by the
        pipeline's owner ahead of every payload (:meth:`RedisTaskBoard.book`):
        a pinned window and a flush pass their own; the stateless plane's
        settle and a stage's close book theirs first and pass none.  So the
        drain proof never observes a published-but-uncounted tuple.
        """
        self.board.book(pipe, credit)
        private = self.queue(pipe, deliveries)
        if private:
            self.state.counters.inc("private_puts", private)

    def seed(self) -> None:
        """Publish every root input, after run-scoped hygiene.

        A reused deployment (shared ``redis_server`` + same graph name) may
        hold an earlier run's private queues and snapshots -- e.g. a user
        store that outlives its runs.  Left in place they would be replayed
        into this run, and their checkpoint commits would release credits
        this run's counter never held.  Seeds are deliveries grouped as
        :meth:`queue` groups them: round-robin over a stateful root's
        instances at tuple granularity (one counter for all roots), in
        frames whose credit is booked ahead of their payloads.
        """
        if self.private_keys:
            self.client.delete(*self.private_keys.values())
        if self.recovery:
            for (name, idx), key in self.private_keys.items():
                self.client.xgroup_create(key, GROUP, id="0", mkstream=True)
                self.store.delete(f"{name}.{idx}")
        turn = itertools.count()
        seeds = [
            (root, None, next(turn) % self.allocation[root] if root in self.pinned else 0, item)
            for root, items in self.state.provided.items()
            for item in items
        ]
        pipe = self.client.pipeline()
        for frame in chunked(seeds, SEED_FRAME // 2 * self.batch_size):
            self.board.book(pipe, len(frame))
            self.queue(pipe, frame)
            pipe.execute()

    # --------------------------------------------------------- pinned plane
    def spawn(self, name: str, index: int) -> None:
        thread = threading.Thread(
            target=self.run_pinned,
            args=(name, index),
            name=f"hybrid-stateful-{name}.{index}",
            daemon=True,
        )
        with self.lock:
            self.threads[name, index] = thread
        self.state.meter.activate(f"stateful-{name}.{index}")
        thread.start()

    def run_pinned(self, name: str, index: int) -> None:
        """A pinned instance's thread: preprocess, consume its private
        queue, and once it took its close marker, flush the aggregate
        state and release the marker's credit behind the flush."""
        state = self.state
        client = self.connect()
        try:
            instance = instantiate(state.graph.pe(name), index, self.allocation[name], state.ctx)
            instance.preprocess()
            consume = self.consume_recoverable if self.recovery else self.consume_plain
            if consume(instance, client, self.private_keys[name, index]):
                flushed = self.flush(name, [instance])
                pipe = client.pipeline()
                self.deliver(pipe, flushed, len(flushed))
                pipe.decrby(self.board.counter_key, 1)
                pipe.execute()
            with self.lock:
                self.completed.add((name, index))
        except InjectedCrash:
            # Simulated process death: no error report, no abort -- the
            # supervisor notices the silent exit and re-pins.
            state.counters.inc("crashes")
            if self.trace is not None:
                self.trace.note(state.clock.now(), "crash", f"{name}.{index}")
        except BaseException as exc:  # noqa: BLE001 - worker boundary
            state.record_error(exc)
            self.stop.set()
            with self.lock:
                self.completed.add((name, index))
        finally:
            state.meter.deactivate(f"stateful-{name}.{index}")

    def flush(self, name: str, instances: List[GenericPE]) -> List[tuple]:
        """Run ``postprocess`` of ``name``'s ``instances`` (top-3 tables,
        per-state sums...) and route what it wrote."""
        return [
            delivery
            for instance in instances
            for delivery in dispatch_emissions(
                self.concrete, self.state.collector, name, instance.instance_index,
                instance._flush_postprocess(),
            )
        ]

    def run_window(
        self, instance: GenericPE, client: RedisClient, window: list, last_seq: int = 0
    ) -> Tuple[bool, List[Tuple[Optional[str], int]], int]:
        """Run a window's ``(entry id, element)`` pairs in order until the
        close marker, count them once, and dispatch every child in one
        pipeline.

        An element is a message or a batch of them.  On a plain queue the
        entry id is ``None`` and the pipeline also releases the window's
        credits; on a stream, an element at or below ``last_seq`` is
        already in the restored snapshot and only deduplicated, and the
        credits wait for the checkpoint.  Crash-injection points stay *per
        message* -- mid-batch crashes are the boundary case recovery must
        survive -- and the post-dispatch one follows the pipeline.

        Returns whether the marker ended the window, the ``(entry id,
        credits)`` of every element ahead of it, and the last applied
        entry's cursor.
        """
        name, index, iid = instance.name, instance.instance_index, instance.instance_id
        concrete, collector, injector = self.concrete, self.state.collector, self.injector
        deliveries: List[tuple] = []
        taken: List[Tuple[Optional[str], int]] = []
        closed = False
        tally = {"stateful_tasks": 0, "deduplicated": 0}
        try:
            for entry_id, element in window:
                if element == CLOSE:
                    closed = True
                    break
                credits = batch_len(element)
                taken.append((entry_id, credits))
                if entry_id is not None:
                    seq = entry_seq(entry_id)
                    if seq <= last_seq:
                        # Exact at batch granularity: the entry was applied
                        # whole before the snapshot covered it.  It stays
                        # taken, so the next checkpoint acks it.
                        tally["deduplicated"] += credits
                        continue
                    last_seq = seq
                for port, data in batch_items(element):
                    if injector is not None:
                        injector.record_invocation(iid)
                    emissions = instance._invoke(data if port is None else {port: data})
                    # What ran, ran: a crash after this still counts it.
                    tally["stateful_tasks"] += 1
                    if injector is not None:
                        injector.maybe_crash(iid, "post-process")
                    deliveries.extend(
                        dispatch_emissions(concrete, collector, name, index, emissions)
                    )
        finally:
            self.state.counters.merge(tally)
        if tally["stateful_tasks"]:
            pipe = client.pipeline()
            self.deliver(pipe, deliveries, len(deliveries))
            if not self.recovery:
                pipe.decrby(self.board.counter_key, sum(credits for _id, credits in taken))
            pipe.execute()
            if injector is not None:
                injector.maybe_crash(iid, "post-dispatch")
        return closed, taken, last_seq

    def consume_plain(self, instance: GenericPE, client: RedisClient, key: str) -> bool:
        """Non-recoverable consumption in windows: a destructive BLPOP, then
        ``LPOP key count`` for up to ``WINDOW_CAP - 1`` more.

        A private queue has one consumer and nothing reclaims it, so the
        window needs no sizing: whatever queued behind the hit runs now.
        Returns whether the instance consumed its close marker; ``False``
        means ``stop`` ended it first.
        """
        timeout = max(0.005, self.state.clock.to_real(self.policy.poll_interval))
        while not self.stop.is_set():
            hit = client.blpop(key, timeout=timeout)
            if hit is None:
                continue
            window = [hit[1], *(client.lpop(key, WINDOW_CAP - 1) or ())]
            if self.run_window(instance, client, [(None, element) for element in window])[0]:
                return True
        return False

    def consume_recoverable(self, instance: GenericPE, client: RedisClient, key: str) -> bool:
        """Checkpointed consumption of the instance's private stream:
        ``XREADGROUP`` windows into the PEL, dedup by entry ID, interval and
        idle checkpoints that ack and release credits in bulk.

        A delivery's credit is released when a checkpoint covers it, not
        when it runs, so a crash never loses a credited delivery and the
        drain proof stays exact across crashes and re-pins.  The checkpoint
        test runs at the window boundary, so a checkpoint only covers
        entries whose children are booked.  The interval counts *tuples*,
        and a window takes no more entries than the interval's remaining
        room holds at ``batch_size`` tuples each (at least one): a crash
        replays fewer than ``checkpoint_interval + batch_size`` tuples, and
        an envelope is never split across a checkpoint.

        Returns whether the instance consumed its close marker.  Only then
        does it take the final checkpoint: an instance ended by ``stop``
        leaves its PEL and credits as a crash would.
        """
        iid, counters = instance.instance_id, self.state.counters
        store = self.store.for_client(client) if self.own_store else self.store
        block_ms = max(5, int(1000 * self.state.clock.to_real(self.policy.poll_interval)))
        last_seq = 0
        uncommitted: List[Tuple[str, int]] = []  # (entry id, credits) not yet acked
        snap = store.load(iid)
        if snap is not None:
            instance.set_state(snap.state)
            last_seq = snap.seq
            counters.inc("restores")
            if self.trace is not None:
                self.trace.note(self.state.clock.now(), "restore", f"{iid} seq={snap.seq}")

        # Replay what a crashed predecessor left behind: every entry still in
        # this consumer's PEL holds an unreleased credit, whether or not its
        # state effect survived in the snapshot.
        closed = False
        cursor = "0"
        while not closed:
            page = _entries(client.xreadgroup(GROUP, iid, {key: cursor}, count=WINDOW_CAP))
            if not page:
                break
            counters.inc("replayed", sum(batch_len(element) for _id, element in page))
            closed, taken, last_seq = self.run_window(instance, client, page, last_seq)
            uncommitted += taken
            cursor = page[-1][0]
            if len(page) < WINDOW_CAP:
                break
        uncommitted = self.checkpoint(instance, client, store, last_seq, uncommitted)

        while not closed and not self.stop.is_set():
            held = sum(credits for _id, credits in uncommitted)
            room = (self.checkpoint_interval - held) // self.batch_size
            window = _entries(client.xreadgroup(
                GROUP, iid, {key: ">"}, count=max(1, min(WINDOW_CAP, room)), block=block_ms,
            ))
            if window:
                closed, taken, last_seq = self.run_window(instance, client, window, last_seq)
                uncommitted += taken
                held += sum(credits for _id, credits in taken)
            # Idle: commit stragglers so the drain proof can complete even
            # when the stream ends mid-interval.  Closed: the marker, whose
            # credit the flush releases, stays in the PEL until teardown.
            if not window or closed or held >= self.checkpoint_interval:
                uncommitted = self.checkpoint(instance, client, store, last_seq, uncommitted)
        return closed

    def checkpoint(
        self, instance: GenericPE, client: RedisClient, store: StateStore,
        last_seq: int, uncommitted: List[Tuple[str, int]],
    ) -> List[Tuple[str, int]]:
        """Snapshot ``instance`` at ``last_seq``, then ack ``uncommitted``
        and release its credits in one ``XACKDECR``; returns what is still
        uncommitted.

        A crash between the two leaves entries at or below ``last_seq`` in
        the PEL, which replay skips (dedup) but still acks at the next
        checkpoint.  A refused save means a newer snapshot exists: this
        writer is stale (the instance was re-pinned and advanced
        elsewhere), and the PEL and credits belong to the live owner.
        """
        if not uncommitted or not store.save(instance.instance_id, last_seq, instance.get_state()):
            return uncommitted
        (entry_id, amount), *more = uncommitted
        client.xack_decr(
            self.private_keys[instance.name, instance.instance_index], GROUP, entry_id,
            self.board.counter_key, amount, *(word for pair in more for word in pair),
        )
        self.state.counters.inc("checkpoints")
        return []

    def supervise(self) -> None:
        """Re-pin instances whose workers died without completing.

        Only the coordinator thread calls this, so detection and respawn
        cannot race with each other.
        """
        if not self.recovery or self.stop.is_set():
            return
        with self.lock:
            dead = [
                slot
                for slot, thread in self.threads.items()
                if not thread.is_alive() and slot not in self.completed
            ]
        for name, index in dead:
            attempts = self.respawns.get((name, index), 0)
            if attempts >= MAX_RESPAWNS:
                self.state.record_error(
                    MappingError(
                        f"stateful instance {name}.{index} crashed more "
                        f"than {MAX_RESPAWNS} times; giving up"
                    )
                )
                self.stop.set()
                return
            self.respawns[name, index] = attempts + 1
            self.state.counters.inc("respawns")
            if self.trace is not None:
                self.trace.note(
                    self.state.clock.now(), "respawn", f"{name}.{index} attempt {attempts + 1}"
                )
            self.spawn(name, index)

    # ------------------------------------------------------- stateless plane
    def run_stateless(self, index: int) -> None:
        """A stateless worker: the shared stream-worker body, whose children
        bound for pinned instances leave through :meth:`deliver` instead of
        the task stream; the coordinator ends the run."""
        state = self.state
        try:
            StreamWorker(
                self.board,
                self.connect(),
                f"consumer-{index}",
                graph_copy(
                    {name: pe for name, pe in state.graph.pes.items() if name not in self.pinned},
                    state.ctx,
                ),
                self.concrete,
                state.collector,
                state.counters.inc,
                policy=self.policy,
                clock=state.clock,
                publish=self.deliver,
            ).run_until(self.stop.is_set)
        except BaseException as exc:  # noqa: BLE001 - worker boundary
            state.record_error(exc)
            self.stop.set()
        finally:
            state.meter.deactivate(f"stateless-{index}")

    # ------------------------------------------------------------ the close
    def wait_drained(self) -> None:
        """Poll the outstanding counter to zero, supervising meanwhile."""
        clock = self.state.clock
        # A real sleep per poll: below the clock's resolution `clock.sleep`
        # only books debt, and the loop would spin on `GET outstanding`.
        poll = max(clock.to_real(self.policy.poll_interval), Clock.SLEEP_RESOLUTION)
        deadline = clock.now() + JOIN_TIMEOUT
        while not self.board.is_drained(self.client):
            self.supervise()
            if self.stop.is_set():
                raise MappingError("hybrid run aborted by worker error")
            if clock.now() > deadline:
                raise MappingError(
                    f"hybrid run did not drain within {JOIN_TIMEOUT}s "
                    f"(outstanding={self.board.outstanding(self.client)})"
                )
            time.sleep(poll)

    def close_stages(self) -> None:
        """Drain, then close the stateful plane in topological order.

        Each close marker carries a credit its instance releases with its
        flush, so a drain after a stage's closes proves the stage flushed
        and everything its flush fed ran.  The instances no grouping feeds
        live here, on the coordinator: preprocessed first, flushed into
        their stage's close pipeline, behind the same booking.
        """
        graph = self.state.graph
        unthreaded = {
            name: [
                instantiate(graph.pe(name), idx, self.allocation[name], self.state.ctx)
                for idx in range(self.threaded[name], self.allocation[name])
            ]
            for name in self.pinned
        }
        for instances in unthreaded.values():
            for instance in instances:
                instance.preprocess()
        self.wait_drained()
        for name in graph.topological_order():
            if name not in self.pinned:
                continue
            flushed = self.flush(name, unthreaded[name])
            pipe = self.client.pipeline()
            self.board.book(pipe, self.threaded[name] + len(flushed))
            for idx in range(self.threaded[name]):
                self.push(pipe, self.private_keys[name, idx], CLOSE)
            self.deliver(pipe, flushed)
            pipe.execute()
            self.wait_drained()

    def teardown(self) -> None:
        """Pill the stateless plane, join every worker once, delete the
        run's keys -- its own snapshot hash too, never a user store's."""
        self.board.put_pills(len(self.workers))
        self.stop.set()
        for thread in [*self.workers, *self.threads.values()]:
            thread.join(timeout=JOIN_TIMEOUT)
            if thread.is_alive():
                self.state.record_error(TimeoutError(f"worker {thread.name} hung at exit"))
                break
        self.board.teardown()
        owned = [*self.private_keys.values(), *([self.store.key] if self.own_store else ())]
        if owned:
            self.client.delete(*owned)
