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
- **Pinned queues are consumed in windows.**  After a blocking pop hits,
  the consumer takes up to ``WINDOW_CAP - 1`` more elements in one command
  (``LPOP key count``; in recoverable mode the queue is a stream and one
  ``XREADGROUP ... COUNT`` reads the whole window), runs them in order and
  settles them once.  A close marker ends a window: the elements ahead of
  it settle, then the flush.

Termination is staged, and the shared outstanding counter is its only
proof.  Once the global task pool is drained, stateful PEs are closed in
topological order: the coordinator pushes one close marker per instance of
a stage, in the pipeline that books one credit per marker.  An instance
that consumes its marker flushes its aggregate in ``postprocess`` and
releases the marker's credit in the pipeline that dispatches the flush,
behind the flush's own credit.  So the next time the counter reads zero,
the stage has flushed and everything downstream of its flush has drained;
then the next stage closes.  An instance stopped by an abort never consumed
its marker and releases nothing.  Finally the stateless workers are
released with poison pills, and every worker thread, pinned and stateless,
is joined once before the run's keys are torn down.

Crash recovery (``repro.state``)
--------------------------------
Pinned local state dies with its worker, so the mapping optionally runs the
stateful plane in *recoverable* mode (enabled by any of the
``checkpoint_interval`` / ``state_store`` / ``crash_injector`` options):

- each pinned instance's private queue is a **stream** read by one
  consumer group, under the instance id as consumer name: ``XADDN``
  delivers (the entry ID is the delivery's sequence number) and
  ``XREADGROUP >`` reads a window into the group's pending-entry list
  (PEL), so nothing is destroyed before its effect is checkpointed --
  the stateless plane's own protocol (:mod:`repro.mappings.redis_tasks`);
- every ``checkpoint_interval`` deliveries (and whenever the queue goes
  idle with uncommitted work) the instance snapshots its state -- tagged
  with the last applied entry ID as one integer that orders like the ID
  (``ms << 64 | seq``) -- into the :class:`~repro.state.store.StateStore`,
  then acks the covered entries with one ``XACKDECR``, which releases
  their outstanding-work credits exactly once;
- a supervisor on the coordinator thread detects silently-dead pinned
  workers, **re-pins** the instance on a fresh worker under the same
  consumer name, restores the latest snapshot and replays the consumer's
  own PEL (``XREADGROUP ... 0``, paged; entries at or below the snapshot's
  cursor are deduplicated) before resuming the queue; an instance that
  dies more than :data:`MAX_RESPAWNS` times fails the run.

Deliveries between a checkpoint and a crash are therefore applied exactly
once to the instance's state, but their downstream emissions may be sent
twice (at-least-once): the outstanding-work credit of an uncommitted
delivery is only released by the checkpoint that covers it, which also
keeps the drain proof honest across crashes.  A close marker found in the
PEL on replay releases its credit exactly once, with the flush that
follows the final checkpoint.  The run's private streams and its own
snapshot hash are deleted at teardown; a user-supplied ``state_store``
keeps its snapshots.

Batched transport (``batch_size``)
----------------------------------
Both planes micro-batch with ``batch_size > 1``: stateless tasks travel as
batch envelopes on the global stream (as in ``dyn_redis``), and deliveries
into a private queue are grouped per pinned instance -- one list element,
or in recoverable mode one stream entry, carrying up to ``batch_size``
messages, its ``len(batch)`` credits booked by the pipeline that carries
it.  The consumer reads up to ``WINDOW_CAP`` elements per round trip (each
up to ``batch_size`` tuples), and the recovery machinery operates at batch
granularity throughout: an envelope is one PEL entry, its credits are
acked all-or-nothing by the checkpoint that covers it
(``XACKDECR ... amount=len(batch)``), and replay dedup compares the
envelope's entry ID -- either the whole envelope predates the snapshot or
none of it does.  The close marker is never batched.

The paper evaluates this mapping against ``multi`` on the Sentiment
Analysis workflow (Figure 12, Table 3), where it reaches as low as 32% of
the baseline runtime.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.autoscale.trace import ScalingTrace
from repro.core.concrete import ConcreteWorkflow
from repro.core.exceptions import MappingError
from repro.core.graph import WorkflowGraph
from repro.core.groupings import AllToOne
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
from repro.runtime.queues import Batch, as_envelope, batch_items, batch_len, chunked
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


def entry_seq(entry_id: str) -> int:
    """A stream entry ID as one integer that orders like the ID: the
    snapshot cursor of a recoverable pinned instance."""
    ms, seq = StreamID.parse(entry_id)
    return ms << 64 | seq


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
        graph = state.graph
        policy: TerminationPolicy = state.options.get("termination", TerminationPolicy())
        server: RedisServer = state.options.get("redis_server") or RedisServer()

        # ------------------------------------------------- recovery options
        checkpoint_interval: Optional[int] = state.options.get("checkpoint_interval")
        state_store: Optional[StateStore] = state.options.get("state_store")
        injector: Optional[CrashInjector] = state.options.get("crash_injector")
        recovery = (
            checkpoint_interval is not None or state_store is not None or injector is not None
        )
        if recovery and checkpoint_interval is None:
            checkpoint_interval = DEFAULT_CHECKPOINT_INTERVAL
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise MappingError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        batch_size = resolve_batch_size(state.options)
        trace = ScalingTrace(metric_name="recovery events") if recovery else None

        def new_client() -> RedisClient:
            return RedisClient(
                server,
                op_latency=state.platform.redis_latency,
                clock=state.clock,
            )

        namespace = f"repro:{graph.name}"
        board = RedisTaskBoard(new_client(), namespace=namespace)
        board.setup()
        own_store = False
        if recovery and state_store is None:
            state_store = RedisSnapshotStore(new_client(), namespace=namespace)
            own_store = True

        def store_for(client: RedisClient) -> StateStore:
            """The run's snapshot store, one connection per worker.

            Only the mapping's *own* default store (which lives on the run's
            Redis deployment) is rebound onto the worker's client; a
            user-supplied store keeps its own connection and deployment --
            rebinding it here would silently divert snapshots onto the
            run's server.
            """
            if own_store:
                return state_store.for_client(client)
            return state_store

        # ---------------------------------------------------- allocation
        pinned = self.pinned_instances(graph)
        stateful_names = set(pinned)
        allocation = {name: pinned.get(name, 1) for name in graph.pes}
        concrete = ConcreteWorkflow(graph, allocation)
        # Only instances a grouping can feed get a worker; the slots of the
        # rest go to the stateless plane.
        threaded = self.fed_instances(graph)
        n_threaded = sum(threaded.values())
        stateless_workers = state.processes - n_threaded
        state.counters.inc("stateful_instances", n_threaded)
        state.counters.inc("stateless_workers", stateless_workers)

        #: Private-queue key by ``(pe, index)``, formatted once per run.
        private_keys = {
            (name, idx): f"{namespace}:private:{name}:{idx}"
            for name in stateful_names
            for idx in range(allocation[name])
        }

        #: Every worker's exit: set by the first worker error, which aborts
        #: the run, and by the coordinator once it is done, drained or not.
        #: With batched fetches (count > 1) one stateless worker can swallow
        #: pills meant for peers; the event is the peers' pill-independent exit.
        stop = threading.Event()

        def push_private(target, key: str, *messages: object) -> None:
            """Push messages onto a private queue (client or pipeline).

            The single place that decides list vs stream: in recoverable
            mode every private-queue message -- deliveries, root seeds and
            close markers alike -- is a stream entry, whose ID is the
            consumer's replay and dedup cursor.
            """
            if recovery:
                target.xaddn(key, MESSAGE, *messages)
            else:
                target.rpush(key, *messages)

        # ------------------------------------------------------ dispatching
        def queue_deliveries(pipe, deliveries: List[tuple]) -> None:
            """Append routed deliveries to a pipeline, payloads only.

            Private queues bypass the global stream entirely; the shared
            outstanding counter still covers them so the drain proof holds
            across both planes -- one credit per delivery, which the
            pipeline's owner books ahead of every payload
            (:meth:`RedisTaskBoard.book`: the stateless plane's settle for a
            whole window, :func:`dispatch` for a pinned instance), so the
            drain proof never observes a published-but-uncounted tuple.  In
            recoverable mode private-queue pushes are stream entries
            (XADDN) so consumers get a stable replay cursor.

            Deliveries are grouped whatever the batch size: stateless tasks
            into stream-entry envelopes, private-queue messages per pinned
            instance into envelopes of up to ``batch_size`` (one element, or
            one stream entry, each), all of an instance's envelopes in one push.  An
            envelope of one is the bare message.
            """
            stateless_tasks: List[tuple] = []
            private: Dict[str, List[tuple]] = {}
            for dst, dst_port, dst_index, data in deliveries:
                if dst in stateful_names:
                    private.setdefault(private_keys[dst, dst_index], []).append(
                        ("data", dst_port, data)
                    )
                else:
                    stateless_tasks.append((dst, dst_port, data))
            board.queue_tasks(pipe, stateless_tasks, batch_size)
            for key, messages in private.items():
                if batch_size > 1:
                    messages = [as_envelope(chunk) for chunk in chunked(messages, batch_size)]
                push_private(pipe, key, *messages)
            if private:
                state.counters.inc("private_puts", len(deliveries) - len(stateless_tasks))

        def dispatch(pipe, deliveries: List[tuple]) -> None:
            """A pinned instance's deliveries behind their credit, booked once."""
            board.book(pipe, len(deliveries))
            queue_deliveries(pipe, deliveries)

        # ------------------------------------------------------ seed roots
        seed_client = new_client()
        # Run-scoped hygiene before anything is seeded: a reused Redis
        # deployment (shared ``redis_server`` + same graph name) may hold a
        # previous run's private queues and snapshots -- e.g. a user store
        # that outlives its runs.  Left in place they would be replayed into
        # (and contaminate) this run, and their checkpoint commits would
        # release credits this run's counter never held.
        if private_keys:
            seed_client.delete(*private_keys.values())
        if recovery:
            for (name, idx), key in private_keys.items():
                seed_client.xgroup_create(key, GROUP, id="0", mkstream=True)
                state_store.delete(f"{name}.{idx}")
        # Seeds are grouped like deliveries, whatever the batch size:
        # round-robin assignment at tuple granularity, then envelopes per
        # destination (an unbatched seed is an envelope of one), pipelined
        # in bounded frames -- credits before payloads in every frame.
        rr_counter = 0
        stateless_seeds: List[tuple] = []
        private_seeds: Dict[str, List[tuple]] = {}
        for root, items in state.provided.items():
            for item in items:
                if root in stateful_names:
                    index = rr_counter % allocation[root]
                    rr_counter += 1
                    private_seeds.setdefault(private_keys[root, index], []).append(
                        ("root", item, None)
                    )
                else:
                    stateless_seeds.append((root, None, item))
        board.put_tasks(stateless_seeds, batch_size, client=seed_client)
        seed_pipe = seed_client.pipeline()
        for key, messages in private_seeds.items():
            for chunk in chunked(messages, batch_size):
                board.book(seed_pipe, len(chunk))
                push_private(seed_pipe, key, as_envelope(chunk))
                if len(seed_pipe) >= SEED_FRAME:
                    seed_pipe.execute()
        seed_pipe.execute()

        # --------------------------------------------------- stateful plane
        #: Live thread per pinned instance; replaced on re-pin.
        threads: Dict[Tuple[str, int], threading.Thread] = {}
        completed: Set[Tuple[str, int]] = set()
        respawns: Dict[Tuple[str, int], int] = {}
        plane_lock = threading.Lock()

        def stateful_worker(pe_name: str, index: int) -> None:
            slot = (pe_name, index)
            worker_id = f"stateful-{pe_name}.{index}"
            client = new_client()
            try:
                instance = instantiate(graph.pe(pe_name), index, allocation[pe_name], state.ctx)
                instance.preprocess()
                consumer = dict(
                    client=client,
                    key=private_keys[pe_name, index],
                    board=board,
                    policy=policy,
                    stop=stop,
                    dispatch=dispatch,
                    concrete=concrete,
                )
                if recovery:
                    closed = self._run_recoverable(
                        state, instance, pe_name, index, **consumer,
                        store=store_for(client),
                        checkpoint_interval=checkpoint_interval,
                        batch_size=batch_size,
                        injector=injector,
                        trace=trace,
                    )
                else:
                    closed = self._run_plain(state, instance, pe_name, index, **consumer)
                if closed:
                    # Flush the aggregate state (top-3 tables, per-state
                    # sums...) and release the close marker's credit behind it.
                    flushed = dispatch_emissions(
                        concrete, state.collector, pe_name, index,
                        instance._flush_postprocess(),
                    )
                    pipe = client.pipeline()
                    dispatch(pipe, flushed)
                    pipe.decrby(board.counter_key, 1)
                    pipe.execute()
                with plane_lock:
                    completed.add(slot)
            except InjectedCrash:
                # Simulated process death: no error report, no abort -- the
                # supervisor notices the silent exit and re-pins.
                state.counters.inc("crashes")
                if trace is not None:
                    trace.note(state.clock.now(), "crash", f"{pe_name}.{index}")
            except BaseException as exc:  # noqa: BLE001 - worker boundary
                state.record_error(exc)
                stop.set()
                with plane_lock:
                    completed.add(slot)
            finally:
                state.meter.deactivate(worker_id)

        def spawn(pe_name: str, index: int) -> None:
            thread = threading.Thread(
                target=stateful_worker,
                args=(pe_name, index),
                name=f"hybrid-stateful-{pe_name}.{index}",
                daemon=True,
            )
            with plane_lock:
                threads[(pe_name, index)] = thread
            state.meter.activate(f"stateful-{pe_name}.{index}")
            thread.start()

        def supervise() -> None:
            """Re-pin instances whose workers died without completing.

            Only the coordinator thread calls this, so detection and
            respawn cannot race with each other.
            """
            if not recovery or stop.is_set():
                return
            with plane_lock:
                dead = [
                    slot
                    for slot, thread in threads.items()
                    if not thread.is_alive() and slot not in completed
                ]
            for pe_name, index in dead:
                slot = (pe_name, index)
                attempts = respawns.get(slot, 0)
                if attempts >= MAX_RESPAWNS:
                    state.record_error(
                        MappingError(
                            f"stateful instance {pe_name}.{index} crashed more "
                            f"than {MAX_RESPAWNS} times; giving up"
                        )
                    )
                    stop.set()
                    return
                respawns[slot] = attempts + 1
                state.counters.inc("respawns")
                if trace is not None:
                    trace.note(
                        state.clock.now(),
                        "respawn",
                        f"{pe_name}.{index} attempt {attempts + 1}",
                    )
                spawn(pe_name, index)

        # -------------------------------------------------- stateless plane
        stateless_pes = {
            name: pe for name, pe in graph.pes.items() if name not in stateful_names
        }

        def stateless_worker(index: int) -> None:
            worker_id = f"stateless-{index}"
            try:
                copies = graph_copy(stateless_pes, state.ctx)
                # The shared stream-worker body; children bound for pinned
                # instances leave through ``queue_deliveries`` instead of
                # the task stream, and the coordinator ends the run.
                StreamWorker(
                    board,
                    new_client(),
                    f"consumer-{index}",
                    copies,
                    concrete,
                    state.collector,
                    state.counters.inc,
                    policy=policy,
                    clock=state.clock,
                    publish=queue_deliveries,
                ).run_until(stop.is_set)
            except BaseException as exc:  # noqa: BLE001 - worker boundary
                state.record_error(exc)
                stop.set()
            finally:
                state.meter.deactivate(worker_id)

        # ----------------------------------------------------- run the show
        stateful_slots = [
            (name, idx)
            for name in graph.topological_order()
            if name in stateful_names
            for idx in range(threaded[name])
        ]
        stateless_threads = [
            threading.Thread(
                target=stateless_worker,
                args=(i,),
                name=f"hybrid-stateless-{i}",
                daemon=True,
            )
            for i in range(stateless_workers)
        ]
        # Dedicated workers are active from launch initiation (see
        # dynamic.py for the spawn-stagger rationale).
        for name, idx in stateful_slots:
            state.meter.activate(f"stateful-{name}.{idx}")
        for i in range(len(stateless_threads)):
            state.meter.activate(f"stateless-{i}")
        for name, idx in stateful_slots:
            spawn(name, idx)
        for t in stateless_threads:
            t.start()

        # A real sleep per poll: below the clock's resolution `clock.sleep`
        # only books debt, and the loop would spin on `GET outstanding`.
        drain_poll = max(state.clock.to_real(policy.poll_interval), Clock.SLEEP_RESOLUTION)
        coordinator_client = new_client()

        def wait_drained() -> None:
            deadline = state.clock.now() + JOIN_TIMEOUT
            while not board.is_drained(coordinator_client):
                supervise()
                if stop.is_set():
                    raise MappingError("hybrid run aborted by worker error")
                if state.clock.now() > deadline:
                    raise MappingError(
                        f"hybrid run did not drain within {JOIN_TIMEOUT}s "
                        f"(outstanding={board.outstanding(coordinator_client)})"
                    )
                time.sleep(drain_poll)

        try:
            # The instances no grouping feeds live here, on the coordinator:
            # preprocessed now, flushed when their stage closes.
            unthreaded = {
                name: [
                    instantiate(graph.pe(name), idx, allocation[name], state.ctx)
                    for idx in range(threaded[name], allocation[name])
                ]
                for name in stateful_names
            }
            for instances in unthreaded.values():
                for instance in instances:
                    instance.preprocess()
            wait_drained()
            # Staged close of the stateful plane in topological order.  Each
            # close marker carries a credit its instance releases with its
            # flush, so a drain after a stage's closes proves the stage
            # flushed and everything its flush fed ran.  An unthreaded
            # instance's flush rides in the markers' pipeline, behind the
            # same booking.
            for name in graph.topological_order():
                if name not in stateful_names:
                    continue
                flushed = [
                    delivery
                    for instance in unthreaded[name]
                    for delivery in dispatch_emissions(
                        concrete, state.collector, name, instance.instance_index,
                        instance._flush_postprocess(),
                    )
                ]
                pipe = coordinator_client.pipeline()
                board.book(pipe, threaded[name] + len(flushed))
                for idx in range(threaded[name]):
                    push_private(pipe, private_keys[name, idx], ("close",))
                queue_deliveries(pipe, flushed)
                pipe.execute()
                wait_drained()
        except Exception as exc:  # noqa: BLE001 - unthreaded instances run PE code here
            state.record_error(exc)
        finally:
            board.put_pills(len(stateless_threads))
            stop.set()
            for t in [*stateless_threads, *threads.values()]:
                t.join(timeout=JOIN_TIMEOUT)
                if t.is_alive():
                    state.record_error(TimeoutError(f"worker {t.name} hung at exit"))
                    break
            board.teardown()
            # The run's own keys go with it; a user-supplied store keeps its
            # snapshots.
            owned = [*private_keys.values(), *([state_store.key] if own_store else ())]
            if owned:
                coordinator_client.delete(*owned)
        return trace

    # ------------------------------------------------------- consumption
    @staticmethod
    def _invoke_message(instance, message) -> List[Tuple[str, object]]:
        """Run one private-queue message through the instance."""
        if message[0] == "root":
            return instance._invoke(message[1])
        _kind, port, data = message
        return instance._invoke({port: data})

    @staticmethod
    def _is_close(item) -> bool:
        """True for the staged-close marker (never travels inside a batch)."""
        return not isinstance(item, Batch) and item[0] == "close"

    def _invoke_element(
        self, state, instance, pe_name, index, item, tally, *,
        concrete, injector=None,
    ) -> List[tuple]:
        """Run every message of one private-queue element (bare or batch).

        Returns the routed deliveries of the whole element so the caller
        can publish them (and settle the element's credits) in a single
        pipelined round trip.  Crash-injection points stay *per message* --
        mid-batch crashes are exactly the boundary case recovery must
        survive -- while the post-dispatch point belongs to the caller.
        Every message run counts in ``tally["stateful_tasks"]``, crash
        included (what ran, ran); the caller merges the tally once per
        window.
        """
        deliveries: List[tuple] = []
        for message in batch_items(item):
            if injector is not None:
                injector.record_invocation(instance.instance_id)
            emissions = self._invoke_message(instance, message)
            tally["stateful_tasks"] += 1
            if injector is not None:
                injector.maybe_crash(instance.instance_id, "post-process")
            deliveries.extend(
                dispatch_emissions(concrete, state.collector, pe_name, index, emissions)
            )
        return deliveries

    def _run_plain(
        self, state, instance, pe_name, index, *,
        client, key, board, policy, stop, dispatch, concrete,
    ) -> bool:
        """Non-recoverable consumption in windows: a destructive BLPOP, then
        ``LPOP key count`` for up to ``WINDOW_CAP - 1`` more, settled once.

        A private queue has one consumer and nothing reclaims it, so the
        window needs no sizing: whatever queued behind the hit runs now.
        Returns whether the instance consumed its close marker; ``False``
        means ``stop`` ended it first.
        """
        timeout = max(0.005, state.clock.to_real(policy.poll_interval))
        while not stop.is_set():
            hit = client.blpop(key, timeout=timeout)
            if hit is None:
                continue
            window = [hit[1], *(client.lpop(key, WINDOW_CAP - 1) or ())]
            deliveries: List[tuple] = []
            credits = 0
            closed = False
            tally = {"stateful_tasks": 0}
            try:
                for item in window:
                    if self._is_close(item):
                        closed = True
                        break
                    deliveries.extend(
                        self._invoke_element(
                            state, instance, pe_name, index, item, tally, concrete=concrete
                        )
                    )
                    credits += batch_len(item)
            finally:
                state.counters.merge(tally)
            # One pipelined round trip: children + completion.  Each element
            # carries one credit per tuple it batched; release them all.
            if credits:
                pipe = client.pipeline()
                dispatch(pipe, deliveries)
                pipe.decrby(board.counter_key, credits)
                pipe.execute()
            if closed:
                return True
        return False

    def _run_recoverable(
        self, state, instance, pe_name, index, *,
        client, key, board, policy, stop, dispatch, concrete,
        store, checkpoint_interval, batch_size, injector, trace,
    ) -> bool:
        """Checkpointed consumption of the instance's private stream:
        ``XREADGROUP`` windows into the PEL, dedup by entry ID, interval/idle
        checkpoints that ack and release credits in bulk.

        The outstanding-work credit of a delivery is *not* released when it
        is processed but when a checkpoint covers it -- so a crash can never
        lose a credited delivery, and the coordinator's drain proof remains
        exact across crashes and re-pins.

        Entries are consumed in windows: one ``XREADGROUP ... COUNT`` reads
        up to ``WINDOW_CAP`` of them into the PEL, they run in order, and
        one pipeline dispatches their children.  The checkpoint test runs at
        the window boundary, so a checkpoint only ever covers entries whose
        children are booked.

        Batched entries keep every invariant at batch granularity: one
        entry = one ID = up to ``batch_size`` credits, applied/deduplicated/
        released as a unit.  The checkpoint interval counts *tuples*
        (credits), and a window takes no more entries than the interval's
        remaining room holds at ``batch_size`` tuples each (at least one), so
        what a crash replays stays below ``checkpoint_interval + batch_size``
        tuples whatever the envelope size; an envelope is never split across
        a checkpoint -- the interval filling mid-window checkpoints right
        after the window completes.

        Returns whether the instance consumed its close marker.  Only then
        does it take the final checkpoint: an instance ended by ``stop``
        leaves its PEL and credits as a crash would.
        """
        iid = instance.instance_id
        block_ms = max(5, int(1000 * state.clock.to_real(policy.poll_interval)))
        last_seq = 0
        uncommitted: List[Tuple[str, int]] = []  # (entry id, credits) not yet acked
        uncommitted_credits = 0

        snap = store.load(iid)
        if snap is not None:
            instance.set_state(snap.state)
            last_seq = snap.seq
            state.counters.inc("restores")
            if trace is not None:
                trace.note(state.clock.now(), "restore", f"{iid} seq={snap.seq}")

        def read(cursor: str, count: int, block=None) -> List[Tuple[str, object]]:
            """One group read of this consumer as ``(entry id, message)`` pairs."""
            reply = client.xreadgroup(GROUP, iid, {key: cursor}, count=count, block=block)
            return [(eid, fields[MESSAGE]) for _key, entries in reply for eid, fields in entries]

        def checkpoint() -> None:
            nonlocal uncommitted, uncommitted_credits
            if not uncommitted:
                return
            # Snapshot first, then ack+release atomically: a crash between
            # the two leaves entries <= last_seq in the PEL, which replay
            # skips (dedup) but still acks at the next checkpoint.
            if not store.save(iid, last_seq, instance.get_state()):
                # A newer snapshot exists: this writer is stale (the
                # instance was re-pinned and advanced elsewhere).  The PEL
                # and credits now belong to the live owner -- touch nothing.
                return
            (entry_id, amount), *more = uncommitted
            client.xack_decr(
                key, GROUP, entry_id, board.counter_key, amount,
                *(word for pair in more for word in pair),
            )
            uncommitted = []
            uncommitted_credits = 0
            state.counters.inc("checkpoints")

        def process(window) -> bool:
            """Run a window of entries in order, then dispatch their
            children in one pipeline; ``True`` if the close marker ended it."""
            nonlocal last_seq, uncommitted_credits
            deliveries: List[tuple] = []
            applied = None
            closed = False
            tally = {"stateful_tasks": 0, "deduplicated": 0}
            try:
                for entry_id, item in window:
                    if self._is_close(item):
                        closed = True
                        break
                    credits = batch_len(item)
                    uncommitted.append((entry_id, credits))
                    uncommitted_credits += credits
                    seq = entry_seq(entry_id)
                    if seq <= last_seq:
                        # Already reflected in the restored snapshot: skip the
                        # state mutation, but keep the entry in this commit
                        # window so the next checkpoint acks it and releases
                        # its credits.  Dedup is exact at batch granularity
                        # because the entry was applied whole before the
                        # snapshot covered it.
                        tally["deduplicated"] += credits
                        continue
                    deliveries.extend(
                        self._invoke_element(
                            state, instance, pe_name, index, item, tally,
                            concrete=concrete, injector=injector,
                        )
                    )
                    applied = seq
            finally:
                state.counters.merge(tally)
            if applied is not None:
                pipe = client.pipeline()
                dispatch(pipe, deliveries)
                pipe.execute()
                last_seq = applied
                if injector is not None:
                    injector.maybe_crash(iid, "post-dispatch")
            return closed

        # Replay what a crashed predecessor left behind: every entry still in
        # this consumer's PEL holds an unreleased credit, whether or not its
        # state effect survived in the snapshot.
        closed = False
        cursor = "0"
        while not closed:
            page = read(cursor, WINDOW_CAP)
            if not page:
                break
            state.counters.inc("replayed", sum(batch_len(item) for _id, item in page))
            closed = process(page)
            cursor = page[-1][0]
            if len(page) < WINDOW_CAP:
                break
        if cursor != "0":
            checkpoint()

        while not closed and not stop.is_set():
            # A window overshoots the checkpoint interval by less than one
            # envelope: it still bounds what a crash replays.
            room = (checkpoint_interval - uncommitted_credits) // batch_size
            window = read(">", max(1, min(WINDOW_CAP, room)), block_ms)
            if not window:
                # Idle: commit stragglers so the drain proof can complete
                # even when the stream ends mid-interval.
                checkpoint()
                continue
            closed = process(window)
            if not closed and uncommitted_credits >= checkpoint_interval:
                checkpoint()
        if closed:
            # The close marker, whose credit the caller releases with the
            # flush, stays in the PEL until teardown deletes the stream.
            checkpoint()
        return closed
