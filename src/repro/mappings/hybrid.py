"""Hybrid Redis mapping (``hybrid_redis``, Section 3.1.2).

The mapping that reconciles dynamic scheduling with stateful applications:

- **Stateful PE instances are pinned to dedicated processes** holding local
  state and a *private queue* (a Redis list consumed with BLPOP), so
  group-by and global groupings are honoured without any global state
  synchronisation.
- **Stateless PEs are scheduled dynamically** by the remaining
  ``N - #stateful-instances`` processes through the same global Redis
  stream as ``dyn_redis`` -- with the extra capability of "depositing their
  outputs into private queues specifically designated for stateful tasks".

Termination is staged: once the global task pool is drained, stateful PEs
are closed in topological order (each instance flushes its aggregate in
``postprocess``, whose emissions may create further downstream work that is
drained before the next stage closes); finally the stateless workers are
released with poison pills.

Crash recovery (``repro.state``)
--------------------------------
Pinned local state dies with its worker, so the mapping optionally runs the
stateful plane in *recoverable* mode (enabled by any of the
``checkpoint_interval`` / ``state_store`` / ``crash_injector`` options):

- deliveries into private queues are **sequence-numbered** (RPUSHSEQ) and
  consumed with BLMOVE into a per-instance *pending log*, so nothing is
  destroyed before its effect is checkpointed;
- every ``checkpoint_interval`` deliveries (and whenever the queue goes
  idle with uncommitted work) the instance snapshots its state -- tagged
  with the last applied sequence number -- into the
  :class:`~repro.state.store.StateStore`, then atomically trims the
  committed entries from the pending log and releases their
  outstanding-work credits;
- a supervisor on the coordinator thread detects silently-dead pinned
  workers, **re-pins** the instance on a fresh worker, restores the latest
  snapshot and replays the pending log (entries at or below the snapshot's
  sequence are deduplicated) before resuming the private queue.

Deliveries between a checkpoint and a crash are therefore applied exactly
once to the instance's state, but their downstream emissions may be sent
twice (at-least-once): the outstanding-work credit of an uncommitted
delivery is only released by the checkpoint that covers it, which also
keeps the drain proof honest across crashes.

Batched transport (``batch_size``)
----------------------------------
Both planes micro-batch with ``batch_size > 1``: stateless tasks travel as
batch envelopes on the global stream (as in ``dyn_redis``), and deliveries
into a private queue are grouped per pinned instance -- one RPUSHSEQ
element carrying up to ``batch_size`` messages under a **single sequence
number**, its ``len(batch)`` credits booked by the pipeline that carries
it.  The consumer BLMOVEs one element per round trip (= up to
``batch_size`` tuples), and the recovery machinery operates at batch granularity
throughout: an envelope is one pending-log element (checkpoint trimming is
untouched), its credits are released all-or-nothing by the checkpoint that
covers it, and replay dedup compares the envelope's sequence number --
either the whole envelope predates the snapshot or none of it does, which
is exactly the atomicity the per-element seq provides.  The close marker
is never batched.

The paper evaluates this mapping against ``multi`` on the Sentiment
Analysis workflow (Figure 12, Table 3), where it reaches as low as 32% of
the baseline runtime.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.autoscale.trace import ScalingTrace
from repro.core.concrete import ConcreteWorkflow, Delivery
from repro.core.exceptions import MappingError
from repro.core.graph import WorkflowGraph
from repro.mappings.base import (
    EnactmentState,
    Mapping,
    dispatch_emissions,
    graph_copy,
    instantiate,
    resolve_batch_size,
)
from repro.mappings.redis_tasks import (
    SEED_FRAME,
    RedisTaskBoard,
    StreamWorker,
    reclaim_threshold_ms,
)
from repro.mappings.registry import Capabilities, register_mapping
from repro.mappings.termination import TerminationPolicy
from repro.redisim.client import RedisClient
from repro.redisim.server import RedisServer
from repro.runtime.clock import Clock
from repro.runtime.queues import Batch, as_envelope, batch_items, batch_len, chunked
from repro.state import (
    CrashInjector,
    DEFAULT_CHECKPOINT_INTERVAL,
    InjectedCrash,
    RedisSnapshotStore,
    StateStore,
)


@register_mapping(
    Capabilities(
        stateful=True,
        dynamic=True,
        requires_redis=True,
        recoverable=True,
        batching=True,
        fusion=True,
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
        """Every pinned stateful instance, plus one stateless worker."""
        return sum(cls.pinned_instances(graph).values()) + 1

    def _enact(self, state: EnactmentState) -> Optional[ScalingTrace]:
        graph = state.graph
        policy: TerminationPolicy = state.options.get("termination", TerminationPolicy())
        server: RedisServer = state.options.get("redis_server") or RedisServer()

        # ------------------------------------------------- recovery options
        checkpoint_interval: Optional[int] = state.options.get("checkpoint_interval")
        state_store: Optional[StateStore] = state.options.get("state_store")
        injector: Optional[CrashInjector] = state.options.get("crash_injector")
        recover_opt = state.options.get("recover")
        recovery: bool = (
            bool(recover_opt)
            if recover_opt is not None
            else (
                checkpoint_interval is not None
                or state_store is not None
                or injector is not None
            )
        )
        if recovery and checkpoint_interval is None:
            checkpoint_interval = DEFAULT_CHECKPOINT_INTERVAL
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise MappingError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        max_respawns: int = state.options.get("max_respawns", 3)
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
        n_stateful = sum(pinned.values())
        stateless_workers = state.processes - n_stateful
        state.counters.inc("stateful_instances", n_stateful)
        state.counters.inc("stateless_workers", stateless_workers)

        def private_key(pe_name: str, index: int) -> str:
            return f"{namespace}:private:{pe_name}:{index}"

        abort = threading.Event()
        #: Set by the coordinator once the run is drained and pills are out.
        #: With batched fetches (count > 1) one worker can swallow pills
        #: meant for peers; the event is the peers' pill-independent exit.
        shutdown = threading.Event()

        def push_private(target, key: str, message: tuple) -> None:
            """Push one message onto a private queue (client or pipeline).

            The single place that decides plain vs sequence-tagged pushes:
            in recoverable mode every private-queue message -- deliveries,
            root seeds and close markers alike -- must carry a sequence
            number, or the consumer's replay cursor would desynchronize.
            """
            if recovery:
                target.rpush_seq(key, message)
            else:
                target.rpush(key, message)

        # ------------------------------------------------------ dispatching
        def queue_deliveries(pipe, deliveries: List[Delivery]) -> None:
            """Append routed deliveries to a pipeline, payloads only.

            Private queues bypass the global stream entirely; the shared
            outstanding counter still covers them so the drain proof holds
            across both planes -- one credit per delivery, which the
            pipeline's owner books ahead of every payload
            (:meth:`RedisTaskBoard.book`: the stateless plane's settle for a
            whole window, :func:`dispatch` for a pinned instance), so the
            drain proof never observes a published-but-uncounted tuple.  In
            recoverable mode private-queue pushes are sequence-tagged
            (RPUSHSEQ) so consumers get a stable replay cursor.

            With ``batch_size > 1`` deliveries are grouped: stateless tasks
            into stream-entry envelopes, private-queue messages per pinned
            instance into single RPUSHSEQ elements (one seq per envelope).
            """
            if batch_size <= 1:
                for d in deliveries:
                    if d.dst in stateful_names:
                        push_private(
                            pipe, private_key(d.dst, d.dst_index), ("data", d.dst_port, d.data)
                        )
                        state.counters.inc("private_puts")
                    else:
                        pipe.xadd(board.stream_key, {"task": (d.dst, d.dst_port, d.data)})
                return
            stateless_tasks: List[tuple] = []
            private: Dict[str, List[tuple]] = {}
            for d in deliveries:
                if d.dst in stateful_names:
                    private.setdefault(private_key(d.dst, d.dst_index), []).append(
                        ("data", d.dst_port, d.data)
                    )
                else:
                    stateless_tasks.append((d.dst, d.dst_port, d.data))
            board.queue_tasks(pipe, stateless_tasks, batch_size)
            for key, messages in private.items():
                for chunk in chunked(messages, batch_size):
                    push_private(pipe, key, as_envelope(chunk))
                    state.counters.inc("private_puts", len(chunk))

        def dispatch(pipe, deliveries: List[Delivery]) -> None:
            """A pinned instance's deliveries behind their credit, booked once."""
            board.book(pipe, len(deliveries))
            queue_deliveries(pipe, deliveries)

        def route_and_dispatch(
            pe_name: str, index: int, emissions: List[Tuple[str, object]], client: RedisClient
        ) -> None:
            pipe = client.pipeline()
            dispatch(
                pipe, dispatch_emissions(concrete, state.collector, pe_name, index, emissions)
            )
            pipe.execute()

        # ------------------------------------------------------ seed roots
        seed_client = new_client()
        # Run-scoped hygiene before anything is seeded: a reused Redis
        # deployment (shared ``redis_server`` + same graph name) may hold a
        # previous run's private queues, pending logs and snapshots -- e.g.
        # after an aborted run whose dead workers never cleaned up.  Left in
        # place they would be replayed into (and contaminate) this run, and
        # their checkpoint commits would release credits this run's counter
        # never held.
        for name in stateful_names:
            for idx in range(allocation[name]):
                key = private_key(name, idx)
                seed_client.delete(key, f"{key}:pending")
                if recovery:
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
                    private_seeds.setdefault(private_key(root, index), []).append(
                        ("root", item, None)
                    )
                else:
                    stateless_seeds.append((root, None, item))
        board.put_tasks(stateless_seeds, batch_size, client=seed_client)
        seed_pipe = seed_client.pipeline()
        for key, messages in private_seeds.items():
            for chunk in chunked(messages, batch_size):
                seed_pipe.incrby(board.counter_key, len(chunk))
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
                if recovery:
                    self._run_recoverable(
                        state, instance, pe_name, index,
                        client=client,
                        key=private_key(pe_name, index),
                        board=board,
                        policy=policy,
                        abort=abort,
                        dispatch=dispatch,
                        concrete=concrete,
                        store=store_for(client),
                        checkpoint_interval=checkpoint_interval,
                        injector=injector,
                        trace=trace,
                    )
                else:
                    self._run_plain(
                        state, instance, pe_name, index,
                        client=client,
                        key=private_key(pe_name, index),
                        board=board,
                        policy=policy,
                        abort=abort,
                        dispatch=dispatch,
                        concrete=concrete,
                        injector=injector,
                    )
                # Flush the aggregate state (top-3 tables, per-state sums...)
                route_and_dispatch(pe_name, index, instance._flush_postprocess(), client)
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
                abort.set()
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
            if not recovery or abort.is_set():
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
                if attempts >= max_respawns:
                    state.record_error(
                        MappingError(
                            f"stateful instance {pe_name}.{index} crashed more "
                            f"than {max_respawns} times; giving up"
                        )
                    )
                    abort.set()
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
        reclaim_idle_ms = reclaim_threshold_ms(state.options, state.clock)
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
                    reclaim_idle_ms=reclaim_idle_ms,
                    publish=queue_deliveries,
                ).run_until(lambda: abort.is_set() or shutdown.is_set())
            except BaseException as exc:  # noqa: BLE001 - worker boundary
                state.record_error(exc)
                abort.set()
            finally:
                state.meter.deactivate(worker_id)

        # ----------------------------------------------------- run the show
        stateful_slots = [
            (name, idx)
            for name in graph.topological_order()
            if name in stateful_names
            for idx in range(allocation[name])
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

        join_timeout = state.options.get("join_timeout", 300.0)
        join_slice = max(0.01, state.clock.to_real(policy.poll_interval))
        # A real sleep per poll: below the clock's resolution `clock.sleep`
        # only books debt, and the loop would spin on `GET outstanding`.
        drain_poll = max(state.clock.to_real(policy.poll_interval), Clock.SLEEP_RESOLUTION)
        coordinator_client = new_client()

        def wait_drained() -> None:
            deadline = state.clock.now() + join_timeout
            while not board.is_drained(coordinator_client):
                supervise()
                if abort.is_set():
                    raise MappingError("hybrid run aborted by worker error")
                if state.clock.now() > deadline:
                    raise MappingError(
                        f"hybrid run did not drain within {join_timeout}s "
                        f"(outstanding={board.outstanding(coordinator_client)})"
                    )
                time.sleep(drain_poll)

        def join_instance(pe_name: str, index: int, deadline: float) -> None:
            """Wait for one pinned instance to close, supervising re-pins."""
            slot = (pe_name, index)
            while True:
                with plane_lock:
                    thread = threads[slot]
                    done = slot in completed
                if done and not thread.is_alive():
                    return
                thread.join(timeout=join_slice)
                supervise()
                if abort.is_set():
                    raise MappingError("hybrid run aborted during staged close")
                if state.clock.now() > deadline:
                    raise MappingError(
                        f"stateful worker {pe_name}.{index} hung at close"
                    )

        try:
            wait_drained()
            # Staged close of the stateful plane in topological order: each
            # stage's postprocess may feed later stages, so drain between.
            for name in graph.topological_order():
                if name not in stateful_names:
                    continue
                for idx in range(allocation[name]):
                    push_private(coordinator_client, private_key(name, idx), ("close",))
                deadline = state.clock.now() + join_timeout
                for idx in range(allocation[name]):
                    join_instance(name, idx, deadline)
                wait_drained()
        except MappingError as exc:
            state.record_error(exc)
            abort.set()
        finally:
            board.put_pills(len(stateless_threads))
            shutdown.set()
            for t in stateless_threads:
                t.join(timeout=join_timeout)
                if t.is_alive():
                    state.record_error(TimeoutError(f"worker {t.name} hung at exit"))
                    abort.set()
                    break
            board.teardown()
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
        self, state, instance, pe_name, index, item, *,
        concrete, injector, iid,
    ) -> List[Delivery]:
        """Run every message of one private-queue element (bare or batch).

        Returns the routed deliveries of the whole element so the caller
        can publish them (and settle the element's credits) in a single
        pipelined round trip.  Crash-injection points stay *per message* --
        mid-batch crashes are exactly the boundary case recovery must
        survive -- while the post-dispatch point belongs to the caller.
        """
        deliveries: List[Delivery] = []
        for message in batch_items(item):
            if injector is not None:
                injector.record_invocation(iid)
            emissions = self._invoke_message(instance, message)
            state.counters.inc("stateful_tasks")
            if injector is not None:
                injector.maybe_crash(iid, "post-process")
            deliveries.extend(
                dispatch_emissions(concrete, state.collector, pe_name, index, emissions)
            )
        return deliveries

    def _run_plain(
        self, state, instance, pe_name, index, *,
        client, key, board, policy, abort, dispatch, concrete,
        injector=None,
    ) -> None:
        """Non-recoverable consumption: destructive BLPOP, per-element decr.

        ``injector`` is honoured here too (with ``recover=False``) so the
        pre-recovery failure mode -- a dead pinned worker stalling the run
        until the join timeout -- stays demonstrable.
        """
        iid = instance.instance_id
        timeout = max(0.005, state.clock.to_real(policy.poll_interval))
        while not abort.is_set():
            hit = client.blpop(key, timeout=timeout)
            if hit is None:
                continue
            _key, item = hit
            if self._is_close(item):
                return
            deliveries = self._invoke_element(
                state, instance, pe_name, index, item,
                concrete=concrete, injector=injector, iid=iid,
            )
            # One pipelined round trip: children + completion.  The element
            # carries one credit per tuple it batched; release them all.
            pipe = client.pipeline()
            dispatch(pipe, deliveries)
            pipe.decrby(board.counter_key, batch_len(item))
            pipe.execute()
            if injector is not None:
                injector.maybe_crash(iid, "post-dispatch")

    def _run_recoverable(
        self, state, instance, pe_name, index, *,
        client, key, board, policy, abort, dispatch, concrete,
        store, checkpoint_interval, injector, trace,
    ) -> None:
        """Checkpointed consumption: BLMOVE into a pending log, sequence
        dedup, interval/idle checkpoints that release credits in bulk.

        The outstanding-work credit of a delivery is *not* released when it
        is processed but when a checkpoint covers it -- so a crash can never
        lose a credited delivery, and the coordinator's drain proof remains
        exact across crashes and re-pins.

        Batched elements keep every invariant at batch granularity: one
        pending-log element = one sequence number = ``len(batch)`` credits,
        applied/deduplicated/released as a unit.  The checkpoint interval
        counts *tuples* (credits), so ``checkpoint_interval=N`` still bounds
        the replay window to ~N deliveries regardless of envelope size; an
        envelope is never split across a checkpoint -- the interval firing
        mid-batch checkpoints right after the element completes.
        """
        iid = instance.instance_id
        pending_key = f"{key}:pending"
        timeout = max(0.005, state.clock.to_real(policy.poll_interval))
        last_seq = 0
        uncommitted_entries = 0  # pending-log elements not yet trimmed
        uncommitted_credits = 0  # outstanding-counter credits (tuples) not yet released

        snap = store.load(iid)
        if snap is not None:
            instance.set_state(snap.state)
            last_seq = snap.seq
            state.counters.inc("restores")
            if trace is not None:
                trace.note(state.clock.now(), "restore", f"{iid} seq={snap.seq}")

        def checkpoint() -> None:
            nonlocal uncommitted_entries, uncommitted_credits
            if uncommitted_entries == 0:
                return
            # Snapshot first, then trim+release atomically: a crash between
            # the two leaves entries <= last_seq in the pending log, which
            # replay skips (dedup) but still counts for the next trim.
            if not store.save(iid, last_seq, instance.get_state()):
                # A newer snapshot exists: this writer is stale (the
                # instance was re-pinned and advanced elsewhere).  The
                # pending log and credits now belong to the live owner --
                # touch nothing.
                return
            pipe = client.pipeline()
            pipe.ltrim(pending_key, uncommitted_entries, -1)
            if uncommitted_credits:
                pipe.decrby(board.counter_key, uncommitted_credits)
            pipe.execute()
            uncommitted_entries = 0
            uncommitted_credits = 0
            state.counters.inc("checkpoints")

        def process(seq: int, item) -> None:
            nonlocal last_seq, uncommitted_entries, uncommitted_credits
            uncommitted_entries += 1
            uncommitted_credits += batch_len(item)
            if seq <= last_seq:
                # Already reflected in the restored snapshot: skip the state
                # mutation, but keep the element in this commit window so
                # its credits are released by the next checkpoint.  Dedup is
                # exact at batch granularity because the element was applied
                # atomically under one seq before the snapshot covered it.
                state.counters.inc("deduplicated", batch_len(item))
                return
            deliveries = self._invoke_element(
                state, instance, pe_name, index, item,
                concrete=concrete, injector=injector, iid=iid,
            )
            pipe = client.pipeline()
            dispatch(pipe, deliveries)
            pipe.execute()
            last_seq = seq
            if injector is not None:
                injector.maybe_crash(iid, "post-dispatch")

        # Replay what a crashed predecessor left behind: every entry still
        # in the pending log holds an unreleased credit, whether or not its
        # state effect survived in the snapshot.
        replayed_close = False
        backlog = client.lrange_seq(pending_key)
        if backlog:
            state.counters.inc("replayed", sum(batch_len(item) for _s, item in backlog))
        for seq, item in backlog:
            if self._is_close(item):
                replayed_close = True
                break
            process(seq, item)
        if backlog:
            checkpoint()

        while not replayed_close and not abort.is_set():
            hit = client.blmove_seq(key, pending_key, timeout=timeout)
            if hit is None:
                # Idle: commit stragglers so the drain proof can complete
                # even when the stream ends mid-interval.
                checkpoint()
                continue
            seq, item = hit
            if self._is_close(item):
                break
            process(seq, item)
            if uncommitted_credits >= checkpoint_interval:
                checkpoint()
        checkpoint()
        # The close marker (which carries no credit) is all that can remain.
        client.delete(pending_key)
