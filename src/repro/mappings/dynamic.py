"""The dynamic mapping family: one scheduler, two substrates, two drivers.

Dynamic scheduling (Figure 2): instead of pre-assigning PEs to processes,
the whole workflow graph is given to every worker, and a **global queue**
holds ``(PE, port, data)`` tasks.  Workers fetch whatever task is
available, execute the referenced PE on their own graph copy, push any
produced tasks back, and repeat.  Load balances itself; per-PE instance
boundaries vanish -- which is also why plain dynamic scheduling cannot
honour stateful PEs or groupings (``Capabilities.stateful`` is off on the
whole family).

The paper's four dynamic techniques are a grid, and so is the code: a
:class:`Workforce` is the substrate the queue lives on (in-memory here,
a Redis Stream in :mod:`repro.mappings.redis_dynamic`), a driver
(:func:`run_dedicated` | :func:`run_autoscaled`) decides which workers run
when, and :class:`DynamicMapping` composes one of each.

Termination follows Section 3.2.3: a worker that keeps finding the queue
empty (``empty_retries`` consecutive timeouts) evaluates the termination
condition and, if met, broadcasts poison pills so its peers exit without
waiting out their own retry budgets.  The safe condition is the
outstanding-work proof of :class:`~repro.runtime.queues.TrackedQueue`; the
paper's raw emptiness check is available for the ablation via
``TerminationPolicy(unsafe_empty_check=True)``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type

from repro.autoscale.autoscaler import Autoscaler
from repro.autoscale.strategies import BacklogStrategy, ScalingStrategy
from repro.autoscale.trace import ScalingTrace
from repro.core.concrete import ConcreteWorkflow
from repro.core.pe import GenericPE
from repro.mappings.base import (
    EnactmentState,
    Mapping,
    dispatch_emissions,
    graph_copy,
    live_feeder,
    marshal,
    resolve_batch_size,
    run_workers,
)
from repro.mappings.registry import Capabilities, register_mapping
from repro.mappings.termination import TerminationPolicy
from repro.runtime.queues import (
    POISON_PILL,
    Empty,
    TrackedQueue,
    as_envelope,
    batch_items,
    chunked,
)
from repro.runtime.workers import WorkerPool

#: A task is (pe_name, input_port_or_None, payload).  ``None`` port means
#: the payload is a full inputs mapping (source-PE driving).
Task = Tuple[str, Optional[str], Any]


class Workforce:
    """One run's workers on one substrate; the drivers decide who runs when.

    Both substrates answer to one vocabulary: ``seed_roots()`` (publish
    the complete input), ``attach_feed()`` / ``arm_cancel(workers)``
    (streaming substrates: live input in, unwind on cancel),
    ``worker_loop(worker_key, total)`` (dedicated: run to termination),
    ``drain_session(worker_key, chunk)`` (auto-scaled: up to ``chunk``
    tasks, stop on empty), ``is_terminated()``, ``broadcast_pills(count)``,
    ``load(strategy)`` (the signal the auto-scaler monitors here),
    ``default_strategy()`` (what reads it unless the ``strategy`` option
    says otherwise) and ``teardown()``.  This base keeps what is identical
    on both: the transport granularity, the per-worker graph copies and
    the once-only pill broadcast.
    """

    #: Capability bits the substrate contributes to a preset's row.
    requires_redis = False
    recoverable = False
    streaming = False
    #: Thread-name prefixes of dedicated workers / an own auto-scaled pool.
    dedicated_prefix = "dyn"
    autoscaled_prefix = "auto"

    def __init__(self, state: EnactmentState, policy: TerminationPolicy) -> None:
        self.state = state
        self.policy = policy
        #: Tasks per queue item / stream entry; 1 is unbatched transport.
        self.batch_size: int = resolve_batch_size(state.options)
        self.concrete = ConcreteWorkflow.single_instance(state.graph)
        self._copies: Dict[str, Dict[str, GenericPE]] = {}
        self._copies_lock = threading.Lock()
        self._pills_sent = threading.Event()

    def graph_copy(self, worker_key: str) -> Dict[str, GenericPE]:
        """``worker_key``'s deep copy of all PEs, made on first use.

        Keyed by worker, not by session: an auto-scaled pool thread keeps
        its copy (and the PEs' ``preprocess`` state) across sessions.
        """
        with self._copies_lock:
            copies = self._copies.get(worker_key)
        if copies is None:
            copies = graph_copy(self.state.graph.pes, self.state.ctx)
            with self._copies_lock:
                self._copies[worker_key] = copies
            self.state.counters.inc("graph_copies")
        return copies

    def broadcast_pills(self, count: int) -> None:
        if not self._pills_sent.is_set():
            self._pills_sent.set()
            self._put_pills(count)
            self.state.counters.inc("pills", count)

    def _put_pills(self, count: int) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Nothing outlives the run on an in-memory substrate."""


class DynamicWorkforce(Workforce):
    """The multiprocessing substrate: an in-memory global queue.

    Streaming-capable: live sends drop tasks straight onto the queue, and
    the termination check additionally requires the input to be closed
    (see :meth:`is_terminated`).
    """

    streaming = True

    def __init__(self, state: EnactmentState, policy: TerminationPolicy) -> None:
        super().__init__(state, policy)
        self.queue: TrackedQueue = TrackedQueue()
        #: Streaming: set once the live input is closed (always set for the
        #: one-shot path, whose inputs are complete from the start).
        self.input_closed = threading.Event()
        if state.feed is None:
            self.input_closed.set()

    # ------------------------------------------------------------- seeding
    def seed_roots(self) -> None:
        for root, items in self.state.provided.items():
            for chunk in chunked([(root, None, item) for item in items], self.batch_size):
                self.queue.put(as_envelope(chunk))
        self.state.counters.inc("seed_tasks", self.queue.outstanding)

    def attach_feed(self) -> None:
        """Streaming seeding: pipe initial + live inputs into the queue.

        Runs on the feeder thread while workers already consume: a
        generator-backed source therefore feeds the running workflow
        lazily.  ``input_closed`` is set only after every initial item is
        queued (the feed guarantees close-after-drain), so the drain proof
        in :meth:`is_terminated` cannot fire with input still in flight.
        A failing input iterable closes the stream and surfaces through
        the run's normal error path instead of hanging the job.
        """

        def sink(root: str, item: Dict[str, object]) -> None:
            self.queue.put((root, None, item))
            self.state.counters.inc("stream_inputs")

        try:
            self.state.feed.attach(sink, self.input_closed.set)
        except BaseException as exc:  # noqa: BLE001 - feed boundary
            self.state.record_error(exc)
            self.input_closed.set()

    def arm_cancel(self, workers: int) -> None:
        """Streaming: a job cancel closes the input and pills all workers."""
        if self.state.control is not None:
            def on_cancel() -> None:
                self.input_closed.set()
                self.broadcast_pills(workers)

            self.state.control.on_cancel(on_cancel)

    # ------------------------------------------------------------- workers
    def process_task(
        self, copies: Dict[str, GenericPE], task: Task, tally: Dict[str, int]
    ) -> None:
        """Execute one task, then enqueue its children and settle it.

        Enqueue and settle are one queue operation, in a ``finally``: a
        failing task still settles (with whatever children it got as far
        as producing), so the drain proof stays exact.  ``tasks`` /
        ``queue_puts`` go to the caller's ``tally`` -- see
        :meth:`process_item`.
        """
        pe_name, port, payload = task
        inputs = payload if port is None else {port: payload}
        children: List[Any] = []
        try:
            emissions = copies[pe_name]._invoke(inputs)
            tally["tasks"] += 1
            children = [
                (delivery.dst, delivery.dst_port, marshal(delivery.data))
                for delivery in dispatch_emissions(
                    self.concrete, self.state.collector, pe_name, 0, emissions
                )
            ]
            if self.batch_size > 1:
                children = [as_envelope(chunk) for chunk in chunked(children, self.batch_size)]
            # Queue transfer cost is charged once per queue item: the
            # amortization batching exists for.
            if self.state.platform.queue_latency > 0:
                for _ in children:
                    self.state.ctx.io_wait(self.state.platform.queue_latency)
        finally:
            tally["queue_puts"] += len(children)
            self.queue.settle(children)

    def process_item(
        self, copies: Dict[str, GenericPE], item: Any, tally: Dict[str, int]
    ) -> int:
        """Run every task carried by one queue item; returns the count.

        Batch-aware consumption: the envelope is iterated without
        re-entering the queue machinery per tuple, and each tuple is
        settled individually (inside :meth:`process_task`) so the
        outstanding count is exact even if a mid-envelope task fails --
        the tail the failure abandons is settled unrun, or an auto-scaled
        run (whose sessions survive a failing task) would never drain.
        ``tally`` (:meth:`new_tally`) collects the counters a task bumps;
        the caller flushes it with ``counters.merge`` in a ``finally``, so
        the shared counters lock is taken per flush, not twice per task.
        """
        tasks = batch_items(item)
        started = 0
        try:
            for task in tasks:
                started += 1
                self.process_task(copies, task, tally)
        finally:
            if started < len(tasks):
                self.queue.settle(count=len(tasks) - started)
        return len(tasks)

    @staticmethod
    def new_tally() -> Dict[str, int]:
        return {"tasks": 0, "queue_puts": 0}

    def is_terminated(self) -> bool:
        """The termination condition (safe by default, see module docs).

        A streaming run cannot terminate while its input is still open --
        an empty (even provably drained) queue only means the sources are
        idle between sends.  A cancelled job terminates unconditionally.
        """
        if self.state.cancelled():
            return True
        if not self.input_closed.is_set():
            return False
        if self.policy.unsafe_empty_check:
            return self.queue.empty()
        return self.queue.is_drained()

    def _put_pills(self, count: int) -> None:
        self.queue.put_pill(count)

    def load(self, strategy: ScalingStrategy) -> float:
        """The backlog, in tuples.

        Under batched transport ``qsize`` counts envelopes, which
        understates the pending work by the batch factor and would make
        the scaler shrink a loaded pool.
        """
        if self.batch_size == 1:
            return self.queue.qsize()
        return self.queue.pending_tasks

    def default_strategy(self) -> ScalingStrategy:
        return BacklogStrategy()

    def worker_loop(self, worker_key: str, total_workers: int) -> None:
        """Dedicated-worker loop: run until termination."""
        copies = self.graph_copy(worker_key)
        timeout = self.state.clock.to_real(self.policy.poll_interval)
        empty_streak = 0
        while True:
            try:
                task = self.queue.get(timeout=timeout)
            except Empty:
                empty_streak += 1
                self.state.counters.inc("empty_polls")
                if empty_streak >= self.policy.empty_retries and self.is_terminated():
                    self.broadcast_pills(total_workers)
                    return
                continue
            if task is POISON_PILL:
                return
            empty_streak = 0
            tally = self.new_tally()
            try:
                self.process_item(copies, task, tally)
            finally:
                self.state.counters.merge(tally)

    def drain_session(self, worker_key: str, chunk: int) -> int:
        """Auto-scaled session: process up to ``chunk`` tasks, stop on empty.

        Returns the number of tasks processed, so the caller can observe
        starvation.  Sessions never decide termination -- the auto-scaler's
        ``process`` loop owns that (Algorithm 1).  ``chunk`` is a soft cap
        at batch granularity: an envelope is never split across sessions.
        """
        copies = self.graph_copy(worker_key)
        timeout = self.state.clock.to_real(self.policy.poll_interval)
        processed = 0
        tally = self.new_tally()
        try:
            while processed < chunk:
                try:
                    task = self.queue.get(timeout=timeout)
                except Empty:
                    break
                if task is POISON_PILL:
                    break
                processed += self.process_item(copies, task, tally)
        finally:
            self.state.counters.merge(tally)
        return processed


# -------------------------------------------------------------------- drivers

@contextmanager
def _input_stage(state: EnactmentState, workforce: Workforce) -> Iterator[None]:
    """Seed the complete input up front, or feed the live one meanwhile.

    The only branch either driver takes on the kind of submission.  A
    streaming run gets the feed stage on its own thread for the duration
    of the ``with`` body: workers (or the scaler loop) must already run
    while the lazy initial inputs are still being drained.
    """
    if state.streaming:
        workforce.arm_cancel(state.processes)
        with live_feeder(state, workforce.attach_feed):
            yield
    else:
        workforce.seed_roots()
        yield


def run_dedicated(state: EnactmentState, workforce: Workforce) -> None:
    """``processes`` always-active workers, each running to termination."""
    total = state.processes
    keys = [f"{workforce.dedicated_prefix}-{index}" for index in range(total)]

    def run_worker(worker_id: str) -> None:
        try:
            workforce.worker_loop(worker_id, total)
        except BaseException as exc:  # noqa: BLE001 - worker boundary
            state.record_error(exc)
            workforce.broadcast_pills(total)
        finally:
            state.meter.deactivate(worker_id)

    with _input_stage(state, workforce):
        # A statically launched process is active from *launch initiation*:
        # all workers are marked active before the first one is dispatched,
        # so the dispatch stagger (a substrate artifact: each hand-off
        # contends on the GIL with already-running workers) is not
        # subtracted from the measured process time.
        for worker_id in keys:
            state.meter.activate(worker_id)
        run_workers(state, [(worker_id, run_worker, (worker_id,)) for worker_id in keys])


def run_autoscaled(state: EnactmentState, workforce: Workforce) -> ScalingTrace:
    """Algorithm 1: worker *sessions* dispatched through the scaler's gate.

    Workers not dispatched sit idle and accumulate no process time -- the
    efficiency the paper quantifies as "87% runtime and 76% process time
    of dynamic scheduling's performance in optimal cases".  A streaming
    submission keeps the scaler loop alive until the live input closes:
    idle-open periods shrink the active set to the strategy's floor, so an
    open-but-quiet stream costs standby time, not busy workers.
    """
    strategy = state.options.get("strategy") or workforce.default_strategy()
    trace = ScalingTrace(strategy.metric_name)
    session_chunk = state.options.get("session_chunk", 8)
    join_timeout = state.options.get("join_timeout", 300.0)

    def session() -> int:
        # Pool threads are the "processes"; a session is one active phase
        # of that process.  Process time accumulates only here --
        # dispatched-but-idle time is the paper's standby state.
        worker_id = threading.current_thread().name
        with state.meter.active(worker_id):
            try:
                return workforce.drain_session(worker_id, session_chunk)
            except BaseException as exc:  # noqa: BLE001 - worker boundary
                state.record_error(exc)
                return 0

    with _input_stage(state, workforce):
        pool = state.pool
        own_pool = pool is None
        if own_pool:
            pool = WorkerPool(
                state.processes, name=f"{workforce.autoscaled_prefix}-{state.graph.name}"
            )
        error_start = len(pool.errors)
        scaler = Autoscaler(
            pool,
            strategy,
            monitor=lambda: workforce.load(strategy),
            clock=state.clock,
            initial_active=state.options.get("initial_active"),
            scale_interval=state.options.get("scale_interval", 0.01),
            trace=trace,
        )
        try:
            scaler.process(session, workforce.is_terminated)
        finally:
            # A warm pool is the session's deployment: it survives the
            # submission (teardown closes it); an ephemeral pool does not.
            if own_pool:
                pool.close()
                pool.join(timeout=join_timeout)
            else:
                scaler.stop()
                if not scaler.wait_all_done(timeout=join_timeout):
                    # A session stuck past the timeout would otherwise ride
                    # along invisibly on the warm pool into the next job;
                    # failing the run forfeits the deployment instead.
                    state.record_error(
                        TimeoutError("worker sessions did not finish in time")
                    )
    for exc in pool.errors[error_start:]:
        state.record_error(exc)
    state.counters.inc("scale_iterations", len(trace))
    state.counters.inc("max_active", trace.max_active())
    return trace


class DynamicMapping(Mapping):
    """Dynamic scheduling: a :class:`Workforce` substrate x a driver.

    ``scaling`` off runs :func:`run_dedicated`; on, :func:`run_autoscaled`
    under the substrate's default strategy.  The four registry names are
    presets differing in nothing but ``(workforce, scaling)``.

    Default strategies (Table 1 grid)
    ---------------------------------
    On the queue substrate the default is
    :class:`~repro.autoscale.strategies.BacklogStrategy`, which compares
    the backlog against the *active* process count instead of against the
    previous observation.  The paper's raw queue-delta strategy
    (:class:`~repro.autoscale.strategies.QueueSizeStrategy`, available via
    the ``strategy`` option and exercised by the strategy-ablation
    benchmark) suffers from the inertia the paper itself reports: on
    workloads whose inputs are seeded up front the queue only ever
    shrinks, the scaler never grows past its initial half-pool, and
    runtime blows up ~3x against plain dynamic scheduling.  With the
    backlog strategy the active size tracks ``min(queue, pool)``,
    reproducing Table 1's headline row (best case measured here: 0.76
    process time at ~1.05 runtime against ``dyn_multi``).

    On the Redis substrate the default is the idle-time strategy of
    Section 3.2.2 (:class:`~repro.autoscale.strategies.IdleTimeStrategy`):
    the scaler watches the consumer group's **average idle time** over
    the consumers currently in active sessions.  Idle time above the
    threshold (a stand-in for the platform's reactivation/redeployment
    cost: 4x the scaled poll interval, times ``batch_size`` -- see
    :meth:`~repro.mappings.redis_dynamic.RedisWorkforce.default_strategy`)
    means capacity is starved of work and a process is logically
    deactivated; low idle time means the group is saturated and one is
    activated.  Figures 13b/13e plot the resulting inverse relationship.

    Options
    -------
    ``termination``:
        :class:`~repro.mappings.termination.TerminationPolicy`.
    ``batch_size``:
        Tuples per queue item / stream entry (micro-batched transport; see
        :mod:`repro.runtime.queues`).  On the Redis substrate it is the
        headline lever: it divides the per-tuple round-trip count -- the
        cost that makes Redis mappings trail their Multiprocessing twins
        (Section 5.6) -- by the batch factor.

    Auto-scaled presets additionally read:

    ``strategy``:
        The scaling strategy instance -- the single way to tune it
        (``BacklogStrategy(min_queue=...)``,
        ``IdleTimeStrategy(threshold_ms=...)``); also how the ablation
        benchmark swaps strategies.
    ``initial_active``:
        Starting active size (default: half the pool, Algorithm 1 line 6).
    ``scale_interval``:
        Nominal pacing of the auto-scaler's monitoring loop.
    ``session_chunk``:
        Maximum tasks a worker session processes before returning
        control -- a soft cap at batch granularity, an envelope is never
        split.
    """

    #: The substrate: a :class:`Workforce` subclass.
    workforce: Type[Workforce] = Workforce
    #: Whether Algorithm 1 drives the workers (else they are dedicated).
    scaling = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """Derive a preset's capability row from its composition.

        The substrate contributes ``requires_redis`` / ``recoverable`` /
        ``streaming``, the driver ``autoscaling``; ``register_mapping()``
        adds the description (the preset docstring's first line).
        """
        super().__init_subclass__(**kwargs)
        cls.capabilities = Capabilities(
            stateful=False,
            dynamic=True,
            batching=True,
            fusion=True,
            requires_redis=cls.workforce.requires_redis,
            recoverable=cls.workforce.recoverable,
            streaming=cls.workforce.streaming,
            autoscaling=cls.scaling,
        )

    def _enact(self, state: EnactmentState) -> Optional[ScalingTrace]:
        policy = state.options.get("termination", TerminationPolicy())
        workforce = self.workforce(state, policy)
        try:
            if self.scaling:
                return run_autoscaled(state, workforce)
            return run_dedicated(state, workforce)
        finally:
            workforce.teardown()


@register_mapping()
class DynMultiMapping(DynamicMapping):
    """Dynamic scheduling on a global multiprocessing queue"""

    name = "dyn_multi"
    workforce = DynamicWorkforce


@register_mapping()
class DynAutoMultiMapping(DynamicMapping):
    """Dynamic multiprocessing + Algorithm 1 auto-scaling"""

    name = "dyn_auto_multi"
    workforce = DynamicWorkforce
    scaling = True
