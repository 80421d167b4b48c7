"""Shared machinery for all enactment mappings.

A :class:`Mapping` translates an abstract workflow into a concrete one and
enacts it (Figure 1).  Subclasses implement :meth:`Mapping._enact`; this
base class owns everything common to all mappings:

- validation and the legality gate (:meth:`Mapping._admit` raises what
  :func:`~repro.mappings.registry.refusal` returns: a stateful graph on a
  stateless-only mapping, a platform without Redis, an option the mapping
  lacks the capability for, a process count below its floor),
- construction of the run-wide :class:`~repro.core.context.ExecutionContext`
  (clock, emulated cores, seeds),
- input normalization (how source PEs are driven), eagerly for the one-shot
  :meth:`Mapping.execute` path and lazily (:func:`iter_root_inputs`) for
  streaming submissions,
- graph optimization: the ``fuse`` / ``optimize`` / ``plan`` options
  resolve to a :class:`~repro.planner.Plan` (via the
  :class:`~repro.planner.Planner`) whose rewritten graph -- fused chains
  collapsed into :class:`~repro.core.fusion.FusedPE` operators, dead
  outputs pruned, cheap PEs replicated -- is what the mapping enacts;
  every mapping executes planned graphs transparently,
- output collection (emissions on unconnected ports become results), with
  an optional streaming tap so consumers can observe results as they are
  produced,
- metric capture (runtime + total process time via the activity meter),
- the session lifecycle (:meth:`Mapping.deploy` / :meth:`Mapping.submit`):
  enactment splits into *deploy* (spin up reusable resources: a warm
  :class:`~repro.runtime.workers.WorkerPool`, a redisim server), *feed*
  (drive sources -- up front or incrementally through a live
  :class:`~repro.jobs.Job`), *drain* (run to completion of the closed
  input) and *teardown* (:meth:`Deployment.teardown`), so consecutive
  submissions on one session skip the spin-up.
"""

from __future__ import annotations

import copy
import pickle
import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.autoscale.trace import ScalingTrace
from repro.core.concrete import ConcreteWorkflow, Delivery, instance_id
from repro.core.context import ExecutionContext
from repro.core.exceptions import MappingError
from repro.core.fusion import MemberMeter
from repro.core.graph import WorkflowGraph
from repro.core.pe import GenericPE
from repro.jobs import Job, JobCancelledError
from repro.mappings.registry import Capabilities, floor_refusal, refusal
from repro.metrics.result import RunResult
from repro.planner import Plan, Planner
from repro.net.server import RespTCPServer
from repro.platforms.profiles import LAPTOP, PlatformProfile
from repro.redisim.server import RedisServer
from repro.runtime.accounting import ActivityMeter
from repro.runtime.clock import Clock
from repro.runtime.workers import WorkerPool

InputSpec = Union[None, int, List[Any], Dict[str, Union[int, List[Any]]]]


def marshal(data: Any, copy_payloads: bool = False) -> Any:
    """Hand a payload across a queue boundary.

    With ``copy_payloads`` the payload is pickle round-tripped, as crossing
    a real process boundary would.  The default is pass-through: payload
    *ownership transfers* at emission (a producer never touches an emitted
    object again, matching dispel4py semantics), so the copy is not needed
    for correctness -- and under threads the pickle work would serialize on
    the GIL, distorting exactly the scaling behaviour being measured (real
    processes pay serialization cost in parallel).  The Redis mappings keep
    full client-side serialization, where it models a real client encoding
    its output buffer.
    """
    if copy_payloads:
        return pickle.loads(pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL))
    return data


def resolve_batch_size(options: Dict[str, Any]) -> int:
    """Validate and resolve the ``batch_size`` transport option.

    ``1`` (the default) means unbatched transport, byte-identical to the
    pre-batching engine; larger values let mappings ship up to that many
    tuples per queue/stream operation.
    """
    size = options.get("batch_size", 1)
    try:
        coerced = int(size)
    except (TypeError, ValueError):
        raise MappingError(f"batch_size must be an integer, got {size!r}") from None
    if coerced != size:
        raise MappingError(f"batch_size must be an integer, got {size!r}")
    if coerced < 1:
        raise MappingError(f"batch_size must be >= 1, got {coerced}")
    return coerced


def validate_tristate(name: str, value: Any) -> None:
    """Validate a ``False | True | "auto"`` planning option."""
    if value not in (False, True, "auto"):
        raise TypeError(f"{name} must be True, False or 'auto', got {value!r}")


def gate_plan_option(name: str, value: Any, caps: Capabilities) -> Any:
    """Validate one of ``fuse`` / ``optimize``; off where ``caps.fusion`` is.

    The planner rides on fusion's enactment plumbing, so both options share
    the fusion bit.  Without it only the soft ``"auto"`` gets this far
    (:func:`~repro.mappings.registry.refusal` refused ``True``): skipped.
    """
    validate_tristate(name, value)
    return value if caps.fusion else False


def resolve_plan(
    options: Dict[str, Any],
    caps: Capabilities,
    graph: WorkflowGraph,
    platform: PlatformProfile,
    provided: Optional[Dict[str, List[Dict[str, Any]]]] = None,
) -> Optional[Plan]:
    """The one path from the planning options to a :class:`Plan` (or None).

    Pops ``fuse``, ``optimize``, ``plan`` (a prebuilt :class:`Plan` to
    enact as-is) and ``wanted_outputs`` (the results keys the caller
    consumes, enabling dead-output elimination) out of ``options``; the
    two tri-states go through :func:`gate_plan_option`.  A prebuilt plan
    wins; ``optimize`` runs the full planner (profiling against
    ``provided`` when the inputs are already materialized); ``fuse`` is
    sugar for the fusion-only planner -- no profiling, no planner
    counters, byte-identical to the classic fusion rewrite.
    """
    fuse, optimize = (
        gate_plan_option(name, options.pop(name, False), caps)
        for name in ("fuse", "optimize")
    )
    plan = options.pop("plan", None)
    wanted_outputs = options.pop("wanted_outputs", None)
    if plan is not None:
        if not isinstance(plan, Plan):
            raise MappingError(f"plan= expects a repro.planner.Plan, got {plan!r}")
        return plan
    if optimize:
        return Planner.default().plan(
            graph, provided=provided, platform=platform, wanted_outputs=wanted_outputs
        )
    if fuse:
        return Planner.fusion_only().plan(graph, profile=False)
    return None


def resolve_batch_linger(options: Dict[str, Any]) -> float:
    """Resolve ``batch_linger_ms`` (real milliseconds) to real seconds.

    The linger bound is a *real-time* knob, like ``reclaim_idle_ms``: it
    caps how long a buffered tuple may wait for companions, which only
    matters on the wall clock.
    """
    linger_ms = options.get("batch_linger_ms", 0.0)
    try:
        linger_ms = float(linger_ms)
    except (TypeError, ValueError):
        raise MappingError(
            f"batch_linger_ms must be a number, got {linger_ms!r}"
        ) from None
    if linger_ms < 0:
        raise MappingError(f"batch_linger_ms must be >= 0, got {linger_ms}")
    return linger_ms / 1000.0


# --------------------------------------------------------------------- inputs

def first_input_port(pe: GenericPE) -> Optional[str]:
    """The port a bare data item is fed to (the "read item i" idiom)."""
    return next(iter(pe.inputconnections), None)


def expand_input_item(pe: GenericPE, item: Any) -> Dict[str, Any]:
    """One user-supplied item as a full input mapping for ``pe``.

    Dicts are taken as complete input mappings; any other value is fed to
    the PE's first input port.
    """
    if isinstance(item, dict):
        return item
    port = first_input_port(pe)
    if port is not None:
        return {port: item}
    raise MappingError(
        f"source PE {pe.name!r} has no input port to feed {item!r} to"
    )


def _expand_stream(pe: GenericPE, spec: Any) -> Iterator[Dict[str, Any]]:
    """Lazy expansion of one root's input spec into input mappings.

    Spec errors that are knowable up front (negative counts) raise here;
    per-item errors surface as the offending item is consumed.
    """
    first_port = first_input_port(pe)
    if spec is None:
        return iter(({},))
    if isinstance(spec, int):
        if spec < 0:
            raise MappingError(f"iteration count must be >= 0, got {spec}")
        if first_port is None:
            return ({} for _ in range(spec))
        return ({first_port: i} for i in range(spec))

    return (expand_input_item(pe, item) for item in spec)


def iter_root_inputs(
    graph: WorkflowGraph, inputs: InputSpec
) -> Dict[str, Iterator[Dict[str, Any]]]:
    """Lazy counterpart of :func:`normalize_inputs`: per-root *iterators*.

    The streaming submission path consumes these while the workflow is
    already running, so a generator-backed source feeds the live graph
    item by item instead of being materialized up front.  Spec-shape
    errors (unknown or non-source PE names, negative counts) still raise
    eagerly; per-item expansion errors surface on consumption.
    """
    roots = graph.roots()
    if not roots:
        raise MappingError(f"workflow {graph.name!r} has no source PE")
    if isinstance(inputs, dict):
        provided: Dict[str, Iterator[Dict[str, Any]]] = {}
        root_names = {pe.name for pe in roots}
        for name, spec in inputs.items():
            if name not in graph.pes:
                raise MappingError(f"inputs reference unknown PE {name!r}")
            if name not in root_names:
                raise MappingError(f"inputs reference non-source PE {name!r}")
            provided[name] = _expand_stream(graph.pe(name), spec)
        for pe in roots:
            provided.setdefault(pe.name, iter(()))
        return provided
    return {pe.name: _expand_stream(pe, inputs) for pe in roots}


def normalize_inputs(
    graph: WorkflowGraph, inputs: InputSpec
) -> Dict[str, List[Dict[str, Any]]]:
    """Resolve the user's input spec into per-root lists of input mappings.

    Accepted forms (mirroring dispel4py's ``process(graph, inputs=...)``):

    - ``None`` -- each source PE is invoked once with empty inputs.
    - ``int n`` -- each source PE is invoked ``n`` times; if the PE declares
      an input port, iteration indices ``0..n-1`` are fed to its first
      input port (the common "read item i" source idiom).
    - ``list`` (or any iterable) -- one invocation per item for every
      source; dict items are taken as full input mappings, other values are
      fed to the source's first input port.
    - ``dict`` -- maps source PE name to any of the above.

    This is the eager form used by :meth:`Mapping.execute`; streaming
    submissions use :func:`iter_root_inputs` to consume iterables lazily.
    """
    return {
        name: list(items) for name, items in iter_root_inputs(graph, inputs).items()
    }


class ResultsCollector:
    """Thread-safe sink for emissions on unconnected output ports.

    ``tap``, when given, is invoked as ``tap(key, value)`` after each
    collected emission (outside the collector lock) -- the streaming
    results channel of :meth:`repro.jobs.Job.results`.
    """

    def __init__(self, tap: Optional[Callable[[str, Any], None]] = None) -> None:
        self._lock = threading.Lock()
        self._data: Dict[str, List[Any]] = {}
        self._tap = tap

    def add(self, pe_name: str, port: str, value: Any) -> None:
        key = f"{pe_name}.{port}"
        with self._lock:
            self._data.setdefault(key, []).append(value)
        if self._tap is not None:
            self._tap(key, value)

    def as_dict(self) -> Dict[str, List[Any]]:
        with self._lock:
            return {key: list(values) for key, values in self._data.items()}


class Counters:
    """Thread-safe named counters for engine instrumentation."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: Dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._data[name] = self._data.get(name, 0) + amount

    def merge(self, tally: Dict[str, int]) -> None:
        """Add a worker's locally kept tally under one lock take.

        Zero amounts create no key, so a flushed tally leaves exactly the
        counters the same ``inc`` calls would have.
        """
        with self._lock:
            for name, amount in tally.items():
                if amount:
                    self._data[name] = self._data.get(name, 0) + amount

    def get(self, name: str) -> int:
        with self._lock:
            return self._data.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._data)


def instantiate(pe: GenericPE, index: int, num_instances: int, ctx: ExecutionContext) -> GenericPE:
    """Deep-copy a PE into one runnable instance bound to the run context."""
    clone = copy.deepcopy(pe)
    clone.instance_index = index
    clone.num_instances = num_instances
    clone.instance_id = instance_id(pe.name, index)
    clone.ctx = ctx
    clone.rng = ctx.rng_for(clone.instance_id)
    return clone


def graph_copy(pes: Dict[str, GenericPE], ctx: ExecutionContext) -> Dict[str, GenericPE]:
    """One worker's private, preprocessed copy of ``pes`` (Algorithm 1 line 49).

    Dynamic scheduling hands every worker the whole graph, so each PE is
    instantiated as the sole instance ``(0, 1)`` of itself.
    """
    copies = {name: instantiate(pe, 0, 1, ctx) for name, pe in pes.items()}
    for pe in copies.values():
        pe.preprocess()
    return copies


def dispatch_emissions(
    concrete: ConcreteWorkflow,
    collector: ResultsCollector,
    pe_name: str,
    index: int,
    emissions: List[Tuple[str, Any]],
) -> List[Delivery]:
    """Route one invocation's emissions; collect unconnected-port output.

    A PE may declare ``collector_aliases`` (fused port -> original
    ``(pe, port)`` pair, see :class:`repro.core.fusion.FusedPE`): emissions
    on an unconnected aliased port are credited to the original results
    key, so a fused run reports the same output keys as an unfused one.
    It may also declare ``collector_drops`` (a set of port names): the
    planner marks ports whose output nothing consumes -- dead-output
    elimination, fan-out replica ports serving other branches -- and
    emissions on them are discarded instead of collected.
    """
    deliveries: List[Delivery] = []
    pe = concrete.graph.pes.get(pe_name)
    aliases = getattr(pe, "collector_aliases", None)
    drops = getattr(pe, "collector_drops", None)
    for port, data in emissions:
        if concrete.connected(pe_name, port):
            deliveries.extend(concrete.route_output(pe_name, index, port, data))
        elif aliases and port in aliases:
            original_pe, original_port = aliases[port]
            collector.add(original_pe, original_port, data)
        elif drops and port in drops:
            pass
        else:
            collector.add(pe_name, port, data)
    return deliveries


# ------------------------------------------------------------------- sessions

class Deployment:
    """Warm, reusable enactment resources of one mapping.

    The *deploy* stage of the session lifecycle: whatever survives between
    submissions lives here -- a pre-spawned :class:`WorkerPool` for the
    pool-driven mappings, a redisim :class:`RedisServer` for the Redis
    mappings.  A deployment starts *cold* (``warm=False``); the engine
    flips it warm when a later submission reuses it, so per-run counters
    (``deploy_cold`` / ``deploy_warm``) record whether the spin-up was
    skipped.
    """

    def __init__(
        self,
        mapping_name: str,
        processes: int,
        platform: PlatformProfile,
        pool: Optional[WorkerPool] = None,
        redis_server: Optional[RedisServer] = None,
        net_server: Optional[RespTCPServer] = None,
    ) -> None:
        self.mapping_name = mapping_name
        self.processes = processes
        self.platform = platform
        self.pool = pool
        self.redis_server = redis_server
        self.net_server = net_server
        #: True once a later submission reuses this deployment (the
        #: spin-up it represents was skipped).
        self.warm = False

    def compatible(
        self, mapping_name: str, processes: int, platform: PlatformProfile
    ) -> bool:
        """Whether a submission with these settings can reuse this deployment."""
        return (
            self.mapping_name == mapping_name
            and self.processes == processes
            and self.platform == platform
        )

    def teardown(self, timeout: float = 5.0) -> None:
        """Release the warm resources (idempotent)."""
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.close()
            pool.join(timeout=timeout)
        # The TCP front-end goes down before the keyspace it fronts, so
        # connection threads unwind against a still-open server.
        net_server, self.net_server = self.net_server, None
        if net_server is not None:
            net_server.close()
        server, self.redis_server = self.redis_server, None
        if server is not None:
            server.close()

    def __repr__(self) -> str:
        parts = [f"Deployment({self.mapping_name!r}, p={self.processes}"]
        if self.pool is not None:
            parts.append("pool")
        if self.redis_server is not None:
            parts.append("redis")
        if self.net_server is not None:
            parts.append(f"tcp@{self.net_server.address}")
        return ", ".join(parts) + (", warm)" if self.warm else ", cold)")


class DeploymentPool:
    """Up to ``size`` warm :class:`Deployment` slots of one mapping.

    Generalizes the engine's single warm session into *pooled leasing*:
    :meth:`try_acquire` hands out an idle deployment (deploying a fresh one
    while below capacity), :meth:`release` returns it for the next job.  The
    :class:`~repro.engine.Engine` keeps a size-1 pool per mapping (busy ->
    ephemeral cold fallback, the PR-5 contract); the
    :class:`~repro.scheduler.JobScheduler` keeps size-N pools and queues
    jobs instead of falling back.

    A leased deployment is exclusive to one job.  Idle deployments that no
    longer match the requested settings (processes / platform changed) are
    torn down and replaced cold.  Deploys happen outside the pool lock so a
    slow spin-up never blocks releases or unrelated acquires.
    """

    def __init__(
        self,
        mapping: "Mapping",
        size: int = 1,
        on_release: Optional[Callable[[], None]] = None,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self._mapping = mapping
        self._size = size
        self._on_release = on_release
        self._lock = threading.Lock()
        self._idle: List[Deployment] = []
        self._leased: List[Deployment] = []
        self._deploying = 0
        self._closed = False

    @property
    def size(self) -> int:
        """Maximum number of concurrently live deployments."""
        return self._size

    @property
    def deployment(self) -> Optional[Deployment]:
        """The pool's sole live deployment, or ``None`` when cold.

        Compatibility accessor for size-1 (engine session) pools; with a
        larger pool it returns an arbitrary live deployment.
        """
        with self._lock:
            live = self._idle + self._leased
            return live[0] if live else None

    def free_slots(self) -> int:
        """Slots a :meth:`try_acquire` could fill right now without waiting."""
        with self._lock:
            if self._closed:
                return 0
            busy = len(self._leased) + self._deploying
            return max(0, self._size - busy)

    def try_acquire(
        self, processes: int, platform: PlatformProfile
    ) -> Tuple[Optional[Deployment], bool]:
        """Lease a deployment, or report the pool busy.

        Returns ``(deployment, busy)``: a compatible idle deployment (now
        flagged ``warm``), a freshly deployed cold one while below capacity,
        or ``(None, True)`` when every slot is leased/deploying.  A closed
        pool returns ``(None, False)`` -- the caller runs ephemerally.
        Stale idle deployments (incompatible settings) are torn down and
        their slots reused.
        """
        stale: List[Deployment] = []
        with self._lock:
            if self._closed:
                return None, False
            keep: List[Deployment] = []
            for candidate in self._idle:
                if candidate.compatible(self._mapping.name, processes, platform):
                    keep.append(candidate)
                else:
                    stale.append(candidate)
            self._idle = keep
            if self._idle:
                deployment = self._idle.pop()
                # Reused, so the spin-up is already paid: this submission
                # (and any later one) counts as warm.
                deployment.warm = True
                self._leased.append(deployment)
                for doomed in stale:
                    doomed.teardown()
                return deployment, False
            if len(self._leased) + self._deploying >= self._size:
                busy = not stale  # a torn-down stale slot frees capacity
                if busy:
                    return None, True
            self._deploying += 1
        for doomed in stale:
            doomed.teardown()
        # Deploy outside the pool lock: spinning up a worker pool / redisim
        # server must not block releases (or close()) meanwhile.  The
        # ``_deploying`` count reserves our slot, so nobody races us.
        try:
            deployment = self._mapping.deploy(processes, platform)
        except BaseException:
            with self._lock:
                self._deploying -= 1
            raise
        with self._lock:
            self._deploying -= 1
            if not self._closed:
                self._leased.append(deployment)
                return deployment, False
        # The pool closed underneath us: run this one job ephemerally.
        deployment.teardown()
        return None, False

    def prewarm(
        self, processes: int, platform: PlatformProfile, count: Optional[int] = None
    ) -> int:
        """Deploy idle capacity ahead of demand; returns deployments added.

        Fills up to ``count`` free slots (default: all of them).  Prewarmed
        deployments count ``deploy_warm`` on their first lease -- the
        spin-up happened here, outside any job.
        """
        added = 0
        budget = self._size if count is None else count
        while added < budget:
            with self._lock:
                if self._closed:
                    break
                live = len(self._idle) + len(self._leased) + self._deploying
                if live >= self._size:
                    break
                self._deploying += 1
            try:
                deployment = self._mapping.deploy(processes, platform)
            except BaseException:
                with self._lock:
                    self._deploying -= 1
                raise
            deployment.warm = True
            with self._lock:
                self._deploying -= 1
                if self._closed:
                    break
                self._idle.append(deployment)
                added += 1
        else:
            return added
        deployment.teardown()  # closed mid-prewarm
        return added

    def release(self, deployment: Deployment, reusable: bool = True) -> None:
        """Return a leased deployment; non-reusable ones are torn down.

        Failed jobs forfeit their deployment's warmth (``reusable=False``)
        so a poisoned worker pool never serves the next job.  Releasing a
        deployment the pool no longer tracks (closed meanwhile) tears it
        down regardless.  Fires the pool's ``on_release`` callback last, so
        schedulers can re-run admission.
        """
        teardown = None
        with self._lock:
            if deployment in self._leased:
                self._leased.remove(deployment)
                if reusable and not self._closed:
                    self._idle.append(deployment)
                else:
                    teardown = deployment
            else:
                teardown = deployment
            callback = self._on_release
        if teardown is not None:
            teardown.teardown()
        if callback is not None:
            callback()

    def close(self) -> None:
        """Tear down every tracked deployment; the pool refuses further leases.

        Deployments still leased to straggler jobs are torn down too (the
        owner gives jobs a grace period first); their eventual
        :meth:`release` is a no-op teardown.  Idempotent.
        """
        with self._lock:
            self._closed = True
            doomed = self._idle + self._leased
            self._idle, self._leased = [], []
        for deployment in doomed:
            deployment.teardown()

    def __repr__(self) -> str:
        with self._lock:
            state = "closed" if self._closed else "open"
            return (
                f"DeploymentPool({self._mapping.name!r}, size={self._size}, "
                f"idle={len(self._idle)}, leased={len(self._leased)}, {state})"
            )


class LiveFeed:
    """Live input bridge between a :class:`~repro.jobs.Job` and its enactment.

    The *feed* stage of the session lifecycle.  Construction carries the
    lazy initial inputs (:func:`iter_root_inputs`); the enacting mapping
    calls :meth:`attach` once its input channels exist, which drains the
    initial iterators through the sink *while the workflow is already
    running* and then forwards live :meth:`push` calls (from
    ``Job.send``) directly.  :meth:`close` marks end-of-stream; unbound
    sources stay live until then.
    """

    def __init__(
        self,
        initial: Dict[str, Iterator[Dict[str, Any]]],
        cancelled: threading.Event,
    ) -> None:
        self._initial = initial
        self._cancelled = cancelled
        self._lock = threading.Lock()
        self._pending: List[Tuple[str, Dict[str, Any]]] = []
        self._sink: Optional[Callable[[str, Dict[str, Any]], None]] = None
        self._on_close: Optional[Callable[[], None]] = None
        self._closed = False

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def attach(
        self,
        sink: Callable[[str, Dict[str, Any]], None],
        on_close: Callable[[], None],
    ) -> None:
        """Mapping side: start delivery into the running enactment.

        Drains the lazy initial inputs through ``sink`` first (stopping
        early on cancellation), then atomically flushes anything buffered
        by concurrent ``push`` calls and switches to direct delivery.
        ``on_close`` fires exactly once when the input closes -- possibly
        immediately, if it already did.
        """
        for root, items in self._initial.items():
            for item in items:
                if self._cancelled.is_set():
                    break
                sink(root, item)
            if self._cancelled.is_set():
                break
        with self._lock:
            self._sink = sink
            self._on_close = on_close
            pending, self._pending = self._pending, []
            for root, item in pending:
                sink(root, item)
            closed = self._closed
        if closed:
            on_close()

    def push(self, root: str, item: Dict[str, Any]) -> None:
        """Job side: deliver one live input mapping to ``root``."""
        with self._lock:
            if self._closed:
                raise RuntimeError("input is closed")
            if self._sink is None:
                self._pending.append((root, item))
                return
            self._sink(root, item)

    def close(self) -> None:
        """Signal end-of-stream (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            on_close = self._on_close
        if on_close is not None:
            on_close()


class StreamControl:
    """Cancellation plumbing shared by a job handle and its enactment.

    Mappings register :meth:`on_cancel` hooks (close channels, broadcast
    pills) that fire exactly once when :meth:`cancel` is called -- or
    immediately, if it already was.  Worker loops poll :attr:`cancelled`.
    """

    def __init__(self) -> None:
        self.cancelled = threading.Event()
        self._lock = threading.Lock()
        self._hooks: List[Callable[[], None]] = []

    def on_cancel(self, hook: Callable[[], None]) -> None:
        with self._lock:
            if not self.cancelled.is_set():
                self._hooks.append(hook)
                return
        hook()

    def cancel(self) -> None:
        with self._lock:
            if self.cancelled.is_set():
                return
            self.cancelled.set()
            hooks, self._hooks = self._hooks, []
        for hook in hooks:
            hook()


class EnactmentState:
    """Everything :meth:`Mapping._enact` needs, bundled.

    ``feed`` / ``control`` / ``pool`` are only set on streaming
    submissions: the live input bridge, the cancellation plumbing, and --
    bound at launch -- the leased deployment's warm worker pool (``None``
    means spin up an ephemeral one).
    """

    def __init__(
        self,
        graph: WorkflowGraph,
        provided: Dict[str, Any],
        processes: int,
        ctx: ExecutionContext,
        platform: PlatformProfile,
        meter: ActivityMeter,
        collector: ResultsCollector,
        counters: Counters,
        options: Dict[str, Any],
        feed: Optional[LiveFeed] = None,
        control: Optional[StreamControl] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.graph = graph
        self.provided = provided
        self.processes = processes
        self.ctx = ctx
        self.platform = platform
        self.meter = meter
        self.collector = collector
        self.counters = counters
        self.options = options
        self.feed = feed
        self.control = control
        self.pool = pool
        #: Member-level meter when the fusion rewrite ran (else None).
        self.member_meter: Optional[MemberMeter] = None
        #: Original root name -> fused root name (identity when unfused).
        self.root_rename: Dict[str, str] = {}
        self.errors: List[BaseException] = []
        self._errors_lock = threading.Lock()

    @property
    def clock(self) -> Clock:
        return self.ctx.clock

    @property
    def streaming(self) -> bool:
        """True when this enactment runs the live streaming path."""
        return self.feed is not None

    def cancelled(self) -> bool:
        """True once the owning job was cancelled (never for execute())."""
        return self.control is not None and self.control.cancelled.is_set()

    def record_error(self, exc: BaseException) -> None:
        with self._errors_lock:
            self.errors.append(exc)

    def raise_errors(self) -> None:
        with self._errors_lock:
            if self.errors:
                first = self.errors[0]
                raise MappingError(
                    f"{len(self.errors)} worker error(s); first: {first!r}"
                ) from first


@contextmanager
def live_feeder(state: EnactmentState, feed: Callable[[], None]) -> Iterator[None]:
    """Run a streaming enactment's *feed* stage alongside the ``with`` body.

    ``feed`` (the mapping's ``state.feed.attach(...)`` wrapper) gets its
    own thread so a *blocked* input iterable cannot pin the driver: the
    body joins the workers meanwhile, and on exit the feeder gets a
    bounded grace period.  A cancelled job abandons a still-blocked feeder
    immediately (daemon); otherwise one that never finishes is an error.
    """
    feeder = threading.Thread(target=feed, name=f"feed-{state.graph.name}", daemon=True)
    feeder.start()
    try:
        yield
    finally:
        feeder.join(timeout=0.1 if state.cancelled() else 5.0)
        if feeder.is_alive() and not state.cancelled():
            state.record_error(TimeoutError("live input feeder did not finish"))


def run_workers(
    state: EnactmentState, calls: List[Tuple[str, Callable[..., None], tuple]]
) -> None:
    """Run one long-lived ``(name, func, args)`` call per worker; bounded join.

    Warm, the calls go to the deployment's pool (``state.pool``); cold,
    each gets a daemon thread called ``name``.  (Not an ephemeral
    :class:`WorkerPool`: its dispatch hand-off is paid while the first
    workers already run, and at 64 workers that cost ``dyn_multi`` ~28%
    process time on fig10's 10X workload.)  A worker still running after
    ``join_timeout`` is recorded as a :class:`TimeoutError` and the join
    stops waiting.
    """
    timeout = state.options.get("join_timeout", 300.0)
    if state.pool is not None:
        handles = [state.pool.apply_async(func, args) for _name, func, args in calls]
        waits = [(handle.wait, handle.ready) for handle in handles]
    else:
        threads = [
            threading.Thread(target=func, args=args, name=name, daemon=True)
            for name, func, args in calls
        ]
        for thread in threads:
            thread.start()
        waits = [(thread.join, lambda t=thread: not t.is_alive()) for thread in threads]
    for (name, _func, _args), (wait, finished) in zip(calls, waits):
        wait(timeout=timeout)
        if not finished():
            state.record_error(
                TimeoutError(f"worker {name} did not finish in {timeout}s")
            )
            break


class Mapping:
    """Base class of all enactment engines."""

    #: Registry name (``multi``, ``dyn_multi``, ...).
    name = "abstract"
    #: What this mapping can enact -- the one declaration that
    #: :meth:`deploy`, :meth:`submit` and the feature gates read.  Set by
    #: :func:`~repro.mappings.registry.register_mapping`.
    capabilities = Capabilities()

    @classmethod
    def process_floor(cls, graph: WorkflowGraph) -> int:
        """Fewest processes ``graph`` can be enacted on (more where
        instances are pinned to processes: ``multi``, ``hybrid_redis``)."""
        return 1

    # ------------------------------------------------------------- lifecycle
    def deploy(
        self, processes: int, platform: PlatformProfile = LAPTOP, **options: Any
    ) -> Deployment:
        """Spin up this mapping's reusable resources (the *deploy* stage).

        The returned :class:`Deployment` is what a session keeps warm
        across consecutive submissions: a pre-spawned worker pool for the
        streaming mappings (their live submissions run on it), a redisim
        server for the Redis-backed ones -- fronted by a RESP TCP listener
        on the networked ones, so worker OS processes can join by address
        -- and nothing for mappings with no spin-up cost.
        Callers own the deployment and must :meth:`Deployment.teardown`
        it; :meth:`repro.engine.Engine` does this for its sessions.
        """
        if processes < 1:
            raise MappingError(f"processes must be >= 1, got {processes}")
        caps = self.capabilities
        pool = None
        if caps.streaming:
            pool = WorkerPool(processes, name=f"{self.name}-warm")
        server = RedisServer() if caps.requires_redis else None
        net_server = None
        if caps.networked:
            # Front the deployment's keyspace with a TCP listener on an
            # ephemeral loopback port; worker processes join by address.
            net_server = RespTCPServer(server).start()
        return Deployment(
            self.name, processes, platform,
            pool=pool, redis_server=server, net_server=net_server,
        )

    def execute(
        self,
        graph: WorkflowGraph,
        inputs: InputSpec = None,
        processes: int = 1,
        platform: PlatformProfile = LAPTOP,
        time_scale: float = 1.0,
        seed: int = 0,
        **options: Any,
    ) -> RunResult:
        """Enact ``graph`` and return the measured :class:`RunResult`.

        The one-shot path: inputs are taken in full up front, enactment
        runs on the calling thread with an ephemeral (cold) deployment,
        and results surface only in the returned record -- exactly the
        pre-session contract.  Long-lived callers use :meth:`submit`.

        Parameters
        ----------
        graph:
            The abstract workflow.
        inputs:
            How source PEs are driven; see :func:`normalize_inputs`.
        processes:
            Total worker processes (the paper's x-axis).
        platform:
            Emulated platform profile (cores, speeds, latencies).
        time_scale:
            Nominal-to-real time multiplier for all synthetic durations.
        seed:
            Run-level random seed (per-instance RNGs derive from it).
        options:
            Mapping-specific tuning.  Each mapping reads the keys it knows
            and ignores the rest: an unknown or misspelled key runs
            silently with the default (the :class:`~repro.engine.Engine`
            facade only catches look-alikes of its own settings).
        """
        options = dict(options)
        provided, plan = self._admit(
            graph, inputs, processes, platform, options, eager=True
        )
        state = self._build_state(
            graph, provided, processes, platform, time_scale, seed, options,
            plan,
        )
        return self._run_measured(state)

    def submit(
        self,
        graph: WorkflowGraph,
        inputs: InputSpec = None,
        processes: int = 1,
        platform: PlatformProfile = LAPTOP,
        time_scale: float = 1.0,
        seed: int = 0,
        deployment: Optional[Deployment] = None,
        deadline: Optional[float] = None,
        stream: Optional[bool] = None,
        results_channel: bool = True,
        busy_fallback: bool = False,
        **options: Any,
    ) -> Job:
        """Start enacting ``graph`` and return a live :class:`Job` handle.

        :meth:`prepare` (which documents ``inputs`` / ``stream`` /
        ``results_channel`` / ``deadline``) followed at once by the job's
        launch on ``deployment``: a warm :class:`Deployment` from
        :meth:`deploy`, or ``None`` to run cold with ephemeral resources,
        exactly like :meth:`execute`.  ``busy_fallback=True`` marks a cold
        ephemeral run taken only because the caller's warm slot was
        occupied (the ``deploy_busy_fallback`` counter), distinguishing it
        from a plain first-use cold deploy.  Every refusal raises here,
        synchronously; enactment errors surface from ``job.wait()`` /
        ``job.results()``.
        """
        job = self.prepare(
            graph, inputs, processes, platform, time_scale, seed,
            deadline=deadline, stream=stream, results_channel=results_channel,
            **options,
        )
        job._launch(deployment, busy_fallback)
        return job

    def prepare(
        self,
        graph: WorkflowGraph,
        inputs: InputSpec = None,
        processes: int = 1,
        platform: PlatformProfile = LAPTOP,
        time_scale: float = 1.0,
        seed: int = 0,
        deadline: Optional[float] = None,
        stream: Optional[bool] = None,
        results_channel: bool = True,
        **options: Any,
    ) -> Job:
        """Validate a submission and build its :class:`Job`, not yet enacting.

        Everything :meth:`submit` does short of touching a deployment, so
        every refusal -- the rule set ``select_mapping`` selects with,
        :func:`~repro.mappings.registry.refusal` -- is raised here,
        synchronously and for ``Engine.submit`` and ``JobScheduler.submit``
        alike, before a deployment, thread or timer exists.  The
        returned job is ``PENDING`` and already accepts ``send`` /
        ``close_input`` / ``cancel``; ``job._launch(deployment)`` starts its
        driver thread (``job-<mapping>-<workflow>``).  A scheduler prepares
        at submit time and launches at admission, so the handle it returned
        is the one that runs.

        On streaming mappings (``Capabilities.streaming``) the launched
        workflow runs on the driver thread while input is still open:
        initial ``inputs`` are consumed *lazily* into the running graph,
        then whatever ``job.send`` buffered before the launch, then live
        sends; ``job.close_input`` ends the stream, and ``job.results()``
        yields outputs as the collector receives them.  Other mappings
        buffer ingestion and enact once the input closes (results still
        stream).  ``stream=False`` forces the buffered wiring even on a
        streaming mapping -- the classic enactment path, byte-identical
        counters, ``inputs=None`` read as one empty invocation per source
        (a live submission reads it as "no initial inputs") -- which is
        what the ``Engine.run()`` shim uses.  ``results_channel=False``
        skips the collector tap for wait-only callers (the shim again):
        ``job.results()`` then ends without yielding, instead of buffering
        every output a second time for a consumer that never comes.
        ``deadline`` (real seconds, counted from now) cancels the job when
        exceeded, launched or not.
        """
        options = dict(options)
        caps = self.capabilities
        if deadline is not None and deadline <= 0:
            # Validated before any wiring: a bad deadline must not leave a
            # wired handle behind.
            raise ValueError(f"deadline must be > 0 seconds, got {deadline}")
        if inputs is None and stream is not False:
            # For a *live* submission ``inputs=None`` means "no initial
            # inputs, the sources are driven by send()" -- whether ingestion
            # streams or buffers -- not the one-shot convention of a single
            # empty invocation per source (drive a producer-style source
            # explicitly with ``inputs=[{}]`` or ``job.send(pe, [{}])``).
            # ``stream=False`` is the classic path and keeps the convention.
            inputs = []
        if stream is None:
            stream = caps.streaming
        elif stream and not caps.streaming:
            raise MappingError(
                f"mapping {self.name!r} does not support live streaming "
                f"submissions; drop stream=True for buffered ingestion"
            )
        # The buffered wiring materializes its inputs now, so the planner
        # profiles against them; a streaming submission must not consume
        # its (possibly lazy) input iterators and plans without a sample.
        provided, plan = self._admit(
            graph, inputs, processes, platform, options, eager=not stream
        )
        job = Job(mapping=self.name, workflow=graph.name, streaming=stream)
        tap = job._emit if results_channel else None
        wire = self._wire_streaming if stream else self._wire_buffered
        send, close, cancel, drive = wire(
            job, graph, provided, processes, platform, time_scale, seed,
            options, plan, tap,
        )

        def launch(deployment: Optional[Deployment], busy_fallback: bool) -> None:
            if deployment is not None:
                if not deployment.compatible(self.name, processes, platform):
                    raise MappingError(
                        f"deployment {deployment!r} is not compatible with a "
                        f"{self.name!r} submission at {processes} processes"
                    )
                # ``options`` is the dict the enactment reads: point it at
                # the leased deployment's servers.
                if deployment.redis_server is not None and caps.requires_redis:
                    options.setdefault("redis_server", deployment.redis_server)
                if deployment.net_server is not None and caps.networked:
                    options.setdefault("net_server", deployment.net_server)
            threading.Thread(
                target=drive,
                args=(deployment, busy_fallback),
                name=f"job-{self.name}-{graph.name}",
                daemon=True,
            ).start()

        job._wire(send, close, cancel, launch)
        job._arm_deadline(deadline)
        return job

    # -------------------------------------------------- submission internals
    def _wire_streaming(
        self,
        job: Job,
        graph: WorkflowGraph,
        provided: Dict[str, Iterator[Dict[str, Any]]],
        processes: int,
        platform: PlatformProfile,
        time_scale: float,
        seed: int,
        options: Dict[str, Any],
        plan: Optional[Plan],
        tap: Optional[Callable[[str, Any], None]],
    ) -> Tuple[Callable, Callable, Callable, Callable]:
        """The live wiring: ``(send, close, cancel, drive)`` over a LiveFeed.

        The feed holds the lazy initial inputs and buffers every push until
        the launched enactment attaches its sink, so sends made while the
        job waits for admission land behind the initial inputs and ahead of
        later ones.
        """
        control = StreamControl()
        state = self._build_state(
            graph, provided, processes, platform, time_scale, seed, options,
            plan, tap=tap, control=control,
        )
        feed = LiveFeed(state.provided, cancelled=control.cancelled)
        state.feed = feed
        roots = {pe.name for pe in graph.roots()}

        def send(target: Any, tuples: Any) -> None:
            root, items = expand_send(graph, target, tuples, roots)
            root = state.root_rename.get(root, root)
            for item in items:
                feed.push(root, item)

        def drive(deployment: Optional[Deployment], busy_fallback: bool) -> None:
            job._mark_running()
            if deployment is not None:
                state.pool = deployment.pool
            self._note_deployment(state, deployment, busy_fallback)
            try:
                result = self._run_measured(state)
            except JobCancelledError:
                job._finish_cancelled()
            except BaseException as exc:  # noqa: BLE001 - driver boundary
                if control.cancelled.is_set():
                    # Cancellation unwinds workers mid-flight; whatever
                    # error that produced is the cancel, not a failure.
                    job._finish_cancelled()
                else:
                    job._fail(exc)
            else:
                job._finish(result)

        return send, feed.close, control.cancel, drive

    def _wire_buffered(
        self,
        job: Job,
        graph: WorkflowGraph,
        buffer: Dict[str, List[Dict[str, Any]]],
        processes: int,
        platform: PlatformProfile,
        time_scale: float,
        seed: int,
        options: Dict[str, Any],
        plan: Optional[Plan],
        tap: Optional[Callable[[str, Any], None]],
    ) -> Tuple[Callable, Callable, Callable, Callable]:
        """The buffered wiring: ``(send, close, cancel, drive)`` over a dict.

        ``buffer`` holds the initial inputs, materialized by :meth:`_admit`
        (surfacing spec errors at submit time); sends append under the lock
        until the input closes, launched or not, and the driver enacts the
        lot once it has.
        """
        buffer_lock = threading.Lock()
        closed = threading.Event()
        cancelled = threading.Event()
        roots = {pe.name for pe in graph.roots()}

        def send(target: Any, tuples: Any) -> None:
            root, items = expand_send(graph, target, tuples, roots)
            with buffer_lock:
                buffer.setdefault(root, []).extend(items)

        def cancel() -> None:
            cancelled.set()
            closed.set()

        def drive(deployment: Optional[Deployment], busy_fallback: bool) -> None:
            closed.wait()
            if cancelled.is_set():
                job._finish_cancelled()
                return
            job._mark_running()
            try:
                with buffer_lock:
                    provided = {root: list(items) for root, items in buffer.items()}
                state = self._build_state(
                    graph, provided, processes, platform, time_scale, seed,
                    options, plan, tap=tap,
                )
                self._note_deployment(state, deployment, busy_fallback)
                result = self._run_measured(state)
            except BaseException as exc:  # noqa: BLE001 - driver boundary
                job._fail(exc)
            else:
                # A cancel that landed mid-run cannot interrupt a buffered
                # enactment; it wins anyway -- the result is discarded by
                # the CANCELLED-state guard in Job._resolve.
                job._finish(result)

        return send, closed.set, cancel, drive

    @staticmethod
    def _note_deployment(
        state: EnactmentState,
        deployment: Optional[Deployment],
        busy_fallback: bool = False,
    ) -> None:
        """Counter-stamp how this submission got its enactment resources.

        A provided deployment counts ``deploy_warm`` (reused) or
        ``deploy_cold`` (first use); an ephemeral run taken only because the
        caller's warm slot was busy counts ``deploy_busy_fallback``.
        """
        if deployment is not None:
            state.counters.inc("deploy_warm" if deployment.warm else "deploy_cold")
        elif busy_fallback:
            state.counters.inc("deploy_busy_fallback")

    # ------------------------------------------------------ enactment stages
    def _admit(
        self,
        graph: WorkflowGraph,
        inputs: InputSpec,
        processes: int,
        platform: PlatformProfile,
        options: Dict[str, Any],
        eager: bool,
    ) -> Tuple[Dict[str, Any], Optional[Plan]]:
        """The legality gate of execute() and prepare(): refuse, or plan.

        Raises what :func:`~repro.mappings.registry.refusal` returns
        (options, graph, platform), reads the inputs -- materialized when
        ``eager``, else lazy per-root iterators the planner never sees --
        resolves the plan, and holds ``processes`` against the floor of the
        graph that plan enacts.  Returns ``(provided, plan)``.
        """
        graph.validate()
        error = refusal(self, graph, platform, options=options)
        if error is not None:
            raise error
        provided = (normalize_inputs if eager else iter_root_inputs)(graph, inputs)
        plan = resolve_plan(
            options, self.capabilities, graph, platform, provided if eager else None
        )
        enacted = plan.graph if plan is not None and plan.transformed else graph
        error = floor_refusal(self, enacted, processes)
        if error is not None:
            raise error
        return provided, plan

    def _build_state(
        self,
        graph: WorkflowGraph,
        provided: Dict[str, Any],
        processes: int,
        platform: PlatformProfile,
        time_scale: float,
        seed: int,
        options: Dict[str, Any],
        plan: Optional[Plan],
        tap: Optional[Callable[[str, Any], None]] = None,
        control: Optional[StreamControl] = None,
    ) -> EnactmentState:
        """Assemble the run context (clock, collector, planned rewrite)."""
        clock = Clock(time_scale)
        ctx = ExecutionContext(
            clock=clock,
            cores=platform.make_core_limiter(),
            seed=seed,
            cpu_speed=platform.cpu_speed,
        )
        meter = ActivityMeter(clock)
        collector = ResultsCollector(tap=tap)
        counters = Counters()
        member_meter: Optional[MemberMeter] = None
        root_rename: Dict[str, str] = {}
        if plan is not None and plan.transformed:
            # Enact the plan's rewritten graph: an ordinary WorkflowGraph,
            # so every mapping executes it transparently.  Inputs were
            # normalized against the user's graph, then re-keyed onto the
            # rewritten sources (and pruned roots dropped).
            graph = plan.graph
            provided = plan.rename_inputs(provided)
            root_rename = dict(plan.member_to_fused)
            if plan.fused:
                member_meter = MemberMeter()
                ctx.pe_meter = member_meter
            for name, amount in plan.counters.items():
                counters.inc(name, amount)
        state = EnactmentState(
            graph=graph,
            provided=provided,
            processes=processes,
            ctx=ctx,
            platform=platform,
            meter=meter,
            collector=collector,
            counters=counters,
            options=options,
            control=control,
        )
        state.member_meter = member_meter
        state.root_rename = root_rename
        return state

    def _run_measured(self, state: EnactmentState) -> RunResult:
        """The *drain* stage: enact to completion and assemble the result."""
        clock = state.clock
        started = clock.now()
        trace = self._enact(state)
        runtime = clock.now() - started
        state.meter.close()
        if state.cancelled():
            raise JobCancelledError(f"job {state.graph.name!r} was cancelled")
        state.raise_errors()
        pe_times: Dict[str, float] = {}
        if state.member_meter is not None:
            pe_times = state.member_meter.times()
            for member, count in state.member_meter.tasks().items():
                state.counters.inc(f"member_tasks.{member}", count)
        return RunResult(
            mapping=self.name,
            workflow=state.graph.name,
            processes=state.processes,
            runtime=runtime,
            process_time=state.meter.total(),
            outputs=state.collector.as_dict(),
            counters=state.counters.as_dict(),
            trace=trace,
            per_worker_time=state.meter.per_worker(),
            pe_times=pe_times,
        )

    def _enact(self, state: EnactmentState) -> Optional[ScalingTrace]:
        """Run the workflow; return a scaling trace if the mapping has one."""
        raise NotImplementedError


def resolve_send_target(
    graph: WorkflowGraph, target: Any, roots: Optional[set] = None
) -> Tuple[str, Optional[str]]:
    """Resolve a ``Job.send`` target to ``(source PE name, port or None)``.

    Accepts a source PE object, its name, or ``"<pe>.<port>"`` addressing
    a specific input port.  Non-source PEs are rejected: mid-graph
    injection would bypass the groupings of the in-edges.  ``roots`` is
    the pre-computed source-name set -- the graph is immutable once
    submitted, so hot send paths pass it instead of re-deriving it per
    call.
    """
    port: Optional[str] = None
    if isinstance(target, GenericPE):
        name = target.name
    elif isinstance(target, str):
        name = target
        if name not in graph.pes and "." in name:
            name, port = name.rsplit(".", 1)
    else:
        raise MappingError(
            f"cannot send to {target!r}: pass a source PE, its name, "
            f"or '<pe>.<port>'"
        )
    if name not in graph.pes:
        raise MappingError(f"send target references unknown PE {name!r}")
    if roots is None:
        roots = {pe.name for pe in graph.roots()}
    if name not in roots:
        raise MappingError(
            f"send target {name!r} is not a source PE of {graph.name!r}"
        )
    if port is not None and port not in graph.pe(name).inputconnections:
        raise MappingError(
            f"source PE {name!r} has no input port {port!r}"
        )
    return name, port


def expand_send(
    graph: WorkflowGraph, target: Any, tuples: Any, roots: Optional[set] = None
) -> Tuple[str, List[Dict[str, Any]]]:
    """Expand one ``Job.send`` call into (root name, input mappings)."""
    name, port = resolve_send_target(graph, target, roots)
    pe = graph.pe(name)
    if port is not None:
        return name, [{port: item} for item in tuples]
    return name, [expand_input_item(pe, item) for item in tuples]
