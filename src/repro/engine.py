"""The :class:`Engine` facade: configure once, run many workflows.

The facade replaces the kwargs-heavy ``run(graph, mapping=..., ...)`` call
with a reusable object that resolves the platform and the mapping registry
once and is then cheap to call per workflow::

    from repro import Engine, SERVER

    engine = Engine(mapping="auto", platform=SERVER, processes=12,
                    time_scale=0.02)
    result = engine.run(graph, inputs=100)          # auto-selects mapping
    again = engine.run(graph2, inputs=50, seed=7)   # per-run overrides

``mapping="auto"`` resolves per graph through
:func:`repro.mappings.select_mapping`: ``hybrid_redis`` for stateful
workflows, a dynamic auto-scaling mapping otherwise.  Engines accept
:class:`~repro.core.graph.WorkflowGraph`, :class:`~repro.core.fluent.Pipeline`
and fluent chains alike, support the context-manager protocol, and keep a
cache of instantiated mapping engines across runs.

Streaming sessions
------------------
:meth:`Engine.submit` starts enactment immediately and returns a
:class:`~repro.jobs.Job` handle: ``job.send(...)`` pushes tuples into the
live workflow, ``job.results()`` yields outputs as they are produced, and
``job.wait()`` preserves the one-shot contract.  Each engine keeps one
*session* per mapping -- a warm :class:`~repro.mappings.base.Deployment`
(worker pool, redisim server) reused by consecutive submissions so only
the first pays the spin-up (``deploy_cold`` vs ``deploy_warm`` counters).
:meth:`Engine.run` is a ``submit().wait()`` shim over an ephemeral cold
deployment, byte-identical to the pre-session engine.

:class:`RunConfig` is the frozen record of the engine's settings --
build one explicitly (``Engine.from_config``) when configurations are
stored or passed around.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.exceptions import UnsupportedFeatureError
from repro.core.fluent import coerce_graph
from repro.core.graph import WorkflowGraph
from repro.jobs import Job, JobState
from repro.mappings.base import (
    Deployment,
    DeploymentPool,
    InputSpec,
    Mapping,
    gate_plan_option,
)
from repro.mappings.registry import get_capabilities, get_mapping, select_mapping
from repro.metrics.result import RunResult
from repro.platforms.profiles import LAPTOP, PlatformProfile, get_platform

#: Sentinel mapping name triggering capability-based selection.
AUTO = "auto"


def _check_option_typos(options: Dict[str, Any]) -> None:
    """Reject option keys that look like misspelled RunConfig fields.

    Unknown keys normally pass through as mapping options, so a typo'd
    ``procesess=12`` would otherwise be silently ignored and the run would
    use the default process count.
    """
    import difflib

    config_fields = [f.name for f in fields(RunConfig)]
    for key in options:
        if key in config_fields:
            raise TypeError(
                f"{key!r} is an engine-level setting, not a mapping option; "
                f"set it on Engine(...) or with_options(...), not here"
            )
        close = difflib.get_close_matches(key, config_fields, n=1, cutoff=0.8)
        if close:
            raise TypeError(
                f"unknown engine argument {key!r}; did you mean {close[0]!r}? "
                f"(unrecognised keywords are forwarded to the mapping as "
                f"options, so typos would be silently ignored)"
            )


@dataclass(frozen=True)
class RunConfig:
    """Frozen engine configuration.

    Attributes
    ----------
    mapping:
        Registry name, or ``"auto"`` for capability-based selection.
    platform:
        A :class:`PlatformProfile` or its registry name.
    processes:
        Worker process budget per run.
    time_scale:
        Nominal-to-real multiplier for synthetic durations.
    seed:
        Default run seed (overridable per run).
    prefer:
        Ordered mapping preferences consulted by ``"auto"`` selection.
    batch_size:
        Transport granularity: up to this many tuples travel per queue item
        / Redis command on mappings that declare ``Capabilities.batching``.
        ``1`` (default) is unbatched -- byte-identical to the pre-batching
        engine.  Larger values amortize the per-tuple enactment overhead
        (the dominant cost of fine-grained streams) at the price of
        coarser scheduling granularity.
    batch_linger_ms:
        Upper bound (real milliseconds) a buffered tuple may wait for
        batch companions on buffered port-to-port transport (the static
        ``multi`` mapping); ``0`` disables the linger trigger.  Dynamic
        mappings batch within one invocation/fetch and never hold tuples
        back, so linger does not apply to them.
    fuse:
        Operator fusion (:mod:`repro.core.fusion`): collapse fusable 1:1
        PE chains into in-process ``FusedPE`` operators before enactment,
        removing the queue hop (and, on Redis mappings, the round trip
        and pickle) between chained PEs.  ``False`` (default) leaves the
        graph untouched -- byte-identical to the pre-fusion engine.
        ``True`` requires a mapping declaring ``Capabilities.fusion`` and
        fails otherwise; ``"auto"`` fuses where the mapping supports it
        and silently skips where it does not.
    optimize:
        Cost-based graph optimization (:mod:`repro.planner`): apply the
        full rewrite-rule planner -- chain fusion plus dead-output
        elimination, fan-out replication and grouping-corridor partial
        fusion -- under a profiled cost model, and enact the rewritten
        graph.  Workflow outputs are unchanged by contract (knob
        suggestions are advisory only).  Same tri-state as ``fuse``:
        ``True`` requires ``Capabilities.fusion``, ``"auto"`` skips
        silently on mappings without it.  ``fuse`` stays as the
        byte-identical fusion-only shim; ``optimize`` supersedes it when
        both are set.
    checkpoint_interval:
        Deliveries between state checkpoints of pinned stateful instances
        (recoverable mappings only).  Setting it enables checkpoint/restore
        on ``hybrid_redis``; ``None`` (default) leaves recovery off unless
        ``state_store`` is provided.  Counted in tuples, so it bounds the
        replay window identically at any ``batch_size``.
    state_store:
        Where instance snapshots live (a :class:`repro.state.StateStore`).
        Providing one enables checkpoint/restore at the default interval;
        ``None`` with checkpointing enabled uses a Redis-backed store on
        the run's own deployment.
    options:
        Mapping-specific tuning forwarded to every run.
    """

    mapping: str = AUTO
    platform: Union[PlatformProfile, str] = LAPTOP
    processes: int = 1
    time_scale: float = 1.0
    seed: int = 0
    prefer: Union[str, Sequence[str], None] = None
    batch_size: int = 1
    batch_linger_ms: float = 0.0
    fuse: Union[bool, str] = False
    optimize: Union[bool, str] = False
    checkpoint_interval: Optional[int] = None
    state_store: Optional[Any] = None
    options: Dict[str, Any] = field(default_factory=dict)

    def recovery_options(self) -> Dict[str, Any]:
        """The checkpoint/restore settings as mapping options (set fields only)."""
        opts: Dict[str, Any] = {}
        if self.checkpoint_interval is not None:
            opts["checkpoint_interval"] = self.checkpoint_interval
        if self.state_store is not None:
            opts["state_store"] = self.state_store
        return opts

    def transport_options(self) -> Dict[str, Any]:
        """The batching settings as mapping options (non-default only).

        Defaults stay *absent* from the options dict, so a default-configured
        engine hands every mapping exactly the options it did before
        batching existed.
        """
        opts: Dict[str, Any] = {}
        if self.batch_size != 1:
            opts["batch_size"] = self.batch_size
        if self.batch_linger_ms:
            opts["batch_linger_ms"] = self.batch_linger_ms
        return opts

    def fusion_options(self) -> Dict[str, Any]:
        """The fusion/optimizer settings as mapping options (if enabled).

        ``fuse=False`` / ``optimize=False`` stay absent, like the other
        transport defaults, so a default-configured engine hands mappings
        exactly the options it did before fusion existed.
        """
        requests = {"fuse": self.fuse, "optimize": self.optimize}
        return {
            name: gate_plan_option(name, value)
            for name, value in requests.items()
            if value is not False
        }

    def resolved_platform(self) -> PlatformProfile:
        """The platform as a :class:`PlatformProfile` (names looked up)."""
        if isinstance(self.platform, PlatformProfile):
            return self.platform
        return get_platform(self.platform)


class Engine:
    """Reusable enactment facade over the mapping registry.

    Parameters mirror :class:`RunConfig`; extra keyword arguments become
    mapping options (``Engine(mapping="dyn_auto_multi", session_chunk=16)``).
    """

    def __init__(
        self,
        mapping: str = AUTO,
        platform: Union[PlatformProfile, str] = LAPTOP,
        processes: int = 1,
        time_scale: float = 1.0,
        seed: int = 0,
        prefer: Union[str, Sequence[str], None] = None,
        batch_size: int = 1,
        batch_linger_ms: float = 0.0,
        fuse: Union[bool, str] = False,
        optimize: Union[bool, str] = False,
        checkpoint_interval: Optional[int] = None,
        state_store: Optional[Any] = None,
        options: Optional[Dict[str, Any]] = None,
        **extra_options: Any,
    ) -> None:
        merged_options = dict(options or {})
        merged_options.update(extra_options)
        _check_option_typos(merged_options)
        self.config = RunConfig(
            mapping=mapping,
            platform=platform,
            processes=processes,
            time_scale=time_scale,
            seed=seed,
            prefer=prefer,
            batch_size=batch_size,
            batch_linger_ms=batch_linger_ms,
            fuse=fuse,
            optimize=optimize,
            checkpoint_interval=checkpoint_interval,
            state_store=state_store,
            options=merged_options,
        )
        # One-time platform resolution; per-name engine cache across runs.
        self._platform = self.config.resolved_platform()
        self._engines: Dict[str, Mapping] = {}
        self._closed = False
        self._lock = threading.Lock()
        # One size-1 DeploymentPool per mapping: the warm *session* reused
        # by consecutive submissions (overlap falls back to ephemeral).
        self._sessions: Dict[str, DeploymentPool] = {}
        self._jobs: List[Job] = []

    @classmethod
    def from_config(cls, config: RunConfig) -> "Engine":
        """Build an engine from an explicit frozen :class:`RunConfig`.

        Equivalent to unpacking the config into the constructor; use it when
        configurations are stored or passed around.  Raises ``TypeError``
        when ``config.options`` contains keys that look like misspelled
        :class:`RunConfig` fields.
        """
        _check_option_typos(config.options)
        engine = cls.__new__(cls)
        engine.config = config
        engine._platform = config.resolved_platform()
        engine._engines = {}
        engine._closed = False
        engine._lock = threading.Lock()
        engine._sessions = {}
        engine._jobs = []
        return engine

    # ----------------------------------------------------------- resolution
    @property
    def platform(self) -> PlatformProfile:
        """The resolved :class:`PlatformProfile` this engine enacts on."""
        return self._platform

    def _ensure_open(self) -> None:
        """Every facade entry point refuses a closed engine, consistently."""
        if self._closed:
            raise RuntimeError("Engine is closed; create a new one")

    def resolve_mapping(
        self, graph: Any, processes: Optional[int] = None
    ) -> str:
        """The mapping name a run of ``graph`` would use (selection only)."""
        self._ensure_open()
        return self._resolve(
            coerce_graph(graph),
            self.config.mapping,
            processes if processes is not None else self.config.processes,
        )

    def _resolve(self, graph: WorkflowGraph, name: str, processes: int) -> str:
        """Shared selection path for :meth:`run` and :meth:`resolve_mapping`."""
        if name != AUTO:
            return name
        return select_mapping(
            graph,
            platform=self._platform,
            prefer=self.config.prefer,
            processes=processes,
        )

    def _engine_for(self, name: str) -> Mapping:
        engine = self._engines.get(name)
        if engine is None:
            engine = get_mapping(name)
            self._engines[name] = engine
        return engine

    # ------------------------------------------------------------------ run
    def run(
        self,
        workflow: Union[WorkflowGraph, Any],
        inputs: InputSpec = None,
        *,
        processes: Optional[int] = None,
        seed: Optional[int] = None,
        mapping: Optional[str] = None,
        time_scale: Optional[float] = None,
        **options: Any,
    ) -> RunResult:
        """Enact a workflow (graph, pipeline, or fluent chain).

        Engine-level settings apply unless overridden per run; ``options``
        merge over (and win against) the engine's configured options.

        A ``submit().wait()`` shim: the job runs on an ephemeral cold
        deployment (no session reuse, no extra counters), so one-shot runs
        stay byte-identical to the pre-session engine.  Long-lived callers
        ingesting or consuming incrementally use :meth:`submit`.
        """
        job = self._submit(
            workflow, inputs, processes=processes, seed=seed, mapping=mapping,
            time_scale=time_scale, deadline=None, warm=False, options=options,
        )
        return job.wait()

    def submit(
        self,
        workflow: Union[WorkflowGraph, Any],
        inputs: InputSpec = None,
        *,
        processes: Optional[int] = None,
        seed: Optional[int] = None,
        mapping: Optional[str] = None,
        time_scale: Optional[float] = None,
        deadline: Optional[float] = None,
        scheduler: Optional[Any] = None,
        tenant: Optional[str] = None,
        priority: int = 0,
        **options: Any,
    ) -> Job:
        """Start enacting a workflow and return its :class:`~repro.jobs.Job`.

        Enactment begins immediately on the mapping's session deployment:
        the first submission deploys cold (spinning up the worker pool /
        redisim server), consecutive ones reuse it warm.  Initial
        ``inputs`` are optional -- on streaming mappings
        (``Capabilities.streaming``) they are consumed lazily into the
        running workflow and ``job.send(...)`` adds more until
        ``job.close_input()``; other mappings buffer ingestion and enact
        when the input closes.  Either way ``inputs=None`` means "no
        initial inputs, I will ``send``" (``run()`` keeps the one-shot
        reading: every source invoked once, empty).  ``deadline`` (real
        seconds) cancels the job when exceeded.  Overlapping submissions
        on one mapping fall back to ephemeral cold deployments (a session's
        warmth is exclusive to one job at a time) -- counted
        ``deploy_busy_fallback`` on the run.

        Passing ``scheduler=`` (a :class:`repro.scheduler.JobScheduler`
        bound to this engine) routes the submission through scheduled
        admission instead: the job queues under ``tenant`` fair-share
        accounting at ``priority`` until a shared warm deployment is free,
        eliminating busy fallbacks.  ``tenant``/``priority`` are only
        meaningful with a scheduler and raise ``TypeError`` otherwise.

        Raises
        ------
        RuntimeError
            On a closed engine.
        TypeError
            On misspelled engine-level options, or ``tenant``/``priority``
            without a ``scheduler``.
        ValueError
            When ``scheduler`` is bound to a different engine.
        UnsupportedFeatureError
            When an option needs a capability the mapping lacks.
        """
        if scheduler is not None:
            if scheduler.engine is not self:
                raise ValueError(
                    "scheduler= is bound to a different Engine; submit "
                    "through that engine (or build the scheduler over this "
                    "one)"
                )
            return scheduler.submit(
                workflow, inputs, processes=processes, seed=seed,
                mapping=mapping, time_scale=time_scale, deadline=deadline,
                tenant=tenant if tenant is not None else "default",
                priority=priority, **options,
            )
        if tenant is not None or priority != 0:
            raise TypeError(
                "tenant=/priority= apply to scheduled submission only; "
                "pass scheduler= as well"
            )
        return self._submit(
            workflow, inputs, processes=processes, seed=seed, mapping=mapping,
            time_scale=time_scale, deadline=deadline, warm=True, options=options,
        )

    def _submit(
        self,
        workflow: Union[WorkflowGraph, Any],
        inputs: InputSpec,
        processes: Optional[int],
        seed: Optional[int],
        mapping: Optional[str],
        time_scale: Optional[float],
        deadline: Optional[float],
        warm: bool,
        options: Dict[str, Any],
    ) -> Job:
        """Direct (unscheduled) submission behind :meth:`run` and :meth:`submit`."""
        graph, name, procs, merged = self._resolve_submission(
            workflow, processes, mapping, options
        )
        deployment, busy = self._lease(name, procs) if warm else (None, False)
        try:
            job = self._prepare_job(
                name, graph, inputs, procs, merged,
                time_scale=time_scale, seed=seed, deadline=deadline,
                # run() forces the buffered wiring: the classic one-shot
                # enactment path, byte-identical outputs and counters --
                # and skips the results tap its wait()-only job never reads.
                stream=None if warm else False,
                results_channel=warm,
            )
            job._launch(deployment, busy)
        except BaseException:
            if deployment is not None:
                # Validation failures raise before the deployment is ever
                # touched (launch starts the driver thread last), so its
                # warmth -- and the spin-up it represents -- survives for
                # the next job.
                self._release(name, deployment, reusable=True)
            raise
        if deployment is not None:
            leased = deployment
            job._on_terminal(
                lambda j: self._release(name, leased, reusable=j.state is JobState.DONE)
            )
        self._adopt_job(job)
        return job

    def _resolve_submission(
        self,
        workflow: Union[WorkflowGraph, Any],
        processes: Optional[int],
        mapping: Optional[str],
        options: Dict[str, Any],
    ) -> tuple:
        """Coerce, resolve and capability-gate one submission.

        Shared by the direct path and the scheduler's admission queue, so
        both reject bad submissions synchronously at submit time.  Returns
        ``(graph, mapping_name, processes, merged_options)``.
        """
        self._ensure_open()
        _check_option_typos(options)
        graph = coerce_graph(workflow)
        procs = processes if processes is not None else self.config.processes
        name = self._resolve(
            graph, mapping if mapping is not None else self.config.mapping, procs
        )
        merged = {
            **self.config.recovery_options(),
            **self.config.transport_options(),
            **self.config.fusion_options(),
            **self.config.options,
            **options,
        }
        caps = get_capabilities(name)
        for option in ("fuse", "optimize"):
            # The same gate the mapping's resolve_plan applies, run here
            # too so a bad request is refused at submit time even when a
            # scheduler queues the job before any mapping sees it.
            if option in merged:
                merged[option] = gate_plan_option(option, merged[option], caps, name)
        if merged.get("batch_size", 1) != 1 or merged.get("batch_linger_ms", 0):
            # Same contract as the recovery gate below: a mapping that
            # ignores the transport knobs would silently run unbatched
            # while the user believes they tuned the data plane.
            if not caps.batching:
                raise UnsupportedFeatureError(
                    f"batched transport requested (batch_size/batch_linger_ms) "
                    f"but mapping {name!r} does not support batching; pick a "
                    f"batching mapping or drop the transport options"
                )
        if "checkpoint_interval" in merged or "state_store" in merged:
            # Silently dropping the knobs would leave the user believing
            # their pinned state is crash-safe when it is not.  State
            # checkpointing needs a mapping that both pins stateful
            # instances and recovers them -- reclaim-only recoverability
            # (dyn_redis) does not qualify.
            if not (caps.recoverable and caps.stateful):
                raise UnsupportedFeatureError(
                    f"checkpoint/restore requested (checkpoint_interval/"
                    f"state_store) but mapping {name!r} does not support "
                    f"stateful checkpointing; use hybrid_redis or drop the "
                    f"recovery options"
                )
        if "address" in merged:
            # An address points workers at an external networked substrate
            # (``repro serve-redis``); a non-networked mapping would ignore
            # it and silently run in-process on a private keyspace.
            if not caps.networked:
                raise UnsupportedFeatureError(
                    f"a server address was given but mapping {name!r} is "
                    f"not networked; use cluster_redis or drop address="
                )
        return graph, name, procs, merged

    def _prepare_job(
        self,
        name: str,
        graph: WorkflowGraph,
        inputs: InputSpec,
        processes: int,
        merged: Dict[str, Any],
        *,
        time_scale: Optional[float],
        seed: Optional[int],
        deadline: Optional[float],
        stream: Optional[bool],
        results_channel: bool,
    ) -> Job:
        """Hand one resolved submission to its mapping's ``prepare``.

        The single funnel onto ``Mapping.prepare`` for both the direct path
        and the scheduler, so engine-level defaults (time scale, seed)
        apply identically.  The caller leases the deployment, launches the
        job on it and has it tracked (:meth:`_adopt_job`).
        """
        return self._engine_for(name).prepare(
            graph,
            inputs=inputs,
            processes=processes,
            platform=self._platform,
            time_scale=time_scale if time_scale is not None else self.config.time_scale,
            seed=seed if seed is not None else self.config.seed,
            deadline=deadline,
            stream=stream,
            results_channel=results_channel,
            **merged,
        )

    def _adopt_job(self, job: Job) -> None:
        """Track a job until terminal so :meth:`close` can cancel it."""
        with self._lock:
            self._jobs.append(job)
        job._on_terminal(self._forget_job)

    def _forget_job(self, job: Job) -> None:
        with self._lock:
            if job in self._jobs:
                self._jobs.remove(job)

    # -------------------------------------------------------------- sessions
    def _lease(self, name: str, processes: int) -> tuple:
        """Borrow the mapping's session deployment (deploying if needed).

        Returns ``(deployment, busy)`` from the mapping's size-1
        :class:`DeploymentPool`: ``(None, True)`` when the session is busy
        with another live job -- the caller then runs on an ephemeral cold
        deployment.  An existing deployment that no longer matches the
        requested settings is torn down and replaced (cold again).
        """
        with self._lock:
            pool = self._sessions.get(name)
            if pool is None:
                pool = DeploymentPool(self._engine_for(name), size=1)
                self._sessions[name] = pool
        return pool.try_acquire(processes, self._platform)

    def _release(self, name: str, deployment: Deployment, reusable: bool) -> None:
        """Return a leased deployment; failed runs forfeit their warmth."""
        with self._lock:
            pool = self._sessions.get(name)
        if pool is None:
            # The engine was closed while the job ran; the deployment is no
            # longer tracked.
            deployment.teardown()
            return
        pool.release(deployment, reusable=reusable)

    def with_options(self, **changes: Any) -> "Engine":
        """A new engine with updated settings (the caches start fresh).

        Like the constructor, keyword arguments that are not
        :class:`RunConfig` fields become mapping options.  Refuses a
        closed engine, like every other facade entry point.
        """
        self._ensure_open()
        options = dict(self.config.options)
        config_fields = {f.name for f in fields(RunConfig)}
        field_changes = {}
        option_changes = dict(changes.pop("options", {}))
        for key in list(changes):
            if key in config_fields:
                field_changes[key] = changes.pop(key)
            else:
                option_changes[key] = changes.pop(key)
        _check_option_typos(option_changes)
        options.update(option_changes)
        config = replace(self.config, **field_changes, options=options)
        return Engine.from_config(config)

    # -------------------------------------------------------------- context
    def close(self) -> None:
        """Shut the engine down; it refuses any further use.

        Live jobs are cancelled (and given a short grace period to unwind),
        every session's warm deployment is torn down, and the mapping-engine
        cache is released.  Idempotent.
        """
        with self._lock:
            already = self._closed
            self._closed = True
            jobs = list(self._jobs)
            pools, self._sessions = list(self._sessions.values()), {}
        if already and not jobs and not pools:
            return
        for job in jobs:
            job.cancel(reason="engine closed")
        for job in jobs:
            job._terminal.wait(timeout=5.0)
        for pool in pools:
            pool.close()
        self._engines.clear()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"Engine(mapping={self.config.mapping!r}, "
            f"platform={self._platform.name!r}, "
            f"processes={self.config.processes}, {state})"
        )
