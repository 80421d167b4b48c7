"""Capability-aware mapping registry.

Mappings self-register with :func:`register_mapping`, declaring a
:class:`Capabilities` record describing what they can enact.  The registry
replaces the old closed name->class dict: third-party backends register the
same way the built-in eight do, and :func:`select_mapping` resolves
``mapping="auto"`` by matching a workflow's requirements (statefulness,
platform features, process budget) against the declared capabilities.

Auto-selection policy (the paper's Section 5 conclusions, encoded):

- stateful workflows need state-pinning -- ``hybrid_redis`` where Redis is
  available, the static ``multi`` mapping otherwise;
- stateless workflows get dynamic scheduling with auto-scaling, preferring
  the Multiprocessing substrate ("Multiprocessing optimizations outperform
  those of Redis", Section 5.6);
- ``prefer=...`` short-circuits the policy with the caller's ordered
  choices, failing with :class:`UnsupportedFeatureError` (and the reasons)
  if none of them fit.

Whether a mapping *may* enact a request is one function, :func:`refusal`:
selection collects its answers, the mappings raise them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.exceptions import (
    InsufficientProcessesError,
    MappingError,
    UnsupportedFeatureError,
)
from repro.core.graph import WorkflowGraph
from repro.platforms.profiles import PlatformProfile


@dataclass(frozen=True)
class Capabilities:
    """Declarative description of what an enactment mapping supports.

    Attributes
    ----------
    stateful:
        Can honour stateful PEs and state-pinning groupings.
    requires_redis:
        Needs a Redis deployment on the target platform.
    autoscaling:
        Adapts its active process count at runtime (Algorithm 1).
    dynamic:
        Schedules tasks dynamically (no static PE-to-process pinning).
    recoverable:
        Survives worker crashes mid-run: consumer-group PEL reclaim for
        stateless tasks, and -- on ``hybrid_redis`` -- checkpoint/restore
        of pinned stateful instances (:mod:`repro.state`).
    batching:
        Honours the ``batch_size`` / ``batch_linger_ms`` transport options
        (micro-batched tuple envelopes on its queues/streams).  Mappings
        without it are rejected by the engine when batching is requested,
        rather than silently running unbatched.
    fusion:
        Executes operator-fusion rewrites (the ``fuse`` option): fusable
        1:1 chains collapse into in-process :class:`repro.core.fusion.
        FusedPE` operators before enactment.  All built-in mappings
        support it (the rewrite happens above the mapping); the flag gates
        third-party backends that bypass the shared enactment path --
        ``fuse=True`` on such a mapping is rejected rather than silently
        ignored (``fuse="auto"`` skips it instead).
    streaming:
        Runs the live streaming path of :meth:`repro.mappings.base.
        Mapping.submit`: tuples sent through a :class:`repro.jobs.Job`
        enter the *running* workflow immediately, and unbound sources stay
        live until ``close_input``.  Mappings without it still accept
        submissions -- ingestion is buffered and enactment starts when the
        input closes (results stream out either way).
    networked:
        Workers are separate OS processes joining the deployment over a
        real TCP socket (RESP protocol) instead of sharing the keyspace
        in-process.  Networked mappings accept the ``address`` option
        (``"host:port"`` of an external ``repro serve-redis`` daemon);
        the engine rejects ``address`` on mappings without this flag.
    description:
        One-line summary for ``repro list`` and the README table.

    The process floor is not a field: it is a function of the graph, so a
    mapping states it as :meth:`~repro.mappings.base.Mapping.process_floor`.
    """

    stateful: bool = True
    requires_redis: bool = False
    autoscaling: bool = False
    dynamic: bool = False
    recoverable: bool = False
    batching: bool = False
    fusion: bool = False
    streaming: bool = False
    networked: bool = False
    description: str = ""


class UnknownMappingError(KeyError):
    """Raised for a mapping name nobody registered (a KeyError subclass)."""


#: Registered mappings: name -> class (its record is ``cls.capabilities``).
_REGISTRY: Dict[str, type] = {}


def register_mapping(
    capabilities: Optional[Capabilities] = None,
) -> Callable[[type], type]:
    """Class decorator registering a :class:`Mapping` under its ``name``.

    Usage::

        @register_mapping(Capabilities(stateful=False, dynamic=True))
        class MyMapping(Mapping):
            name = "my_mapping"

    The record is the mapping's *only* capability declaration: it becomes
    ``cls.capabilities``, which is what :meth:`~repro.mappings.base.
    Mapping.deploy`, :meth:`~repro.mappings.base.Mapping.submit` and the
    feature gates read, so what is declared and what is enforced cannot
    drift apart.  It defaults to the record the class inherits, described
    by the class docstring's first line.  Registering a second class under an
    existing name replaces the first -- that is how out-of-tree backends
    can shadow a built-in.
    """

    def decorate(cls: type) -> type:
        name = getattr(cls, "name", None)
        if not name or name == "abstract":
            raise ValueError(
                f"mapping class {cls.__name__} must define a unique `name` "
                f"attribute before registration"
            )
        caps = capabilities
        if caps is None:
            doc_lines = (cls.__doc__ or "").strip().splitlines()
            caps = replace(
                cls.capabilities, description=doc_lines[0] if doc_lines else ""
            )
        _REGISTRY[name] = cls
        cls.capabilities = caps
        return cls

    return decorate


def unregister_mapping(name: str) -> None:
    """Remove a registration (used by tests cleaning up ad-hoc backends)."""
    _REGISTRY.pop(name, None)


def mapping_names() -> List[str]:
    """All registered mapping names."""
    return sorted(_REGISTRY)


def get_mapping_class(name: str) -> type:
    """The registered class for ``name`` (without instantiating it)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(mapping_names())
        raise UnknownMappingError(
            f"unknown mapping {name!r}; known: {known}"
        ) from None


def get_capabilities(name: str) -> Capabilities:
    """The declared capabilities of a registered mapping."""
    return get_mapping_class(name).capabilities


def get_mapping(name: str):
    """Instantiate a mapping engine by registry name."""
    return get_mapping_class(name)()


def capability_table() -> List[Tuple[str, Capabilities]]:
    """(name, capabilities) rows, sorted by name -- for CLI/docs rendering."""
    return [(name, _REGISTRY[name].capabilities) for name in mapping_names()]


# --------------------------------------------------------------- selection

#: Auto-selection preference orders (first feasible candidate wins).
_STATEFUL_ORDER = ("hybrid_redis", "multi", "simple")
_STATELESS_ORDER = (
    "dyn_auto_multi",
    "dyn_auto_redis",
    "dyn_multi",
    "dyn_redis",
    "multi",
    "simple",
)


def refusal(
    mapping: Any,
    graph: WorkflowGraph,
    platform: Optional[PlatformProfile] = None,
    processes: Optional[int] = None,
    options: Optional[Dict[str, Any]] = None,
) -> Optional[MappingError]:
    """Why ``mapping`` (class or instance) may not enact this request.

    The one legality rule set; ``None`` means it may.  :func:`select_mapping`
    *collects* what this returns, :meth:`Mapping.prepare
    <repro.mappings.base.Mapping.prepare>` / ``execute`` *raise* it, so
    every entry point answers alike.  The first broken rule wins, in the
    order options, graph, platform, floor; ``platform=None`` /
    ``processes=None`` skip theirs (the mappings ask :func:`floor_refusal`
    separately, once they hold the planned graph).
    """
    name, caps, opts = mapping.name, mapping.capabilities, options or {}
    # A mapping that ignored one of these options would silently run without
    # it while the user believes it is on, so the request is refused.
    lacks = None
    if not caps.batching and (
        opts.get("batch_size", 1) != 1 or opts.get("batch_linger_ms", 0)
    ):
        lacks = (
            "batched transport (batch_size/batch_linger_ms); pick a batching "
            "mapping or drop the options"
        )
    elif not (caps.recoverable and caps.stateful) and (
        "checkpoint_interval" in opts or "state_store" in opts
    ):
        # Reclaim-only recoverability (dyn_redis) does not qualify: the
        # mapping must both pin stateful instances and recover them.
        lacks = (
            "stateful checkpointing (checkpoint_interval/state_store); "
            "use hybrid_redis or drop the options"
        )
    elif not caps.networked and "address" in opts:
        lacks = "a server address: it is not networked; use cluster_redis or drop address="
    elif not caps.fusion and (opts.get("fuse") is True or opts.get("optimize") is True):
        # ``"auto"`` is the soft request: rewrite where supported, else skip.
        lacks = (
            "operator fusion / the graph planner (fuse/optimize=True); pick a "
            "fusing mapping, use 'auto' or drop the option"
        )
    elif not caps.stateful and graph.is_stateful():
        lacks = (
            f"stateful PEs or state-pinning groupings, which {graph.name!r} "
            f"contains: it enacts only stateless workflows; use hybrid_redis or multi"
        )
    if lacks is not None:
        return UnsupportedFeatureError(f"mapping {name!r} does not support {lacks}")
    if caps.requires_redis and platform is not None and not platform.redis_available:
        return MappingError(
            f"mapping {name!r} needs Redis, which platform {platform.name!r} "
            f"does not provide"
        )
    if processes is not None:
        return floor_refusal(mapping, graph, processes)
    return None


def floor_refusal(
    mapping: Any, graph: WorkflowGraph, processes: int
) -> Optional[MappingError]:
    """The last rule of :func:`refusal`: ``processes`` against the floor of
    ``graph`` -- the graph to be enacted, so fusion lowers ``multi``'s."""
    floor = mapping.process_floor(graph)
    if processes < floor:
        return InsufficientProcessesError(
            f"mapping {mapping.name!r} needs at least {floor} processes for "
            f"{graph.name!r}, got {processes}"
        )
    return None


def select_mapping(
    graph: WorkflowGraph,
    platform: Optional[PlatformProfile] = None,
    prefer: Union[str, Sequence[str], None] = None,
    processes: Optional[int] = None,
    options: Optional[Dict[str, Any]] = None,
) -> str:
    """Resolve ``mapping="auto"``: the best registered mapping for ``graph``.

    Parameters
    ----------
    graph:
        The abstract workflow (its statefulness drives the choice).
    platform:
        Target platform; Redis-dependent mappings are skipped where
        ``platform.redis_available`` is False.
    prefer:
        A mapping name, or an ordered sequence of names, to try before the
        default policy.  If none of the preferred names is feasible the
        selection *fails* with :class:`UnsupportedFeatureError` explaining
        each rejection, rather than silently falling back.
    processes:
        Optional process budget; mappings whose ``process_floor(graph)``
        exceeds it are skipped (static ``multi`` needs one process per
        instance, ``hybrid_redis`` one per pinned instance plus one).
    options:
        The run's mapping options; candidates lacking a capability one of
        them needs are skipped.

    Candidates are judged by :func:`refusal`, which the selected mapping's
    ``prepare`` / ``execute`` ask again: what is selected is accepted.

    Returns
    -------
    The registry name of the selected mapping.
    """
    if prefer is not None:
        candidates: Iterable[str] = (prefer,) if isinstance(prefer, str) else tuple(prefer)
        if not candidates:
            raise ValueError(
                "prefer=... is empty; pass None for automatic selection"
            )
        explicit = True
    else:
        candidates = _STATEFUL_ORDER if graph.is_stateful() else _STATELESS_ORDER
        explicit = False

    reasons: List[str] = []
    for name in candidates:
        if name not in _REGISTRY:
            if explicit:
                known = ", ".join(mapping_names())
                raise UnknownMappingError(
                    f"unknown mapping {name!r} in prefer=...; known: {known}"
                )
            continue
        reason = refusal(_REGISTRY[name], graph, platform, processes, options)
        if reason is None:
            return name
        reasons.append(str(reason))

    detail = "; ".join(reasons) if reasons else "no mappings are registered"
    raise UnsupportedFeatureError(
        f"no {'preferred ' if explicit else ''}mapping can enact workflow "
        f"{graph.name!r}: {detail}"
    )
