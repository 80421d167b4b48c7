"""Measured per-PE costs: what ``repro plan`` shows next to its plan.

The rewrite itself (chain fusion) is structural and reads no costs, and a
run never profiles.  ``repro plan`` does, to explain:
:func:`profile_graph` is a cheap sequential **profiling dry-run** in the
style of the ``simple`` mapping.  A handful of sample tuples are pushed
through deep-copied PE instances on a private clock, and each PE's wall
time per invocation (normalized back to *nominal* seconds by the
profiling time scale) plus its per-port emissions per invocation are
recorded in a :class:`CostModel`.  The dry-run touches only copies, so it
never perturbs the real enactment's state, RNG streams or outputs.
"""

from __future__ import annotations

import copy
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.context import ExecutionContext
from repro.core.graph import WorkflowGraph
from repro.platforms.profiles import LAPTOP, PlatformProfile
from repro.runtime.clock import Clock

#: Sample tuples per source PE for the profiling dry-run.
DEFAULT_SAMPLE = 5

#: Time scale of the profiling clock: synthetic nominal-second workloads
#: replay at 1% speed during the dry-run, and measured wall time is
#: divided by this to recover nominal cost.
PROFILE_TIME_SCALE = 0.01


@dataclass(frozen=True)
class CostModel:
    """What one profiling dry-run measured, per PE.

    Attributes
    ----------
    per_tuple:
        PE name -> measured nominal seconds of busy time per invocation
        (PEs the sample never reached are absent).
    selectivity:
        ``(pe, out_port)`` -> measured emissions per invocation on that
        port.
    sampled:
        Tuples the dry-run fed its sources.
    """

    per_tuple: Dict[str, float] = field(default_factory=dict)
    selectivity: Dict[Tuple[str, str], float] = field(default_factory=dict)
    sampled: int = 0


def profile_graph(
    graph: WorkflowGraph,
    provided: Optional[Dict[str, List[Dict[str, Any]]]] = None,
    sample: int = DEFAULT_SAMPLE,
    platform: PlatformProfile = LAPTOP,
    seed: int = 0,
    time_scale: float = PROFILE_TIME_SCALE,
) -> Optional[CostModel]:
    """Sequential profiling dry-run; returns what it measured, or ``None``.

    Pushes up to ``sample`` input mappings per source through *deep
    copies* of the PEs (the originals are templates and stay untouched),
    sequentially on a private clock at ``time_scale``, recording per-PE
    wall time and per-port emission counts.  Measured real seconds divide
    by ``time_scale`` to recover nominal cost, so synthetic
    ``compute()``/``io_wait()`` workloads price correctly however fast
    the dry-run replays them.

    Profiling is best-effort: any error inside a PE (sources that need
    inputs the sample cannot supply, un-copyable state, ...) yields
    ``None`` -- "not profiled" -- instead of failing the plan.
    """
    try:
        return _profile(graph, provided, sample, platform, seed, time_scale)
    except Exception:
        return None


def _profile(
    graph: WorkflowGraph,
    provided: Optional[Dict[str, List[Dict[str, Any]]]],
    sample: int,
    platform: PlatformProfile,
    seed: int,
    time_scale: float,
) -> Optional[CostModel]:
    from repro.core.concrete import instance_id

    graph.validate()
    ctx = ExecutionContext(
        clock=Clock(time_scale),
        cores=platform.make_core_limiter(),
        seed=seed,
        cpu_speed=platform.cpu_speed,
    )
    instances = {}
    for name, pe in graph.pes.items():
        clone = copy.deepcopy(pe)
        clone.instance_index = 0
        clone.num_instances = 1
        clone.instance_id = instance_id(name, 0)
        clone.ctx = ctx
        clone.rng = ctx.rng_for(clone.instance_id)
        instances[name] = clone
    order = graph.topological_order()
    for name in order:
        instances[name].preprocess()

    busy: Dict[str, float] = {name: 0.0 for name in graph.pes}
    invocations: Dict[str, int] = {name: 0 for name in graph.pes}
    emitted: Dict[Tuple[str, str], int] = {}
    consumed = 0

    fifo: Deque[Tuple[str, Dict[str, Any]]] = deque()
    for pe in graph.roots():
        items = (provided or {}).get(pe.name)
        if items is None:
            items = [{}]
        for item in list(items)[: max(0, sample)]:
            fifo.append((pe.name, copy.deepcopy(item)))
            consumed += 1

    def invoke(name: str, inputs: Dict[str, Any]) -> List[Tuple[str, Any]]:
        started = time.perf_counter()
        emissions = instances[name]._invoke(inputs)
        busy[name] += time.perf_counter() - started
        invocations[name] += 1
        return emissions

    def dispatch(name: str, emissions: List[Tuple[str, Any]]) -> None:
        for port, data in emissions:
            emitted[(name, port)] = emitted.get((name, port), 0) + 1
            for edge in graph.out_edges(name, port):
                fifo.append((edge.dst, {edge.dst_port: data}))

    while fifo:
        name, inputs = fifo.popleft()
        dispatch(name, invoke(name, inputs))
    # Flush aggregates so stateful tails get priced too (their postprocess
    # cost is amortized over the invocations that fed them).
    for name in order:
        started = time.perf_counter()
        emissions = instances[name]._flush_postprocess()
        busy[name] += time.perf_counter() - started
        dispatch(name, emissions)
        while fifo:
            dst, inputs = fifo.popleft()
            dispatch(dst, invoke(dst, inputs))

    per_tuple = {
        name: (busy[name] / invocations[name]) / time_scale
        for name in graph.pes
        if invocations[name] > 0
    }
    selectivity = {
        (name, port): emitted.get((name, port), 0) / invocations[name]
        for name, pe in graph.pes.items()
        if invocations[name] > 0
        for port in pe.outputconnections
    }
    if not per_tuple:
        return None
    return CostModel(per_tuple=per_tuple, selectivity=selectivity, sampled=consumed)
