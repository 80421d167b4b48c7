"""Measured per-PE costs: how ``repro plan`` prices a plan.

The rewrite itself (chain fusion) is structural and reads no costs; the
cost model prices the plan's graph for the explain output -- predicted
busy time per node and the advisory ``numprocesses`` / ``batch_size``
suggestions -- from *measured* costs where it can, in the spirit of the
throughput-optimal placement work (arXiv:2112.13875).  Three evidence
sources, best first:

1. :func:`profile_graph` -- a cheap sequential **profiling dry-run** in
   the style of the ``simple`` mapping: a handful of sample tuples are
   pushed through deep-copied PE instances on a private clock, and each
   member's wall time per invocation (normalized back to *nominal*
   seconds by the profiling time scale) plus its per-port emission rate
   (selectivity) are recorded.  The dry-run touches only copies, so it
   never perturbs the real enactment's state, RNG streams or outputs.
2. :meth:`CostModel.from_result` -- per-member attribution from a prior
   fused run (``RunResult.pe_times`` / ``member_tasks.*`` counters,
   PR 4's :class:`~repro.core.fusion.MemberMeter`).
3. :meth:`CostModel.uniform` -- the fallback when nothing was measured
   (and what every enactment plans under: runs never profile): every PE
   costs one unit, and the explain-plan is explicit about the guess
   (``source="uniform"``).

Costs are kept in nominal seconds per invocation, the same unit as the
platform profiles' ``queue_latency``, so the ``batch_size`` suggestion
compares per-tuple work with the hop cost directly.
"""

from __future__ import annotations

import copy
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.context import ExecutionContext
from repro.core.fusion import FusedPE
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
    """Per-PE cost estimates in nominal seconds per invocation.

    Attributes
    ----------
    per_tuple:
        PE name -> estimated nominal seconds of busy time per invocation.
    selectivity:
        ``(pe, out_port)`` -> average emissions per invocation on that
        port (how many downstream tuples one input fans into).
    hop_cost:
        Nominal seconds one inter-PE transport hop costs on the target
        platform (``queue_latency``); what fusion saves per removed edge
        and tuple.
    source:
        Where the numbers came from: ``"profile"``, ``"metrics"`` or
        ``"uniform"`` -- surfaced in the explain-plan so a guessed cost is
        never mistaken for a measured one.
    sampled:
        Tuples per root the profiling dry-run consumed (0 when not
        profiled).
    """

    per_tuple: Dict[str, float] = field(default_factory=dict)
    selectivity: Dict[Tuple[str, str], float] = field(default_factory=dict)
    hop_cost: float = LAPTOP.queue_latency
    source: str = "uniform"
    sampled: int = 0

    @classmethod
    def uniform(
        cls, graph: WorkflowGraph, platform: PlatformProfile = LAPTOP
    ) -> "CostModel":
        """Unmeasured fallback: one cost unit per PE, unit selectivity."""
        return cls(
            per_tuple={name: 1.0 for name in graph.pes},
            selectivity={
                (name, port): 1.0
                for name, pe in graph.pes.items()
                for port in pe.outputconnections
            },
            hop_cost=platform.queue_latency,
            source="uniform",
        )

    @classmethod
    def from_result(
        cls, result: Any, platform: PlatformProfile = LAPTOP
    ) -> Optional["CostModel"]:
        """Seed a model from a prior run's per-member attribution.

        Uses ``RunResult.pe_times`` (real busy seconds per member) and the
        ``member_tasks.<pe>`` counters from a fused run.  Returns ``None``
        when the result carries no attribution (unfused runs).
        """
        pe_times: Dict[str, float] = getattr(result, "pe_times", {}) or {}
        counters: Dict[str, int] = getattr(result, "counters", {}) or {}
        per_tuple: Dict[str, float] = {}
        for member, busy in pe_times.items():
            tasks = counters.get(f"member_tasks.{member}", 0)
            if tasks > 0:
                per_tuple[member] = busy / tasks
        if not per_tuple:
            return None
        return cls(
            per_tuple=per_tuple,
            hop_cost=platform.queue_latency,
            source="metrics",
        )

    def cost_of(self, pe_name: str) -> float:
        """Estimated nominal seconds one invocation of ``pe_name`` costs.

        An unmeasured PE costs one unit.
        """
        return self.per_tuple.get(pe_name, 1.0)

    def node_cost(self, pe: Any) -> float:
        """A node's cost; a fused node's is the sum of its members' (the
        planner prices the *rewritten* graph against profiles of the
        original)."""
        if isinstance(pe, FusedPE):
            return sum(self.cost_of(name) for name in pe.member_names)
        return self.cost_of(pe.name)

    def out_selectivity(self, pe_name: str, port: str) -> float:
        return self.selectivity.get((pe_name, port), 1.0)

    def estimated_invocations(
        self, graph: WorkflowGraph, root_inputs: Optional[Dict[str, int]] = None
    ) -> Dict[str, float]:
        """Expected invocations per PE, propagated from the roots.

        ``root_inputs`` maps source PE name to its input-tuple count
        (defaulting to 1 per root); downstream counts follow the profiled
        per-port selectivities through the edges.  Works on original and
        rewritten graphs alike -- a fused node inherits its head member's
        inbound traffic.
        """
        counts: Dict[str, float] = {}
        root_inputs = root_inputs or {}
        for pe in graph.roots():
            counts[pe.name] = float(root_inputs.get(pe.name, 1))
        for name in graph.topological_order():
            counts.setdefault(name, 0.0)
            for edge in graph.out_edges(name):
                produced = counts[name] * self._edge_selectivity(graph, edge)
                counts[edge.dst] = counts.get(edge.dst, 0.0) + produced
        return counts

    def _edge_selectivity(self, graph: WorkflowGraph, edge: Any) -> float:
        pe = graph.pes.get(edge.src)
        if isinstance(pe, FusedPE):
            # Chain member selectivities through the fusion up to the
            # member owning the exposed port, then out of that port.
            owner, port = pe.collector_aliases.get(
                edge.src_port, (edge.src_port.split("__", 1)[0], edge.src_port)
            )
            rate = 1.0
            for member in pe.members:
                if member.name == owner:
                    break
                rate *= max(
                    (self.out_selectivity(member.name, p) for p in member.outputconnections),
                    default=1.0,
                )
            return rate * self.out_selectivity(owner, port)
        return self.out_selectivity(edge.src, edge.src_port)


def profile_graph(
    graph: WorkflowGraph,
    provided: Optional[Dict[str, List[Dict[str, Any]]]] = None,
    sample: int = DEFAULT_SAMPLE,
    platform: PlatformProfile = LAPTOP,
    seed: int = 0,
    time_scale: float = PROFILE_TIME_SCALE,
) -> CostModel:
    """Sequential profiling dry-run; returns a measured :class:`CostModel`.

    Pushes up to ``sample`` input mappings per source through *deep
    copies* of the PEs (the originals are templates and stay untouched),
    sequentially on a private clock at ``time_scale``, recording per-PE
    wall time and per-port emission counts.  Measured real seconds divide
    by ``time_scale`` to recover nominal cost, so synthetic
    ``compute()``/``io_wait()`` workloads price correctly however fast
    the dry-run replays them.

    Profiling is best-effort: any error inside a PE (sources that need
    inputs the sample cannot supply, un-copyable state, ...) degrades to
    the :meth:`CostModel.uniform` fallback instead of failing the plan.
    """
    try:
        return _profile(graph, provided, sample, platform, seed, time_scale)
    except Exception:
        return CostModel.uniform(graph, platform)


def _profile(
    graph: WorkflowGraph,
    provided: Optional[Dict[str, List[Dict[str, Any]]]],
    sample: int,
    platform: PlatformProfile,
    seed: int,
    time_scale: float,
) -> CostModel:
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
        return CostModel.uniform(graph, platform)
    return CostModel(
        per_tuple=per_tuple,
        selectivity=selectivity,
        hop_cost=platform.queue_latency,
        source="profile",
        sampled=consumed,
    )
