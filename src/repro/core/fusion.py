"""Operator fusion: chain-collapsing rewrites of the abstract workflow.

Every connection a mapping enacts costs an enqueue/dequeue (and, on the
Redis mappings, a client/server round trip with pickle serialization on
both sides).  PR 3 made each hop cheaper by batching tuples; this module
removes hops entirely: a semantics-preserving rewrite pass walks the
:class:`~repro.core.graph.WorkflowGraph`, identifies maximal *fusable
chains* -- linear runs of PEs connected 1:1 -- and collapses each into a
single :class:`FusedPE` whose ``process()`` drives the member PEs through
direct in-memory calls.  Inside a fusion there is no queue, no batch
envelope and no pickle: a member's emission is handed to the next member
as the same Python object.  Every in-process mapping hop does the same:
payload *ownership transfers* at emission (a producer never touches an
emitted object again, matching dispel4py semantics), so a copy is not
needed for correctness -- and under threads the pickle work would
serialize on the GIL, distorting exactly the scaling behaviour being
measured (real processes pay serialization cost in parallel).  The Redis
mappings keep full client-side serialization, where it models a real
client encoding its output buffer.

The approach follows the local-rewrite school ("Optimizing Stateful
Dataflow with Local Rewrites", PAPERS.md): each rewrite is local to one
chain, provably output-preserving, and the rewritten graph is an ordinary
:class:`WorkflowGraph` -- every mapping (static, dynamic, Redis, hybrid)
enacts it without special cases.

This module holds only the *runtime* side of fusion: the
:class:`FusedPE` operator and the :class:`MemberMeter` attribution hook.
The rewrite itself -- chain discovery, fusability rules, graph surgery --
lives in :mod:`repro.planner.fusion`, the one rewrite of the graph
planner (:mod:`repro.planner`).

What the rest of the engine sees
--------------------------------
- ``FusedPE`` exposes the head's input ports unchanged (groupings
  included), so inbound routing and source driving are untouched.
- Member output ports not consumed inside the fusion surface as
  namespaced fused ports (``"<member>__<port>"``); external edges are
  re-pointed at them, and emissions on unconnected ones are credited to
  the *original* ``"<member>.<port>"`` results key through
  ``collector_aliases`` (resolved into the port's compiled route by
  :class:`repro.core.concrete.ConcreteWorkflow`).
- ``get_state``/``set_state`` capture the composite state of all members,
  so ``hybrid_redis`` checkpoints a fused stateful chain as one snapshot
  and recovery replays at fusion granularity.
- Per-member runtime stays observable: when the run installs a
  :class:`MemberMeter` on the execution context, ``FusedPE`` attributes
  the clock time and invocation count of every member invocation to that
  member's name, keeping per-PE ratios comparable with unfused runs.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import GraphError
from repro.core.graph import Edge
from repro.core.pe import GenericPE


def fused_name(member_names: Sequence[str]) -> str:
    """Deterministic name of the PE fusing ``member_names`` in order."""
    return f"fused({'+'.join(member_names)})"


class MemberMeter:
    """Thread-safe per-member invocation/time accumulator.

    Installed on the run's :class:`~repro.core.context.ExecutionContext`
    (as ``ctx.pe_meter``) by the enactment when fusion is active; every
    :class:`FusedPE` instance reports into it so the per-PE breakdown of a
    fused run stays comparable with the unfused one (Table 1 ratios).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tasks: Dict[str, int] = {}
        self._time: Dict[str, float] = {}

    def record(self, member: str, elapsed: float) -> None:
        with self._lock:
            self._tasks[member] = self._tasks.get(member, 0) + 1
            self._time[member] = self._time.get(member, 0.0) + elapsed

    def tasks(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._tasks)

    def times(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._time)


class FusedPE(GenericPE):
    """A linear chain of PEs collapsed into one in-process operator.

    Parameters
    ----------
    members:
        The chain's PEs in flow order (length >= 2).  Held by reference;
        like any PE they are templates that :func:`~repro.mappings.base.
        instantiate` deep-copies per instance, members included.
    internal_edges:
        The chain's connecting edges, one per adjacent member pair.
    stateful:
        Mark the fusion stateful (set by the rewrite pass when any member
        keeps pinned state, including state implied by edge groupings the
        member's own ports do not declare).
    """

    def __init__(
        self,
        members: Sequence[GenericPE],
        internal_edges: Sequence[Edge],
        stateful: bool = False,
    ) -> None:
        if len(members) < 2:
            raise GraphError("a fused chain needs at least two members")
        if len(internal_edges) != len(members) - 1:
            raise GraphError(
                f"chain of {len(members)} members needs {len(members) - 1} "
                f"internal edges, got {len(internal_edges)}"
            )
        super().__init__(fused_name([m.name for m in members]))
        self.members: List[GenericPE] = list(members)
        self.stateful = bool(stateful) or any(m.is_stateful() for m in members)

        # Head input ports are exposed verbatim (groupings included), so
        # inbound edges and source driving are untouched by the rewrite.
        head = self.members[0]
        for port_name, port in head.inputconnections.items():
            self._add_input(port_name, grouping=port.get("grouping"))

        # Internal hop table: (member index, out port) -> (next index, in port).
        index_of = {m.name: i for i, m in enumerate(self.members)}
        self._hops: Dict[Tuple[int, str], Tuple[int, str]] = {}
        for edge in internal_edges:
            src = index_of.get(edge.src)
            dst = index_of.get(edge.dst)
            if src is None or dst is None or dst != src + 1:
                raise GraphError(
                    f"internal edge {edge!r} does not connect adjacent chain "
                    f"members of {self.name!r}"
                )
            self._hops[(src, edge.src_port)] = (dst, edge.dst_port)

        # Every member output port not consumed inside the fusion surfaces
        # as a namespaced fused port; unconnected ones are credited back to
        # the original "<member>.<port>" results key via collector_aliases.
        self._exposed: Dict[Tuple[int, str], str] = {}
        self.collector_aliases: Dict[str, Tuple[str, str]] = {}
        for i, member in enumerate(self.members):
            for port_name in member.outputconnections:
                if (i, port_name) in self._hops:
                    continue
                fused_port = f"{member.name}__{port_name}"
                self._add_output(fused_port)
                self._exposed[(i, port_name)] = fused_port
                self.collector_aliases[fused_port] = (member.name, port_name)

    # ------------------------------------------------------------- structure
    @property
    def member_names(self) -> List[str]:
        return [m.name for m in self.members]

    def exposed_port(self, member_name: str, port: str) -> str:
        """The fused output port carrying ``member_name``'s ``port``."""
        for i, member in enumerate(self.members):
            if member.name == member_name:
                try:
                    return self._exposed[(i, port)]
                except KeyError:
                    raise GraphError(
                        f"{self.name!r} consumes {member_name}.{port} "
                        f"internally; it is not exposed"
                    ) from None
        raise GraphError(f"{self.name!r} has no member {member_name!r}")

    # ------------------------------------------------------------- lifecycle
    def preprocess(self) -> None:
        # Members are instantiated by the fusion, not the mapping: bind the
        # same instance-scoped fields instantiate() would have, so RNG
        # streams (seeded per member instance id) match the unfused run.
        from repro.core.concrete import instance_id

        for member in self.members:
            member.ctx = self.ctx
            member.instance_index = self.instance_index
            member.num_instances = self.num_instances
            member.instance_id = instance_id(member.name, self.instance_index)
            member.rng = self.ctx.rng_for(member.instance_id)
            member.preprocess()

    def process(self, inputs: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        self._feed(0, inputs)
        return None

    def postprocess(self) -> None:
        # Staged flush in chain order, mirroring the sequential oracle: an
        # upstream member's postprocess emissions are pushed through the
        # downstream members before those are themselves flushed.
        for i in range(len(self.members)):
            for port, data in self.members[i]._flush_postprocess():
                self._emit(i, port, data)

    # ------------------------------------------------------------- execution
    def _feed(self, index: int, inputs: Dict[str, Any]) -> None:
        """Invoke member ``index`` and cascade its emissions downstream.

        The intra-fusion emit path: a downstream member receives the
        emitted object itself -- no queue, no envelope, no copy.  Recursion
        depth is bounded by the chain length.
        """
        member = self.members[index]
        meter = getattr(self.ctx, "pe_meter", None)
        if meter is None:
            emissions = member._invoke(inputs)
        else:
            started = self.ctx.clock.now()
            emissions = member._invoke(inputs)
            meter.record(member.name, self.ctx.clock.now() - started)
        for port, data in emissions:
            self._emit(index, port, data)

    def _emit(self, index: int, port: str, data: Any) -> None:
        hop = self._hops.get((index, port))
        if hop is not None:
            self._feed(hop[0], {hop[1]: data})
        else:
            self.write(self._exposed[(index, port)], data)

    # ----------------------------------------------------------- state hooks
    def get_state(self) -> Dict[str, Any]:
        """Composite snapshot: every member's state under its name.

        One fused stateful chain checkpoints (and restores) as a unit, so
        recovery replays at fusion granularity -- a delivery is either
        reflected in *all* members' restored state or in none.
        """
        return {"members": {m.name: m.get_state() for m in self.members}}

    def set_state(self, state: Dict[str, Any]) -> None:
        captured = state.get("members", {})
        for member in self.members:
            if member.name in captured:
                member.set_state(captured[member.name])

    def __repr__(self) -> str:
        return f"<FusedPE {self.name!r} members={self.member_names}>"

