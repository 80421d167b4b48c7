"""The chain-fusion rewrite: discovery and graph surgery.

The *runtime* object (:class:`~repro.core.fusion.FusedPE`) lives in the
core; the *rewrite* -- deciding what to fuse and rebuilding the graph --
lives here.  :func:`fuse_graph` is the planner's one rewrite, and the
:class:`~repro.planner.plan.Plan` it returns is what a ``fuse=True`` or
``optimize=True`` run enacts.

Fusability
----------
An edge ``A -> B`` may be fused when:

- it is A's **only** outgoing connection (across all ports) and B's
  **only** incoming connection -- no fan-out, no fan-in;
- the edge's effective grouping is unset or :class:`Shuffle` (pure load
  balancing; for stateless B the output multiset is independent of which
  instance ran which tuple).  Any instance-pinning grouping (GroupBy /
  AllToOne / OneToAll) erases under fusion, so it is only allowed when the
  whole chain provably lands on **one** instance;
- the members' ``numprocesses`` pins are compatible: at most one distinct
  pinned value per chain (the fused PE inherits it);
- **stateful** members are fusable only under the one-instance rule above,
  except a stateful chain *head*: its state partitioning is governed by
  its inbound connection, which the rewrite preserves verbatim, so a
  pinned multi-instance aggregator may still absorb its stateless
  downstream.

Chains are claimed greedily in topological order, so every fusable run is
collapsed into the maximal chain containing it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.fusion import FusedPE
from repro.core.graph import WorkflowGraph
from repro.core.groupings import Shuffle
from repro.planner.plan import Plan


def _merge_pin(current: Optional[int], new: Optional[int]) -> Tuple[bool, Optional[int]]:
    """Merge one member's instance pin into the chain's; False on conflict."""
    if new is None:
        return True, current
    if current is None or current == new:
        return True, new
    return False, current


def find_fusable_chains(
    graph: WorkflowGraph,
) -> List[Tuple[List[str], Optional[int]]]:
    """Maximal fusable chains of ``graph`` as ``(member names, pin)`` pairs.

    Chains are discovered greedily in topological order under the
    fusability rules of the module docstring; each returned chain has at
    least two members and carries the merged ``numprocesses`` pin the
    fused PE must inherit (``None`` when no member pins).
    """
    graph.validate()
    stateful_names = {pe.name for pe in graph.stateful_pes()}

    def member_pin(name: str) -> Optional[int]:
        pe = graph.pes[name]
        if name in stateful_names:
            # A stateful PE always lands on a definite instance count
            # (numprocesses, defaulting to one) -- the hybrid rule.
            return pe.numprocesses if pe.numprocesses is not None else 1
        return pe.numprocesses

    chains: List[Tuple[List[str], Optional[int]]] = []
    claimed: set = set()
    for name in graph.topological_order():
        if name in claimed:
            continue
        chain = [name]
        pin = member_pin(name)
        while True:
            tail = chain[-1]
            outs = graph.out_edges(tail)
            if len(outs) != 1:
                break
            edge = outs[0]
            if edge.dst in claimed or len(graph.in_edges(edge.dst)) != 1:
                break
            grouping = graph.effective_grouping(edge)
            # An instance-pinning (or custom) grouping erases under fusion;
            # only a provably single-instance chain preserves its effect.
            # A stateful non-head member likewise: its state partitioning
            # was governed by exactly this (erased) inbound connection.
            needs_single = edge.dst in stateful_names or not (
                grouping is None or isinstance(grouping, Shuffle)
            )
            ok, merged = _merge_pin(pin, member_pin(edge.dst))
            if ok and needs_single:
                ok, merged = _merge_pin(merged, 1)
            if not ok:
                break
            chain.append(edge.dst)
            pin = merged
        if len(chain) >= 2:
            chains.append((chain, pin))
            claimed.update(chain)
    return chains


def fuse_graph(graph: WorkflowGraph) -> Plan:
    """Collapse every maximal fusable chain of ``graph`` into a FusedPE.

    Returns a :class:`~repro.planner.plan.Plan` whose ``graph`` is a *new*
    :class:`WorkflowGraph` sharing the unfused PEs with the input graph
    (PEs are templates; enactment deep-copies them per instance), and whose
    counters are ``fused_chains`` / ``fused_members``.  When no chain
    qualifies the input graph itself is returned unchanged, so
    ``fuse=True`` on a non-fusable workflow is byte-identical to
    ``fuse=False``.
    """
    found = find_fusable_chains(graph)
    if not found:
        return Plan(graph=graph, original=graph)

    stateful_names = {pe.name for pe in graph.stateful_pes()}
    member_to_fused: Dict[str, str] = {}
    fused_by_name: Dict[str, FusedPE] = {}
    for chain, pin in found:
        members = [graph.pes[n] for n in chain]
        internal = [graph.out_edges(n)[0] for n in chain[:-1]]
        fused = FusedPE(
            members,
            internal,
            stateful=any(n in stateful_names for n in chain),
        )
        fused.numprocesses = pin
        fused_by_name[fused.name] = fused
        for member in chain:
            member_to_fused[member] = fused.name

    rewritten = WorkflowGraph(graph.name)
    for name, pe in graph.pes.items():
        if name not in member_to_fused:
            rewritten.add(pe)
    for fused in fused_by_name.values():
        rewritten.add(fused)
    for edge in graph.edges:
        src_fused = member_to_fused.get(edge.src)
        dst_fused = member_to_fused.get(edge.dst)
        if src_fused is not None and src_fused == dst_fused:
            continue  # internal to one chain; lives inside the FusedPE
        src, src_port = edge.src, edge.src_port
        if src_fused is not None:
            src = src_fused
            src_port = fused_by_name[src_fused].exposed_port(edge.src, edge.src_port)
        dst = dst_fused if dst_fused is not None else edge.dst
        rewritten.connect(src, src_port, dst, edge.dst_port, grouping=edge.grouping)
    rewritten.validate()
    chains = tuple(tuple(chain) for chain, _pin in found)
    return Plan(
        graph=rewritten,
        original=graph,
        chains=chains,
        member_to_fused=member_to_fused,
        counters={
            "fused_chains": len(chains),
            "fused_members": sum(len(chain) for chain in chains),
        },
    )

