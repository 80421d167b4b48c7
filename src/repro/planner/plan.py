"""The :class:`Plan`: a chain-fused graph and its bookkeeping.

A plan is what :func:`~repro.planner.fusion.fuse_graph` returns, what the
enactment layer runs and what ``repro plan`` prints.  It carries the
chain-fused :class:`~repro.core.graph.WorkflowGraph`, the fused-chain
bookkeeping the mappings need (input re-keying, member attribution) and
the counters the run is stamped with.  Only ``repro plan`` attaches a
:class:`~repro.planner.cost.CostModel`: what its profiling dry-run
measured, printed as measured.  A run's plan carries none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.graph import WorkflowGraph
from repro.planner.cost import CostModel


@dataclass(frozen=True)
class RuleApplication:
    """One fired rewrite rule: its name and what it did."""

    rule: str
    detail: str


@dataclass(frozen=True)
class Plan:
    """Outcome of one planning pass over a workflow graph.

    Attributes
    ----------
    graph:
        The rewritten workflow (the input graph itself when nothing
        fused).
    original:
        The graph the plan was made from, for before/after reporting.
    chains:
        Member names of every chain collapsed into a
        :class:`~repro.core.fusion.FusedPE`.
    member_to_fused:
        Member name -> fused PE name (used to re-key root input specs).
    counters:
        Counters the enactment stamps on the run when it applies this
        plan (``fused_chains``/``fused_members``; ``planner_rules`` on
        optimizer plans).
    cost:
        What ``repro plan``'s profiling dry-run measured on the original
        graph; ``None`` when nothing was profiled.
    """

    graph: WorkflowGraph
    original: WorkflowGraph
    chains: Tuple[Tuple[str, ...], ...] = ()
    member_to_fused: Dict[str, str] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    cost: Optional[CostModel] = None

    @property
    def fused(self) -> bool:
        """Whether the rewrite changed the graph (any chain fused)."""
        return bool(self.chains)

    @property
    def steps(self) -> Tuple[RuleApplication, ...]:
        """The rule trace: ``chain_fusion`` when anything fused."""
        if not self.chains:
            return ()
        described = ", ".join("+".join(chain) for chain in self.chains)
        return (
            RuleApplication(
                rule="chain_fusion",
                detail=f"fused {len(self.chains)} chain(s): {described}",
            ),
        )

    def rename_inputs(self, provided: Mapping[str, Any]) -> Dict[str, Any]:
        """Re-key normalized root inputs onto fused source PEs."""
        return {
            self.member_to_fused.get(root, root): items
            for root, items in provided.items()
        }

    def explain(self) -> str:
        """The human-readable explain-plan (what ``repro plan`` prints)."""
        lines = [
            f"plan for workflow {self.original.name!r}",
            f"graph        : {len(self.original.pes)} PEs / "
            f"{len(self.original.edges)} edges -> "
            f"{len(self.graph.pes)} PEs / {len(self.graph.edges)} edges",
        ]
        if self.steps:
            lines.append("rules fired  :")
            for i, step in enumerate(self.steps, 1):
                lines.append(f"  {i}. {step.rule}: {step.detail}")
        else:
            lines.append("rules fired  : none (no fusable chain)")
        if self.cost is None:
            lines.append("measured     : not profiled")
            return "\n".join(lines)
        lines.append(
            f"measured     : {self.cost.sampled} sample tuple(s) profiled "
            "(nominal s/invocation, emissions/invocation per port)"
        )
        width = max((len(name) for name in self.cost.per_tuple), default=0)
        for name, seconds in self.cost.per_tuple.items():
            ports = " ".join(
                f"{port}={rate:g}"
                for (pe, port), rate in self.cost.selectivity.items()
                if pe == name
            )
            lines.append(f"  {name.ljust(width)}  {seconds:.6f}  {ports}".rstrip())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Plan({self.original.name!r}, rules={len(self.steps)}, "
            f"{len(self.original.pes)}->{len(self.graph.pes)} PEs)"
        )
