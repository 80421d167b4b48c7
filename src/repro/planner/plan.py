"""The :class:`Plan`: a rewritten graph plus the evidence behind it.

A plan is what the planner hands the enactment layer -- and what
``repro plan`` prints to the user.  It carries the chain-fused
:class:`~repro.core.graph.WorkflowGraph`, the rule trace (``chain_fusion``
when anything fused), the fused-chain bookkeeping the mappings need
(input re-keying, member attribution), predicted per-PE costs under the
plan's :class:`~repro.planner.cost.CostModel`, and advisory
``numprocesses``/``batch_size`` suggestions.  Only ``repro plan`` profiles
that model; a run plans under uniform costs and reads none of them.

Suggestions are *advisory only*: applying them would change scheduling
and transport granularity, so the engine never auto-applies them --
``optimize="auto"`` must stay byte-identical in outputs to
``optimize=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

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
        The rewritten workflow (the input graph itself when no rule
        fired).
    original:
        The graph the plan was made from, for before/after reporting.
    steps:
        The rule trace, in application order.
    chains:
        Member names of every chain collapsed into a
        :class:`~repro.core.fusion.FusedPE`.
    member_to_fused:
        Member name -> fused PE name (used to re-key root input specs).
    cost:
        The cost model the plan was priced under.
    predicted_costs:
        Final-graph PE name -> predicted total busy time in nominal
        seconds (per-invocation cost x estimated invocations).
    estimated_tuples:
        Final-graph PE name -> estimated invocation count.
    suggestions:
        Advisory knob choices (``numprocesses``, ``batch_size``); never
        auto-applied.
    counters:
        Counters the enactment stamps on the run when it applies this
        plan (``fused_chains``/``fused_members``, matching the classic
        fusion path byte-for-byte; ``planner_rules`` on optimizer plans).
    """

    graph: WorkflowGraph
    original: WorkflowGraph
    steps: Tuple[RuleApplication, ...] = ()
    chains: Tuple[Tuple[str, ...], ...] = ()
    member_to_fused: Dict[str, str] = field(default_factory=dict)
    cost: CostModel = field(default_factory=CostModel)
    predicted_costs: Dict[str, float] = field(default_factory=dict)
    estimated_tuples: Dict[str, float] = field(default_factory=dict)
    suggestions: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def transformed(self) -> bool:
        """Whether the rewrite changed the graph."""
        return bool(self.steps)

    @property
    def fused(self) -> bool:
        """Whether the plan's graph contains fused operators."""
        return bool(self.chains)

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
            f"cost model   : {self.cost.source}"
            + (
                f" ({self.cost.sampled} sample tuple(s) profiled)"
                if self.cost.sampled
                else ""
            ),
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
        if self.predicted_costs:
            lines.append("predicted costs (nominal s/tuple x est. tuples):")
            width = max(len(name) for name in self.predicted_costs)
            ranked = sorted(
                self.predicted_costs.items(), key=lambda kv: kv[1], reverse=True
            )
            for name, total in ranked:
                tuples = self.estimated_tuples.get(name, 0.0)
                per = total / tuples if tuples else 0.0
                lines.append(
                    f"  {name.ljust(width)}  {per:.6f} x {tuples:g} = {total:.4f}"
                )
        if self.suggestions:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(self.suggestions.items())
            )
            lines.append(f"suggestions  : {rendered} (advisory; not auto-applied)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Plan({self.original.name!r}, rules={len(self.steps)}, "
            f"{len(self.original.pes)}->{len(self.graph.pes)} PEs)"
        )
