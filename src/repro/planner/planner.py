"""The :class:`Planner`: chain fusion + cost model -> :class:`Plan`.

One planning pass fuses a workflow graph's maximal 1:1 chains
(:func:`repro.planner.fusion.fuse_graph`, the planner's one rewrite),
then prices the result under the cost model and derives advisory knob
suggestions.  Two stock configurations:

- :meth:`Planner.default` (also just ``Planner()``) -- used by
  ``optimize=True|"auto"`` and ``repro plan``; stamps ``planner_rules``.
- :meth:`Planner.fusion_only` -- the same rewrite with no extra counters:
  the byte-identical engine behind the classic ``fuse=`` option.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from repro.core.graph import WorkflowGraph
from repro.planner.cost import CostModel, profile_graph
from repro.planner.fusion import fuse_graph
from repro.planner.plan import Plan, RuleApplication
from repro.platforms.profiles import LAPTOP, PlatformProfile

#: Upper bound for the numprocesses suggestion (the paper's largest sweep).
MAX_SUGGESTED_PROCESSES = 16


class Planner:
    """Fuses workflow graphs' chains and prices them under a cost model."""

    def __init__(self, annotate: bool = True) -> None:
        #: Whether plans stamp planner bookkeeping counters on the run
        #: (``planner_rules``).  The fusion-only shim turns this off so the
        #: classic ``fuse=`` path keeps byte-identical counters.
        self.annotate = annotate

    @classmethod
    def default(cls) -> "Planner":
        return cls()

    @classmethod
    def fusion_only(cls) -> "Planner":
        """The ``fuse=`` shim: chain fusion without planner annotations."""
        return cls(annotate=False)

    def plan(
        self,
        graph: WorkflowGraph,
        cost: Optional[CostModel] = None,
        provided: Optional[Dict[str, List[Dict[str, Any]]]] = None,
        prior: Optional[Any] = None,
        platform: PlatformProfile = LAPTOP,
        profile: bool = True,
        seed: int = 0,
    ) -> Plan:
        """Plan one workflow graph.

        The rewrite is structural: what fuses never depends on the cost
        model, which only prices the result (``predicted_costs``,
        ``suggestions``) for ``repro plan`` to explain.

        Parameters
        ----------
        graph:
            The abstract workflow to rewrite.  Never mutated.
        cost:
            A ready :class:`CostModel`; skips profiling when given.
        provided:
            Normalized root inputs (:func:`repro.mappings.base.
            normalize_inputs` form).  A small prefix seeds the profiling
            dry-run, and the per-root counts anchor the invocation
            estimates.
        prior:
            A previous :class:`~repro.metrics.result.RunResult`; its
            per-member ``pe_times``/``member_tasks`` attribution (from a
            fused run) overrides profiled per-tuple costs.
        platform:
            Target platform (hop cost, core budget for suggestions).
        profile:
            Run the profiling dry-run when no ``cost`` was given.  With
            ``False`` the model degrades to uniform costs (plus ``prior``
            metrics, if any).
        seed:
            RNG seed for the profiling dry-run (PEs that draw randomness
            profile deterministically).
        """
        graph.validate()
        if cost is None:
            cost = (
                profile_graph(graph, provided=provided, platform=platform, seed=seed)
                if profile
                else CostModel.uniform(graph, platform)
            )
        if prior is not None:
            metrics = CostModel.from_result(prior, platform)
            if metrics is not None:
                merged = dict(cost.per_tuple)
                merged.update(metrics.per_tuple)
                cost = CostModel(
                    per_tuple=merged,
                    selectivity=cost.selectivity,
                    hop_cost=cost.hop_cost,
                    source=f"{cost.source}+metrics",
                    sampled=cost.sampled,
                )

        fusion = fuse_graph(graph)
        current = fusion.graph
        steps = ()
        counters: Dict[str, int] = {}
        if fusion.fused:
            described = ", ".join("+".join(chain) for chain in fusion.chains)
            steps = (
                RuleApplication(
                    rule="chain_fusion",
                    detail=f"fused {len(fusion.chains)} chain(s): {described}",
                ),
            )
            counters["fused_chains"] = len(fusion.chains)
            counters["fused_members"] = sum(len(c) for c in fusion.chains)
            if self.annotate:
                counters["planner_rules"] = len(steps)

        tuples = cost.estimated_invocations(
            current, fusion.rename_inputs({
                root: len(items) for root, items in (provided or {}).items()
            }),
        )
        predicted = {
            name: cost.node_cost(pe) * tuples.get(name, 0.0)
            for name, pe in current.pes.items()
        }
        return Plan(
            graph=current,
            original=graph,
            steps=steps,
            chains=fusion.chains,
            member_to_fused=fusion.member_to_fused,
            cost=cost,
            predicted_costs=predicted,
            estimated_tuples=tuples,
            suggestions=self._suggest(predicted, cost, platform),
            counters=counters,
        )

    @staticmethod
    def _suggest(
        predicted: Dict[str, float],
        cost: CostModel,
        platform: PlatformProfile,
    ) -> Dict[str, Any]:
        """Advisory knob choices from the predicted cost distribution.

        ``numprocesses``: pipeline throughput is bounded by the costliest
        node, so processes beyond total-work / bottleneck-work only idle;
        the suggestion is that ratio, clamped to the platform's cores.
        ``batch_size``: sized by how hop-dominated the workload is (hop
        cost relative to the mean per-node work per tuple) -- batching
        amortizes exactly the hop cost.
        """
        suggestions: Dict[str, Any] = {}
        total = sum(predicted.values())
        bottleneck = max(predicted.values(), default=0.0)
        if total > 0 and bottleneck > 0:
            processes = max(1, math.ceil(total / bottleneck))
            limit = MAX_SUGGESTED_PROCESSES
            if platform.cores is not None:
                limit = min(limit, platform.cores)
            suggestions["numprocesses"] = min(processes, limit)
        per_tuple = [v for v in cost.per_tuple.values() if v > 0]
        if per_tuple and cost.hop_cost > 0:
            ratio = cost.hop_cost / (sum(per_tuple) / len(per_tuple))
            if ratio >= 1.0:
                suggestions["batch_size"] = 32
            elif ratio >= 0.25:
                suggestions["batch_size"] = 8
            elif ratio >= 0.05:
                suggestions["batch_size"] = 2
            else:
                suggestions["batch_size"] = 1
        return suggestions
