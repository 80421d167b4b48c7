"""The :class:`Planner`: chain fusion -> :class:`Plan`.

One planning pass fuses a workflow graph's maximal 1:1 chains
(:func:`repro.planner.fusion.fuse_graph`, the planner's one rewrite) and,
for ``repro plan`` only, attaches what a profiling dry-run measured.  Two
stock configurations:

- :meth:`Planner.default` (also just ``Planner()``) -- used by
  ``optimize=True`` and ``repro plan``; stamps ``planner_rules``.
- :meth:`Planner.fusion_only` -- the same rewrite with no extra counters:
  the byte-identical engine behind the classic ``fuse=`` option.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.core.graph import WorkflowGraph
from repro.planner.cost import profile_graph
from repro.planner.fusion import fuse_graph
from repro.planner.plan import Plan
from repro.platforms.profiles import LAPTOP, PlatformProfile


class Planner:
    """Fuses workflow graphs' chains, optionally profiling them to explain."""

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
        provided: Optional[Dict[str, List[Dict[str, Any]]]] = None,
        platform: PlatformProfile = LAPTOP,
        profile: bool = True,
        seed: int = 0,
    ) -> Plan:
        """Plan one workflow graph.

        The rewrite is structural: what fuses never depends on what the
        profiling dry-run measures, which only rides along as
        ``Plan.cost`` for ``repro plan`` to print.

        Parameters
        ----------
        graph:
            The abstract workflow to rewrite.  Never mutated.
        provided:
            Normalized root inputs (:func:`repro.mappings.base.
            normalize_inputs` form); a small prefix seeds the profiling
            dry-run.
        platform:
            Target platform of the dry-run (core budget, CPU speed).
        profile:
            Run the profiling dry-run.  With ``False`` the plan carries no
            cost model (``Plan.cost is None``), as every run's plan does.
        seed:
            RNG seed for the profiling dry-run (PEs that draw randomness
            profile deterministically).
        """
        plan = fuse_graph(graph)
        counters = dict(plan.counters)
        if self.annotate and plan.fused:
            counters["planner_rules"] = len(plan.steps)
        cost = (
            profile_graph(graph, provided=provided, platform=platform, seed=seed)
            if profile
            else None
        )
        return replace(plan, counters=counters, cost=cost)
