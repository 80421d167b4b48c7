"""Graph planner: chain fusion, priced under measured costs.

PR 4 special-cased one graph transform -- maximal 1:1 chain fusion --
inside the enactment layer.  This package gives it a planner around it in
the style of "Optimizing Stateful Dataflow with Local Rewrites"
(arXiv:2306.10585): one local rewrite whose precondition (the fusability
rules of :mod:`repro.planner.fusion`) is checked on the graph it
rewrites, and an explain-plan priced by per-PE costs (arXiv:2112.13875):

- :mod:`repro.planner.fusion` -- the rewrite: chain discovery and graph
  surgery (:func:`fuse_graph`).
- :mod:`repro.planner.cost` -- the :class:`CostModel`: per-PE costs from
  a cheap sequential profiling dry-run, a prior run's fused-member
  attribution, or a uniform fallback.
- :mod:`repro.planner.planner` -- the :class:`Planner` applying the
  rewrite and pricing the result.
- :mod:`repro.planner.plan` -- the :class:`Plan` the mappings consume and
  ``repro plan`` explains.

The classic ``fuse=`` engine option is a byte-identical shim over
:meth:`Planner.fusion_only`; ``optimize=True|"auto"`` plans with
:meth:`Planner.default`, which fuses the same chains and adds the
``planner_rules`` counter.  Runs plan without profiling (the rewrite
reads no costs); only ``repro plan`` profiles, to explain.  Workflow
outputs are unchanged either way, and suggestions are advisory and never
auto-applied.
"""

from repro.planner.cost import CostModel, profile_graph
from repro.planner.fusion import FusionPlan, find_fusable_chains, fuse_graph
from repro.planner.plan import Plan, RuleApplication
from repro.planner.planner import Planner

__all__ = [
    "CostModel",
    "FusionPlan",
    "Plan",
    "Planner",
    "RuleApplication",
    "find_fusable_chains",
    "fuse_graph",
    "profile_graph",
]
