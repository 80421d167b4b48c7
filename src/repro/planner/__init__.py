"""Graph planner: one local rewrite, chain fusion.

PR 4 special-cased one graph transform -- maximal 1:1 chain fusion --
inside the enactment layer.  This package gives it a planner around it in
the style of "Optimizing Stateful Dataflow with Local Rewrites"
(arXiv:2306.10585): one local rewrite whose precondition (the fusability
rules of :mod:`repro.planner.fusion`) is checked on the graph it
rewrites, not priced:

- :mod:`repro.planner.fusion` -- the rewrite: chain discovery and graph
  surgery (:func:`fuse_graph`).
- :mod:`repro.planner.plan` -- the :class:`Plan` the rewrite returns, the
  mappings enact and ``repro plan`` explains.
- :mod:`repro.planner.planner` -- the :class:`Planner` behind the
  ``fuse=`` / ``optimize=`` options and ``repro plan``.
- :mod:`repro.planner.cost` -- :func:`profile_graph`, the sequential
  dry-run ``repro plan`` measures per-PE costs with (a :class:`CostModel`).

The classic ``fuse=True`` engine option is a byte-identical shim over
:meth:`Planner.fusion_only`; ``optimize=True`` plans with
:meth:`Planner.default`, which fuses the same chains and adds the
``planner_rules`` counter.  Runs never profile (the rewrite reads no
costs); only ``repro plan`` does, to print what it measured.  Workflow
outputs are unchanged either way.
"""

from repro.planner.cost import CostModel, profile_graph
from repro.planner.fusion import find_fusable_chains, fuse_graph
from repro.planner.plan import Plan, RuleApplication
from repro.planner.planner import Planner

__all__ = [
    "CostModel",
    "Plan",
    "Planner",
    "RuleApplication",
    "find_fusable_chains",
    "fuse_graph",
    "profile_graph",
]
