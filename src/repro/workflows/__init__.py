"""The three real-world evaluation workflows of Section 4.

- :mod:`repro.workflows.astro` -- Internal Extinction of Galaxies (4 PEs,
  all stateless; Section 4.1, Figures 8-10, Table 1).
- :mod:`repro.workflows.seismic` -- Seismic Cross-Correlation phase 1
  (9 PEs, stateless, imbalanced; Section 4.2, Figure 11, Table 2) plus the
  grouped phase 2 for hybrid experiments.
- :mod:`repro.workflows.sentiment` -- Sentiment Analyses for News Articles
  (stateless/stateful blend with group-by and global groupings;
  Section 4.3, Figure 12, Table 3).

Each subpackage exposes a ``build_workflow(...)`` factory returning a
ready-to-run :class:`~repro.core.graph.WorkflowGraph` plus an input spec,
and documents the synthetic substitutions for external data sources.
"""

from repro.workflows.astro import build_internal_extinction_workflow
from repro.workflows.seismic import build_seismic_phase1_workflow, build_seismic_phase2_workflow
from repro.workflows.sentiment import (
    build_recoverable_sentiment_workflow,
    build_sentiment_scoring_workflow,
    build_sentiment_workflow,
)

__all__ = [
    "build_internal_extinction_workflow",
    "build_recoverable_sentiment_workflow",
    "build_sentiment_scoring_workflow",
    "build_seismic_phase1_workflow",
    "build_seismic_phase2_workflow",
    "build_sentiment_workflow",
]
