"""Multi-job scheduling: fair-share admission over shared warm pools.

The service layer over :class:`repro.engine.Engine`:
:class:`JobScheduler` multiplexes N concurrent jobs over per-mapping
:class:`~repro.mappings.base.DeploymentPool` warm capacity with admission
control (concurrency cap, equal-share tenant fairness, priorities with
starvation-free aging), send backpressure and
:class:`SchedulerStats` lifecycle metrics.  :class:`SchedulerService`
fronts a scheduler over TCP for ``repro serve``; the
:mod:`~repro.scheduler.catalog` names the workflows both it and the CLI
can build.  See ``docs/architecture.md`` and ``docs/cookbook.md``.
"""

from repro.scheduler.catalog import (
    build_named_workflow,
    workflow_names,
    workflow_params,
)
from repro.scheduler.scheduler import BackpressureError, JobScheduler
from repro.scheduler.service import SchedulerService
from repro.scheduler.stats import SchedulerStats, percentile

__all__ = [
    "BackpressureError",
    "JobScheduler",
    "SchedulerService",
    "SchedulerStats",
    "build_named_workflow",
    "percentile",
    "workflow_names",
    "workflow_params",
]
