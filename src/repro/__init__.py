"""repro: a reproduction of "Optimization towards Efficiency and Stateful of
dispel4py" (WORKS/SC 2023, arXiv:2309.00595).

A stream-based scientific workflow engine in the style of dispel4py, with:

- static (``multi``) and dynamic (``dyn_multi``) parallel mappings,
- Redis-backed dynamic mappings (``dyn_redis``) built on an in-process
  Redis Stream substrate (:mod:`repro.redisim`),
- the paper's auto-scaling optimization (``dyn_auto_multi`` /
  ``dyn_auto_redis``, Algorithm 1),
- the stateful-aware hybrid mapping (``hybrid_redis``),
- a capability-aware mapping registry with ``mapping="auto"`` selection,
- the three evaluation workflows (:mod:`repro.workflows`) and a benchmark
  harness regenerating every figure and table (:mod:`repro.bench`).

Quickstart (fluent API + Engine facade)::

    from repro import Engine, IterativePE, Pipeline

    class Double(IterativePE):
        def _process(self, data):
            return 2 * data

    double = Double(name="double")
    graph = Pipeline("demo").then(double).build()

    with Engine(mapping="auto", processes=4) as engine:
        result = engine.run(graph, inputs=[1, 2, 3])
    print(result.output("double"))  # [2, 4, 6]

PEs compose with ``>>`` -- ``producer >> double >> sink`` chains default
ports, ``pe.out("a") >> other.in_("b")`` wires named ports, and
``>> GroupBy("key") >>`` attaches a grouping inline; see
:mod:`repro.core.fluent`.  The classic ``WorkflowGraph.connect`` string
API and the module-level :func:`run` shim keep working unchanged.

Long-lived callers stream instead of batching: ``engine.submit(graph)``
returns a :class:`Job` whose ``send``/``results``/``wait`` ingest and
consume incrementally while the engine keeps the deployment warm across
submissions (see README, "Streaming sessions").
"""

from typing import Any

from repro.core import (
    AllToOne,
    Chain,
    ConsumerPE,
    FunctionPE,
    FusedPE,
    GenericPE,
    GroupBy,
    Grouping,
    IterativePE,
    OneToAll,
    Pipeline,
    ProducerPE,
    Shuffle,
    WorkflowGraph,
)
from repro.engine import Engine, RunConfig
from repro.jobs import Job, JobCancelledError, JobState
from repro.mappings import (
    Capabilities,
    TerminationPolicy,
    capability_table,
    get_mapping,
    mapping_names,
    register_mapping,
    select_mapping,
)
from repro.metrics import RunResult
from repro.planner import CostModel, Plan, Planner, fuse_graph
from repro.platforms import CLOUD, HPC, LAPTOP, SERVER, PlatformProfile, get_platform
from repro.scheduler import (
    BackpressureError,
    JobScheduler,
    SchedulerService,
    SchedulerStats,
)
from repro.state import (
    CrashInjector,
    InMemoryStateStore,
    RedisSnapshotStore,
    Snapshot,
    StateStore,
)

__version__ = "1.2.0"


def run(
    graph: Any,
    inputs: Any = None,
    processes: int = 1,
    mapping: str = "simple",
    platform: PlatformProfile = LAPTOP,
    time_scale: float = 1.0,
    seed: int = 0,
    **options: Any,
) -> RunResult:
    """Enact ``graph`` with the named mapping and return the run result.

    Back-compat shim over the :class:`Engine` facade: each call builds a
    one-shot engine.  Long-lived callers should hold an :class:`Engine`
    instead -- it resolves the platform and mapping registry once and is
    reusable across runs.  ``mapping="auto"`` selects a mapping from the
    graph's requirements; see :func:`repro.mappings.select_mapping`.
    """
    engine = Engine(
        mapping=mapping,
        platform=platform,
        processes=processes,
        time_scale=time_scale,
        seed=seed,
        **options,
    )
    return engine.run(graph, inputs=inputs)


__all__ = [
    "AllToOne",
    "BackpressureError",
    "CLOUD",
    "Capabilities",
    "Chain",
    "CostModel",
    "ConsumerPE",
    "CrashInjector",
    "Engine",
    "FunctionPE",
    "FusedPE",
    "GenericPE",
    "GroupBy",
    "Grouping",
    "HPC",
    "InMemoryStateStore",
    "IterativePE",
    "Job",
    "JobCancelledError",
    "JobScheduler",
    "JobState",
    "LAPTOP",
    "OneToAll",
    "Pipeline",
    "Plan",
    "Planner",
    "PlatformProfile",
    "ProducerPE",
    "RedisSnapshotStore",
    "RunConfig",
    "RunResult",
    "SERVER",
    "SchedulerService",
    "SchedulerStats",
    "Shuffle",
    "Snapshot",
    "StateStore",
    "TerminationPolicy",
    "WorkflowGraph",
    "__version__",
    "capability_table",
    "fuse_graph",
    "get_mapping",
    "get_platform",
    "mapping_names",
    "register_mapping",
    "run",
    "select_mapping",
]
