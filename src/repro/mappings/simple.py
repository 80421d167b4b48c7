"""Sequential reference mapping.

One logical instance per PE, executed in a single worker with FIFO data
propagation.  Used as the semantic oracle: every parallel mapping must
produce the same multiset of outputs as ``simple`` (the integration tests
assert exactly that).  The paper notes dynamic scheduling "is ineffective
with Simple mapping, where tasks are executed sequentially" -- hence no
dynamic variant exists for it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.autoscale.trace import ScalingTrace
from repro.core.concrete import ConcreteWorkflow
from repro.mappings.base import (
    EnactmentState,
    Mapping,
    dispatch_tasks,
    instantiate,
)
from repro.mappings.registry import Capabilities, register_mapping


@register_mapping(
    Capabilities(
        stateful=True,
        description="Sequential reference mapping (the semantic oracle)",
    )
)
class SimpleMapping(Mapping):
    """Sequential in-process enactment (dispel4py's *Simple* mapping)."""

    name = "simple"

    def _enact(self, state: EnactmentState) -> Optional[ScalingTrace]:
        graph = state.graph
        concrete = ConcreteWorkflow.single_instance(graph)
        instances = {
            name: instantiate(pe, 0, 1, state.ctx) for name, pe in graph.pes.items()
        }
        order = graph.topological_order()
        worker_id = "simple-0"
        state.meter.activate(worker_id)
        try:
            for name in order:
                instances[name].preprocess()

            fifo: Deque[Tuple[str, Dict[str, Any]]] = deque()
            for root, items in state.provided.items():
                for item in items:
                    fifo.append((root, item))

            def drain() -> None:
                while fifo:
                    pe_name, inputs = fifo.popleft()
                    emissions = instances[pe_name]._invoke(inputs)
                    state.counters.inc("tasks")
                    for dst, dst_port, data in dispatch_tasks(
                        concrete, state.collector, pe_name, emissions
                    ):
                        fifo.append((dst, {dst_port: data}))

            drain()
            # Flush stateful aggregates in topological order so that a
            # postprocess emission from an upstream PE is consumed before
            # the downstream PE itself is flushed.
            for name in order:
                emissions = instances[name]._flush_postprocess()
                for dst, dst_port, data in dispatch_tasks(
                    concrete, state.collector, name, emissions
                ):
                    fifo.append((dst, {dst_port: data}))
                drain()
        except BaseException as exc:  # noqa: BLE001 - single-worker boundary
            state.record_error(exc)
        finally:
            state.meter.deactivate(worker_id)
        return None
