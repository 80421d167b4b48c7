"""Concrete workflow: instance tables and grouping-aware routing.

The concrete workflow (Figure 1, right side) is what a mapping actually
enacts: each PE is replicated into ``allocation[pe]`` instances, and every
connection gets a router that turns "PE A emitted ``x`` on port ``out``"
into a list of ``(destination PE, input port, destination instance index)``
deliveries, honouring the connection's grouping.

Router state (round-robin counters) is kept per (edge, source instance) so
each producer instance distributes independently -- the behaviour separate
OS processes would naturally have.  In dynamic mappings many worker threads
emit on behalf of the same conceptual source, so router state access is
lock-protected -- except on an edge with a single destination instance
under a built-in stateless-answer grouping, which has no state to protect
and answers ``[0]`` directly.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.core.exceptions import GraphError
from repro.core.graph import Edge, WorkflowGraph
from repro.core.groupings import AllToOne, Grouping, OneToAll, Shuffle
from repro.core.partition import allocate_instances


def instance_id(pe_name: str, index: int) -> str:
    """Canonical instance identifier, e.g. ``"filterColumns.2"``."""
    return f"{pe_name}.{index}"


class Delivery(NamedTuple):
    """One routed data unit: destination PE/port/instance plus payload."""

    dst: str
    dst_port: str
    dst_index: int
    data: Any


#: Built-in groupings whose answer over a single destination instance is
#: ``[0]`` by definition, with no key extraction that could raise.  Matched
#: by exact type: a subclass may override ``route`` and is consulted.
_SINGLE_TARGET_BUILTINS = (Shuffle, AllToOne, OneToAll)


class EdgeRouter:
    """Routes data units across one connection, honouring its grouping."""

    def __init__(self, edge: Edge, grouping: Optional[Grouping], n_dst: int) -> None:
        if n_dst < 1:
            raise GraphError(f"edge {edge!r} routed to {n_dst} instances")
        self.edge = edge
        self.grouping = grouping if grouping is not None else Shuffle()
        self.n_dst = n_dst
        self._states: Dict[str, Optional[dict]] = {}
        self._lock = threading.Lock()
        #: One destination and nothing to ask the grouping: every dynamic
        #: mapping's edges (``single_instance``) route without lock or state.
        self._direct = n_dst == 1 and type(self.grouping) in _SINGLE_TARGET_BUILTINS

    def route(self, src_instance: str, data: Any) -> List[Delivery]:
        """Deliveries for one data unit emitted by ``src_instance``."""
        edge = self.edge
        if self._direct:
            return [Delivery(edge.dst, edge.dst_port, 0, data)]
        with self._lock:
            state = self._states.get(src_instance)
            if state is None and src_instance not in self._states:
                state = self.grouping.new_state()
                self._states[src_instance] = state
            indices = self.grouping.route(data, self.n_dst, state)
        return [Delivery(edge.dst, edge.dst_port, index, data) for index in indices]


class ConcreteWorkflow:
    """Instance counts + routing tables for one enactment.

    Parameters
    ----------
    graph:
        The validated abstract workflow.
    allocation:
        PE name -> instance count.  Use :func:`from_static` for the paper's
        static rule, or :func:`single_instance` for dynamic mappings (where
        every PE conceptually has one logical queue and any worker may
        execute it).

    The graph is read once, here: routers are indexed by ``(src, port)``
    and instance ids are precomputed, so routing an emission is two dict
    lookups however many edges the graph has.
    """

    def __init__(self, graph: WorkflowGraph, allocation: Dict[str, int]) -> None:
        graph.validate()
        for name in graph.pes:
            if allocation.get(name, 0) < 1:
                raise GraphError(f"PE {name!r} allocated no instances")
        self.graph = graph
        self.allocation = dict(allocation)
        self._instance_ids: Dict[str, List[str]] = {
            name: [instance_id(name, index) for index in range(allocation[name])]
            for name in graph.pes
        }
        self._routers: Dict[Tuple[str, str, str, str], EdgeRouter] = {}
        for edge in graph.edges:
            grouping = graph.effective_grouping(edge)
            key = (edge.src, edge.src_port, edge.dst, edge.dst_port)
            self._routers[key] = EdgeRouter(edge, grouping, allocation[edge.dst])
        #: (src PE, output port) -> the routers of its connections, in edge
        #: order (parallel edges between the same two ports share a router).
        self._routes: Dict[Tuple[str, str], List[EdgeRouter]] = {}
        for edge in graph.edges:
            self._routes.setdefault((edge.src, edge.src_port), []).append(self.router(edge))

    # ------------------------------------------------------------- factories
    @classmethod
    def from_static(cls, graph: WorkflowGraph, num_processes: int) -> "ConcreteWorkflow":
        """Concrete workflow under the static allocation rule (Figure 1)."""
        allocation, _idle = allocate_instances(graph, num_processes)
        return cls(graph, allocation)

    @classmethod
    def single_instance(cls, graph: WorkflowGraph) -> "ConcreteWorkflow":
        """One logical instance per PE (dynamic mappings)."""
        return cls(graph, {name: 1 for name in graph.pes})

    # ---------------------------------------------------------------- lookup
    def instances_of(self, pe_name: str) -> List[str]:
        return list(self._instance_ids[pe_name])

    def all_instances(self) -> List[Tuple[str, int]]:
        """Every (pe_name, index) pair in topological order."""
        result = []
        for name in self.graph.topological_order():
            for index in range(self.allocation[name]):
                result.append((name, index))
        return result

    def total_instances(self) -> int:
        return sum(self.allocation.values())

    def router(self, edge: Edge) -> EdgeRouter:
        return self._routers[(edge.src, edge.src_port, edge.dst, edge.dst_port)]

    # ---------------------------------------------------------------- routing
    def connected(self, src_pe: str, out_port: str) -> bool:
        """Whether any connection leaves ``src_pe.out_port``."""
        return (src_pe, out_port) in self._routes

    def route_output(
        self, src_pe: str, src_index: int, out_port: str, data: Any
    ) -> List[Delivery]:
        """All deliveries caused by one emission.

        An output port may fan out to several connections; each connection
        routes independently (possibly duplicating the data unit, as in
        dispel4py).
        """
        routers = self._routes.get((src_pe, out_port))
        if routers is None:
            return []
        source = self._instance_ids[src_pe][src_index]
        if len(routers) == 1:
            return routers[0].route(source, data)
        deliveries: List[Delivery] = []
        for router in routers:
            deliveries.extend(router.route(source, data))
        return deliveries

    def __repr__(self) -> str:
        return (
            f"ConcreteWorkflow({self.graph.name!r}, "
            f"instances={self.total_instances()})"
        )
