"""Concrete workflow: instance tables and compiled, grouping-aware routes.

The concrete workflow (Figure 1, right side) is what a mapping actually
enacts: each PE is replicated into ``allocation[pe]`` instances, and every
connection gets a router that turns "instance ``i`` of PE A emitted ``x``
on port ``out``" into the destination instance indices the connection's
grouping picks.

Every ``(PE, output port)`` is compiled once, at construction, into one
:class:`Route`: the port's fixed ``(destination, input port)`` targets when
no connection of it needs its router asked (one destination instance under
a built-in stateless-answer grouping), else the port's routers, and for an
unconnected port the ``"pe.port"`` results key its emissions are credited
to (a fused PE's ``collector_aliases`` resolved).  Routing an emission is
then one lookup, and every dispatcher reads the same table.

Router state (round-robin counters) is kept per (edge, source instance) so
each producer instance distributes independently -- the behaviour separate
OS processes would naturally have.  In dynamic mappings many worker threads
emit on behalf of the same conceptual source, so router state access is
lock-protected.
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
        #: Grouping state per source instance index: the edge fixes the PE.
        self._states: Dict[int, Optional[dict]] = {}
        self._lock = threading.Lock()
        #: One destination and nothing to ask the grouping: the answer is
        #: ``[0]``, so :class:`ConcreteWorkflow` compiles the edge into a
        #: fixed target and never asks (every edge of ``single_instance``
        #: under a built-in grouping).
        self._direct = n_dst == 1 and type(self.grouping) in _SINGLE_TARGET_BUILTINS

    def route(self, src_index: int, data: Any) -> List[int]:
        """Destination instance indices for one data unit from source instance ``src_index``."""
        with self._lock:
            state = self._states.get(src_index)
            if state is None and src_index not in self._states:
                state = self.grouping.new_state()
                self._states[src_index] = state
            return self.grouping.route(data, self.n_dst, state)


class Route(NamedTuple):
    """One output port, compiled: where its emissions go.

    Exactly one field answers.  ``targets``: the fixed ``(dst, dst_port)``
    pairs, instance 0 each, in edge order -- every connection of the port
    is direct (see :class:`EdgeRouter`).  ``routers``: the connections'
    routers, asked per emission.  ``collect``: the ``"pe.port"`` results
    key of an unconnected port.
    """

    targets: Optional[Tuple[Tuple[str, str], ...]]
    routers: Tuple[EdgeRouter, ...]
    collect: Optional[str]


class ConcreteWorkflow:
    """Instance counts + compiled routes for one enactment.

    Parameters
    ----------
    graph:
        The validated abstract workflow.
    allocation:
        PE name -> instance count.  Use :func:`from_static` for the paper's
        static rule, or :func:`single_instance` for dynamic mappings (where
        every PE conceptually has one logical queue and any worker may
        execute it).

    The graph is read once, here: :attr:`routes` maps PE name -> output
    port -> :class:`Route` for every declared output port, so routing an
    emission is two dict lookups however many edges the graph has.
    """

    def __init__(self, graph: WorkflowGraph, allocation: Dict[str, int]) -> None:
        graph.validate()
        for name in graph.pes:
            if allocation.get(name, 0) < 1:
                raise GraphError(f"PE {name!r} allocated no instances")
        self.graph = graph
        self.allocation = dict(allocation)
        # A port's routers in edge order (parallel edges between the same
        # two ports are equal and share a router, and each delivers).
        routers = {
            edge: EdgeRouter(edge, graph.effective_grouping(edge), allocation[edge.dst])
            for edge in graph.edges
        }
        connected: Dict[Tuple[str, str], List[EdgeRouter]] = {}
        for edge in graph.edges:
            connected.setdefault((edge.src, edge.src_port), []).append(routers[edge])
        self.routes: Dict[str, Dict[str, Route]] = {}
        for name, pe in graph.pes.items():
            # ``connect`` refuses an undeclared port: these are all of them.
            aliases = getattr(pe, "collector_aliases", None) or {}
            self.routes[name] = {
                port: self._compile(name, port, connected.get((name, port)), aliases)
                for port in pe.outputconnections
            }

    @staticmethod
    def _compile(
        name: str,
        port: str,
        routers: Optional[List[EdgeRouter]],
        aliases: Dict[str, Tuple[str, str]],
    ) -> Route:
        if not routers:
            pe, out = aliases.get(port, (name, port))
            return Route(None, (), f"{pe}.{out}")
        if all(router._direct for router in routers):
            return Route(
                tuple((router.edge.dst, router.edge.dst_port) for router in routers), (), None
            )
        return Route(None, tuple(routers), None)

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
    def all_instances(self) -> List[Tuple[str, int]]:
        """Every (pe_name, index) pair in topological order."""
        result = []
        for name in self.graph.topological_order():
            for index in range(self.allocation[name]):
                result.append((name, index))
        return result

    def total_instances(self) -> int:
        return sum(self.allocation.values())

    def __repr__(self) -> str:
        return (
            f"ConcreteWorkflow({self.graph.name!r}, "
            f"instances={self.total_instances()})"
        )
