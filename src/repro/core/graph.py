"""The abstract workflow: a DAG of PEs connected port-to-port.

Users build a :class:`WorkflowGraph` by adding PEs and connecting output
ports to input ports, optionally attaching a grouping to the connection
(edge-level groupings override port-level declarations).  The graph is the
*abstract workflow* of the paper's Figure 1; mappings translate it into a
concrete workflow via :mod:`repro.core.partition` and
:mod:`repro.core.concrete`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.core.exceptions import GraphError, PortError, ValidationError
from repro.core.groupings import Grouping, as_grouping
from repro.core.pe import GenericPE

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class Edge:
    """A directed connection from an output port to an input port."""

    src: str
    src_port: str
    dst: str
    dst_port: str
    grouping: Optional[Grouping] = field(default=None, compare=False)

    def __repr__(self) -> str:
        grouping = f" [{self.grouping!r}]" if self.grouping is not None else ""
        return f"{self.src}.{self.src_port} -> {self.dst}.{self.dst_port}{grouping}"


PELike = Union[str, GenericPE]


class WorkflowGraph:
    """A directed acyclic graph of processing elements."""

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self.pes: Dict[str, GenericPE] = {}
        self.edges: List[Edge] = []

    # ---------------------------------------------------------------- build
    def add(self, pe: GenericPE) -> GenericPE:
        """Register a PE; names must be unique within the graph.

        A colliding *auto-generated* name (``Double0`` from an unnamed
        ``Double()``) is deterministically re-slotted to the next free
        ``ClassName<i>`` within this graph, so graph construction does not
        depend on how many unnamed PEs earlier code created.  Colliding
        user-chosen names stay an error.
        """
        if not isinstance(pe, GenericPE):
            raise GraphError(f"expected a GenericPE, got {type(pe).__name__}")
        existing = self.pes.get(pe.name)
        if existing is not None and existing is not pe:
            # Renaming is only safe while no other graph references the PE
            # by its current name (edges and input specs key on names).
            if getattr(pe, "_auto_named", False) and not getattr(pe, "_in_graph", False):
                index = 0
                while f"{type(pe).__name__}{index}" in self.pes:
                    index += 1
                pe.name = f"{type(pe).__name__}{index}"
            else:
                raise GraphError(
                    f"duplicate PE name {pe.name!r} in graph {self.name!r}"
                )
        self.pes[pe.name] = pe
        pe._in_graph = True
        return pe

    def _resolve(self, pe: PELike) -> GenericPE:
        if isinstance(pe, GenericPE):
            self.add(pe)
            return pe
        resolved = self.pes.get(pe)
        if resolved is None:
            raise GraphError(f"unknown PE {pe!r} in graph {self.name!r}")
        return resolved

    def connect(
        self,
        src: PELike,
        src_port: str,
        dst: PELike,
        dst_port: str,
        grouping: Any = None,
    ) -> Edge:
        """Connect ``src.src_port`` to ``dst.dst_port``.

        ``grouping`` accepts anything :func:`repro.core.groupings.as_grouping`
        understands and overrides any grouping declared on the destination
        port.
        """
        src_pe = self._resolve(src)
        dst_pe = self._resolve(dst)
        if src_port not in src_pe.outputconnections:
            raise PortError(f"PE {src_pe.name!r} has no output port {src_port!r}")
        if dst_port not in dst_pe.inputconnections:
            raise PortError(f"PE {dst_pe.name!r} has no input port {dst_port!r}")
        edge = Edge(
            src=src_pe.name,
            src_port=src_port,
            dst=dst_pe.name,
            dst_port=dst_port,
            grouping=as_grouping(grouping) if grouping is not None else None,
        )
        self.edges.append(edge)
        return edge

    @classmethod
    def from_chain(cls, *chains: Any, name: str = "workflow") -> "WorkflowGraph":
        """Build a graph from fluent chains (``a >> b >> c``).

        Multiple chains merge: PEs are deduplicated by identity and links
        shared between chains (a common branching prefix) appear once.
        Accepts bare PEs too, so a single-PE workflow needs no chain.
        """
        from repro.core.fluent import Chain

        graph = cls(name)
        for chain in chains:
            if isinstance(chain, GenericPE):
                graph.add(chain)
            elif isinstance(chain, Chain):
                chain.apply_to(graph)
            else:
                raise GraphError(
                    f"from_chain expects chains or PEs, got {type(chain).__name__}"
                )
        return graph

    # ---------------------------------------------------------------- query
    def pe(self, name: str) -> GenericPE:
        try:
            return self.pes[name]
        except KeyError:
            raise GraphError(f"unknown PE {name!r} in graph {self.name!r}") from None

    def out_edges(self, pe_name: str, port: Optional[str] = None) -> List[Edge]:
        return [
            e
            for e in self.edges
            if e.src == pe_name and (port is None or e.src_port == port)
        ]

    def in_edges(self, pe_name: str, port: Optional[str] = None) -> List[Edge]:
        return [
            e
            for e in self.edges
            if e.dst == pe_name and (port is None or e.dst_port == port)
        ]

    def roots(self) -> List[GenericPE]:
        """PEs with no incoming edges (the workflow sources)."""
        with_inputs = {e.dst for e in self.edges}
        return [pe for name, pe in self.pes.items() if name not in with_inputs]

    def sinks(self) -> List[GenericPE]:
        with_outputs = {e.src for e in self.edges}
        return [pe for name, pe in self.pes.items() if name not in with_outputs]

    def effective_grouping(self, edge: Edge) -> Optional[Grouping]:
        """Edge grouping if given, else the destination port's declaration."""
        if edge.grouping is not None:
            return edge.grouping
        return self.pe(edge.dst).input_grouping(edge.dst_port)

    def is_stateful(self) -> bool:
        """True if any PE is stateful or any connection pins instances."""
        if any(pe.is_stateful() for pe in self.pes.values()):
            return True
        return any(
            (g := self.effective_grouping(e)) is not None and g.requires_state
            for e in self.edges
        )

    def stateful_pes(self) -> List[GenericPE]:
        """PEs that must keep pinned state (flagged, or state-pinning inputs)."""
        result = []
        for name, pe in self.pes.items():
            pinned = pe.is_stateful() or any(
                (g := self.effective_grouping(e)) is not None and g.requires_state
                for e in self.in_edges(name)
            )
            if pinned:
                result.append(pe)
        return result

    # ------------------------------------------------------------- structure
    def to_networkx(self) -> "nx.MultiDiGraph":
        """The graph as a ``networkx.MultiDiGraph`` (needs networkx installed)."""
        import networkx as nx

        graph = nx.MultiDiGraph(name=self.name)
        for name in self.pes:
            graph.add_node(name)
        for edge in self.edges:
            graph.add_edge(edge.src, edge.dst, src_port=edge.src_port, dst_port=edge.dst_port)
        return graph

    def topological_order(self) -> List[str]:
        """PE names, every PE after all of its upstream PEs.

        Kahn's algorithm one generation at a time, in the exact order of
        ``networkx.topological_sort(self.to_networkx())``: roots in the
        order the PEs were added, then each generation's newly freed PEs
        in the order their parents list them (a parent's children in
        first-edge order).  Parallel edges each count towards in-degree.
        """
        children: Dict[str, Dict[str, int]] = {name: {} for name in self.pes}
        indegree = dict.fromkeys(self.pes, 0)
        for edge in self.edges:
            fanout = children[edge.src]
            fanout[edge.dst] = fanout.get(edge.dst, 0) + 1
            indegree[edge.dst] += 1
        order: List[str] = []
        generation = [name for name, degree in indegree.items() if degree == 0]
        while generation:
            order.extend(generation)
            freed: List[str] = []
            for name in generation:
                for child, parallel in children[name].items():
                    indegree[child] -= parallel
                    if indegree[child] == 0:
                        freed.append(child)
            generation = freed
        if len(order) != len(self.pes):
            raise ValidationError(f"workflow {self.name!r} contains a cycle")
        return order

    def validate(self) -> None:
        """Raise :class:`ValidationError` on structural problems.

        Checks: at least one PE, acyclicity, at least one source, and that
        every PE with declared inputs is reachable (has at least one
        incoming connection per used port is *not* required -- optional
        inputs are legal -- but fully disconnected non-root PEs are almost
        certainly bugs).
        """
        if not self.pes:
            raise ValidationError(f"workflow {self.name!r} has no PEs")
        self.topological_order()  # raises on cycles
        roots = self.roots()
        if not roots:
            raise ValidationError(f"workflow {self.name!r} has no source PE")
        connected = {e.src for e in self.edges} | {e.dst for e in self.edges}
        for name in self.pes:
            # Roots may declare input ports (the engine drives them), but a
            # PE with no connections at all in a multi-PE graph is a bug.
            if len(self.pes) > 1 and name not in connected:
                raise ValidationError(
                    f"PE {name!r} is disconnected from workflow {self.name!r}"
                )

    def __repr__(self) -> str:
        return (
            f"WorkflowGraph({self.name!r}, pes={len(self.pes)}, edges={len(self.edges)})"
        )
