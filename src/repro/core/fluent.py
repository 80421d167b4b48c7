"""Fluent, operator-based workflow construction.

This module implements the composable layer on top of the classic
``graph.connect(src, "output", dst, "input")`` string API.  The building
blocks:

- ``a >> b`` chains two PEs through their default ports (the sole port, or
  the conventional ``output``/``input`` name when several are declared).
- ``a.out("x") >> b.in_("left")`` wires named ports explicitly.
- ``a >> GroupBy("state") >> b`` attaches a grouping to the next
  connection inline.
- ``a >> b`` returns a :class:`Chain` -- an immutable description of PEs
  and links that can keep growing (every ``>>`` returns a *new* chain, so
  a prefix can be reused to branch) and is turned into a
  :class:`~repro.core.graph.WorkflowGraph` by
  :meth:`WorkflowGraph.from_chain` or the :class:`Pipeline` builder.

Everything bottoms out in :meth:`WorkflowGraph.add` /
:meth:`WorkflowGraph.connect`, so fluent and string-based construction can
be mixed freely and produce identical graphs.

Example::

    from repro import Pipeline, GroupBy

    graph = Pipeline("wordcount").then(
        reader >> tokenize >> GroupBy([0]) >> count
    ).build()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.core.exceptions import GraphError, PortError
from repro.core.groupings import Grouping
from repro.core.pe import GenericPE

if TYPE_CHECKING:
    from repro.core.graph import WorkflowGraph


def default_output_port(pe: GenericPE) -> str:
    """The port ``a >> b`` reads from: ``output`` if declared, else the sole
    output port."""
    ports = pe.outputconnections
    if GenericPE.OUTPUT_NAME in ports:
        return GenericPE.OUTPUT_NAME
    if len(ports) == 1:
        return next(iter(ports))
    names = sorted(ports) if ports else "none"
    raise PortError(
        f"cannot infer the output port of PE {pe.name!r} (ports: {names}); "
        f"select one explicitly with pe.out(name)"
    )


def default_input_port(pe: GenericPE) -> str:
    """The port ``a >> b`` feeds into: ``input`` if declared, else the sole
    input port."""
    ports = pe.inputconnections
    if GenericPE.INPUT_NAME in ports:
        return GenericPE.INPUT_NAME
    if len(ports) == 1:
        return next(iter(ports))
    names = sorted(ports) if ports else "none"
    raise PortError(
        f"cannot infer the input port of PE {pe.name!r} (ports: {names}); "
        f"select one explicitly with pe.in_(name)"
    )


class OutPort:
    """A named output port of a PE, usable as a chain source: ``pe.out("x")``."""

    __slots__ = ("pe", "port")

    def __init__(self, pe: GenericPE, port: str) -> None:
        if port not in pe.outputconnections:
            raise PortError(f"PE {pe.name!r} has no output port {port!r}")
        self.pe = pe
        self.port = port

    def __rshift__(self, other: Any) -> "Chain":
        return Chain._start(self.pe, self.port) >> other

    def __repr__(self) -> str:
        return f"{self.pe.name}.out({self.port!r})"


class InPort:
    """A named input port of a PE, usable as a chain target: ``pe.in_("x")``."""

    __slots__ = ("pe", "port")

    def __init__(self, pe: GenericPE, port: str) -> None:
        if port not in pe.inputconnections:
            raise PortError(f"PE {pe.name!r} has no input port {port!r}")
        self.pe = pe
        self.port = port

    def __repr__(self) -> str:
        return f"{self.pe.name}.in_({self.port!r})"


class Link:
    """One pending connection of a chain (resolved PE objects and ports)."""

    __slots__ = ("src", "src_port", "dst", "dst_port", "grouping")

    def __init__(
        self,
        src: GenericPE,
        src_port: str,
        dst: GenericPE,
        dst_port: str,
        grouping: Optional[Grouping],
    ) -> None:
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.grouping = grouping

    def key(self) -> Tuple[int, str, int, str, int]:
        """Identity key used to deduplicate links shared by merged chains.

        Includes the grouping's identity: branches reusing a shared prefix
        carry the *same* Link (and grouping) object and collapse to one
        edge, while two deliberately distinct wirings of the same ports
        with different groupings both survive (matching ``connect()``,
        which would create both edges).
        """
        return (
            id(self.src), self.src_port, id(self.dst), self.dst_port,
            id(self.grouping),
        )

    def __repr__(self) -> str:
        grouping = f" [{self.grouping!r}]" if self.grouping is not None else ""
        return (
            f"{self.src.name}.{self.src_port} -> "
            f"{self.dst.name}.{self.dst_port}{grouping}"
        )


class Chain:
    """An immutable, growable description of connected PEs.

    Chains are produced by the ``>>`` operator and consumed by
    :meth:`WorkflowGraph.from_chain` / :class:`Pipeline`.  Because every
    operation returns a fresh chain, a shared prefix can branch::

        head = source >> parse
        left = head >> enrich >> sink_a
        right = head >> audit_sink
        graph = WorkflowGraph.from_chain(left, right, name="fanout")

    Merged chains deduplicate the links they share, so the common prefix
    appears once in the final graph.
    """

    __slots__ = ("pes", "links", "head", "tail", "tail_port", "pending")

    def __init__(
        self,
        pes: Tuple[GenericPE, ...],
        links: Tuple[Link, ...],
        head: GenericPE,
        tail: GenericPE,
        tail_port: Optional[str],
        pending: Optional[Grouping] = None,
    ) -> None:
        self.pes = pes
        self.links = links
        self.head = head
        self.tail = tail
        self.tail_port = tail_port
        self.pending = pending

    # ------------------------------------------------------------ construction
    @classmethod
    def _start(cls, pe: GenericPE, port: Optional[str] = None) -> "Chain":
        return cls(pes=(pe,), links=(), head=pe, tail=pe, tail_port=port)

    def _with_pes(self, *new: GenericPE) -> Tuple[GenericPE, ...]:
        """self.pes plus any of ``new`` not already present (by identity)."""
        pes = self.pes
        for pe in new:
            if not any(existing is pe for existing in pes):
                pes = pes + (pe,)
        return pes

    def _extend(
        self,
        dst: GenericPE,
        dst_port: Optional[str],
        next_tail_port: Optional[str] = None,
    ) -> "Chain":
        src_port = self.tail_port or default_output_port(self.tail)
        link = Link(
            src=self.tail,
            src_port=src_port,
            dst=dst,
            dst_port=dst_port or default_input_port(dst),
            grouping=self.pending,
        )
        return Chain(
            pes=self._with_pes(dst),
            links=self.links + (link,),
            head=self.head,
            tail=dst,
            tail_port=next_tail_port,
        )

    def _with_grouping(self, grouping: Grouping) -> "Chain":
        if self.pending is not None:
            raise GraphError(
                f"two groupings in a row after PE {self.tail.name!r}; "
                f"attach exactly one grouping per connection"
            )
        return Chain(
            pes=self.pes,
            links=self.links,
            head=self.head,
            tail=self.tail,
            tail_port=self.tail_port,
            pending=grouping,
        )

    def _union(self, other: "Chain") -> "Chain":
        """Merge another chain's PEs and links into this one (no bridge).

        Used when the chains share PEs -- the common prefix/joint appears
        once; a pending grouping on either side has no connection to bind
        to and is an error.
        """
        if other.pending is not None:
            raise GraphError("cannot merge a chain that ends with a grouping")
        if self.pending is not None:
            raise GraphError(
                f"the pending grouping after PE {self.tail.name!r} has no "
                f"connection to attach to: the merged chain starts at "
                f"{other.head.name!r}, which this chain already contains"
            )
        seen = {link.key() for link in self.links}
        links = self.links + tuple(
            link for link in other.links if link.key() not in seen
        )
        return Chain(
            pes=self._with_pes(*other.pes),
            links=links,
            head=self.head,
            tail=other.tail,
            tail_port=other.tail_port,
        )

    def _join(self, other: "Chain") -> "Chain":
        if other.pending is not None:
            raise GraphError("cannot join a chain that ends with a grouping")
        if any(existing is other.head for existing in self.pes):
            # The joined chain starts at a PE we already contain (e.g.
            # c1 = a >> b; c2 = b >> c; c1 >> c2): merge the link sets at
            # the shared PE instead of bridging tail-to-head, which would
            # fabricate a spurious edge (and usually a cycle).
            return self._union(other)
        bridge = Link(
            src=self.tail,
            src_port=self.tail_port or default_output_port(self.tail),
            dst=other.head,
            dst_port=default_input_port(other.head),
            grouping=self.pending,
        )
        return Chain(
            pes=self._with_pes(*other.pes),
            links=self.links + (bridge,) + other.links,
            head=self.head,
            tail=other.tail,
            tail_port=other.tail_port,
        )

    def __rshift__(self, other: Any) -> "Chain":
        if isinstance(other, Grouping):
            return self._with_grouping(other)
        if isinstance(other, GenericPE):
            return self._extend(other, None)
        if isinstance(other, InPort):
            return self._extend(other.pe, other.port)
        if isinstance(other, OutPort):
            # `a >> b.out("x")`: connect to b's default input, continue from x.
            return self._extend(other.pe, None, next_tail_port=other.port)
        if isinstance(other, Chain):
            return self._join(other)
        raise TypeError(
            f"cannot chain {other!r} with >>; expected a PE, pe.out(...)/"
            f"pe.in_(...), a Grouping, or another chain"
        )

    # ------------------------------------------------------------- realisation
    def apply_to(self, graph: "WorkflowGraph") -> "WorkflowGraph":
        """Materialise this chain's PEs and links into ``graph``."""
        if self.pending is not None:
            raise GraphError(
                f"chain ends with a dangling grouping after PE "
                f"{self.tail.name!r}; connect it to a destination PE"
            )
        existing = {
            (graph.pe(e.src), e.src_port, graph.pe(e.dst), e.dst_port, id(e.grouping))
            for e in graph.edges
        }
        for pe in self.pes:
            graph.add(pe)
        for link in self.links:
            if (
                link.src, link.src_port, link.dst, link.dst_port,
                id(link.grouping),
            ) in existing:
                continue
            graph.connect(
                link.src, link.src_port, link.dst, link.dst_port,
                grouping=link.grouping,
            )
        return graph

    def graph(self, name: str = "workflow") -> "WorkflowGraph":
        """Build a fresh :class:`WorkflowGraph` from this chain alone."""
        from repro.core.graph import WorkflowGraph

        return WorkflowGraph.from_chain(self, name=name)

    def __repr__(self) -> str:
        path = " >> ".join(pe.name for pe in self.pes)
        return f"Chain({path}, links={len(self.links)})"


Chainable = Any
"""Anything `then`/`>>` accepts: PE, Chain, OutPort, InPort, or Grouping."""


class Pipeline:
    """Incremental builder producing a :class:`WorkflowGraph`.

    ``Pipeline("demo").then(a).then(b, c)`` connects the stages in order
    through their default ports; a stage may itself be a chain or a
    grouping (applied to the following connection)::

        pipeline = (
            Pipeline("sentiment")
            .then(reader >> tokenize)
            .then(GroupBy(["state"]))
            .then(score)
        )
        result = engine.run(pipeline, inputs=100)

    :meth:`build` validates and returns the underlying graph; engines also
    accept the pipeline object directly.
    """

    def __init__(self, name: str = "pipeline") -> None:
        self.name = name
        self._chain: Optional[Chain] = None

    @classmethod
    def from_chain(cls, *chains: Chainable, name: str = "pipeline") -> "Pipeline":
        """Wrap one or more prebuilt chains (merged, deduplicated)."""
        pipeline = cls(name)
        for chain in chains:
            pipeline.then(chain)
        return pipeline

    def then(self, *stages: Chainable) -> "Pipeline":
        """Append stages, connecting each to the current tail via ``>>``."""
        for stage in stages:
            if self._chain is None:
                self._chain = self._as_chain(stage)
            elif isinstance(stage, Chain) and self._overlaps(stage):
                # A branch sharing PEs with what we already have: merge the
                # link sets instead of bridging tail-to-head.
                self._chain = self._merge(stage)
            else:
                self._chain = self._chain >> stage
        return self

    def _as_chain(self, stage: Chainable) -> Chain:
        if isinstance(stage, Chain):
            return stage
        if isinstance(stage, GenericPE):
            return Chain._start(stage)
        if isinstance(stage, OutPort):
            return Chain._start(stage.pe, stage.port)
        if isinstance(stage, Grouping):
            raise GraphError(
                f"pipeline {self.name!r} cannot start with a grouping; "
                f"add a source PE first"
            )
        raise TypeError(f"cannot use {stage!r} as a pipeline stage")

    def _overlaps(self, chain: Chain) -> bool:
        assert self._chain is not None
        ours = {id(pe) for pe in self._chain.pes}
        return any(id(pe) in ours for pe in chain.pes)

    def _merge(self, chain: Chain) -> Chain:
        assert self._chain is not None
        return self._chain._union(chain)

    def build(self, validate: bool = True) -> "WorkflowGraph":
        """Materialise the pipeline into a validated workflow graph."""
        from repro.core.graph import WorkflowGraph

        if self._chain is None:
            raise GraphError(f"pipeline {self.name!r} has no stages")
        graph = WorkflowGraph(self.name)
        self._chain.apply_to(graph)
        if validate:
            graph.validate()
        return graph

    def __repr__(self) -> str:
        stages = 0 if self._chain is None else len(self._chain.pes)
        return f"Pipeline({self.name!r}, pes={stages})"


def coerce_graph(source: Any) -> "WorkflowGraph":
    """Accept a WorkflowGraph, Pipeline, Chain, or PE wherever engines need
    a graph."""
    from repro.core.graph import WorkflowGraph

    if isinstance(source, WorkflowGraph):
        return source
    if isinstance(source, Pipeline):
        return source.build()
    if isinstance(source, Chain):
        graph = source.graph()
        graph.validate()
        return graph
    if isinstance(source, GenericPE):
        graph = WorkflowGraph(source.name)
        graph.add(source)
        graph.validate()
        return graph
    raise TypeError(
        f"expected a WorkflowGraph, Pipeline, chain, or PE; got "
        f"{type(source).__name__}"
    )
