"""Tests for WorkflowGraph structure and validation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.exceptions import GraphError, PortError, ValidationError
from repro.core.graph import WorkflowGraph
from tests.conftest import AddOne, Collect, Double, Emit, StatefulCounter, linear_graph


class TestBuild:
    def test_add_and_lookup(self):
        g = WorkflowGraph("g")
        pe = g.add(Emit(name="e"))
        assert g.pe("e") is pe

    def test_duplicate_name_rejected(self):
        g = WorkflowGraph("g")
        g.add(Emit(name="same"))
        with pytest.raises(GraphError):
            g.add(Double(name="same"))

    def test_re_add_same_pe_ok(self):
        g = WorkflowGraph("g")
        pe = Emit(name="e")
        g.add(pe)
        g.add(pe)
        assert len(g.pes) == 1

    def test_add_non_pe_rejected(self):
        with pytest.raises(GraphError):
            WorkflowGraph("g").add("not a pe")

    def test_connect_autoregisters(self):
        g = WorkflowGraph("g")
        a, b = Emit(name="a"), Emit(name="b")
        g.connect(a, "output", b, "input")
        assert set(g.pes) == {"a", "b"}

    def test_connect_by_name(self):
        g = WorkflowGraph("g")
        g.add(Emit(name="a"))
        g.add(Emit(name="b"))
        edge = g.connect("a", "output", "b", "input")
        assert edge.src == "a" and edge.dst == "b"

    def test_connect_unknown_name(self):
        g = WorkflowGraph("g")
        with pytest.raises(GraphError):
            g.connect("ghost", "output", Emit(), "input")

    def test_bad_src_port(self):
        g = WorkflowGraph("g")
        with pytest.raises(PortError):
            g.connect(Emit(name="a"), "nope", Emit(name="b"), "input")

    def test_bad_dst_port(self):
        g = WorkflowGraph("g")
        with pytest.raises(PortError):
            g.connect(Emit(name="a"), "output", Emit(name="b"), "nope")

    def test_pe_lookup_unknown(self):
        with pytest.raises(GraphError):
            WorkflowGraph("g").pe("ghost")


class TestStructure:
    def test_roots_and_sinks(self):
        g = linear_graph(Emit(name="a"), Double(name="b"), Collect(name="c"))
        assert [pe.name for pe in g.roots()] == ["a"]
        assert [pe.name for pe in g.sinks()] == ["c"]

    def test_out_edges_filtered_by_port(self):
        g = WorkflowGraph("g")
        a = Emit(name="a")
        g.connect(a, "output", Emit(name="b"), "input")
        g.connect(a, "output", Emit(name="c"), "input")
        assert len(g.out_edges("a", "output")) == 2
        assert g.out_edges("a", "bogus") == []

    def test_in_edges(self):
        g = WorkflowGraph("g")
        a, b, c = Emit(name="a"), Emit(name="b"), Emit(name="c")
        g.connect(a, "output", c, "input")
        g.connect(b, "output", c, "input")
        assert len(g.in_edges("c")) == 2

    def test_topological_order(self):
        g = linear_graph(Emit(name="a"), Emit(name="b"), Emit(name="c"))
        assert g.topological_order() == ["a", "b", "c"]

    def test_to_networkx_shape(self):
        pytest.importorskip("networkx")
        g = linear_graph(Emit(name="a"), Emit(name="b"))
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == 2
        assert nxg.number_of_edges() == 1


def graph_of(nodes, edges):
    """Emit PEs added in ``nodes`` order, connected in ``edges`` order."""
    g = WorkflowGraph("g")
    for name in nodes:
        g.add(Emit(name=name))
    for src, dst in edges:
        g.connect(src, "output", dst, "input")
    return g


@st.composite
def dags(draw):
    """(nodes, edges) of a DAG: insertion order independent of the edge
    direction, edges in any order, parallel edges allowed."""
    ranked = draw(st.permutations([f"n{i}" for i in range(draw(st.integers(1, 8)))]))
    index = st.integers(0, len(ranked) - 1)
    edges = [
        (ranked[min(i, j)], ranked[max(i, j)])
        for i, j in draw(st.lists(st.tuples(index, index), max_size=16))
        if i != j
    ]
    return sorted(ranked), edges


class TestTopologicalOrderMatchesNetworkx:
    """The stdlib Kahn pass returns networkx's order, not just *an* order:
    ``simple`` fires PEs and ``ConcreteWorkflow`` numbers instances by it."""

    @staticmethod
    def reference(g):
        nx = pytest.importorskip("networkx")
        return list(nx.topological_sort(g.to_networkx()))

    @pytest.mark.parametrize(
        "nodes, edges",
        [
            pytest.param("cba", [("a", "b"), ("b", "c")], id="chain-added-backwards"),
            pytest.param("abcd", [("a", "c"), ("a", "b"), ("c", "d"), ("b", "d")], id="diamond"),
            pytest.param("abcde", [("a", "d"), ("a", "b"), ("a", "c"), ("b", "e"), ("c", "e"), ("d", "e")], id="fan-out-fan-in"),
            pytest.param("abc", [("a", "b"), ("a", "b"), ("a", "c"), ("c", "b")], id="parallel-edges"),
            pytest.param("xabyc", [("b", "c"), ("y", "c"), ("a", "y"), ("x", "y")], id="several-roots"),
            pytest.param("abcd", [("a", "c"), ("b", "c"), ("a", "d"), ("c", "d")], id="child-freed-a-generation-late"),
            pytest.param("ab", [], id="no-edges"),
        ],
    )
    def test_named_shapes(self, nodes, edges):
        g = graph_of(nodes, edges)
        assert g.topological_order() == self.reference(g)

    @given(dag=dags())
    def test_generated_dags(self, dag):
        g = graph_of(*dag)
        assert g.topological_order() == self.reference(g)

    def test_parallel_edges_each_count(self):
        """b has in-degree 3 (two from a, one from c): it must wait for c."""
        g = graph_of("abc", [("a", "b"), ("a", "b"), ("a", "c"), ("c", "b")])
        assert g.topological_order() == ["a", "c", "b"]

    @pytest.mark.parametrize(
        "edges",
        [[("a", "a")], [("a", "b"), ("b", "a")], [("r", "a"), ("a", "b"), ("b", "a")]],
        ids=["self-loop", "two-cycle", "cycle-below-a-root"],
    )
    def test_cycle_raises(self, edges):
        g = graph_of("rab", edges)
        with pytest.raises(ValidationError, match="cycle"):
            g.topological_order()


class TestEffectiveGrouping:
    def test_edge_grouping_overrides_port(self):
        g = WorkflowGraph("g")
        counter = StatefulCounter(name="c")  # port declares group-by [0]
        edge = g.connect(Emit(name="a"), "output", counter, "input", grouping="global")
        grouping = g.effective_grouping(edge)
        assert type(grouping).__name__ == "AllToOne"

    def test_port_grouping_used_when_edge_silent(self):
        g = WorkflowGraph("g")
        counter = StatefulCounter(name="c")
        edge = g.connect(Emit(name="a"), "output", counter, "input")
        assert type(g.effective_grouping(edge)).__name__ == "GroupBy"


class TestStatefulDetection:
    def test_stateless_graph(self):
        g = linear_graph(Emit(name="a"), Double(name="b"))
        assert not g.is_stateful()
        assert g.stateful_pes() == []

    def test_grouping_makes_stateful(self):
        g = WorkflowGraph("g")
        counter = StatefulCounter(name="c")
        g.connect(Emit(name="a"), "output", counter, "input")
        assert g.is_stateful()
        assert [pe.name for pe in g.stateful_pes()] == ["c"]

    def test_edge_grouping_makes_stateful(self):
        g = WorkflowGraph("g")
        g.connect(Emit(name="a"), "output", Double(name="b"), "input", grouping=[0])
        assert g.is_stateful()


class TestValidation:
    def test_empty_graph_invalid(self):
        with pytest.raises(ValidationError):
            WorkflowGraph("g").validate()

    def test_single_pe_valid(self):
        g = WorkflowGraph("g")
        g.add(Emit(name="only"))
        g.validate()

    def test_cycle_detected(self):
        g = WorkflowGraph("g")
        a, b = Emit(name="a"), Emit(name="b")
        g.connect(a, "output", b, "input")
        g.connect(b, "output", a, "input")
        with pytest.raises(ValidationError):
            g.validate()

    def test_disconnected_pe_invalid(self):
        g = WorkflowGraph("g")
        g.connect(Emit(name="a"), "output", Emit(name="b"), "input")
        g.add(Emit(name="stray"))
        with pytest.raises(ValidationError):
            g.validate()

    def test_root_with_input_port_is_valid(self):
        """Roots declare input ports (the engine drives them)."""
        g = linear_graph(AddOne(name="src"), Collect(name="sink"))
        g.validate()

    def test_repr(self):
        g = linear_graph(Emit(name="a"), Emit(name="b"))
        assert "pes=2" in repr(g)
