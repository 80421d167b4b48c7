"""Tests for ConcreteWorkflow routing."""

import pytest

from repro.core.concrete import ConcreteWorkflow, Delivery, EdgeRouter, Route, instance_id
from repro.core.exceptions import GraphError
from repro.core.graph import Edge, WorkflowGraph
from repro.core.groupings import AllToOne, GroupBy, Grouping, OneToAll, Shuffle
from repro.mappings.base import ResultsCollector, dispatch_emissions, dispatch_tasks
from repro.planner import fuse_graph
from tests.conftest import AddOne, Collect, Double, Emit, StatefulCounter, linear_graph


class TestInstanceId:
    def test_format(self):
        assert instance_id("pe", 3) == "pe.3"


class TestEdgeRouter:
    def _edge(self):
        return Edge(src="a", src_port="output", dst="b", dst_port="input")

    def test_shuffle_round_robin_per_source(self):
        router = EdgeRouter(self._edge(), Shuffle(), n_dst=3)
        picks_a = [router.route("a.0", None)[0].dst_index for _ in range(3)]
        picks_b = [router.route("a.1", None)[0].dst_index for _ in range(3)]
        assert picks_a == [0, 1, 2]
        assert picks_b == [0, 1, 2]  # independent counters per source

    def test_groupby_routing(self):
        router = EdgeRouter(self._edge(), GroupBy([0]), n_dst=4)
        a = router.route("a.0", ("TX", 1))[0].dst_index
        b = router.route("a.0", ("TX", 2))[0].dst_index
        assert a == b

    def test_broadcast_fanout(self):
        router = EdgeRouter(self._edge(), OneToAll(), n_dst=3)
        deliveries = router.route("a.0", "x")
        assert [d.dst_index for d in deliveries] == [0, 1, 2]
        assert all(d.dst == "b" and d.dst_port == "input" for d in deliveries)

    def test_default_grouping_is_shuffle(self):
        router = EdgeRouter(self._edge(), None, n_dst=2)
        assert isinstance(router.grouping, Shuffle)

    def test_zero_instances_rejected(self):
        with pytest.raises(GraphError):
            EdgeRouter(self._edge(), Shuffle(), n_dst=0)


class TestConcreteWorkflow:
    def _graph(self):
        return linear_graph(Emit(name="src"), Double(name="mid"), Collect(name="sink"))

    def test_from_static_uses_figure1_rule(self):
        cw = ConcreteWorkflow.from_static(self._graph(), 5)
        assert cw.allocation == {"src": 1, "mid": 2, "sink": 2}
        assert cw.total_instances() == 5

    def test_single_instance(self):
        cw = ConcreteWorkflow.single_instance(self._graph())
        assert set(cw.allocation.values()) == {1}

    def test_instances_of(self):
        cw = ConcreteWorkflow.from_static(self._graph(), 5)
        assert cw.instances_of("mid") == ["mid.0", "mid.1"]

    def test_all_instances_topological(self):
        cw = ConcreteWorkflow.from_static(self._graph(), 5)
        names = [name for name, _ in cw.all_instances()]
        assert names.index("src") < names.index("mid") < names.index("sink")

    def test_route_output_shuffles_over_instances(self):
        cw = ConcreteWorkflow.from_static(self._graph(), 5)
        targets = [
            cw.route_output("src", 0, "output", i)[0].dst_index for i in range(4)
        ]
        assert targets == [0, 1, 0, 1]

    def test_route_output_fanout_edges(self):
        g = WorkflowGraph("fan")
        a = Emit(name="a")
        g.connect(a, "output", Double(name="b"), "input")
        g.connect(a, "output", Double(name="c"), "input")
        cw = ConcreteWorkflow.single_instance(g)
        deliveries = cw.route_output("a", 0, "output", 7)
        assert {d.dst for d in deliveries} == {"b", "c"}

    def test_route_respects_group_by(self):
        g = WorkflowGraph("g")
        counter = StatefulCounter(name="counter", instances=4)
        g.connect(Emit(name="src"), "output", counter, "input")
        cw = ConcreteWorkflow(g, {"src": 1, "counter": 4})
        a = cw.route_output("src", 0, "output", ("KEY", 1))[0].dst_index
        b = cw.route_output("src", 0, "output", ("KEY", 2))[0].dst_index
        assert a == b

    def test_missing_allocation_rejected(self):
        with pytest.raises(GraphError):
            ConcreteWorkflow(self._graph(), {"src": 1, "mid": 1, "sink": 0})

    def test_connected_port_routes_downstream(self):
        cw = ConcreteWorkflow.from_static(self._graph(), 5)
        deliveries = cw.route_output("mid", 0, "output", 1)
        assert deliveries[0].dst == "sink"

    def test_unconnected_port_routes_nowhere(self):
        g = WorkflowGraph("g")
        g.connect(Emit(name="a"), "output", Double(name="b"), "input")
        cw = ConcreteWorkflow.single_instance(g)
        # b's output port has no outgoing edge: nothing to route.
        assert cw.route_output("b", 0, "output", 1) == []

    def test_repr(self):
        cw = ConcreteWorkflow.from_static(self._graph(), 5)
        assert "instances=5" in repr(cw)


class _Picky(Grouping):
    """User grouping that refuses odd data; remembers what it was asked."""

    def __init__(self):
        self.asked = []

    def route(self, data, n_instances, state):
        self.asked.append(data)
        if data % 2:
            raise ValueError(f"odd data {data}")
        return [0]


def _scan_route(reference, graph, pe_name, index, port, data):
    """The pre-index routing: scan ``graph.out_edges``, ask each edge's
    router.  ``reference`` is a second ConcreteWorkflow of the same graph,
    so round-robin state advances independently of the one under test."""
    deliveries = []
    for edge in graph.out_edges(pe_name, port):
        deliveries.extend(reference.router(edge).route(instance_id(pe_name, index), data))
    return deliveries


def _chain_graph():
    return linear_graph(*[Emit(name=f"relay{i}") for i in range(6)])


def _fanout_graph():
    g = WorkflowGraph("fan")
    a = Emit(name="a")
    g.connect(a, "output", Double(name="b"), "input")
    g.connect(a, "output", Double(name="c"), "input")
    g.connect("b", "output", Collect(name="sink"), "input")
    return g


def _groupby_graph():
    g = WorkflowGraph("keyed")
    g.connect(Emit(name="src"), "output", StatefulCounter(name="counter", instances=3), "input")
    return g


def _parallel_edges_graph():
    g = WorkflowGraph("twice")
    a, b = Emit(name="a"), Double(name="b")
    g.connect(a, "output", b, "input")
    g.connect(a, "output", b, "input")
    return g


class _ByRound(Grouping):
    """A user grouping: instance ``round % n``, whatever the key."""

    def route(self, data, n_instances, state):
        return [data[1] % n_instances]


def _broadcast_graph():
    g = WorkflowGraph("broadcast")
    g.connect(Emit(name="src"), "output", Double(name="all"), "input", grouping=OneToAll())
    return g


def _user_grouping_graph():
    g = WorkflowGraph("user")
    g.connect(Emit(name="src"), "output", Double(name="picked"), "input", grouping=_ByRound())
    return g


def _mixed_port_graph():
    """One port, two connections: one direct, one keyed."""
    g = WorkflowGraph("mixed")
    src = Emit(name="src")
    g.connect(src, "output", Double(name="plain"), "input")
    g.connect(src, "output", Double(name="keyed"), "input", grouping=GroupBy([0]))
    return g


class TestRouteIndex:
    @pytest.mark.parametrize(
        "build, allocation",
        [
            (_chain_graph, None),
            (_chain_graph, {f"relay{i}": 1 + i % 3 for i in range(6)}),
            (_fanout_graph, None),
            (_fanout_graph, {"a": 2, "b": 3, "c": 1, "sink": 2}),
            (_groupby_graph, {"src": 2, "counter": 3}),
            (_groupby_graph, None),
            (_parallel_edges_graph, {"a": 1, "b": 3}),
            (_parallel_edges_graph, None),
            (_broadcast_graph, {"src": 2, "all": 3}),
            (_broadcast_graph, None),
            (_user_grouping_graph, {"src": 1, "picked": 3}),
            (_user_grouping_graph, None),
            (_mixed_port_graph, {"src": 2, "plain": 1, "keyed": 2}),
        ],
    )
    def test_indexed_routing_equals_edge_scan(self, build, allocation):
        """Every caller of the compiled table routes as the edge scan does:
        ``route_output``, ``dispatch_emissions`` and, on one instance per
        PE, ``dispatch_tasks`` -- each on its own concrete workflow, so
        round-robin state advances in step with the reference's."""
        graph = build()
        allocation = allocation or {name: 1 for name in graph.pes}
        indexed = ConcreteWorkflow(graph, allocation)
        dispatched = ConcreteWorkflow(graph, allocation)
        tasked = ConcreteWorkflow(graph, allocation)
        reference = ConcreteWorkflow(graph, allocation)
        single = set(allocation.values()) == {1}
        collector = ResultsCollector()
        for round_ in range(7):
            for name, pe in graph.pes.items():
                for index in range(allocation[name]):
                    for port in pe.outputconnections:
                        data = (f"k{round_ % 3}", round_)
                        expected = _scan_route(reference, graph, name, index, port, data)
                        assert indexed.route_output(name, index, port, data) == expected
                        assert dispatch_emissions(
                            dispatched, collector, name, index, [(port, data)]
                        ) == expected
                        if single:
                            assert dispatch_tasks(tasked, collector, name, [(port, data)]) == [
                                (d.dst, d.dst_port, d.data) for d in expected
                            ]
                        assert indexed.connected(name, port) == bool(graph.out_edges(name, port))

    def test_a_port_compiles_to_one_answer(self):
        cw = ConcreteWorkflow(_mixed_port_graph(), {"src": 1, "plain": 1, "keyed": 2})
        assert cw.routes["plain"]["output"] == Route(None, (), ("plain", "output"))
        mixed = cw.routes["src"]["output"]
        assert mixed.targets is None and mixed.collect is None
        assert [router.edge.dst for router in mixed.routers] == ["plain", "keyed"]
        chain = ConcreteWorkflow.single_instance(_parallel_edges_graph())
        assert chain.routes["a"]["output"] == Route((("b", "input"), ("b", "input")), (), None)
        assert ConcreteWorkflow.single_instance(_groupby_graph()).routes["src"]["output"].routers

    def test_a_fused_port_credits_the_original_key(self):
        graph = fuse_graph(linear_graph(Emit(name="a"), Double(name="b"), AddOne(name="c"))).graph
        [fused] = graph.pes
        cw = ConcreteWorkflow.single_instance(graph)
        assert cw.routes[fused]["c__output"] == Route(None, (), ("c", "output"))
        assert not cw.connected(fused, "c__output")
        collector = ResultsCollector()
        assert dispatch_emissions(cw, collector, fused, 0, [("c__output", 1)]) == []
        assert dispatch_tasks(cw, collector, fused, [("c__output", 2)]) == []
        assert collector.as_dict() == {"c.output": [1, 2]}

    def test_unknown_pe_or_port_is_unconnected(self):
        cw = ConcreteWorkflow.single_instance(_chain_graph())
        assert not cw.connected("relay0", "nope") and not cw.connected("ghost", "output")
        assert cw.route_output("ghost", 0, "output", 1) == []

    def test_custom_grouping_consulted_at_one_destination(self):
        """The lock-free single-destination path is for built-ins only."""
        picky = _Picky()
        g = WorkflowGraph("picky")
        g.connect(Emit(name="a"), "output", Double(name="b"), "input", grouping=picky)
        cw = ConcreteWorkflow.single_instance(g)
        assert [d.dst_index for d in cw.route_output("a", 0, "output", 2)] == [0]
        with pytest.raises(ValueError, match="odd data 3"):
            cw.route_output("a", 0, "output", 3)
        assert picky.asked == [2, 3]

    def test_builtin_subclass_consulted_at_one_destination(self):
        class Nowhere(Shuffle):
            def route(self, data, n_instances, state):
                return []

        router = EdgeRouter(Edge("a", "output", "b", "input"), Nowhere(), n_dst=1)
        assert router.route("a.0", "x") == []

    def test_group_by_key_extraction_still_raises_at_one_destination(self):
        router = EdgeRouter(Edge("a", "output", "b", "input"), GroupBy(["state"]), n_dst=1)
        assert [d.dst_index for d in router.route("a.0", {"state": "TX"})] == [0]
        with pytest.raises(KeyError):
            router.route("a.0", {"city": "Austin"})

    @pytest.mark.parametrize("grouping", [None, Shuffle(), AllToOne(), OneToAll()])
    def test_builtins_at_one_destination_deliver_to_instance_zero(self, grouping):
        router = EdgeRouter(Edge("a", "output", "b", "input"), grouping, n_dst=1)
        assert router.route("a.0", "x") == [Delivery("b", "input", 0, "x")]
