"""Tests for ConcreteWorkflow routing."""

import pytest

from repro.core.concrete import ConcreteWorkflow, EdgeRouter, Route, instance_id
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
        picks_a = [router.route(0, None) for _ in range(2)]
        picks_b = [router.route(1, None) for _ in range(2)]
        assert picks_a == [[0], [1]]
        assert picks_b == [[0], [1]]  # independent counters per source

    def test_groupby_routing(self):
        router = EdgeRouter(self._edge(), GroupBy([0]), n_dst=4)
        assert router.route(0, ("TX", 1)) == router.route(0, ("TX", 2))

    def test_broadcast_fanout(self):
        router = EdgeRouter(self._edge(), OneToAll(), n_dst=3)
        assert router.route(0, "x") == [0, 1, 2]

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

    def test_all_instances_topological(self):
        cw = ConcreteWorkflow.from_static(self._graph(), 5)
        names = [name for name, _ in cw.all_instances()]
        assert names.index("src") < names.index("mid") < names.index("sink")

    def test_dispatch_shuffles_over_instances(self):
        cw = ConcreteWorkflow.from_static(self._graph(), 5)
        collector = ResultsCollector()
        targets = [
            dispatch_emissions(cw, collector, "src", 0, [("output", i)]) for i in range(4)
        ]
        assert targets == [[("mid", "input", index, i)] for i, index in enumerate([0, 1, 0, 1])]

    def test_dispatch_fans_out_over_edges(self):
        g = WorkflowGraph("fan")
        a = Emit(name="a")
        g.connect(a, "output", Double(name="b"), "input")
        g.connect(a, "output", Double(name="c"), "input")
        cw = ConcreteWorkflow.single_instance(g)
        deliveries = dispatch_emissions(cw, ResultsCollector(), "a", 0, [("output", 7)])
        assert deliveries == [("b", "input", 0, 7), ("c", "input", 0, 7)]

    def test_route_respects_group_by(self):
        g = WorkflowGraph("g")
        counter = StatefulCounter(name="counter", instances=4)
        g.connect(Emit(name="src"), "output", counter, "input")
        cw = ConcreteWorkflow(g, {"src": 1, "counter": 4})
        [a], [b] = (
            dispatch_emissions(cw, ResultsCollector(), "src", 0, [("output", ("KEY", n))])
            for n in (1, 2)
        )
        assert a[2] == b[2]

    def test_missing_allocation_rejected(self):
        with pytest.raises(GraphError):
            ConcreteWorkflow(self._graph(), {"src": 1, "mid": 1, "sink": 0})

    def test_connected_port_routes_downstream(self):
        cw = ConcreteWorkflow.from_static(self._graph(), 5)
        deliveries = dispatch_emissions(cw, ResultsCollector(), "mid", 0, [("output", 1)])
        assert deliveries == [("sink", "input", 0, 1)]

    def test_unconnected_port_routes_nowhere(self):
        g = WorkflowGraph("g")
        g.connect(Emit(name="a"), "output", Double(name="b"), "input")
        cw = ConcreteWorkflow.single_instance(g)
        collector = ResultsCollector()
        # b's output port has no outgoing edge: nothing to route, one result.
        assert dispatch_emissions(cw, collector, "b", 0, [("output", 1)]) == []
        assert cw.routes["b"]["output"].collect == "b.output"
        assert collector.as_dict() == {"b.output": [1]}

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


def _scan_route(graph, allocation, states, pe_name, index, port, data):
    """The routing oracle, built from the graph alone: scan
    ``graph.out_edges``, ask each edge's effective grouping with the
    oracle's own state per (edge, source instance) in ``states``.  Equal
    (parallel) edges share a state, as they share a router."""
    deliveries = []
    for edge in graph.out_edges(pe_name, port):
        grouping = graph.effective_grouping(edge)
        if grouping is None:
            grouping = Shuffle()
        if (edge, index) not in states:
            states[edge, index] = grouping.new_state()
        for dst_index in grouping.route(data, allocation[edge.dst], states[edge, index]):
            deliveries.append((edge.dst, edge.dst_port, dst_index, data))
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
        """Both dispatchers route as the edge scan does: ``dispatch_emissions``
        on every allocation and, on one instance per PE, ``dispatch_tasks``
        -- each on its own concrete workflow, so round-robin state advances
        in step with the oracle's.  An unconnected port compiles to its
        results key and dispatches nothing."""
        graph = build()
        allocation = allocation or {name: 1 for name in graph.pes}
        dispatched = ConcreteWorkflow(graph, allocation)
        tasked = ConcreteWorkflow(graph, allocation)
        states = {}
        single = set(allocation.values()) == {1}
        collector = ResultsCollector()
        for round_ in range(7):
            for name, pe in graph.pes.items():
                for index in range(allocation[name]):
                    for port in pe.outputconnections:
                        data = (f"k{round_ % 3}", round_)
                        expected = _scan_route(graph, allocation, states, name, index, port, data)
                        assert dispatch_emissions(
                            dispatched, collector, name, index, [(port, data)]
                        ) == expected
                        if single:
                            assert dispatch_tasks(tasked, collector, name, [(port, data)]) == [
                                (dst, dst_port, data) for dst, dst_port, _index, data in expected
                            ]
                        route = dispatched.routes[name][port]
                        if graph.out_edges(name, port):
                            assert route.collect is None
                        else:
                            assert route.collect == f"{name}.{port}"

    def test_a_port_compiles_to_one_answer(self):
        cw = ConcreteWorkflow(_mixed_port_graph(), {"src": 1, "plain": 1, "keyed": 2})
        assert cw.routes["plain"]["output"] == Route(None, (), "plain.output")
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
        assert cw.routes[fused]["c__output"] == Route(None, (), "c.output")
        collector = ResultsCollector()
        assert dispatch_emissions(cw, collector, fused, 0, [("c__output", 1)]) == []
        assert dispatch_tasks(cw, collector, fused, [("c__output", 2)]) == []
        assert collector.as_dict() == {"c.output": [1, 2]}

    def test_unknown_pe_or_port_has_no_route(self):
        cw = ConcreteWorkflow.single_instance(_chain_graph())
        assert "nope" not in cw.routes["relay0"] and "ghost" not in cw.routes
        with pytest.raises(KeyError):
            dispatch_emissions(cw, ResultsCollector(), "ghost", 0, [("output", 1)])

    def test_custom_grouping_consulted_at_one_destination(self):
        """The lock-free single-destination path is for built-ins only."""
        picky = _Picky()
        g = WorkflowGraph("picky")
        g.connect(Emit(name="a"), "output", Double(name="b"), "input", grouping=picky)
        cw = ConcreteWorkflow.single_instance(g)
        collector = ResultsCollector()
        assert dispatch_emissions(cw, collector, "a", 0, [("output", 2)]) == [("b", "input", 0, 2)]
        with pytest.raises(ValueError, match="odd data 3"):
            dispatch_tasks(cw, collector, "a", [("output", 3)])
        assert picky.asked == [2, 3]

    def test_builtin_subclass_consulted_at_one_destination(self):
        class Nowhere(Shuffle):
            def route(self, data, n_instances, state):
                return []

        router = EdgeRouter(Edge("a", "output", "b", "input"), Nowhere(), n_dst=1)
        assert not router._direct and router.route(0, "x") == []

    def test_group_by_key_extraction_still_raises_at_one_destination(self):
        router = EdgeRouter(Edge("a", "output", "b", "input"), GroupBy(["state"]), n_dst=1)
        assert router.route(0, {"state": "TX"}) == [0]
        with pytest.raises(KeyError):
            router.route(0, {"city": "Austin"})

    @pytest.mark.parametrize("grouping", [None, Shuffle(), AllToOne(), OneToAll()])
    def test_builtins_at_one_destination_deliver_to_instance_zero(self, grouping):
        router = EdgeRouter(Edge("a", "output", "b", "input"), grouping, n_dst=1)
        assert router._direct and router.route(0, "x") == [0]
