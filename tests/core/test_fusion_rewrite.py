"""Unit tests for the operator-fusion rewrite pass.

The rewrite itself lives in :mod:`repro.planner.fusion` since the planner
refactor; the ``FusedPE`` runtime stays in :mod:`repro.core.fusion`.
"""

import copy

import pytest

from repro.core.context import ExecutionContext
from repro.core.exceptions import GraphError
from repro.core.fusion import FusedPE, MemberMeter, fused_name
from repro.planner import Plan, find_fusable_chains, fuse_graph
from repro.core.graph import WorkflowGraph
from repro.core.groupings import GroupBy, Shuffle
from tests.conftest import (
    AddOne,
    Collect,
    Double,
    Emit,
    StatefulCounter,
    linear_graph,
)


def _chain_names(graph):
    return [chain for chain, _pin in find_fusable_chains(graph)]


class TestChainDiscovery:
    def test_linear_graph_fuses_whole_chain(self):
        g = linear_graph(Emit(name="a"), Double(name="b"), AddOne(name="c"))
        assert _chain_names(g) == [["a", "b", "c"]]

    def test_single_pe_graph_has_no_chain(self):
        g = linear_graph(Emit(name="only"))
        assert _chain_names(g) == []

    def test_fan_out_is_a_boundary(self):
        g = WorkflowGraph("fan")
        src = Emit(name="src")
        g.connect(src, "output", Double(name="d"), "input")
        g.connect(src, "output", AddOne(name="a"), "input")
        g.connect(g.pe("d"), "output", AddOne(name="da"), "input")
        # src fans out (boundary); d >> da is the only 1:1 run.
        assert _chain_names(g) == [["d", "da"]]

    def test_fan_in_is_a_boundary(self):
        g = WorkflowGraph("join")
        a, b, sink = Emit(name="a"), Emit(name="b"), Collect(name="sink")
        g.connect(a, "output", sink, "input")
        g.connect(b, "output", sink, "input")
        assert _chain_names(g) == []

    def test_conflicting_pins_split_the_chain(self):
        a, b, c = Emit(name="a"), Double(name="b"), AddOne(name="c")
        b.numprocesses = 2
        c.numprocesses = 4
        g = linear_graph(a, b, c)
        assert _chain_names(g) == [["a", "b"]]

    def test_compatible_pins_merge(self):
        a, b, c = Emit(name="a"), Double(name="b"), AddOne(name="c")
        b.numprocesses = 3
        c.numprocesses = 3
        g = linear_graph(a, b, c)
        chains = find_fusable_chains(g)
        assert chains == [(["a", "b", "c"], 3)]

    def test_unpinned_members_leave_pin_unset(self):
        g = linear_graph(Emit(name="a"), Double(name="b"))
        assert find_fusable_chains(g) == [(["a", "b"], None)]

    def test_groupby_edge_requires_single_instance(self):
        """A state-pinning grouping erases under fusion, so the chain must
        land on one instance: instances=2 blocks, instances=1 fuses."""
        g = linear_graph(Emit(name="src"), StatefulCounter(name="c", instances=2))
        assert _chain_names(g) == []
        g1 = linear_graph(Emit(name="src"), StatefulCounter(name="c", instances=1))
        assert find_fusable_chains(g1) == [(["src", "c"], 1)]

    def test_edge_level_grouping_blocks_multi_instance_dst(self):
        g = WorkflowGraph("edgegroup")
        a, b = Emit(name="a"), Double(name="b")
        b.numprocesses = 2
        g.connect(a, "output", b, "input", grouping=GroupBy([0]))
        assert _chain_names(g) == []

    def test_explicit_shuffle_grouping_fuses(self):
        g = WorkflowGraph("shuffled")
        g.connect(Emit(name="a"), "output", Double(name="b"), "input", grouping=Shuffle())
        assert _chain_names(g) == [["a", "b"]]

    def test_stateful_head_with_multi_instance_pin_fuses_downstream(self):
        """A stateful chain *head* keeps its inbound grouping (preserved by
        the rewrite), so it may absorb stateless 1:1 downstream even with
        a multi-instance pin."""
        g = WorkflowGraph("aggr")
        src = Emit(name="src")
        counter = StatefulCounter(name="counter", instances=3)
        tail = Emit(name="tail")
        g.connect(src, "output", counter, "input")
        g.connect(counter, "output", tail, "input")
        # src >> counter blocked (GroupBy into 3 instances); counter >> tail fuses.
        chains = find_fusable_chains(g)
        assert chains == [(["counter", "tail"], 3)]

    def test_stateful_non_head_needs_pin_one(self):
        g = WorkflowGraph("aggr2")
        src = Emit(name="src")
        src.numprocesses = 2
        counter = StatefulCounter(name="counter", instances=2)
        g.connect(src, "output", counter, "input")
        assert _chain_names(g) == []

    def test_chains_are_claimed_greedily_in_topological_order(self):
        g = linear_graph(*[Emit(name=f"p{i}") for i in range(6)])
        assert _chain_names(g) == [[f"p{i}" for i in range(6)]]


class TestRewrite:
    def test_non_fusable_graph_returned_unchanged(self):
        g = WorkflowGraph("join")
        a, b, sink = Emit(name="a"), Emit(name="b"), Collect(name="sink")
        g.connect(a, "output", sink, "input")
        g.connect(b, "output", sink, "input")
        plan = fuse_graph(g)
        assert plan.graph is g
        assert not plan.fused
        assert plan.chains == ()
        assert plan.steps == ()
        assert plan.counters == {}

    def test_fused_graph_structure(self):
        g = WorkflowGraph("fan")
        src = Emit(name="src")
        g.connect(src, "output", Double(name="d"), "input")
        g.connect(src, "output", AddOne(name="a"), "input")
        g.connect(g.pe("d"), "output", AddOne(name="da"), "input")
        plan = fuse_graph(g)
        name = fused_name(["d", "da"])
        assert set(plan.graph.pes) == {"src", "a", name}
        assert plan.member_to_fused == {"d": name, "da": name}
        assert plan.counters == {"fused_chains": 1, "fused_members": 2}
        (step,) = plan.steps
        assert (step.rule, step.detail) == ("chain_fusion", "fused 1 chain(s): d+da")
        # The inbound edge re-pointed at the fused head, port unchanged.
        (edge,) = plan.graph.in_edges(name)
        assert (edge.src, edge.dst_port) == ("src", "input")

    def test_edge_groupings_preserved_on_rewritten_edges(self):
        g = WorkflowGraph("grouped")
        src = Emit(name="src")
        mid = Double(name="mid")
        counter = StatefulCounter(name="counter", instances=2)
        g.connect(src, "output", mid, "input")
        g.connect(mid, "output", counter, "input", grouping=GroupBy([0]))
        plan = fuse_graph(g)
        name = fused_name(["src", "mid"])
        assert set(plan.graph.pes) == {name, "counter"}
        (edge,) = plan.graph.in_edges("counter")
        assert isinstance(edge.grouping, GroupBy)

    def test_fused_pin_and_statefulness(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="c", instances=1))
        plan = fuse_graph(g)
        fused = plan.graph.pes[fused_name(["src", "c"])]
        assert fused.numprocesses == 1
        assert fused.is_stateful()

    def test_rename_inputs_rekeys_fused_roots(self):
        g = linear_graph(Emit(name="a"), Double(name="b"))
        plan = fuse_graph(g)
        provided = {"a": [{"input": 1}, {"input": 2}]}
        assert plan.rename_inputs(provided) == {
            fused_name(["a", "b"]): [{"input": 1}, {"input": 2}]
        }

    def test_fuse_is_idempotent(self):
        """Fusing an already-fused graph finds nothing new to do."""
        g = linear_graph(Emit(name="a"), Double(name="b"), AddOne(name="c"))
        plan = fuse_graph(g)
        again = fuse_graph(plan.graph)
        assert not again.fused
        assert again.graph is plan.graph


class TestFusedPE:
    def _fused(self):
        g = linear_graph(Emit(name="a"), Double(name="b"), AddOne(name="c"))
        plan = fuse_graph(g)
        return plan.graph.pes[fused_name(["a", "b", "c"])]

    def test_needs_two_members(self):
        with pytest.raises(GraphError, match="two members"):
            FusedPE([Emit(name="x")], [])

    def test_ports_mirror_head_inputs_and_expose_tail_outputs(self):
        fused = self._fused()
        assert list(fused.inputconnections) == ["input"]
        assert list(fused.outputconnections) == ["c__output"]
        assert fused.collector_aliases == {"c__output": ("c", "output")}

    def test_exposed_port_lookup(self):
        fused = self._fused()
        assert fused.exposed_port("c", "output") == "c__output"
        with pytest.raises(GraphError, match="internally"):
            fused.exposed_port("a", "output")
        with pytest.raises(GraphError, match="no member"):
            fused.exposed_port("nope", "output")

    def test_process_cascades_members_in_memory(self):
        fused = copy.deepcopy(self._fused())
        fused.ctx = ExecutionContext()
        fused.preprocess()
        emissions = fused._invoke({"input": 5})
        assert emissions == [("c__output", 11)]  # (5 * 2) + 1

    def test_preprocess_binds_member_instance_fields(self):
        fused = copy.deepcopy(self._fused())
        fused.ctx = ExecutionContext(seed=7)
        fused.instance_index = 2
        fused.num_instances = 3
        fused.preprocess()
        member = fused.members[1]
        assert member.instance_id == "b.2"
        assert member.ctx is fused.ctx
        # RNG stream identical to what instantiate() would seed unfused.
        expected = fused.ctx.rng_for("b.2").random()
        assert member.rng.random() == expected

    def test_postprocess_flushes_members_through_the_chain(self):
        g = linear_graph(StatefulCounter(name="c", instances=1), Double(name="d"))
        plan = fuse_graph(g)
        fused = copy.deepcopy(plan.graph.pes[fused_name(["c", "d"])])
        fused.ctx = ExecutionContext()
        fused.preprocess()
        fused._invoke({"input": ("k", 1)})
        fused._invoke({"input": ("k", 2)})
        # The counter flushes ("k", 2) at close; Double doubles the tuple.
        emissions = fused._flush_postprocess()
        assert emissions == [("d__output", ("k", 2, "k", 2))]

    def test_state_roundtrip_is_composite(self):
        g = linear_graph(Emit(name="src"), StatefulCounter(name="c", instances=1))
        plan = fuse_graph(g)
        fused = copy.deepcopy(plan.graph.pes[fused_name(["src", "c"])])
        fused.ctx = ExecutionContext()
        fused.preprocess()
        fused._invoke({"input": ("k0", 1)})
        snap = fused.get_state()
        assert snap["members"]["c"]["counts"] == {"k0": 1}
        restored = copy.deepcopy(plan.graph.pes[fused_name(["src", "c"])])
        restored.ctx = ExecutionContext()
        restored.preprocess()
        restored.set_state(snap)
        assert restored.members[1].counts == {"k0": 1}

    def test_member_meter_attribution(self):
        fused = copy.deepcopy(self._fused())
        fused.ctx = ExecutionContext()
        meter = MemberMeter()
        fused.ctx.pe_meter = meter
        fused.preprocess()
        fused._invoke({"input": 1})
        fused._invoke({"input": 2})
        assert meter.tasks() == {"a": 2, "b": 2, "c": 2}
        assert set(meter.times()) == {"a", "b", "c"}

    def test_plan_dataclass_defaults(self):
        g = linear_graph(Emit(name="x"))
        plan = Plan(graph=g, original=g)
        assert not plan.fused
        assert plan.rename_inputs({"x": [{}]}) == {"x": [{}]}
