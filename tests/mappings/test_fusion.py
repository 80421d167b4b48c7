"""Operator fusion under enactment: identity, equivalence, gating, metrics.

Contracts pinned here:

1. ``fuse=False`` (the default) is *identical* to the pre-fusion engine:
   same outputs, same transport/ task counters, and the options dict a
   default engine hands a mapping contains no fusion key at all.
2. ``fuse=True`` computes the same multiset of outputs as the unfused run
   on every mapping (the sequential oracle included), with results keyed
   by the *original* PE names -- including for fine-grained chains whose
   every PE collapses.
3. Fusing a non-fusable graph changes nothing (graph returned as-is,
   identical counters).
4. Per-member metrics survive fusion (``member_tasks.*`` counters and
   ``RunResult.pe_times``).
"""

import pytest

from repro import Engine, run
from repro.core.graph import WorkflowGraph
from tests.conftest import (
    AddOne,
    Collect,
    Double,
    Emit,
    FAST_SCALE,
    PARALLEL_MAPPINGS,
    StatefulCounter,
    linear_graph,
)


def _chain_factory():
    """A fine-grained 4-PE linear chain: everything fuses into one PE."""
    return linear_graph(
        Emit(name="src"), Double(name="d"), AddOne(name="a"), Double(name="dd")
    )


def _branchy_factory():
    """Fan-out graph: the source stays, each branch fuses separately."""
    g = WorkflowGraph("branchy")
    src = Emit(name="src")
    g.connect(src, "output", Double(name="d"), "input")
    g.connect(src, "output", AddOne(name="a"), "input")
    g.connect(g.pe("d"), "output", AddOne(name="da"), "input")
    return g


def _non_fusable_factory():
    """Pure fan-in: nothing qualifies for fusion."""
    g = WorkflowGraph("join")
    a, b, sink = Emit(name="a"), Emit(name="b"), Collect(name="sink")
    g.connect(a, "output", sink, "input")
    g.connect(b, "output", sink, "input")
    return g


def _sorted_outputs(result):
    return {key: sorted(map(repr, values)) for key, values in result.outputs.items()}


class TestFuseOffIsIdentity:
    def test_default_config_passes_no_fusion_option(self):
        assert Engine().config.fusion_options() == {}

    def test_enabled_config_passes_option(self):
        assert Engine(fuse=True).config.fusion_options() == {"fuse": True}

    @pytest.mark.parametrize("mapping", ("multi", "dyn_multi", "dyn_redis"))
    def test_fuse_false_same_outputs_and_counters(self, mapping):
        inputs = list(range(10))
        baseline = run(
            _chain_factory(), inputs=inputs, processes=4,
            mapping=mapping, time_scale=FAST_SCALE,
        )
        explicit = run(
            _chain_factory(), inputs=inputs, processes=4,
            mapping=mapping, time_scale=FAST_SCALE, fuse=False,
        )
        assert _sorted_outputs(explicit) == _sorted_outputs(baseline)
        for counter in ("seed_tasks", "tasks", "queue_puts"):
            assert explicit.counters.get(counter, 0) == baseline.counters.get(
                counter, 0
            )
        assert explicit.pe_times == {}

    @pytest.mark.parametrize("mapping", ("dyn_multi", "dyn_redis"))
    def test_non_fusable_graph_identical_even_with_fuse_on(self, mapping):
        inputs = list(range(8))
        baseline = run(
            _non_fusable_factory(), inputs=inputs, processes=3,
            mapping=mapping, time_scale=FAST_SCALE,
        )
        fused = run(
            _non_fusable_factory(), inputs=inputs, processes=3,
            mapping=mapping, time_scale=FAST_SCALE, fuse=True,
        )
        assert _sorted_outputs(fused) == _sorted_outputs(baseline)
        # The rewrite found nothing: identical transport accounting too.
        for counter in ("seed_tasks", "tasks", "queue_puts"):
            assert fused.counters.get(counter, 0) == baseline.counters.get(
                counter, 0
            )
        assert "fused_chains" not in fused.counters


class TestFusedEquivalence:
    @pytest.mark.parametrize("mapping", PARALLEL_MAPPINGS)
    @pytest.mark.parametrize("factory", (_chain_factory, _branchy_factory))
    def test_matches_unfused_oracle(self, mapping, factory):
        inputs = list(range(14))
        expected = _sorted_outputs(run(factory(), inputs=inputs, mapping="simple"))
        fused = run(
            factory(), inputs=inputs, processes=4,
            mapping=mapping, time_scale=FAST_SCALE, fuse=True,
        )
        assert _sorted_outputs(fused) == expected
        assert fused.counters["fused_chains"] >= 1

    def test_outputs_keyed_by_original_pe_names(self):
        """Collector aliasing: the fully-fused chain still reports under
        'dd.output', not under the fused PE's namespaced port."""
        result = run(_chain_factory(), inputs=[1, 2, 3], mapping="simple", fuse=True)
        assert sorted(result.output("dd")) == [6, 10, 14]  # (2x + 1) * 2
        assert list(result.outputs) == ["dd.output"]

    def test_fusion_composes_with_batching(self):
        inputs = list(range(12))
        expected = _sorted_outputs(run(_chain_factory(), inputs=inputs, mapping="simple"))
        fused = run(
            _chain_factory(), inputs=inputs, processes=4,
            mapping="dyn_redis", time_scale=FAST_SCALE, fuse=True, batch_size=4,
        )
        assert _sorted_outputs(fused) == expected

    def test_fused_stateful_chain_on_stateful_mappings(self):
        """A single-instance stateful chain fuses and aggregates exactly."""
        items = [(f"k{i % 3}", i) for i in range(18)]
        for mapping in ("multi", "hybrid_redis"):
            g = linear_graph(Emit(name="src"), StatefulCounter(name="counter", instances=1))
            result = run(
                g, inputs=items, processes=4, mapping=mapping,
                time_scale=FAST_SCALE, fuse=True,
            )
            assert sorted(result.output("counter")) == [(f"k{i}", 6) for i in range(3)]
            assert result.counters["fused_chains"] == 1

    def test_multi_instance_aggregator_keeps_grouping(self):
        """GroupBy into a 2-instance counter blocks that edge; results are
        untouched by fusing the rest of the graph."""
        items = [(f"k{i % 4}", i) for i in range(16)]
        g = linear_graph(
            Emit(name="src"), Emit(name="mid"), StatefulCounter(name="counter", instances=2)
        )
        result = run(
            g, inputs=items, processes=4, mapping="hybrid_redis",
            time_scale=FAST_SCALE, fuse=True,
        )
        assert sorted(result.output("counter")) == [(f"k{i}", 4) for i in range(4)]
        # src >> mid fused; counter stayed its own (pinned, grouped) PE.
        assert result.counters["fused_members"] == 2

    def test_fused_chain_reduces_queue_traffic(self):
        """The point of the rewrite: per-hop transport disappears."""
        inputs = list(range(20))
        unfused = run(
            _chain_factory(), inputs=inputs, processes=4,
            mapping="dyn_multi", time_scale=FAST_SCALE,
        )
        fused = run(
            _chain_factory(), inputs=inputs, processes=4,
            mapping="dyn_multi", time_scale=FAST_SCALE, fuse=True,
        )
        assert fused.counters["tasks"] < unfused.counters["tasks"]
        assert fused.counters.get("queue_puts", 0) < unfused.counters.get(
            "queue_puts", 0
        )


class TestMemberMetrics:
    def test_member_tasks_counters_match_unfused_task_split(self):
        inputs = list(range(9))
        result = run(_chain_factory(), inputs=inputs, mapping="simple", fuse=True)
        for member in ("src", "d", "a", "dd"):
            assert result.counters[f"member_tasks.{member}"] == len(inputs)
        # One fused invocation per input replaces four unfused tasks.
        assert result.counters["tasks"] == len(inputs)

    def test_pe_times_attribute_members(self):
        result = run(_chain_factory(), inputs=list(range(6)), mapping="simple", fuse=True)
        assert set(result.pe_times) == {"src", "d", "a", "dd"}
        assert all(t >= 0.0 for t in result.pe_times.values())
