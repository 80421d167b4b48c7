"""Planner end-to-end: plans, explain output, equivalence, engine gating.

The headline contract: ``optimize=True|"auto"`` never changes a
workflow's observable outputs -- only how they are computed.  Every
equivalence test below compares the optimized run against the untouched
graph on the sequential oracle and on parallel mappings.
"""

import pytest

from repro import Engine, run
from repro.core.exceptions import UnsupportedFeatureError
from repro.core.graph import WorkflowGraph
from repro.core.groupings import GroupBy
from repro.core.pe import IterativePE
from repro.mappings.base import Mapping, normalize_inputs
from repro.mappings.registry import Capabilities, register_mapping, unregister_mapping
from repro.planner import Planner
from repro.workflows import (
    build_internal_extinction_workflow,
    build_sentiment_workflow,
)
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


def _sorted_outputs(result):
    return {key: sorted(map(repr, values)) for key, values in result.outputs.items()}


class ReplicableEmit(IterativePE):
    replicable = True

    def _process(self, data):
        return data


class KeyedDouble(IterativePE):
    key_preserving = True

    def __init__(self, name=None, instances=2):
        super().__init__(name)
        self.numprocesses = instances

    def _process(self, data):
        key, value = data
        return (key, 2 * value)


def _grouped_graph():
    """Grouping-bearing workflow: GroupBy corridor into a pinned counter."""
    g = WorkflowGraph("grouped")
    src = Emit(name="src")
    kd = KeyedDouble(name="kd", instances=2)
    counter = StatefulCounter(name="counter", instances=2)
    g.connect(src, "output", kd, "input", grouping=GroupBy([0]))
    g.connect(kd, "output", counter, "input", grouping=GroupBy([0]))
    return g


def _fanout_graph():
    g = WorkflowGraph("fanout")
    src = Emit(name="src")
    mid = ReplicableEmit(name="mid")
    g.connect(src, "output", mid, "input")
    g.connect(mid, "output", Double(name="left"), "input")
    g.connect(mid, "output", AddOne(name="right"), "input")
    return g


class TestPlanner:
    def test_fusion_only_matches_classic_fuse_counters(self):
        g = linear_graph(Emit(name="src"), Double(name="d"), AddOne(name="a"))
        plan = Planner.fusion_only().plan(g, profile=False)
        assert plan.counters == {"fused_chains": 1, "fused_members": 3}
        assert plan.cost.source == "uniform"
        assert plan.cost.sampled == 0

    def test_default_planner_annotates(self):
        g = linear_graph(Emit(name="src"), Double(name="d"))
        plan = Planner.default().plan(g, provided={"src": [{"input": 1}]})
        assert plan.counters.get("planner_rules") == 1
        assert plan.cost.source == "profile"

    def test_plan_without_rewrites_is_untransformed(self):
        g = WorkflowGraph("join")
        a, b, sink = Emit(name="a"), Emit(name="b"), Collect(name="sink")
        g.connect(a, "output", sink, "input")
        g.connect(b, "output", sink, "input")
        plan = Planner.default().plan(g, profile=False)
        assert not plan.transformed
        assert plan.graph is g
        assert plan.counters == {}

    def test_rename_inputs_drops_pruned_roots(self):
        g = WorkflowGraph("doe")
        src, dead_src = Emit(name="src"), Emit(name="dead_src")
        g.connect(src, "output", Double(name="keep"), "input")
        g.connect(dead_src, "output", AddOne(name="dead"), "input")
        plan = Planner.default().plan(
            g, profile=False, wanted_outputs={"keep.output"}
        )
        provided = {"src": [{"input": 1}], "dead_src": [{"input": 2}]}
        renamed = plan.rename_inputs(provided)
        assert set(renamed) == {plan.member_to_fused.get("src", "src")}

    def test_suggestions_are_advisory(self):
        graph, inputs = build_sentiment_workflow(articles=20)
        provided = normalize_inputs(graph, inputs)
        plan = Planner.default().plan(graph, provided=provided)
        assert "numprocesses" in plan.suggestions
        # The plan records them but nothing in the graph enforces them.
        for pe in plan.graph.pes.values():
            assert pe.numprocesses != "numprocesses"

    def test_prior_result_overrides_profiled_costs(self):
        g = linear_graph(Emit(name="src"), Double(name="d"))
        prior = run(g, inputs=[1, 2, 3, 4], mapping="simple", fuse=True)
        g2 = linear_graph(Emit(name="src"), Double(name="d"))
        plan = Planner.default().plan(
            g2, provided={"src": [{"input": 1}]}, prior=prior
        )
        assert plan.cost.source.endswith("+metrics")


class TestExplainPlan:
    def test_sentiment_explain_contents(self):
        graph, inputs = build_sentiment_workflow(articles=50)
        provided = normalize_inputs(graph, inputs)
        plan = Planner.default().plan(graph, provided=provided)
        text = plan.explain()
        assert "plan for workflow 'sentiment_news'" in text
        assert "profile" in text
        assert "rules fired" in text
        assert "chain_fusion" in text
        assert "predicted costs" in text
        # Per-PE cost lines mention the fused operators by member names.
        assert "sentimentAFINN" in text
        assert "suggestions" in text and "advisory" in text

    def test_astro_explain_contents(self):
        graph, inputs = build_internal_extinction_workflow(scale=1)
        provided = normalize_inputs(graph, inputs)
        plan = Planner.default().plan(graph, provided=provided)
        text = plan.explain()
        assert "plan for workflow" in text
        assert "chain_fusion" in text
        assert "internalExtinction" in text
        assert "-> 1 PEs / 0 edges" in text

    def test_untransformed_plan_explains_no_rules(self):
        g = WorkflowGraph("join")
        a, b, sink = Emit(name="a"), Emit(name="b"), Collect(name="sink")
        g.connect(a, "output", sink, "input")
        g.connect(b, "output", sink, "input")
        text = Planner.default().plan(g, profile=False).explain()
        assert "rules fired" in text
        assert "chain_fusion" not in text


class TestOptimizedEquivalence:
    """optimize=True computes byte-identical outputs to the plain run."""

    @pytest.mark.parametrize("mapping", ("simple", "multi", "dyn_multi"))
    def test_astro_chain(self, mapping):
        graph, inputs = build_internal_extinction_workflow(scale=1)
        expected = _sorted_outputs(
            run(graph, inputs=inputs, mapping="simple", time_scale=FAST_SCALE)
        )
        graph, inputs = build_internal_extinction_workflow(scale=1)
        optimized = run(
            graph, inputs=inputs, processes=6, mapping=mapping,
            time_scale=FAST_SCALE, optimize=True,
        )
        assert _sorted_outputs(optimized) == expected
        assert optimized.counters["planner_rules"] >= 1

    @pytest.mark.parametrize("mapping", ("simple", "multi", "hybrid_redis"))
    def test_sentiment(self, mapping):
        def make():
            return build_sentiment_workflow(articles=30)

        graph, inputs = make()
        expected = _sorted_outputs(
            run(graph, inputs=inputs, mapping="simple", time_scale=FAST_SCALE)
        )
        graph, inputs = make()
        optimized = run(
            graph, inputs=inputs, processes=12, mapping=mapping,
            time_scale=FAST_SCALE, optimize=True,
        )
        assert _sorted_outputs(optimized) == expected

    @pytest.mark.parametrize("mapping", ("simple", "multi", "hybrid_redis"))
    def test_grouping_corridor(self, mapping):
        """Partial fusion keeps the GroupBy partitioning bit-for-bit."""
        items = [(f"k{i % 5}", i) for i in range(25)]
        expected = _sorted_outputs(
            run(_grouped_graph(), inputs=items, mapping="simple",
                time_scale=FAST_SCALE)
        )
        optimized = run(
            _grouped_graph(), inputs=items, processes=6, mapping=mapping,
            time_scale=FAST_SCALE, optimize=True,
        )
        assert _sorted_outputs(optimized) == expected

    @pytest.mark.parametrize("mapping", ("simple", "dyn_multi"))
    def test_fanout_replication(self, mapping):
        inputs = list(range(20))
        expected = _sorted_outputs(
            run(_fanout_graph(), inputs=inputs, mapping="simple",
                time_scale=FAST_SCALE)
        )
        optimized = run(
            _fanout_graph(), inputs=inputs, processes=4, mapping=mapping,
            time_scale=FAST_SCALE, optimize=True,
        )
        # Replication may or may not fire (cost-gated), but outputs are
        # identical either way -- that is the contract.
        assert _sorted_outputs(optimized) == expected

    @pytest.mark.parametrize("mapping", ("simple", *PARALLEL_MAPPINGS))
    def test_optimize_auto_identical_on_every_mapping(self, mapping):
        """The acceptance contract, on every built-in in-process mapping."""

        def factory():
            return linear_graph(
                Emit(name="src"), Double(name="d"), AddOne(name="a")
            )

        inputs = list(range(12))
        expected = _sorted_outputs(
            run(factory(), inputs=inputs, mapping="simple", time_scale=FAST_SCALE)
        )
        optimized = run(
            factory(), inputs=inputs, processes=4, mapping=mapping,
            time_scale=FAST_SCALE, optimize="auto",
        )
        assert _sorted_outputs(optimized) == expected
        assert optimized.counters["fused_chains"] == 1

    def test_dead_output_elimination_under_enactment(self):
        g = WorkflowGraph("doe")
        src = Emit(name="src")
        g.connect(src, "output", Double(name="keep"), "input")
        g.connect(src, "output", AddOne(name="dead"), "input")
        plain = run(g, inputs=[1, 2, 3], mapping="simple", time_scale=FAST_SCALE)

        g2 = WorkflowGraph("doe")
        src2 = Emit(name="src")
        g2.connect(src2, "output", Double(name="keep"), "input")
        g2.connect(src2, "output", AddOne(name="dead"), "input")
        optimized = run(
            g2, inputs=[1, 2, 3], mapping="simple", time_scale=FAST_SCALE,
            optimize=True, wanted_outputs=["keep.output"],
        )
        # Exactly the wanted key survives, with identical values.
        assert set(optimized.outputs) == {"keep.output"}
        assert sorted(optimized.output("keep")) == sorted(plain.output("keep"))

    def test_optimize_auto_matches_plain_on_streaming_submit(self):
        """The submit path plans without consuming the (lazy) input."""
        engine = Engine(mapping="multi", processes=6, time_scale=FAST_SCALE,
                        optimize="auto")
        job = engine.submit(linear_graph(Emit(name="src"), Double(name="d")))
        job.send("src", iter([1, 2, 3]))
        job.close_input()
        result = job.wait()
        engine.close()
        assert sorted(result.output("d")) == [2, 4, 6]
        assert result.counters["fused_chains"] == 1


class TestEngineGating:
    def _register_unfused_mapping(self):
        class NoFusionMapping(Mapping):
            name = "noopt_test"
            supports_stateful = True

            def _enact(self, state):
                from repro.mappings.simple import SimpleMapping

                return SimpleMapping()._enact(state)

        register_mapping(Capabilities(stateful=True, description="test"))(
            NoFusionMapping
        )
        return NoFusionMapping

    def test_optimize_true_rejected_without_capability(self):
        self._register_unfused_mapping()
        try:
            engine = Engine(mapping="noopt_test", optimize=True)
            with pytest.raises(UnsupportedFeatureError, match="planner"):
                engine.run(linear_graph(Emit(name="s"), Double(name="d")), inputs=[1])
        finally:
            unregister_mapping("noopt_test")

    def test_optimize_auto_skips_without_capability(self):
        self._register_unfused_mapping()
        try:
            engine = Engine(mapping="noopt_test", optimize="auto")
            result = engine.run(
                linear_graph(Emit(name="s"), Double(name="d")), inputs=[1, 2]
            )
            assert "planner_rules" not in result.counters
            assert sorted(result.output("d")) == [2, 4]
        finally:
            unregister_mapping("noopt_test")

    def test_config_emits_optimize_option(self):
        assert Engine().config.fusion_options() == {}
        assert Engine(optimize=True).config.fusion_options() == {"optimize": True}
        assert Engine(fuse="auto", optimize="auto").config.fusion_options() == {
            "fuse": "auto", "optimize": "auto"
        }

    def test_invalid_values_share_one_message_template(self):
        """Satellite of the refactor: the tri-state validation lives in one
        helper, so the two options' errors are identical modulo the name."""
        g = linear_graph(Emit(name="s"))
        with pytest.raises(TypeError) as fuse_err:
            Engine(fuse="bogus").run(g, inputs=[1])
        with pytest.raises(TypeError) as opt_err:
            Engine(optimize="bogus").run(g, inputs=[1])
        assert str(fuse_err.value) == "fuse must be True, False or 'auto', got 'bogus'"
        assert str(opt_err.value) == str(fuse_err.value).replace(
            "fuse", "optimize"
        )

    def test_config_layer_raises_same_message(self):
        with pytest.raises(TypeError, match="fuse must be True, False or 'auto'"):
            Engine(fuse="always").config.fusion_options()
        with pytest.raises(TypeError, match="optimize must be True, False or 'auto'"):
            Engine(optimize="always").config.fusion_options()


class TestResultReporting:
    def test_summary_includes_pe_times(self):
        g = linear_graph(Emit(name="src"), Double(name="d"))
        result = run(g, inputs=[1, 2, 3], mapping="simple", optimize=True)
        summary = result.summary()
        assert set(summary["pe_times"]) == {"src", "d"}

    def test_top_pes_ranks_by_busy_time(self):
        g = linear_graph(Emit(name="src"), Double(name="d"), AddOne(name="a"))
        result = run(g, inputs=list(range(5)), mapping="simple", optimize=True)
        top = result.top_pes(2)
        assert len(top) == 2
        assert top[0][1] >= top[1][1]
        assert {name for name, _ in top} <= {"src", "d", "a"}

    def test_top_pes_empty_without_attribution(self):
        g = linear_graph(Emit(name="src"), Double(name="d"))
        result = run(g, inputs=[1], mapping="simple")
        assert result.top_pes() == []


class TestRunPlansAgainstItsInputs:
    """``repro plan`` and ``repro run --optimize`` read the same plan: the
    buffered wiring materializes its inputs at prepare time, so the planner
    profiles against them instead of planning blind."""

    @staticmethod
    def _spy_plans(monkeypatch):
        plans = []
        plan = Planner.plan

        def spy(self, *args, **kwargs):
            plans.append(plan(self, *args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(Planner, "plan", spy)
        return plans

    def test_engine_run_profiles_the_real_inputs(self, monkeypatch):
        plans = self._spy_plans(monkeypatch)
        g = linear_graph(Emit(name="src"), Double(name="d"), AddOne(name="a"))
        Engine(mapping="simple", optimize=True).run(g, inputs=[1, 2, 3])
        (enacted,) = plans
        assert enacted.cost.source == "profile" and enacted.cost.sampled == 3
        # ...which is what `repro plan` does (timings aside).
        shown = Planner.default().plan(g, provided=normalize_inputs(g, [1, 2, 3]))
        assert (enacted.steps, enacted.estimated_tuples, enacted.cost.sampled) == (
            shown.steps, shown.estimated_tuples, shown.cost.sampled
        )

    def test_streaming_submission_still_plans_blind(self, monkeypatch):
        """A live submission must not consume its (possibly lazy) inputs."""
        plans = self._spy_plans(monkeypatch)
        consumed = []

        def lazy():
            for item in (1, 2, 3):
                consumed.append(item)
                yield item

        g = linear_graph(Emit(name="src"), Double(name="d"))
        with Engine(mapping="dyn_multi", processes=2, optimize=True,
                    time_scale=FAST_SCALE) as engine:
            job = engine.submit(g, inputs=lazy())
            assert sorted(job.wait(10).output("d")) == [2, 4, 6]
        assert plans[0].cost.sampled <= 1  # the `{}` probe, never the inputs

    @pytest.mark.parametrize(
        "workflow",
        ["galaxy", "seismic", "seismic2", "sentiment", "sentiment-recoverable",
         "sentiment-scoring"],
    )
    def test_catalog_plans_do_not_depend_on_the_sample(self, workflow):
        """Guard: profiling against the inputs changes the plan's cost
        model, not what it enacts -- steps, graph and counters stay those
        of the blind plan."""
        from repro.scheduler.catalog import build_named_workflow

        graph, inputs = build_named_workflow(workflow)
        blind = Planner.default().plan(graph)
        seen = Planner.default().plan(graph, provided=normalize_inputs(graph, inputs))
        assert seen.steps == blind.steps
        assert seen.counters == blind.counters
        assert sorted(seen.graph.pes) == sorted(blind.graph.pes)
        assert [
            (e.src, e.src_port, e.dst, e.dst_port) for e in seen.graph.edges
        ] == [(e.src, e.src_port, e.dst, e.dst_port) for e in blind.graph.edges]
