"""Planner end-to-end: plans, explain output, equivalence, engine gating.

The headline contract: ``optimize=True`` never changes a
workflow's observable outputs -- only how they are computed.  Every
equivalence test below compares the optimized run against the untouched
graph on the sequential oracle and on parallel mappings.
"""

import pytest

from repro import Engine, run
from repro.core.exceptions import UnsupportedFeatureError
from repro.core.graph import WorkflowGraph
from repro.core.groupings import GroupBy
from repro.core.pe import IterativePE, reset_auto_names
from repro.mappings import get_mapping
from repro.mappings.base import normalize_inputs
from repro.planner import Planner, fuse_graph
from repro.scheduler import JobScheduler
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


def _edges(graph):
    return [(e.src, e.src_port, e.dst, e.dst_port) for e in graph.edges]


#: Catalog workflow -> parameters that keep a run small.
CATALOG_SIZES = {
    "galaxy": {},
    "seismic": {"stations": 4},
    "seismic2": {"stations": 4},
    "sentiment": {"articles": 20},
    "sentiment-recoverable": {"articles": 20},
    "sentiment-scoring": {"articles": 40},
}


class Relay(IterativePE):
    def _process(self, data):
        return data


class KeyedDouble(IterativePE):
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
    mid = Relay(name="mid")
    g.connect(src, "output", mid, "input")
    g.connect(mid, "output", Double(name="left"), "input")
    g.connect(mid, "output", AddOne(name="right"), "input")
    return g


class TestPlanner:
    def test_fusion_only_matches_classic_fuse_counters(self):
        g = linear_graph(Emit(name="src"), Double(name="d"), AddOne(name="a"))
        plan = Planner.fusion_only().plan(g, profile=False)
        assert plan.counters == {"fused_chains": 1, "fused_members": 3}
        assert plan.cost is None

    def test_default_planner_annotates(self):
        g = linear_graph(Emit(name="src"), Double(name="d"))
        plan = Planner.default().plan(g, provided={"src": [{"input": 1}]})
        assert plan.counters.get("planner_rules") == 1
        assert plan.cost.sampled == 1

    def test_plan_without_rewrites_is_untransformed(self):
        g = WorkflowGraph("join")
        a, b, sink = Emit(name="a"), Emit(name="b"), Collect(name="sink")
        g.connect(a, "output", sink, "input")
        g.connect(b, "output", sink, "input")
        plan = Planner.default().plan(g, profile=False)
        assert not plan.fused
        assert plan.graph is g
        assert plan.counters == {}

    def test_rename_inputs_rekeys_fused_roots_only(self):
        g = WorkflowGraph("half-fused")
        a, b = Emit(name="a"), Emit(name="b")
        d, sink = Double(name="d"), Collect(name="sink")
        g.connect(a, "output", d, "input")
        g.connect(d, "output", sink, "input")
        g.connect(b, "output", sink, "input")
        plan = Planner.default().plan(g, profile=False)
        assert plan.chains == (("a", "d"),)
        provided = {"a": [{"input": 1}], "b": [{"input": 2}]}
        assert plan.rename_inputs(provided) == {
            plan.member_to_fused["a"]: [{"input": 1}], "b": [{"input": 2}],
        }


def _linear_graph():
    return linear_graph(Emit(name="src"), Double(name="d"), AddOne(name="a"))


def _join_graph():
    g = WorkflowGraph("join")
    sink = Collect(name="sink")
    g.connect(Emit(name="a"), "output", sink, "input")
    g.connect(Emit(name="b"), "output", sink, "input")
    return g


def _stateful_head_graph():
    return linear_graph(
        Emit(name="src"), StatefulCounter(name="counter", instances=2),
        Double(name="d"),
    )


SHAPES = {
    "linear": _linear_graph,
    "fanout": _fanout_graph,
    "grouped": _grouped_graph,
    "join": _join_graph,
    "stateful_head": _stateful_head_graph,
}


class TestOneRewrite:
    """The planner's rewrite is chain fusion, whatever the profile measures:
    that is why a run may plan without profiling."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_plan_is_fuse_graph(self, shape):
        g = SHAPES[shape]()
        expected = fuse_graph(g)
        for plan in (
            Planner.default().plan(g, profile=False),
            Planner.default().plan(g),
        ):
            assert plan.chains == expected.chains
            assert sorted(plan.graph.pes) == sorted(expected.graph.pes)
            assert _edges(plan.graph) == _edges(expected.graph)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_fusion_only_differs_only_by_planner_rules(self, shape):
        g = SHAPES[shape]()
        full = Planner.default().plan(g, profile=False)
        shim = Planner.fusion_only().plan(g, profile=False)
        assert (full.steps, full.chains, full.member_to_fused) == (
            shim.steps, shim.chains, shim.member_to_fused
        )
        counters = dict(full.counters)
        assert counters.pop("planner_rules", 0) == len(full.steps)
        assert counters == shim.counters


class TestExplainPlan:
    def test_sentiment_explain_contents(self):
        graph, inputs = build_sentiment_workflow(articles=50)
        provided = normalize_inputs(graph, inputs)
        plan = Planner.default().plan(graph, provided=provided)
        lines = plan.explain().splitlines()
        assert lines[0] == "plan for workflow 'sentiment_news'"
        assert lines[1] == "graph        : 8 PEs / 8 edges -> 5 PEs / 5 edges"
        assert lines[2] == "rules fired  :"
        assert "chain_fusion" in lines[3]
        assert lines[4] == (
            "measured     : 5 sample tuple(s) profiled "
            "(nominal s/invocation, emissions/invocation per port)"
        )
        # One measured line per PE of the original graph, by member name:
        # its nominal seconds per invocation, then emissions per port.
        measured = {line.split()[0]: line.split()[1:] for line in lines[5:]}
        assert set(measured) == set(graph.pes)
        for name, (seconds, *ports) in measured.items():
            assert float(seconds) == pytest.approx(plan.cost.per_tuple[name], abs=1e-6)
            assert ports == [
                f"{port}={plan.cost.selectivity[(name, port)]:g}"
                for port in graph.pes[name].outputconnections
            ]
        assert measured["readArticles"][1:] == ["output=1"]
        assert not any("predicted" in line or "suggest" in line for line in lines)

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
        assert "rules fired  : none (no fusable chain)" in text
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
        # The whole 4-PE chain collapsed into one fused operator, with
        # the planner's counter and per-member attribution intact.
        assert optimized.counters["fused_chains"] == 1
        assert optimized.counters["fused_members"] == 4
        assert optimized.counters["planner_rules"] == 1
        for member in ("readRaDec", "getVOTable", "filterColumns", "internalExtinction"):
            assert optimized.counters[f"member_tasks.{member}"] == len(inputs)
            assert member in optimized.pe_times

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
        """GroupBy hops into pinned multi-instance PEs stay unfused, so the
        partitioning holds bit-for-bit."""
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
    def test_fanout(self, mapping):
        inputs = list(range(20))
        expected = _sorted_outputs(
            run(_fanout_graph(), inputs=inputs, mapping="simple",
                time_scale=FAST_SCALE)
        )
        optimized = run(
            _fanout_graph(), inputs=inputs, processes=4, mapping=mapping,
            time_scale=FAST_SCALE, optimize=True,
        )
        assert _sorted_outputs(optimized) == expected

    @pytest.mark.parametrize("mapping", ("simple", *PARALLEL_MAPPINGS))
    def test_optimize_identical_on_every_mapping(self, mapping):
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
            time_scale=FAST_SCALE, optimize=True,
        )
        assert _sorted_outputs(optimized) == expected
        assert optimized.counters["fused_chains"] == 1

    def test_optimize_matches_plain_on_streaming_submit(self):
        """The submit path plans without consuming the (lazy) input."""
        engine = Engine(mapping="multi", processes=6, time_scale=FAST_SCALE,
                        optimize=True)
        job = engine.submit(linear_graph(Emit(name="src"), Double(name="d")))
        job.send("src", iter([1, 2, 3]))
        job.close_input()
        result = job.wait()
        engine.close()
        assert sorted(result.output("d")) == [2, 4, 6]
        assert result.counters["fused_chains"] == 1


#: What a non-bool ``fuse`` / ``optimize`` raises, at every door.
PLAN_OPTION_ERROR = (
    "{name} must be True or False ('auto' was removed: every mapping fuses), "
    "got {value!r}"
)


class TestEngineGating:
    def test_config_emits_optimize_option(self):
        assert Engine().config.fusion_options() == {}
        assert Engine(optimize=True).config.fusion_options() == {"optimize": True}
        assert Engine(fuse=True, optimize=True).config.fusion_options() == {
            "fuse": True, "optimize": True
        }

    @pytest.mark.parametrize("door", ("Engine", "with_options", "run", "execute"))
    @pytest.mark.parametrize("value", ("auto", 1, 1.0, "yes"))
    @pytest.mark.parametrize("name", ("fuse", "optimize"))
    def test_planning_options_are_plain_bools(self, name, value, door):
        """``fuse`` / ``optimize`` take ``True`` or ``False`` only.  The
        constructor, ``with_options`` and a bare mapping's ``execute``
        raise one message; a per-run ``Engine.run`` refuses the key itself
        (an engine-level setting) whatever its value."""
        g = linear_graph(Emit(name="s"), Double(name="d"))
        with pytest.raises(TypeError) as err:
            if door == "Engine":
                Engine(**{name: value})
            elif door == "with_options":
                Engine().with_options(**{name: value})
            elif door == "run":
                Engine(mapping="simple").run(g, inputs=[1], **{name: value})
            else:
                get_mapping("simple").execute(g, [1], **{name: value})
        if door == "run":
            assert str(err.value).startswith(f"{name!r} is an engine-level setting")
        else:
            assert str(err.value) == PLAN_OPTION_ERROR.format(name=name, value=value)

    @pytest.mark.parametrize("door", ("Engine", "execute"))
    def test_prebuilt_plan_option_is_refused_by_name(self, door):
        g = linear_graph(Emit(name="s"), Double(name="d"))
        plan = Planner.default().plan(g, profile=False)
        with pytest.raises(UnsupportedFeatureError, match="plan=: the option was removed"):
            if door == "Engine":
                Engine(plan=plan).run(g, inputs=[1])
            else:
                get_mapping("simple").execute(g, [1], plan=plan)


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
    """A run plans from its graph alone.  Chain fusion reads no costs, so
    no entry point profiles -- no PE sees a sample tuple before the
    enactment -- while ``repro plan`` profiles to explain; the catalog
    guard below holds the profiled and the unprofiled plan to one graph."""

    @pytest.mark.parametrize("option", ("fuse", "optimize"))
    @pytest.mark.parametrize("mapping", ("simple", "dyn_multi"))
    @pytest.mark.parametrize("entry", ("run", "execute", "submit", "scheduled"))
    def test_runs_never_profile(self, monkeypatch, entry, mapping, option):
        """No entry point profiles or prices: building a ``CostModel``
        raises.  ``simple`` takes the buffered wiring, ``dyn_multi`` the
        live one."""
        import repro.planner.planner as planner_module
        from repro.planner.cost import CostModel

        profiled = []
        profile = planner_module.profile_graph

        def spy(graph, *args, **kwargs):
            profiled.append(graph.name)
            return profile(graph, *args, **kwargs)

        def priced(*args, **kwargs):
            raise AssertionError("a run built a CostModel")

        monkeypatch.setattr(planner_module, "profile_graph", spy)
        monkeypatch.setattr(CostModel, "__init__", priced)
        g = linear_graph(Emit(name="src"), Double(name="d"), AddOne(name="a"))
        settings = dict(processes=2, time_scale=FAST_SCALE, **{option: True})
        if entry == "run":
            result = Engine(mapping=mapping, **settings).run(g, inputs=[1, 2, 3])
        elif entry == "execute":
            result = get_mapping(mapping).execute(g, [1, 2, 3], **settings)
        else:
            with Engine(mapping=mapping, **settings) as engine, JobScheduler(
                engine, max_concurrent=1
            ) as scheduler:
                job = engine.submit(
                    g, inputs=[1, 2, 3],
                    scheduler=scheduler if entry == "scheduled" else None,
                )
                job.close_input()
                result = job.wait(10)
        assert profiled == []
        assert sorted(result.output("a")) == [3, 5, 7]
        assert result.counters.get("planner_rules", 0) == (option == "optimize")
        assert result.counters["fused_members"] == 3

    @pytest.mark.parametrize("workflow", sorted(CATALOG_SIZES))
    def test_catalog_optimize_enacts_what_fuse_enacts(
        self, monkeypatch, tmp_path, workflow
    ):
        """``optimize`` runs the graph ``fuse`` runs; the counters differ
        only by ``planner_rules``."""
        from repro.mappings import base
        from repro.scheduler.catalog import build_named_workflow

        plans = []
        resolve = base.resolve_plan

        def spy(*args, **kwargs):
            plans.append(resolve(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(base, "resolve_plan", spy)
        results = []
        for option in ("fuse", "optimize"):
            reset_auto_names()
            graph, inputs = build_named_workflow(workflow, **CATALOG_SIZES[workflow])
            for pe in graph.pes.values():
                if hasattr(pe, "out_dir"):
                    pe.out_dir = str(tmp_path)
            engine = Engine(mapping="simple", time_scale=FAST_SCALE, **{option: True})
            results.append(engine.run(graph, inputs=inputs))
        fused, optimized = (plan.graph for plan in plans)
        assert sorted(optimized.pes) == sorted(fused.pes)
        assert _edges(optimized) == _edges(fused)
        counters = dict(results[1].counters)
        assert counters.pop("planner_rules") == 1
        assert counters == results[0].counters
        assert _sorted_outputs(results[1]) == _sorted_outputs(results[0])

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
