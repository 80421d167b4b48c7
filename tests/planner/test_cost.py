"""Unit tests for the planner's cost model and profiling dry-run."""

from repro.core.pe import IterativePE
from repro.metrics.result import RunResult
from repro.planner.cost import DEFAULT_SAMPLE, CostModel, profile_graph
from repro.platforms.profiles import LAPTOP, SERVER
from tests.conftest import AddOne, Collect, Double, Emit, linear_graph


class DropHalf(IterativePE):
    """Emits every second input: selectivity 0.5 on 'output'."""

    def __init__(self, name=None):
        super().__init__(name)
        self._seen = 0

    def _process(self, data):
        self._seen += 1
        return data if self._seen % 2 == 0 else None


class Exploding(IterativePE):
    def _process(self, data):
        raise RuntimeError("boom")


class TestProfileGraph:
    def test_profiles_every_pe_with_positive_costs(self):
        g = linear_graph(Emit(name="src"), Double(name="d"), AddOne(name="a"))
        provided = {"src": [{"input": i} for i in range(10)]}
        model = profile_graph(g, provided=provided)
        assert model.source == "profile"
        assert model.sampled == DEFAULT_SAMPLE
        assert set(model.per_tuple) == {"src", "d", "a"}
        assert all(cost >= 0.0 for cost in model.per_tuple.values())

    def test_measures_selectivity(self):
        g = linear_graph(Emit(name="src"), DropHalf(name="half"), Collect(name="sink"))
        provided = {"src": [{"input": i} for i in range(8)]}
        model = profile_graph(g, provided=provided, sample=8)
        assert model.out_selectivity("src", "output") == 1.0
        assert model.out_selectivity("half", "output") == 0.5

    def test_dry_run_never_mutates_the_template_pes(self):
        half = DropHalf(name="half")
        g = linear_graph(Emit(name="src"), half)
        profile_graph(g, provided={"src": [{"input": i} for i in range(4)]})
        assert half._seen == 0

    def test_failure_degrades_to_uniform(self):
        g = linear_graph(Emit(name="src"), Exploding(name="bad"))
        model = profile_graph(g, provided={"src": [{"input": 1}]})
        assert model.source == "uniform"
        assert model.cost_of("bad") == 1.0

    def test_hop_cost_follows_platform(self):
        g = linear_graph(Emit(name="src"))
        assert profile_graph(g, platform=SERVER).hop_cost == SERVER.queue_latency
        assert profile_graph(g, platform=LAPTOP).hop_cost == LAPTOP.queue_latency


class TestCostModel:
    def test_uniform_prices_every_pe_at_one(self):
        g = linear_graph(Emit(name="src"), Double(name="d"))
        model = CostModel.uniform(g)
        assert model.source == "uniform"
        assert model.cost_of("src") == model.cost_of("d") == 1.0

    def test_unmeasured_pe_costs_one_unit(self):
        model = CostModel(
            per_tuple={"mid": 0.25}, selectivity={("mid", "output"): 2.0}
        )
        assert model.cost_of("unknown") == 1.0

    def test_from_result_uses_member_attribution(self):
        result = RunResult(
            mapping="simple", workflow="w", processes=1,
            runtime=1.0, process_time=1.0,
            counters={"member_tasks.a": 10, "member_tasks.b": 5},
            pe_times={"a": 2.0, "b": 1.0},
        )
        model = CostModel.from_result(result)
        assert model.source == "metrics"
        assert model.cost_of("a") == 0.2
        assert model.cost_of("b") == 0.2

    def test_from_result_without_attribution_is_none(self):
        result = RunResult(
            mapping="simple", workflow="w", processes=1,
            runtime=1.0, process_time=1.0,
        )
        assert CostModel.from_result(result) is None

    def test_estimated_invocations_propagate_selectivity(self):
        g = linear_graph(Emit(name="src"), DropHalf(name="half"), Collect(name="sink"))
        model = CostModel(
            per_tuple={"src": 1.0, "half": 1.0, "sink": 1.0},
            selectivity={("src", "output"): 1.0, ("half", "output"): 0.5},
        )
        counts = model.estimated_invocations(g, {"src": 100})
        assert counts["src"] == 100
        assert counts["half"] == 100
        assert counts["sink"] == 50

    def test_estimated_invocations_through_fused_node(self):
        from repro.planner.fusion import fuse_graph

        g = linear_graph(
            Emit(name="src"), DropHalf(name="half"), Double(name="d"),
            Collect(name="sink"),
        )
        model = CostModel(
            per_tuple={n: 1.0 for n in g.pes},
            selectivity={
                ("src", "output"): 1.0,
                ("half", "output"): 0.5,
                ("d", "output"): 1.0,
            },
        )
        plan = fuse_graph(g)
        root = plan.member_to_fused.get("src", "src")
        counts = model.estimated_invocations(plan.graph, {root: 40})
        # The whole chain collapsed into one node fed by the root count.
        assert counts[root] == 40
