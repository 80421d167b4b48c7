"""Unit tests for the profiling dry-run behind ``repro plan``."""

from repro.core.pe import IterativePE
from repro.planner import Planner
from repro.planner.cost import DEFAULT_SAMPLE, profile_graph
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
        assert model.sampled == DEFAULT_SAMPLE
        assert set(model.per_tuple) == {"src", "d", "a"}
        assert all(cost >= 0.0 for cost in model.per_tuple.values())

    def test_measures_selectivity(self):
        g = linear_graph(Emit(name="src"), DropHalf(name="half"), Collect(name="sink"))
        provided = {"src": [{"input": i} for i in range(8)]}
        model = profile_graph(g, provided=provided, sample=8)
        assert model.selectivity[("src", "output")] == 1.0
        assert model.selectivity[("half", "output")] == 0.5

    def test_dry_run_never_mutates_the_template_pes(self):
        half = DropHalf(name="half")
        g = linear_graph(Emit(name="src"), half)
        profile_graph(g, provided={"src": [{"input": i} for i in range(4)]})
        assert half._seen == 0

    def test_failure_is_not_profiled(self):
        g = linear_graph(Emit(name="src"), Exploding(name="bad"))
        provided = {"src": [{"input": 1}]}
        assert profile_graph(g, provided=provided) is None
        plan = Planner().plan(g, provided=provided)
        assert plan.cost is None
        assert "measured     : not profiled" in plan.explain().splitlines()
