"""Tests for the benchmark harness and experiment definitions."""

import pytest

from repro.bench.experiments import (
    EXPERIMENTS,
    get_experiment,
    list_experiments,
    run_single,
)
from repro.bench.harness import BenchConfig, paired_ratio, run_cell, run_grid
from repro.platforms.profiles import LAPTOP
from tests.conftest import AddOne, Double, FAST_SCALE, linear_graph


def tiny_factory():
    return linear_graph(Double(name="d"), AddOne(name="a")), [1, 2, 3]


class TestRunCell:
    def test_returns_result(self):
        config = BenchConfig(time_scale=FAST_SCALE)
        result = run_cell(tiny_factory, "dyn_multi", 2, LAPTOP, config)
        assert result.mapping == "dyn_multi"
        assert sorted(result.output("a")) == [3, 5, 7]

    def test_repeats_take_median(self):
        config = BenchConfig(time_scale=FAST_SCALE, repeats=3)
        result = run_cell(tiny_factory, "simple", 1, LAPTOP, config)
        assert result.runtime > 0


class TestRunGrid:
    def test_grid_keys(self):
        config = BenchConfig(time_scale=FAST_SCALE)
        grid = run_grid(tiny_factory, ["simple", "dyn_multi"], [1, 2], LAPTOP, config)
        assert set(grid) == {("simple", 1), ("simple", 2), ("dyn_multi", 1), ("dyn_multi", 2)}

    def test_skip_predicate(self):
        config = BenchConfig(time_scale=FAST_SCALE)
        grid = run_grid(
            tiny_factory,
            ["simple"],
            [1, 2],
            "laptop",
            config,
            skip=lambda m, p: p == 2,
        )
        assert set(grid) == {("simple", 1)}

    def test_platform_by_name(self):
        config = BenchConfig(time_scale=FAST_SCALE)
        grid = run_grid(tiny_factory, ["simple"], [1], "laptop", config)
        assert ("simple", 1) in grid


class TestPairedRatio:
    def test_alternates_discards_warmup_takes_median(self, capsys):
        calls = []

        def cell(side, values):
            def run():
                calls.append(side)
                return values.pop(0)
            return run

        # Round 0 is the warm-up; its 100.0 / 1.0 must not count.
        paired = paired_ratio(
            cell("a", [100.0, 2.0, 3.0, 12.0]), cell("b", [1.0, 1.0, 1.0, 2.0]), 3,
            measure=float, label="toy",
        )
        assert calls == ["a", "b", "b", "a", "a", "b", "b", "a"]
        assert paired.ratios == [2.0, 3.0, 6.0]
        assert paired.median == 3.0
        assert paired.pairs == [(2.0, 1.0), (3.0, 1.0), (12.0, 2.0)]
        assert "toy: median 3.000 over 3 rounds (2.000, 3.000, 6.000)" in capsys.readouterr().out

    def test_default_measure_is_runtime(self):
        config = BenchConfig(time_scale=FAST_SCALE)
        paired = paired_ratio(
            lambda: run_cell(tiny_factory, "simple", 1, LAPTOP, config),
            lambda: run_cell(tiny_factory, "simple", 1, LAPTOP, config),
            1,
        )
        (a, b), = paired.pairs
        assert paired.ratios == [a.runtime / b.runtime]


class TestExperimentDefinitions:
    def test_all_paper_artifacts_defined(self):
        expected = {
            "fig08", "fig09", "fig10", "fig11a", "fig11b", "fig11c",
            "fig12a", "fig12b", "fig13", "table1", "table2", "table3",
        }
        assert set(list_experiments()) == expected

    def test_get_experiment_fresh_instances(self):
        assert get_experiment("fig08") is not get_experiment("fig08")

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_hpc_experiments_exclude_redis(self):
        for exp_id in ("fig10", "fig11c"):
            experiment = get_experiment(exp_id)
            assert experiment.platform == "hpc"
            assert all("redis" not in m for m in experiment.mappings)

    def test_sentiment_experiments_compare_hybrid_to_multi(self):
        for exp_id in ("fig12a", "fig12b"):
            assert set(get_experiment(exp_id).mappings) == {"multi", "hybrid_redis"}

    def test_tables_have_comparisons(self):
        for exp_id in ("table1", "table2", "table3"):
            experiment = get_experiment(exp_id)
            assert experiment.kind == "table"
            assert experiment.comparisons

    def test_every_experiment_has_workloads(self):
        for exp_id in EXPERIMENTS:
            experiment = get_experiment(exp_id)
            assert experiment.workloads
            for factory in experiment.workloads.values():
                graph, inputs = factory()
                graph.validate()
                assert inputs

    def test_run_single_cell(self):
        result = run_single(
            "table1",
            mapping="dyn_multi",
            processes=5,
            config=BenchConfig(time_scale=0.001),
        )
        assert result.mapping == "dyn_multi"
        assert result.total_outputs() == 100


class TestExperimentReport:
    def test_small_figure_report(self):
        experiment = get_experiment("table1")
        experiment.processes = (5,)
        config = BenchConfig(time_scale=0.001)
        report, grids = experiment.run_and_report(config)
        assert "table1" in report
        assert "dyn_auto_multi/dyn_multi" in report
        assert grids["1X standard"]
