"""Tests for the reusable Engine facade and the run() back-compat shim."""

import pytest

import repro
from repro import Engine, Pipeline, RunConfig, WorkflowGraph
from repro.core.exceptions import UnsupportedFeatureError
from repro.platforms.profiles import HPC, SERVER
from tests.conftest import Collect, Double, Emit, StatefulCounter, linear_graph

FAST = 0.002


def _stateless():
    return linear_graph(Emit(name="src"), Double(name="dbl"))


def _stateful():
    g = WorkflowGraph("stateful")
    g.connect(Emit(name="src"), "output", StatefulCounter(name="counter"), "input")
    return g


class TestEngineBasics:
    def test_run_returns_result(self):
        engine = Engine(mapping="simple", time_scale=FAST)
        result = engine.run(_stateless(), inputs=[1, 2, 3])
        assert result.mapping == "simple"
        assert sorted(result.output("dbl")) == [2, 4, 6]

    def test_engine_reusable_across_runs(self):
        engine = Engine(mapping="simple", time_scale=FAST)
        first = engine.run(_stateless(), inputs=[1])
        second = engine.run(_stateless(), inputs=[2, 3])
        assert first.output("dbl") == [2]
        assert sorted(second.output("dbl")) == [4, 6]
        # The mapping engine instance is cached between runs.
        assert engine._engine_for("simple") is engine._engine_for("simple")

    def test_platform_resolved_once_from_name(self):
        engine = Engine(platform="server")
        assert engine.platform is SERVER

    def test_per_run_overrides(self):
        engine = Engine(mapping="simple", processes=1, seed=0, time_scale=FAST)
        result = engine.run(
            _stateless(), inputs=[1], mapping="dyn_multi", processes=3, seed=9
        )
        assert result.mapping == "dyn_multi"
        assert result.processes == 3

    def test_engine_options_forwarded_and_overridable(self):
        engine = Engine(mapping="dyn_auto_multi", processes=4, time_scale=FAST,
                        session_chunk=4)
        result = engine.run(_stateless(), inputs=list(range(8)), session_chunk=2)
        assert result.mapping == "dyn_auto_multi"
        assert sorted(result.output("dbl")) == [2 * i for i in range(8)]

    def test_accepts_pipeline_and_chain(self):
        engine = Engine(mapping="simple", time_scale=FAST)
        chain = Emit(name="a") >> Double(name="b")
        assert sorted(engine.run(chain, inputs=[2]).output("b")) == [4]
        pipeline = Pipeline("p").then(Emit(name="a2"), Double(name="b2"))
        assert sorted(engine.run(pipeline, inputs=[3]).output("b2")) == [6]

    def test_context_manager_closes(self):
        with Engine(mapping="simple", time_scale=FAST) as engine:
            engine.run(_stateless(), inputs=[1])
        with pytest.raises(RuntimeError, match="closed"):
            engine.run(_stateless(), inputs=[1])

    def test_from_config_and_with_options(self):
        config = RunConfig(mapping="simple", platform="server", processes=2)
        engine = Engine.from_config(config)
        assert engine.platform is SERVER
        tweaked = engine.with_options(processes=5)
        assert tweaked.config.processes == 5
        assert tweaked.config.mapping == "simple"
        # One initialiser: no construction path can miss an attribute.
        assert vars(engine).keys() == vars(tweaked).keys() == vars(Engine()).keys()

    def test_typo_of_config_field_rejected(self):
        """Misspelled RunConfig fields must not silently become inert
        mapping options."""
        with pytest.raises(TypeError, match="did you mean 'processes'"):
            Engine(mapping="simple", procesess=12)
        engine = Engine(mapping="simple")
        with pytest.raises(TypeError, match="did you mean 'platform'"):
            engine.with_options(platfrom="server")
        with pytest.raises(TypeError, match="did you mean 'processes'"):
            engine.run(_stateless(), inputs=[1], procesess=8)
        # An exact config-field name in the wrong place gets a clear
        # message, not "did you mean 'platform'?" for 'platform' itself.
        with pytest.raises(TypeError, match="engine-level setting"):
            engine.run(_stateless(), inputs=[1], platform="server")

    def test_constructor_accepts_options_dict(self):
        engine = Engine(mapping="dyn_auto_multi", options={"session_chunk": 4},
                        min_queue=1)
        assert engine.config.options == {"session_chunk": 4, "min_queue": 1}

    def test_with_options_dict_also_typo_checked(self):
        engine = Engine(mapping="simple")
        with pytest.raises(TypeError, match="did you mean 'processes'"):
            engine.with_options(options={"procesess": 9})

    def test_from_config_also_typo_checked(self):
        with pytest.raises(TypeError, match="did you mean 'processes'"):
            Engine.from_config(RunConfig(mapping="simple", options={"procesess": 9}))

    def test_with_options_routes_mapping_options(self):
        """Non-RunConfig kwargs become mapping options, as in __init__."""
        engine = Engine(mapping="dyn_auto_multi", session_chunk=16)
        tweaked = engine.with_options(session_chunk=8, processes=3)
        assert tweaked.config.options["session_chunk"] == 8
        assert tweaked.config.processes == 3

    def test_with_options_splits_config_fields_from_mapping_options(self):
        """Every RunConfig field lands on the config; everything else on
        options -- in one call mixing both."""
        engine = Engine(mapping="dyn_auto_multi", processes=2)
        tweaked = engine.with_options(
            processes=6, time_scale=0.5, seed=3, min_queue=1, scale_interval=0.2
        )
        assert tweaked.config.processes == 6
        assert tweaked.config.time_scale == 0.5
        assert tweaked.config.seed == 3
        assert tweaked.config.options == {"min_queue": 1, "scale_interval": 0.2}
        # The source engine is untouched.
        assert engine.config.processes == 2
        assert engine.config.options == {}

    def test_with_options_dict_merges_over_existing(self):
        """options= merges with (and keyword options win over) the
        inherited mapping options."""
        engine = Engine(mapping="dyn_auto_multi", session_chunk=16, min_queue=2)
        tweaked = engine.with_options(options={"min_queue": 5}, session_chunk=4)
        assert tweaked.config.options == {"session_chunk": 4, "min_queue": 5}

    def test_with_options_derived_engine_has_fresh_caches(self):
        engine = Engine(mapping="simple", time_scale=FAST)
        engine.run(_stateless(), inputs=[1])
        assert engine._engines  # parent cached its mapping engine
        tweaked = engine.with_options(seed=1)
        assert tweaked._engines == {}
        assert tweaked._sessions == {}
        assert tweaked._jobs == []
        # And the derived engine works standalone.
        assert tweaked.run(_stateless(), inputs=[2]).output("dbl") == [4]


class TestClosedEngine:
    """Closed-state checks are consistent across the whole facade."""

    def _closed_engine(self):
        engine = Engine(mapping="simple", time_scale=FAST)
        engine.close()
        return engine

    def test_run_rejected(self):
        with pytest.raises(RuntimeError, match="closed"):
            self._closed_engine().run(_stateless(), inputs=[1])

    def test_submit_rejected(self):
        with pytest.raises(RuntimeError, match="closed"):
            self._closed_engine().submit(_stateless(), inputs=[1])

    def test_resolve_mapping_rejected(self):
        """Regression: resolve_mapping() used to keep working after close()."""
        with pytest.raises(RuntimeError, match="closed"):
            self._closed_engine().resolve_mapping(_stateless())

    def test_with_options_rejected(self):
        """Regression: with_options() used to keep working after close()."""
        with pytest.raises(RuntimeError, match="closed"):
            self._closed_engine().with_options(processes=2)

    def test_close_is_idempotent(self):
        engine = Engine(mapping="simple", time_scale=FAST)
        engine.close()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.run(_stateless(), inputs=[1])

    def test_close_tears_down_warm_sessions(self):
        engine = Engine(mapping="dyn_auto_multi", processes=2, time_scale=FAST)
        engine.submit(_stateless(), inputs=[1]).wait(timeout=10.0)
        deployment = engine._sessions["dyn_auto_multi"].deployment
        assert deployment.pool is not None
        engine.close()
        assert deployment.pool is None  # torn down


class TestAutoSelection:
    def test_auto_stateless(self):
        engine = Engine(mapping="auto", processes=4, time_scale=FAST)
        assert engine.resolve_mapping(_stateless()) == "dyn_auto_multi"
        result = engine.run(_stateless(), inputs=[1, 2])
        assert result.mapping == "dyn_auto_multi"

    def test_auto_stateful(self):
        engine = Engine(mapping="auto", processes=4, time_scale=FAST)
        assert engine.resolve_mapping(_stateful()) == "hybrid_redis"
        result = engine.run(_stateful(), inputs=[("a", 1), ("a", 2)])
        assert result.mapping == "hybrid_redis"
        assert result.output("counter") == [("a", 2)]

    def test_auto_without_redis_platform(self):
        engine = Engine(mapping="auto", platform=HPC, processes=16, time_scale=FAST)
        assert engine.resolve_mapping(_stateless()) == "dyn_auto_multi"
        assert engine.resolve_mapping(_stateful()) == "multi"

    def test_auto_with_infeasible_prefer_raises(self):
        engine = Engine(mapping="auto", prefer="dyn_multi", time_scale=FAST)
        with pytest.raises(UnsupportedFeatureError):
            engine.run(_stateful(), inputs=[("a", 1)])


class TestRunShim:
    def test_run_defaults_to_simple(self):
        result = repro.run(_stateless(), inputs=[5], time_scale=FAST)
        assert result.mapping == "simple"
        assert result.output("dbl") == [10]

    def test_run_accepts_auto(self):
        result = repro.run(
            _stateless(), inputs=[1], processes=2, mapping="auto", time_scale=FAST
        )
        assert result.mapping == "dyn_auto_multi"

    def test_run_accepts_chain(self):
        chain = Emit(name="a") >> Double(name="b")
        result = repro.run(chain, inputs=[4], time_scale=FAST)
        assert result.output("b") == [8]

    def test_run_counts_tasks(self):
        sink = Collect(name="sink")
        g = linear_graph(Emit(name="src"), sink)
        result = repro.run(
            g, inputs=[1, 2], processes=2, mapping="dyn_multi", time_scale=FAST
        )
        assert result.counters.get("tasks") == 4
