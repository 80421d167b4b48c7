"""Tests for the capability-aware mapping registry and auto-selection."""

from dataclasses import replace

import pytest

from repro.core.exceptions import MappingError, UnsupportedFeatureError
from repro.core.graph import WorkflowGraph
from repro.mappings import (
    Capabilities,
    Mapping,
    UnknownMappingError,
    capability_table,
    get_capabilities,
    get_mapping,
    get_mapping_class,
    mapping_names,
    register_mapping,
    select_mapping,
    unregister_mapping,
)
from repro.mappings.simple import SimpleMapping
from repro.platforms.profiles import HPC, LAPTOP, SERVER
from tests.conftest import Collect, Double, Emit, StatefulCounter, linear_graph


def _stateless_graph():
    return linear_graph(Emit(name="src"), Double(name="mid"), Collect(name="sink"))


def _stateful_graph():
    g = WorkflowGraph("stateful")
    g.connect(Emit(name="src"), "output", StatefulCounter(name="counter"), "input")
    return g


class TestRegistry:
    def test_builtins_registered(self):
        assert mapping_names() == sorted(
            [
                "simple",
                "multi",
                "dyn_multi",
                "dyn_auto_multi",
                "dyn_redis",
                "dyn_auto_redis",
                "hybrid_redis",
                "cluster_redis",
            ]
        )

    def test_get_mapping_class(self):
        assert get_mapping_class("simple") is SimpleMapping

    def test_unknown_mapping_error_type(self):
        with pytest.raises(UnknownMappingError):
            get_mapping("warp_drive")
        # It stays a KeyError for pre-registry callers.
        with pytest.raises(KeyError):
            get_mapping_class("warp_drive")
        with pytest.raises(KeyError):
            get_capabilities("warp_drive")

    def test_capabilities_declared(self):
        assert get_capabilities("hybrid_redis").stateful
        assert get_capabilities("hybrid_redis").requires_redis
        assert not get_capabilities("dyn_auto_multi").stateful
        assert get_capabilities("dyn_auto_multi").autoscaling

    def test_process_floor_is_a_function_of_the_graph(self):
        """Not a capability bit: pinning mappings derive it per graph."""
        chain, stateful = _stateless_graph(), _stateful_graph()
        assert get_mapping_class("simple").process_floor(stateful) == 1
        assert get_mapping_class("dyn_multi").process_floor(chain) == 1
        assert get_mapping_class("multi").process_floor(chain) == 3
        # hybrid_redis: pinned stateful instances + one stateless worker.
        assert get_mapping_class("hybrid_redis").process_floor(chain) == 1
        assert get_mapping_class("hybrid_redis").process_floor(stateful) == 3  # 2 pinned + 1

    def test_capability_table_covers_all(self):
        rows = capability_table()
        assert [name for name, _ in rows] == mapping_names()
        assert all(isinstance(caps, Capabilities) for _, caps in rows)

    def test_blank_docstring_derives_empty_description(self):
        @register_mapping()
        class Blank(Mapping):
            """   """

            name = "blank_doc_mapping"

        try:
            assert get_capabilities("blank_doc_mapping").description == ""
        finally:
            unregister_mapping("blank_doc_mapping")

    def test_unnamed_class_rejected(self):
        with pytest.raises(ValueError, match="name"):

            @register_mapping()
            class Nameless(Mapping):
                pass


class TestThirdPartyRegistration:
    def test_out_of_tree_mapping_end_to_end(self):
        """An external backend registers and runs like a built-in."""

        @register_mapping(
            Capabilities(stateful=True, description="simple, but louder")
        )
        class ShoutingSimple(SimpleMapping):
            name = "shouting_simple"

        try:
            assert "shouting_simple" in mapping_names()
            g = linear_graph(Emit(name="src"), Double(name="mid"))
            result = get_mapping("shouting_simple").execute(g, inputs=[1, 2])
            assert result.mapping == "shouting_simple"
            assert sorted(result.output("mid")) == [2, 4]
        finally:
            unregister_mapping("shouting_simple")
        assert "shouting_simple" not in mapping_names()

    def test_capabilities_record_is_the_only_declaration(self):
        """A backend declares what it can do once, in its ``Capabilities``
        record -- no mirrored class attributes -- and the gates enforce
        exactly that record."""

        @register_mapping(Capabilities(stateful=False, streaming=False))
        class StatelessOnly(SimpleMapping):
            name = "stateless_only_test"

        try:
            mapping = get_mapping("stateless_only_test")
            assert mapping.capabilities == get_capabilities("stateless_only_test")
            with pytest.raises(UnsupportedFeatureError, match="stateless"):
                mapping.execute(_stateful_graph(), inputs=[("a", 1)])
            with pytest.raises(MappingError, match="live streaming"):
                mapping.submit(_stateless_graph(), inputs=[1], stream=True)
            # Buffered submission still works, and deploys no worker pool.
            assert mapping.deploy(2).pool is None
            job = mapping.submit(_stateless_graph(), inputs=[1, 2])
            job.close_input()
            assert job.wait().counters["tasks"] == 6
        finally:
            unregister_mapping("stateless_only_test")

    def test_unrecorded_registration_inherits_the_parent_row(self):
        """``@register_mapping()`` on a subclass of a built-in keeps the
        row the inherited enactment code enforces; only the description
        (the docstring's first line) is its own."""

        @register_mapping()
        class QuietSimple(SimpleMapping):
            """simple, but quieter

            (not part of the description)
            """

            name = "quiet_simple_test"

        try:
            caps = get_capabilities("quiet_simple_test")
            assert caps == replace(
                get_capabilities("simple"), description="simple, but quieter"
            )
            assert QuietSimple.capabilities is caps
            assert get_mapping("simple").capabilities == get_capabilities("simple")
        finally:
            unregister_mapping("quiet_simple_test")


class TestSelectMapping:
    def test_stateless_selects_dynamic_autoscaler(self):
        assert select_mapping(_stateless_graph(), platform=SERVER) == "dyn_auto_multi"

    def test_stateful_selects_hybrid(self):
        assert select_mapping(_stateful_graph(), platform=SERVER) == "hybrid_redis"

    def test_stateful_without_redis_falls_back_to_multi(self):
        assert select_mapping(_stateful_graph(), platform=HPC) == "multi"

    def test_process_budget_respected(self):
        # multi needs one process per instance; with a tiny budget the
        # stateful fallback on HPC must not pick it blindly.
        graph = _stateful_graph()
        assert select_mapping(graph, platform=HPC, processes=1) == "simple"

    def test_prefer_feasible_wins(self):
        name = select_mapping(
            _stateless_graph(), platform=SERVER, prefer=("dyn_redis", "dyn_multi")
        )
        assert name == "dyn_redis"

    def test_prefer_infeasible_raises_with_reasons(self):
        with pytest.raises(UnsupportedFeatureError) as exc:
            select_mapping(_stateful_graph(), platform=SERVER, prefer="dyn_multi")
        assert "stateless" in str(exc.value)
        assert "dyn_multi" in str(exc.value)

    def test_prefer_redis_on_hpc_raises(self):
        with pytest.raises(UnsupportedFeatureError, match="Redis"):
            select_mapping(_stateless_graph(), platform=HPC, prefer="dyn_redis")

    def test_prefer_unknown_name_raises(self):
        with pytest.raises(UnknownMappingError):
            select_mapping(_stateless_graph(), platform=LAPTOP, prefer="warp_drive")

    def test_empty_prefer_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            select_mapping(_stateless_graph(), prefer=[])

    def test_prefer_string_and_sequence_equivalent(self):
        g = _stateless_graph()
        assert select_mapping(g, prefer="simple") == select_mapping(g, prefer=["simple"])


class TestAutoEndToEnd:
    def test_auto_runs_stateless_via_autoscaler(self):
        from repro import run

        g = _stateless_graph()
        result = run(g, inputs=[1, 2, 3], processes=4, mapping="auto", time_scale=0.01)
        assert result.mapping == "dyn_auto_multi"
        # All output ports are connected, so assert on the task counter:
        # 3 inputs through 2 processing stages (the sink emits nothing).
        assert result.counters.get("tasks") >= 6

    def test_auto_runs_stateful_via_hybrid(self):
        from repro import run

        g = _stateful_graph()
        result = run(
            g,
            inputs=[("a", 1), ("b", 2), ("a", 3)],
            processes=4,
            mapping="auto",
            time_scale=0.01,
        )
        assert result.mapping == "hybrid_redis"
        assert sorted(result.output("counter")) == [("a", 2), ("b", 1)]
