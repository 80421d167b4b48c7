"""Tests for mapping-shared machinery (inputs, collectors, dispatch)."""

import pytest

from repro.core.concrete import ConcreteWorkflow
from repro.core.context import ExecutionContext
from repro.core.exceptions import MappingError, UnsupportedFeatureError
from repro.core.graph import WorkflowGraph
from repro.mappings import get_mapping, mapping_names
from repro.mappings.base import (
    Counters,
    ResultsCollector,
    dispatch_emissions,
    instantiate,
    iter_root_inputs,
    marshal,
    normalize_inputs,
)
from repro.platforms.profiles import HPC
from tests.conftest import Collect, Double, Emit, StatefulCounter, linear_graph


class TestNormalizeInputs:
    def _graph(self):
        return linear_graph(Double(name="src"), Collect(name="sink"))

    def test_none_means_single_empty(self):
        provided = normalize_inputs(self._graph(), None)
        assert provided == {"src": [{}]}

    def test_int_feeds_indices(self):
        provided = normalize_inputs(self._graph(), 3)
        assert provided == {"src": [{"input": 0}, {"input": 1}, {"input": 2}]}

    def test_negative_int_rejected(self):
        with pytest.raises(MappingError):
            normalize_inputs(self._graph(), -1)

    def test_list_of_values(self):
        provided = normalize_inputs(self._graph(), [10, 20])
        assert provided == {"src": [{"input": 10}, {"input": 20}]}

    def test_arbitrary_iterable_accepted(self):
        """Generators/ranges expand like lists on the eager path."""
        provided = normalize_inputs(self._graph(), (i * 10 for i in (1, 2)))
        assert provided == {"src": [{"input": 10}, {"input": 20}]}
        provided = normalize_inputs(self._graph(), {"src": range(2)})
        assert provided == {"src": [{"input": 0}, {"input": 1}]}

    def test_lazy_form_defers_consumption(self):
        """iter_root_inputs leaves the iterable untouched until iterated."""
        pulled = []

        def gen():
            for i in range(3):
                pulled.append(i)
                yield i

        streams = iter_root_inputs(self._graph(), gen())
        assert pulled == []
        assert list(streams["src"]) == [{"input": 0}, {"input": 1}, {"input": 2}]
        assert pulled == [0, 1, 2]

    def test_lazy_form_lists_every_root(self):
        g = WorkflowGraph("two-roots")
        g.connect(Emit(name="a"), "output", Collect(name="sink"), "input")
        g.connect(Emit(name="b"), "output", Collect(name="sink2"), "input")
        streams = iter_root_inputs(g, {"a": [1]})
        assert sorted(streams) == ["a", "b"]
        assert list(streams["b"]) == []

    def test_list_of_dicts_passthrough(self):
        provided = normalize_inputs(self._graph(), [{"input": 5}])
        assert provided == {"src": [{"input": 5}]}

    def test_dict_per_root(self):
        provided = normalize_inputs(self._graph(), {"src": [1]})
        assert provided == {"src": [{"input": 1}]}

    def test_dict_unknown_pe_rejected(self):
        with pytest.raises(MappingError):
            normalize_inputs(self._graph(), {"ghost": [1]})

    def test_dict_non_root_rejected(self):
        with pytest.raises(MappingError):
            normalize_inputs(self._graph(), {"sink": [1]})

    def test_list_to_portless_source_rejected(self):
        """A value list cannot drive a source that declares no input port."""
        from repro.core.pe import ProducerPE

        class Pump(ProducerPE):
            def _process(self, data):
                return 1

        g = WorkflowGraph("portless")
        g.connect(Pump(name="pump"), "output", Collect(name="sink"), "input")
        with pytest.raises(MappingError, match="no input port"):
            normalize_inputs(g, [1, 2, 3])

    def test_int_drives_portless_source_with_empty_inputs(self):
        from repro.core.pe import ProducerPE

        class Pump(ProducerPE):
            def _process(self, data):
                return 1

        g = WorkflowGraph("portless")
        g.connect(Pump(name="pump"), "output", Collect(name="sink"), "input")
        provided = normalize_inputs(g, 3)
        assert provided == {"pump": [{}, {}, {}]}

    def test_dict_referencing_non_source_pe_message(self):
        with pytest.raises(MappingError, match="non-source"):
            normalize_inputs(self._graph(), {"sink": 2})

    def test_multiple_roots_each_get_items(self):
        g = WorkflowGraph("two-roots")
        sink = Collect(name="sink")
        g.connect(Emit(name="r1"), "output", sink, "input")
        g.connect(Emit(name="r2"), "output", sink, "input")
        provided = normalize_inputs(g, 2)
        assert set(provided) == {"r1", "r2"}
        assert all(len(v) == 2 for v in provided.values())


class TestMarshal:
    def test_default_is_ownership_transfer(self):
        """Pass-through by default: see the marshal docstring for why."""
        original = {"a": [1]}
        assert marshal(original) is original

    def test_copy_mode_isolates_mutations(self):
        original = {"a": [1]}
        copy_ = marshal(original, copy_payloads=True)
        original["a"].append(2)
        assert copy_ == {"a": [1]}

    def test_copy_mode_preserves_numpy(self):
        import numpy as np

        arr = marshal(np.arange(4), copy_payloads=True)
        assert list(arr) == [0, 1, 2, 3]


class TestCollectorAndCounters:
    def test_collector_groups_by_pe_port(self):
        collector = ResultsCollector()
        collector.add("pe.out", 1)
        collector.add("pe.out", 2)
        collector.add("other.log", "x")
        assert collector.as_dict() == {"pe.out": [1, 2], "other.log": ["x"]}

    def test_counters(self):
        counters = Counters()
        counters.inc("tasks")
        counters.inc("tasks", 4)
        assert counters.get("tasks") == 5
        assert counters.get("missing") == 0
        assert counters.as_dict() == {"tasks": 5}


class TestInstantiate:
    def test_sets_instance_fields(self):
        ctx = ExecutionContext(seed=3)
        clone = instantiate(Double(name="d"), 2, 4, ctx)
        assert clone.instance_id == "d.2"
        assert clone.instance_index == 2
        assert clone.num_instances == 4
        assert clone.ctx is ctx
        assert clone.rng is not None

    def test_clone_is_independent(self):
        pe = StatefulCounter(name="s")
        clone = instantiate(pe, 0, 1, ExecutionContext())
        clone.counts["x"] = 1
        assert pe.counts == {}


class TestDispatchEmissions:
    def test_unconnected_port_goes_to_collector(self):
        g = linear_graph(Emit(name="a"), Double(name="b"))
        cw = ConcreteWorkflow.single_instance(g)
        collector = ResultsCollector()
        deliveries = dispatch_emissions(cw, collector, "b", 0, [("output", 9)])
        assert deliveries == []
        assert collector.as_dict() == {"b.output": [9]}

    def test_connected_port_routes(self):
        g = linear_graph(Emit(name="a"), Double(name="b"))
        cw = ConcreteWorkflow.single_instance(g)
        collector = ResultsCollector()
        deliveries = dispatch_emissions(cw, collector, "a", 0, [("output", 9)])
        assert deliveries == [("b", "input", 0, 9)]
        assert collector.as_dict() == {}


class TestExecuteGating:
    def test_stateless_only_mappings_reject_stateful(self):
        g = WorkflowGraph("g")
        g.connect(Emit(name="a"), "output", StatefulCounter(name="s"), "input")
        for name in ("dyn_multi", "dyn_auto_multi", "dyn_redis", "dyn_auto_redis"):
            with pytest.raises(UnsupportedFeatureError):
                get_mapping(name).execute(g, inputs=[("k", 1)], processes=2)

    def test_redis_mappings_reject_hpc(self):
        g = linear_graph(Emit(name="a"), Double(name="b"))
        for name in ("dyn_redis", "dyn_auto_redis", "hybrid_redis"):
            with pytest.raises(MappingError):
                get_mapping(name).execute(g, inputs=[1], processes=2, platform=HPC)

    def test_zero_processes_rejected(self):
        g = linear_graph(Emit(name="a"), Double(name="b"))
        with pytest.raises(MappingError):
            get_mapping("simple").execute(g, inputs=[1], processes=0)

    def test_registry_contents(self):
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

    def test_unknown_mapping(self):
        with pytest.raises(KeyError):
            get_mapping("warp_drive")
