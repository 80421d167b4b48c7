"""Cross-mapping equivalence: every mapping computes the same results.

The sequential ``simple`` mapping is the oracle; each parallel mapping must
produce the same multiset of sink outputs for the same workflow and inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run
from repro.core.exceptions import MappingError
from repro.core.graph import WorkflowGraph
from repro.core.pe import IterativePE
from repro.mappings import Capabilities, DynamicMapping, get_capabilities, get_mapping
from tests.conftest import (
    AddOne,
    Double,
    Emit,
    FAST_SCALE,
    PARALLEL_MAPPINGS,
    STATELESS_ONLY,
    StatefulCounter,
    linear_graph,
)
from tests.integration.test_streaming import _assert_no_leaked_threads, _our_threads

STATEFUL_CAPABLE = tuple(m for m in PARALLEL_MAPPINGS if m not in STATELESS_ONLY)


def _oracle(graph_factory, inputs):
    return sorted(
        map(repr, run(graph_factory(), inputs=inputs, mapping="simple").outputs.items())
    )


def _stateless_factory():
    g = WorkflowGraph("equiv")
    src = Emit(name="src")
    g.connect(src, "output", Double(name="d"), "input")
    g.connect(src, "output", AddOne(name="a"), "input")
    g.connect(g.pe("d"), "output", AddOne(name="da"), "input")
    return g


def _collect_sorted(result):
    return {key: sorted(map(repr, values)) for key, values in result.outputs.items()}


class TestStatelessEquivalence:
    @pytest.mark.parametrize("mapping", PARALLEL_MAPPINGS)
    def test_matches_simple(self, mapping):
        inputs = list(range(12))
        expected = _collect_sorted(run(_stateless_factory(), inputs=inputs, mapping="simple"))
        actual = _collect_sorted(
            run(
                _stateless_factory(),
                inputs=inputs,
                processes=4,
                mapping=mapping,
                time_scale=FAST_SCALE,
            )
        )
        assert actual == expected

    @pytest.mark.parametrize("processes", [1, 2, 5, 9])
    def test_dyn_multi_any_process_count(self, processes):
        inputs = list(range(10))
        expected = _collect_sorted(run(_stateless_factory(), inputs=inputs, mapping="simple"))
        actual = _collect_sorted(
            run(
                _stateless_factory(),
                inputs=inputs,
                processes=processes,
                mapping="dyn_multi",
                time_scale=FAST_SCALE,
            )
        )
        assert actual == expected


def _dynamic_row(description, **bits):
    return Capabilities(
        stateful=False, dynamic=True, batching=True,
        description=description, **bits,
    )


#: The capability rows of the four dynamic presets, spelled out: the
#: registry derives them from (workforce, scaling) and must land on these.
DYNAMIC_ROWS = {
    "dyn_multi": _dynamic_row(
        "Dynamic scheduling on a global multiprocessing queue", streaming=True
    ),
    "dyn_auto_multi": _dynamic_row(
        "Dynamic multiprocessing + Algorithm 1 auto-scaling",
        streaming=True, autoscaling=True,
    ),
    "dyn_redis": _dynamic_row(
        "Dynamic scheduling on a Redis Stream consumer group",
        requires_redis=True, recoverable=True,
    ),
    "dyn_auto_redis": _dynamic_row(
        "Redis dynamic scheduling + idle-time auto-scaling",
        requires_redis=True, recoverable=True, autoscaling=True,
    ),
}


class Exploding(IterativePE):
    def _process(self, data):
        if data == 3:
            raise RuntimeError(f"injected failure on {data}")
        return data


class TestDynamicPresets:
    """The four dynamic names are presets of one class with one ``_enact``."""

    @pytest.mark.parametrize("mapping", STATELESS_ONLY)
    def test_one_class_and_the_row_in_force(self, mapping):
        engine = get_mapping(mapping)
        assert isinstance(engine, DynamicMapping)
        assert type(engine)._enact is DynamicMapping._enact
        assert get_capabilities(mapping) == DYNAMIC_ROWS[mapping]
        assert engine.capabilities == DYNAMIC_ROWS[mapping]

    @pytest.mark.parametrize("mapping", STATELESS_ONLY)
    @pytest.mark.parametrize("batch_size", (1, 32))
    @pytest.mark.parametrize("fuse", (False, True))
    def test_matches_simple_batched_and_fused(self, mapping, batch_size, fuse):
        inputs = list(range(40))
        expected = _collect_sorted(run(_stateless_factory(), inputs=inputs, mapping="simple"))
        actual = _collect_sorted(
            run(
                _stateless_factory(), inputs=inputs, processes=4, mapping=mapping,
                time_scale=FAST_SCALE, batch_size=batch_size, fuse=fuse,
            )
        )
        assert actual == expected

    @pytest.mark.parametrize("mapping", ("dyn_multi", "dyn_auto_multi"))
    def test_pe_error_surfaces_and_leaks_no_thread(self, mapping):
        """One case per driver: the PE's own exception is what the caller
        reads, and every worker / pool / feeder thread is gone afterwards."""
        before = _our_threads()
        g = linear_graph(Exploding(name="boom"), Double(name="d"))
        with pytest.raises(MappingError) as failure:
            run(g, inputs=list(range(6)), processes=3, mapping=mapping,
                time_scale=FAST_SCALE)
        assert repr(RuntimeError("injected failure on 3")) in str(failure.value)
        _assert_no_leaked_threads(before)


class TestStatefulEquivalence:
    def _stateful_factory(self):
        return linear_graph(
            Emit(name="src"), StatefulCounter(name="counter", instances=3)
        )

    @pytest.mark.parametrize("mapping", STATEFUL_CAPABLE)
    def test_counter_totals_match(self, mapping):
        inputs = [(f"k{i % 5}", i) for i in range(25)]
        expected = sorted(
            run(self._stateful_factory(), inputs=inputs, mapping="simple").output("counter")
        )
        actual = sorted(
            run(
                self._stateful_factory(),
                inputs=inputs,
                processes=5,
                mapping=mapping,
                time_scale=FAST_SCALE,
            ).output("counter")
        )
        assert actual == expected


class TestPropertyEquivalence:
    @given(
        inputs=st.lists(st.integers(min_value=-100, max_value=100), max_size=15),
        processes=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=10, deadline=None)
    def test_dyn_multi_equals_simple(self, inputs, processes):
        expected = sorted(
            run(
                linear_graph(Double(name="d"), AddOne(name="a")),
                inputs=inputs,
                mapping="simple",
            ).output("a")
        )
        actual = sorted(
            run(
                linear_graph(Double(name="d"), AddOne(name="a")),
                inputs=inputs,
                processes=processes,
                mapping="dyn_multi",
                time_scale=FAST_SCALE,
            ).output("a")
        )
        assert actual == expected

    @given(
        keys=st.lists(st.sampled_from("abcde"), min_size=1, max_size=20),
    )
    @settings(max_examples=8, deadline=None)
    def test_hybrid_counter_equals_simple(self, keys):
        inputs = [(k, i) for i, k in enumerate(keys)]

        def factory():
            return linear_graph(
                Emit(name="src"), StatefulCounter(name="counter", instances=2)
            )

        expected = sorted(run(factory(), inputs=inputs, mapping="simple").output("counter"))
        actual = sorted(
            run(
                factory(),
                inputs=inputs,
                processes=4,
                mapping="hybrid_redis",
                time_scale=FAST_SCALE,
            ).output("counter")
        )
        assert actual == expected
