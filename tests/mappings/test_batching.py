"""Batched tuple transport: boundary cases and cross-mapping equivalence.

Three contracts pinned here:

1. ``batch_size=1`` (the default) is *identical* to pre-batching behavior:
   same outputs, same transport operation counts, and the options dict a
   default engine hands a mapping contains no batching keys at all.
2. Any ``batch_size`` computes the same multiset of outputs as the
   sequential oracle on every batching mapping -- including sizes that do
   not divide the workload (envelope tails) and sizes larger than it.
3. The engine rejects batching on mappings that do not declare the
   capability, rather than silently running unbatched.
"""

import pytest

from repro import Engine, run
from repro.core.exceptions import MappingError, UnsupportedFeatureError
from repro.core.graph import WorkflowGraph
from repro.mappings.base import resolve_batch_size
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

STATEFUL_CAPABLE = tuple(m for m in PARALLEL_MAPPINGS if m not in STATELESS_ONLY)

#: Sizes straddling the boundaries: unit, non-divisor, exact, oversized.
BATCH_SIZES = (1, 3, 4, 64)


def _stateless_factory():
    g = WorkflowGraph("batching")
    src = Emit(name="src")
    g.connect(src, "output", Double(name="d"), "input")
    g.connect(src, "output", AddOne(name="a"), "input")
    g.connect(g.pe("d"), "output", AddOne(name="da"), "input")
    return g


def _collect_sorted(result):
    return {key: sorted(map(repr, values)) for key, values in result.outputs.items()}


class TestOptionResolution:
    def test_defaults(self):
        assert resolve_batch_size({}) == 1

    @pytest.mark.parametrize("bad", [0, -1, "many", None, 1.5])
    def test_bad_batch_size_rejected(self, bad):
        with pytest.raises(MappingError):
            resolve_batch_size({"batch_size": bad})


class TestBatchSizeOneIsIdentity:
    """batch_size=1 must be indistinguishable from the pre-batching engine."""

    def test_default_config_passes_no_batching_options(self):
        config = Engine().config
        assert config.transport_options() == {}

    def test_non_default_config_passes_options(self):
        config = Engine(batch_size=16).config
        assert config.transport_options() == {"batch_size": 16}

    @pytest.mark.parametrize("mapping", ("multi", "dyn_multi", "dyn_redis"))
    def test_same_outputs_and_transport_counts(self, mapping):
        inputs = list(range(10))
        processes = 4
        baseline = run(
            _stateless_factory(), inputs=inputs, processes=processes,
            mapping=mapping, time_scale=FAST_SCALE,
        )
        explicit = run(
            _stateless_factory(), inputs=inputs, processes=processes,
            mapping=mapping, time_scale=FAST_SCALE, batch_size=1,
        )
        assert _collect_sorted(explicit) == _collect_sorted(baseline)
        # Same transport granularity: identical put/seed accounting.
        for counter in ("seed_tasks", "tasks", "queue_puts"):
            assert explicit.counters.get(counter, 0) == baseline.counters.get(
                counter, 0
            )


class TestBatchedEquivalence:
    @pytest.mark.parametrize("mapping", PARALLEL_MAPPINGS)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES[1:])
    def test_matches_unbatched(self, mapping, batch_size):
        inputs = list(range(14))
        expected = _collect_sorted(
            run(_stateless_factory(), inputs=inputs, mapping="simple")
        )
        actual = _collect_sorted(
            run(
                _stateless_factory(), inputs=inputs, processes=4,
                mapping=mapping, time_scale=FAST_SCALE, batch_size=batch_size,
            )
        )
        assert actual == expected

    @pytest.mark.parametrize("mapping", STATEFUL_CAPABLE)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_stateful_grouping_preserved(self, mapping, batch_size):
        """Group-by routing is untouched by batching: envelopes are formed
        per destination instance, after routing."""
        processes = {"multi": 4, "hybrid_redis": 4}[mapping]
        g = linear_graph(
            Emit(name="src"), StatefulCounter(name="counter", instances=2)
        )
        items = [(f"k{i % 5}", i) for i in range(20)]
        result = run(
            g, inputs=items, processes=processes, mapping=mapping,
            time_scale=FAST_SCALE, batch_size=batch_size,
        )
        assert sorted(result.output("counter")) == [(f"k{i}", 4) for i in range(5)]


class TestEngineGating:
    def test_simple_mapping_rejects_batching(self):
        engine = Engine(mapping="simple", batch_size=8)
        with pytest.raises(UnsupportedFeatureError, match="batch"):
            engine.run(linear_graph(Emit(name="src")), inputs=[1])

    def test_batch_size_one_not_gated(self):
        engine = Engine(mapping="simple", batch_size=1)
        result = engine.run(linear_graph(Emit(name="src")), inputs=[1, 2])
        assert result.output("src") == [1, 2]

    def test_batching_mapping_accepts(self):
        engine = Engine(mapping="dyn_multi", processes=2, batch_size=8)
        result = engine.run(
            linear_graph(Emit(name="src")), inputs=[1, 2, 3],
            time_scale=FAST_SCALE,
        )
        assert sorted(result.output("src")) == [1, 2, 3]
