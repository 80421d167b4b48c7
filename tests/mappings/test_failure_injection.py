"""Failure injection: worker errors must surface, not hang the run."""

import threading

import pytest

from repro import run
from repro.core.exceptions import MappingError
from repro.core.pe import IterativePE
from tests.conftest import Double, Emit, FAST_SCALE, StatefulCounter, linear_graph


class ExplodingPE(IterativePE):
    """Raises on a specific payload value."""

    def __init__(self, name="exploder", trigger=3):
        super().__init__(name)
        self.trigger = trigger

    def _process(self, data):
        if data == self.trigger:
            raise RuntimeError(f"injected failure on {data}")
        return data


class TestWorkerErrors:
    @pytest.mark.parametrize(
        "mapping, options",
        [
            ("simple", {}),
            ("multi", {}),
            ("dyn_multi", {}),
            ("dyn_auto_multi", {}),
            ("dyn_redis", {}),
            ("dyn_auto_redis", {}),
            # The PE's own exception crosses a process boundary and must
            # still be what the caller reads first, not the exit code.
            pytest.param(
                "cluster_redis", {"start_method": "fork"}, marks=pytest.mark.network
            ),
        ],
    )
    def test_error_is_reported(self, mapping, options):
        g = linear_graph(ExplodingPE(), Double(name="d"))
        with pytest.raises(MappingError, match="injected failure"):
            run(
                g,
                inputs=list(range(6)),
                processes=3,
                mapping=mapping,
                time_scale=FAST_SCALE,
                **options,
            )

    def test_hybrid_stateless_error_reported(self):
        g = linear_graph(
            ExplodingPE(trigger=("k3", 3)), StatefulCounter(name="counter", instances=2)
        )
        with pytest.raises(MappingError):
            run(
                g,
                inputs=[(f"k{i}", i) for i in range(6)],
                processes=4,
                mapping="hybrid_redis",
                time_scale=FAST_SCALE,
            )

    def test_hybrid_stateful_error_reported(self):
        class ExplodingCounter(StatefulCounter):
            def process(self, inputs):
                raise RuntimeError("stateful crash")

        g = linear_graph(Emit(name="src"), ExplodingCounter(name="counter", instances=2))
        with pytest.raises(MappingError, match="worker error"):
            run(
                g,
                inputs=[("a", 1)],
                processes=4,
                mapping="hybrid_redis",
                time_scale=FAST_SCALE,
            )

    @pytest.mark.parametrize("mapping", ["multi", "dyn_multi"])
    def test_other_items_may_still_flow(self, mapping):
        """An error on one item must not deadlock the rest of the stream."""
        g = linear_graph(ExplodingPE(trigger=0), Double(name="d"))
        try:
            run(
                g,
                inputs=list(range(8)),
                processes=3,
                mapping=mapping,
                time_scale=FAST_SCALE,
            )
        except MappingError:
            pass  # expected; the point is that we got here without hanging


class TestMidEnvelopeFailure:
    @pytest.mark.parametrize("mapping", ["dyn_multi", "dyn_auto_multi"])
    @pytest.mark.parametrize("batch_size", [1, 32])
    def test_run_terminates_with_the_error(self, mapping, batch_size):
        """A PE raising in the middle of an envelope (payload 40 of 32..63)
        leaves the envelope's tail unrun; the drain proof must not wait for
        it -- an auto-scaled run, whose sessions outlive a failing task,
        used to hang here at ``batch_size=32``."""
        outcome = []

        def enact():
            try:
                run(
                    linear_graph(ExplodingPE(trigger=40), Double(name="d")),
                    inputs=list(range(64)),
                    processes=3,
                    mapping=mapping,
                    batch_size=batch_size,
                    time_scale=FAST_SCALE,
                )
            except BaseException as exc:  # noqa: BLE001 - handed to the asserting thread
                outcome.append(exc)

        runner = threading.Thread(target=enact, daemon=True)
        runner.start()
        runner.join(timeout=20.0)
        assert not runner.is_alive(), "run did not terminate"
        assert len(outcome) == 1 and isinstance(outcome[0], MappingError)
        assert "injected failure on 40" in str(outcome[0])


class TestErrorMetadata:
    def test_error_chain_preserves_original(self):
        g = linear_graph(ExplodingPE(), Double(name="d"))
        try:
            run(g, inputs=[3], processes=2, mapping="dyn_multi", time_scale=FAST_SCALE)
        except MappingError as exc:
            assert isinstance(exc.__cause__, RuntimeError)
        else:
            pytest.fail("expected MappingError")
