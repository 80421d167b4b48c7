"""Streaming sessions: the submit/feed/iterate Job API and warm reuse.

Covers the acceptance criteria of the session redesign:

- ``job.results()`` yields the first tuple *before* the job completes on a
  pipelined workflow (live ingestion on ``multi`` / ``dyn_multi`` /
  ``dyn_auto_multi``);
- a second ``submit()`` on a warm session skips deployment spin-up
  (``deploy_cold`` / ``deploy_warm`` counters, pool identity);
- ``job.cancel()`` tears down cleanly -- no leaked workers, no hung
  queues;
- non-streaming mappings fall back to buffered submission, still
  job-handled, with results streaming out as produced;
- ``Engine.run()`` remains the one-shot contract (no session counters).
"""

import threading
import time

import pytest

from repro import Engine, JobCancelledError, JobState
from repro.core.exceptions import MappingError
from repro.core.graph import WorkflowGraph
from repro.core.pe import IterativePE
from repro.mappings.base import expand_send, iter_root_inputs, resolve_send_target
from repro.mappings.registry import get_capabilities
from tests.conftest import (
    FAST_SCALE,
    AddOne,
    Collect,
    Double,
    Emit,
    StatefulCounter,
    linear_graph,
)

pytestmark = pytest.mark.streaming

#: The mappings running the live streaming path.
STREAMING_MAPPINGS = ("multi", "dyn_multi", "dyn_auto_multi")

#: Thread-name prefixes of every worker/driver/feeder this engine spawns.
_THREAD_PREFIXES = ("multi-", "dyn-", "auto-", "job-", "feed-")


def _our_threads():
    return {
        t
        for t in threading.enumerate()
        if t.name.startswith(_THREAD_PREFIXES) or "-warm-" in t.name
    }


def _assert_no_leaked_threads(before, deadline=5.0):
    """Every thread we spawned beyond ``before`` drains within the deadline."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        leaked = _our_threads() - before
        if not leaked:
            return
        time.sleep(0.02)
    raise AssertionError(f"leaked threads: {sorted(t.name for t in leaked)}")


def _pipeline(name="stream"):
    return linear_graph(Emit(name="src"), Double(name="dbl"), AddOne(name="add"),
                        name=name)


class SlowDouble(IterativePE):
    """Doubles with a real-time stall, keeping a cancelled run in flight."""

    def _process(self, data):
        time.sleep(0.05)
        return 2 * data


class PhantomSource(IterativePE):
    """A source on which an invocation nobody sent (``None``) shows, as 0."""

    def _process(self, data):
        return 0 if data is None else data


class TestLiveStreaming:
    @pytest.mark.parametrize("batch_size", (1, 8))
    @pytest.mark.parametrize("mapping", STREAMING_MAPPINGS)
    def test_first_result_before_completion(self, mapping, batch_size):
        """Acceptance (a): results flow while the input is still open --
        batched too, where fewer tuples than one envelope were sent."""
        engine = Engine(
            mapping=mapping, processes=4, time_scale=FAST_SCALE, batch_size=batch_size
        )
        with engine:
            job = engine.submit(_pipeline())
            assert job.streaming
            job.send("src", [10, 1, 2])
            stream = job.results(timeout=2.0)
            key, value = next(stream)
            # The input is still open, so the job cannot have completed.
            assert not job.done()
            assert job.state is JobState.RUNNING
            assert key == "add.output" and value in (21, 3, 5)
            job.close_input()
            rest = sorted(value for _key, value in stream)
            assert sorted([value, *rest]) == [3, 5, 21]
            result = job.wait(timeout=10.0)
            assert job.state is JobState.DONE
            assert sorted(result.output("add")) == [3, 5, 21]

    @pytest.mark.parametrize("batch_size", (4, 64))
    def test_batched_multi_answers_each_send_before_the_next(self, batch_size):
        """The flush rule tuple by tuple: a worker with nothing left to
        read flushes its partial envelope, so every send is answered while
        the input is open, however large the envelope."""
        engine = Engine(
            mapping="multi", processes=4, time_scale=FAST_SCALE, batch_size=batch_size
        )
        with engine:
            job = engine.submit(_pipeline())
            stream = job.results(timeout=2.0)
            answers = []
            for item in (1, 2, 3):
                job.send("src", [item])
                answers.append(next(stream))
            assert job.state is JobState.RUNNING
            job.close_input()
            assert list(stream) == []
            result = job.wait(timeout=10.0)
        assert answers == [("add.output", 3), ("add.output", 5), ("add.output", 7)]
        assert result.counters["stream_inputs"] == 3

    def test_live_sends_reach_sources_round_robin(self):
        """Live item i goes to source instance i mod n, as on a one-shot run."""

        class InstanceTag(IterativePE):
            def _process(self, data):
                return (self.instance_index, data)

        src = InstanceTag(name="src")
        src.numprocesses = 2
        engine = Engine(mapping="multi", processes=2, time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(linear_graph(src, name="tags"))
            job.send("src", range(6))
            result = job.wait(timeout=10.0)
        assert sorted(result.output("src")) == sorted((i % 2, i) for i in range(6))

    @pytest.mark.parametrize("mapping", STREAMING_MAPPINGS)
    def test_streaming_matches_one_shot_outputs(self, mapping):
        engine = Engine(mapping=mapping, processes=4, time_scale=FAST_SCALE)
        with engine:
            reference = engine.run(_pipeline("ref"), inputs=list(range(12)))
            job = engine.submit(_pipeline("live"), inputs=iter(range(6)))
            job.send("src", range(6, 12))
            streamed = job.wait(timeout=10.0)
        assert sorted(streamed.output("add")) == sorted(reference.output("add"))
        assert streamed.counters["tasks"] == reference.counters["tasks"]

    def test_generator_inputs_consumed_lazily(self):
        """An initial iterable feeds the *running* workflow item by item."""
        consumed = []

        def ticker():
            for i in range(5):
                consumed.append(i)
                yield i

        engine = Engine(mapping="dyn_auto_multi", processes=4, time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(_pipeline(), inputs=ticker())
            stream = job.results(timeout=10.0)
            first = next(stream)
            assert first[0] == "add.output"
            job.close_input()
            total = 1 + sum(1 for _ in stream)
        assert consumed == list(range(5))
        assert total == 5

    def test_unbound_source_stays_live_until_close(self):
        engine = Engine(mapping="multi", processes=4, time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(_pipeline())  # no inputs at all
            for burst in ([1], [2], [3]):
                job.send("src", burst)
            # The stream stays open: the job must still be running.
            time.sleep(0.1)
            assert job.state is JobState.RUNNING
            job.close_input()
            result = job.wait(timeout=10.0)
        assert sorted(result.output("add")) == [3, 5, 7]

    def test_send_to_named_port_and_pe_object(self):
        src = Emit(name="src")
        graph = linear_graph(src, Double(name="dbl"), name="ports")
        engine = Engine(mapping="multi", processes=2, time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(graph)
            job.send(src, [1])
            job.send("src.input", [2])
            result = job.wait(timeout=10.0)
        assert sorted(result.output("dbl")) == [2, 4]

    def test_wait_implicitly_closes_input(self):
        engine = Engine(mapping="dyn_multi", processes=2, time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(_pipeline(), inputs=[1, 2])
            result = job.wait(timeout=10.0)  # never closed explicitly
        assert sorted(result.output("add")) == [3, 5]

    def test_results_end_of_stream_is_sticky(self):
        """Regression: a second results() iterator on a completed job must
        terminate immediately, not hang on the consumed end marker."""
        engine = Engine(mapping="multi", processes=4, time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(_pipeline(), inputs=[1])
            job.close_input()
            first = list(job.results(timeout=10.0))
            second = list(job.results(timeout=10.0))
            job.wait(timeout=10.0)
        assert first == [("add.output", 3)]
        assert second == []

    def test_send_after_close_raises(self):
        engine = Engine(mapping="multi", processes=4, time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(_pipeline(), inputs=[1])
            job.close_input()
            with pytest.raises(RuntimeError, match="input is closed"):
                job.send("src", [2])
            job.wait(timeout=10.0)

    def test_streaming_with_fusion(self):
        """Fused chains accept live sends (roots re-keyed onto fused PEs)."""
        engine = Engine(
            mapping="dyn_auto_multi", processes=4, time_scale=FAST_SCALE, fuse=True
        )
        with engine:
            job = engine.submit(_pipeline())
            job.send("src", [1, 2, 3])
            result = job.wait(timeout=10.0)
        assert result.counters["fused_chains"] == 1
        assert sorted(result.output("add")) == [3, 5, 7]

    def test_streaming_with_batching(self):
        engine = Engine(
            mapping="dyn_auto_multi", processes=4, time_scale=FAST_SCALE,
            batch_size=4,
        )
        with engine:
            job = engine.submit(_pipeline(), inputs=list(range(8)))
            result = job.wait(timeout=10.0)
        assert sorted(result.output("add")) == sorted(2 * i + 1 for i in range(8))


class TestWarmReuse:
    @pytest.mark.parametrize("mapping", ("multi", "dyn_auto_multi"))
    def test_second_submit_reuses_deployment(self, mapping):
        """Acceptance (b): the warm session skips deployment spin-up."""
        engine = Engine(mapping=mapping, processes=4, time_scale=FAST_SCALE)
        with engine:
            first = engine.submit(_pipeline("one"), inputs=[1]).wait(timeout=10.0)
            pool_before = engine._sessions[mapping].deployment.pool
            second = engine.submit(_pipeline("two"), inputs=[2]).wait(timeout=10.0)
            pool_after = engine._sessions[mapping].deployment.pool
        assert first.counters["deploy_cold"] == 1
        assert "deploy_warm" not in first.counters
        assert second.counters["deploy_warm"] == 1
        assert "deploy_cold" not in second.counters
        # The very worker pool survived the first submission.
        assert pool_before is pool_after

    def test_changed_processes_redeploys_cold(self):
        engine = Engine(mapping="dyn_auto_multi", processes=4, time_scale=FAST_SCALE)
        with engine:
            engine.submit(_pipeline("one"), inputs=[1]).wait(timeout=10.0)
            redeployed = engine.submit(
                _pipeline("two"), inputs=[2], processes=6
            ).wait(timeout=10.0)
        assert redeployed.counters["deploy_cold"] == 1

    def test_overlapping_jobs_fall_back_to_ephemeral(self):
        """A busy session never blocks a second submission."""
        engine = Engine(mapping="dyn_auto_multi", processes=4, time_scale=FAST_SCALE)
        with engine:
            held = engine.submit(_pipeline("held"))  # input stays open
            held.send("src", [1])
            overlapping = engine.submit(_pipeline("overlap"), inputs=[5])
            result = overlapping.wait(timeout=10.0)
            # No session deployment was available, so no deploy counters.
            assert "deploy_cold" not in result.counters
            assert "deploy_warm" not in result.counters
            held.close_input()
            assert sorted(held.wait(timeout=10.0).output("add")) == [3]
        assert sorted(result.output("add")) == [11]

    def test_failed_job_forfeits_warmth(self):
        class Boom(IterativePE):
            def _process(self, data):
                raise ValueError("boom")

        engine = Engine(mapping="dyn_auto_multi", processes=2, time_scale=FAST_SCALE)
        with engine:
            graph = linear_graph(Emit(name="src"), Boom(name="boom"), name="bad")
            job = engine.submit(graph, inputs=[1])
            with pytest.raises(MappingError):
                job.wait(timeout=10.0)
            assert job.state is JobState.FAILED
            # The replacement deployment starts cold again.
            after = engine.submit(_pipeline(), inputs=[1]).wait(timeout=10.0)
        assert after.counters["deploy_cold"] == 1

    def test_run_stays_one_shot_and_counter_clean(self):
        """Acceptance: run() is byte-identical -- no session counters."""
        engine = Engine(mapping="multi", processes=4, time_scale=FAST_SCALE)
        with engine:
            result = engine.run(_pipeline(), inputs=[1, 2])
        assert "deploy_cold" not in result.counters
        assert "deploy_warm" not in result.counters
        assert "stream_inputs" not in result.counters
        assert sorted(result.output("add")) == [3, 5]


class TestCancellation:
    @pytest.mark.parametrize("mapping", STREAMING_MAPPINGS)
    def test_cancel_tears_down_cleanly(self, mapping):
        """Acceptance (c): no leaked workers, no hung queues."""
        before = _our_threads()
        engine = Engine(mapping=mapping, processes=4, time_scale=FAST_SCALE)
        graph = linear_graph(Emit(name="src"), SlowDouble(name="slow"), name="canc")
        job = engine.submit(graph)
        job.send("src", list(range(50)))
        time.sleep(0.1)  # let workers get in flight
        assert job.cancel()
        with pytest.raises(JobCancelledError):
            job.wait(timeout=10.0)
        assert job.state is JobState.CANCELLED
        engine.close()
        _assert_no_leaked_threads(before)

    def test_cancel_before_any_input(self):
        engine = Engine(mapping="dyn_auto_multi", processes=2, time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(_pipeline())
            job.cancel()
            with pytest.raises(JobCancelledError):
                job.wait(timeout=10.0)
            with pytest.raises(JobCancelledError):
                job.send("src", [1])

    def test_cancel_is_idempotent_and_false_after_done(self):
        engine = Engine(mapping="multi", processes=4, time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(_pipeline(), inputs=[1])
            job.wait(timeout=10.0)
            assert not job.cancel()

    def test_deadline_cancels(self):
        engine = Engine(mapping="dyn_auto_multi", processes=2, time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(_pipeline(), deadline=0.2)  # input never closes
            with pytest.raises(JobCancelledError, match="deadline"):
                list(job.results(timeout=10.0))
            assert job.state is JobState.CANCELLED

    def test_results_raise_on_cancelled(self):
        engine = Engine(mapping="multi", processes=4, time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(_pipeline())
            job.cancel()
            with pytest.raises(JobCancelledError):
                list(job.results(timeout=10.0))

    def test_invalid_deadline_rejected_before_any_wiring(self):
        """Regression: a bad deadline must not orphan a running driver."""
        engine = Engine(mapping="multi", processes=4, time_scale=FAST_SCALE)
        with engine:
            # Refused before anything is leased: no deployment was made...
            with pytest.raises(ValueError, match="deadline"):
                engine.submit(_pipeline(), inputs=[1], deadline=0)
            first = engine.submit(_pipeline(), inputs=[1]).wait(timeout=10.0)
            assert first.counters["deploy_cold"] == 1
            # ...and a primed session survives a rejected submission warm.
            with pytest.raises(ValueError, match="deadline"):
                engine.submit(_pipeline(), inputs=[1], deadline=0)
            after = engine.submit(_pipeline(), inputs=[1]).wait(timeout=10.0)
            assert after.counters["deploy_warm"] == 1

    @pytest.mark.parametrize("mapping", STREAMING_MAPPINGS)
    def test_cancel_unblocks_job_with_stuck_input_iterable(self, mapping):
        """Regression: a blocked initial-input iterable must not pin the
        driver past a cancel -- the job still reaches CANCELLED."""
        release = threading.Event()

        def stuck():
            yield 1
            release.wait(timeout=30.0)  # blocks until the test releases it
            yield 2

        engine = Engine(mapping=mapping, processes=4, time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(_pipeline(), inputs=stuck())
            stream = job.results(timeout=10.0)
            next(stream)  # the first item flowed through
            job.cancel()
            with pytest.raises(JobCancelledError):
                job.wait(timeout=10.0)
            assert job.state is JobState.CANCELLED
        release.set()  # let the abandoned feeder drain out

    def test_validation_error_keeps_session_warm(self):
        """Regression: a submit that fails validation must not tear down
        the warm deployment it never used."""
        engine = Engine(mapping="dyn_auto_multi", processes=4, time_scale=FAST_SCALE)
        with engine:
            engine.submit(_pipeline(), inputs=[1]).wait(timeout=10.0)
            with pytest.raises(MappingError, match="unknown PE"):
                engine.submit(_pipeline(), inputs={"ghost": [1]})
            after = engine.submit(_pipeline(), inputs=[2]).wait(timeout=10.0)
        assert after.counters["deploy_warm"] == 1

    def test_engine_close_cancels_live_jobs(self):
        before = _our_threads()
        engine = Engine(mapping="dyn_auto_multi", processes=2, time_scale=FAST_SCALE)
        job = engine.submit(_pipeline())  # input stays open
        job.send("src", [1])
        engine.close()
        assert job.done()
        assert job.state is JobState.CANCELLED
        _assert_no_leaked_threads(before)


class TestBufferedFallback:
    def test_simple_is_buffered_but_job_handled(self):
        engine = Engine(mapping="simple", time_scale=FAST_SCALE)
        with engine:
            assert not get_capabilities("simple").streaming
            job = engine.submit(_pipeline(), inputs=[1])
            assert not job.streaming
            job.send("src", [2, 3])
            # Nothing runs until the input closes.
            assert job.state is JobState.PENDING
            job.close_input()
            result = job.wait(timeout=10.0)
        assert sorted(result.output("add")) == [3, 5, 7]
        assert result.counters["deploy_cold"] == 1

    def test_buffered_results_still_stream(self):
        engine = Engine(mapping="simple", time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(_pipeline(), inputs=[4])
            job.close_input()
            pairs = list(job.results(timeout=10.0))
        assert pairs == [("add.output", 9)]

    def test_hybrid_redis_buffered_with_warm_server(self):
        graph = WorkflowGraph("stateful-stream")
        graph.connect(Emit(name="src"), "output", StatefulCounter(name="counter"),
                      "input")
        engine = Engine(mapping="hybrid_redis", processes=4, time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(graph, inputs=[("a", 1), ("b", 2)])
            job.send("src", [("a", 3)])
            job.close_input()
            first = job.wait(timeout=30.0)
            server = engine._sessions["hybrid_redis"].deployment.redis_server
            assert server is not None
            graph2 = WorkflowGraph("stateful-stream-2")
            graph2.connect(Emit(name="src"), "output",
                           StatefulCounter(name="counter"), "input")
            second = engine.submit(graph2, inputs=[("a", 1)]).wait(timeout=30.0)
            # Same redisim server carried both submissions.
            assert engine._sessions["hybrid_redis"].deployment.redis_server is server
        assert sorted(first.output("counter")) == [("a", 2), ("b", 1)]
        assert first.counters["deploy_cold"] == 1
        assert second.counters["deploy_warm"] == 1
        assert second.output("counter") == [("a", 1)]

    @pytest.mark.parametrize(
        "mapping, options",
        [
            pytest.param("cluster_redis", {"start_method": "fork"}, marks=pytest.mark.network),
            ("hybrid_redis", {}),
        ],
    )
    def test_no_inputs_means_no_phantom_invocation(self, mapping, options):
        """``submit(graph)`` + ``send`` on a buffered mapping runs the sent
        tuples and nothing else -- the same as the streaming path -- where
        it used to invoke every source once more with ``None``."""
        sends = [[1, 2], [3]]
        outputs = {}
        for name, extra in ((mapping, options), ("dyn_multi", {})):
            engine = Engine(mapping=name, processes=3, time_scale=FAST_SCALE, **extra)
            with engine:
                job = engine.submit(
                    linear_graph(PhantomSource(name="src"), Double(name="dbl"), AddOne(name="add"))
                )
                assert job.streaming is (name == "dyn_multi")
                for tuples in sends:
                    job.send("src", tuples)
                job.close_input()
                outputs[name] = sorted(job.wait(timeout=30.0).output("add"))
        assert outputs[mapping] == outputs["dyn_multi"] == [3, 5, 7]

    def test_run_without_inputs_keeps_the_one_shot_convention(self):
        """``Engine.run(graph)`` still invokes each source once, empty."""

        class Producer(IterativePE):
            def _process(self, data):
                return "produced" if data is None else data

        for mapping in ("simple", "hybrid_redis"):
            with Engine(mapping=mapping, processes=2, time_scale=FAST_SCALE) as engine:
                graph = linear_graph(Producer(name="src"), Emit(name="out"), name="oneshot")
                assert engine.run(graph).output("out") == ["produced"]

    def test_buffered_cancel_before_close_never_runs(self):
        engine = Engine(mapping="simple", time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(_pipeline(), inputs=[1])
            job.cancel()
            with pytest.raises(JobCancelledError):
                job.wait(timeout=10.0)
            assert job.result is None


class TestSendValidation:
    def test_unknown_pe_rejected(self):
        graph = _pipeline()
        with pytest.raises(MappingError, match="unknown PE"):
            resolve_send_target(graph, "ghost")

    def test_non_source_rejected(self):
        graph = _pipeline()
        with pytest.raises(MappingError, match="not a source PE"):
            resolve_send_target(graph, "dbl")

    def test_unknown_port_rejected(self):
        graph = _pipeline()
        with pytest.raises(MappingError, match="no input port 'bogus'"):
            resolve_send_target(graph, "src.bogus")

    def test_bad_target_type_rejected(self):
        with pytest.raises(MappingError, match="pass a source PE"):
            resolve_send_target(_pipeline(), 42)

    def test_expand_send_maps_items(self):
        graph = _pipeline()
        assert expand_send(graph, "src", [1, {"input": 2}]) == (
            "src", [{"input": 1}, {"input": 2}]
        )

    def test_live_send_on_running_job_validates(self):
        engine = Engine(mapping="multi", processes=4, time_scale=FAST_SCALE)
        with engine:
            job = engine.submit(_pipeline())
            with pytest.raises(MappingError, match="not a source PE"):
                job.send("dbl", [1])
            job.close_input()
            job.wait(timeout=10.0)


class TestLazyNormalization:
    def test_iter_root_inputs_is_lazy(self):
        graph = linear_graph(Emit(name="src"), Collect(name="sink"), name="lazy")
        seen = []

        def gen():
            for i in range(3):
                seen.append(i)
                yield i

        streams = iter_root_inputs(graph, gen())
        assert seen == []  # nothing consumed yet
        assert next(streams["src"]) == {"input": 0}
        assert seen == [0]

    def test_iter_root_inputs_validates_spec_eagerly(self):
        graph = linear_graph(Emit(name="src"), Collect(name="sink"), name="lazy")
        with pytest.raises(MappingError, match="unknown PE"):
            iter_root_inputs(graph, {"ghost": [1]})
        with pytest.raises(MappingError, match="non-source PE"):
            iter_root_inputs(graph, {"sink": [1]})
        with pytest.raises(MappingError, match=">= 0"):
            iter_root_inputs(graph, -2)
