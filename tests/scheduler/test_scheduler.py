"""JobScheduler: fair-share admission over shared warm deployment pools.

Covers the scheduler tentpole's acceptance surface:

- N concurrent jobs multiplex over one mapping's warm pool with outputs
  identical to direct ``Engine.run`` (same seed, same tuples);
- admission control: global concurrency cap, weighted-deficit tenant
  fairness, priority with starvation-free aging, hard tenant quotas;
- queue-edge cases: interleaved ``send()`` while queued, cancel while
  queued, deadline expiring in the queue, backpressure in both modes;
- the ``Engine.submit(scheduler=...)`` routing and the
  ``deploy_busy_fallback`` regression (pinned without a scheduler, gone
  with one);
- ``SchedulerStats`` lifecycle metrics;
- one ``Job`` per submission: the handle ``submit`` returns is the one
  admission launches (identity, direct-submission parity, send ordering
  across admission, synchronous validation, event-driven waits).
"""

import threading
import time

import pytest

from repro import Engine, JobCancelledError, JobState
from repro.core.exceptions import MappingError
from repro.core.pe import IterativePE
from repro.scheduler import (
    BackpressureError,
    JobScheduler,
    QuotaExceededError,
    TenantQuota,
)
from repro.scheduler.stats import percentile
from tests.conftest import FAST_SCALE, AddOne, Double, Emit, linear_graph

pytestmark = pytest.mark.scheduler

#: Streaming pool mapping every test schedules onto.
MAPPING = "dyn_auto_multi"


class SlowDouble(IterativePE):
    """Doubles after 50 nominal seconds of compute (0.1 s at FAST_SCALE)."""

    def _process(self, data):
        self.compute(50.0)
        return 2 * data


class Stall(IterativePE):
    """Holds a core for 150 nominal seconds (0.3 s at FAST_SCALE)."""

    def _process(self, data):
        self.compute(150.0)
        return data


def _engine(**overrides):
    settings = dict(
        mapping=MAPPING, processes=4, time_scale=FAST_SCALE, seed=0
    )
    settings.update(overrides)
    return Engine(**settings)


def _pipeline(name="sched-pipe"):
    """src -> Double -> AddOne; the source is always named ``src``."""
    return linear_graph(Emit(name="src"), Double(), AddOne(), name=name)


def _slow_pipeline(name="sched-slow"):
    return linear_graph(Emit(name="src"), SlowDouble(), name=name)


def _blocker_pipeline(name="sched-blocker"):
    return linear_graph(Emit(name="src"), Stall(), name=name)


def _values(result):
    return sorted(v for vs in result.outputs.values() for v in vs)


def _batch(sched, graph, inputs, **kwargs):
    """Submit a complete-input (batch-style) job: seed it, close the stream.

    An admitted job holds its concurrency slot until its input closes and
    the run drains, so batch jobs close eagerly -- otherwise waiting on
    job A while admitted job B still has an open input deadlocks.
    """
    job = sched.submit(graph, inputs, **kwargs)
    job.close_input()
    return job


def _wait_for(condition, timeout=5.0, message="condition"):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if condition():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


class TestConcurrentJobs:
    def test_jobs_multiplex_over_shared_pool(self):
        with _engine() as engine:
            reference = _values(engine.run(_pipeline(), inputs=[1, 2, 3]))
            with JobScheduler(engine, max_concurrent=3, pool_size=3) as sched:
                jobs = [
                    _batch(sched, _pipeline(), [1, 2, 3]) for _ in range(6)
                ]
                results = [job.wait(timeout=30) for job in jobs]
        assert reference == [3, 5, 7]
        for job, result in zip(jobs, results):
            assert job.state is JobState.DONE
            assert _values(result) == reference
            # Scheduled jobs never fall back to ephemeral cold deployments.
            assert result.counters.get("deploy_busy_fallback", 0) == 0
            assert (
                result.counters.get("deploy_cold", 0)
                + result.counters.get("deploy_warm", 0)
            ) == 1
        stats = sched.stats
        assert stats.admitted == 6
        assert stats.completed == 6
        assert stats.peak_running <= 3

    def test_concurrency_cap_is_respected(self):
        with _engine() as engine:
            with JobScheduler(engine, max_concurrent=2, pool_size=4) as sched:
                jobs = [
                    _batch(sched, _slow_pipeline(), [1]) for _ in range(5)
                ]
                for job in jobs:
                    job.wait(timeout=30)
                assert sched.stats.peak_running <= 2
                assert sched.stats.completed == 5

    def test_results_stream_through_returned_handle(self):
        with _engine() as engine:
            with JobScheduler(engine, max_concurrent=2) as sched:
                job = sched.submit(_pipeline())
                job.send("src", [1, 2, 3])
                job.close_input()
                pairs = list(job.results(timeout=10))
        assert sorted(value for _key, value in pairs) == [3, 5, 7]

    def test_prewarmed_pool_admits_warm(self):
        with _engine() as engine:
            with JobScheduler(engine, max_concurrent=2, pool_size=2) as sched:
                assert sched.prewarm(MAPPING) == 2
                result = _batch(sched, _pipeline(), [1]).wait(timeout=30)
        assert result.counters.get("deploy_warm") == 1
        assert "deploy_cold" not in result.counters


class TestQueueEdges:
    def test_sends_interleave_on_one_warm_deployment(self):
        """Two jobs share one warm deployment; queued sends stage, then flush."""
        with _engine() as engine:
            with JobScheduler(engine, max_concurrent=1, pool_size=1) as sched:
                first = sched.submit(_pipeline("first"))
                second = sched.submit(_pipeline("second"))
                # Interleave: both jobs accept sends, admitted or not.
                first.send("src", [1])
                second.send("src", [10])
                first.send("src", [2])
                second.send("src", [20])
                first.close_input()
                second.close_input()
                first_result = first.wait(timeout=30)
                second_result = second.wait(timeout=30)
        assert _values(first_result) == [3, 5]
        assert _values(second_result) == [21, 41]
        # One pool slot: the second job reused the first job's deployment.
        assert first_result.counters.get("deploy_cold") == 1
        assert second_result.counters.get("deploy_warm") == 1

    def test_cancel_while_queued_never_enacts(self):
        with _engine() as engine:
            with JobScheduler(engine, max_concurrent=1, pool_size=1) as sched:
                blocker = _batch(sched, _blocker_pipeline(), [1])
                queued = sched.submit(_pipeline(), inputs=[1])
                assert queued.cancel(reason="changed my mind")
                with pytest.raises(JobCancelledError, match="changed my mind"):
                    queued.wait(timeout=5)
                assert queued.state is JobState.CANCELLED
                blocker.wait(timeout=30)
                assert sched.stats.admitted == 1  # the cancelled job never ran
                assert sched.stats.cancelled == 1

    def test_deadline_expires_while_waiting_for_admission(self):
        with _engine() as engine:
            with JobScheduler(engine, max_concurrent=1, pool_size=1) as sched:
                blocker = _batch(sched, _blocker_pipeline(), [1])
                queued = sched.submit(_pipeline(), inputs=[1], deadline=0.05)
                with pytest.raises(JobCancelledError, match="deadline"):
                    queued.wait(timeout=5)
                blocker.wait(timeout=30)
                assert sched.stats.admitted == 1

    def test_quota_exhaustion_error_names_tenant_and_cap(self):
        quotas = {"acme": TenantQuota(weight=1.0, max_outstanding=2)}
        with _engine() as engine:
            with JobScheduler(
                engine, max_concurrent=1, pool_size=1, quotas=quotas
            ) as sched:
                jobs = [
                    _batch(sched, _slow_pipeline(), [1], tenant="acme")
                    for _ in range(2)
                ]
                with pytest.raises(QuotaExceededError) as excinfo:
                    sched.submit(_pipeline(), inputs=[1], tenant="acme")
                message = str(excinfo.value)
                assert "'acme'" in message
                assert "2 outstanding" in message
                assert "max_outstanding quota of 2" in message
                # Other tenants are unaffected by acme's cap.
                other = _batch(sched, _pipeline(), [1], tenant="other")
                for job in jobs:
                    job.wait(timeout=30)
                other.wait(timeout=30)
                assert sched.stats.rejected == 1

    def test_backpressure_error_mode_raises_at_high_water(self):
        with _engine() as engine:
            with JobScheduler(
                engine, max_concurrent=1, pool_size=1,
                high_water=3, backpressure="error",
            ) as sched:
                blocker = _batch(sched, _slow_pipeline(), [1])
                queued = sched.submit(_pipeline())
                queued.send("src", [1, 2, 3])  # exactly at the mark
                with pytest.raises(BackpressureError, match="high_water=3"):
                    queued.send("src", [4])
                queued.close_input()
                blocker.wait(timeout=30)
                result = queued.wait(timeout=30)
        assert _values(result) == [3, 5, 7]

    def test_backpressure_block_mode_unblocks_on_admission(self):
        with _engine() as engine:
            with JobScheduler(
                engine, max_concurrent=1, pool_size=1,
                high_water=2, backpressure="block",
            ) as sched:
                blocker = _batch(sched, _blocker_pipeline(), [1])
                queued = sched.submit(_pipeline())
                queued.send("src", [1, 2])
                unblocked = threading.Event()

                def over_high_water():
                    queued.send("src", [3])
                    unblocked.set()

                sender = threading.Thread(target=over_high_water, daemon=True)
                sender.start()
                # Still blocked while the job waits for admission...
                assert not unblocked.wait(timeout=0.1)
                blocker.wait(timeout=30)
                # ...admission flushes the staging buffer and releases it.
                assert unblocked.wait(timeout=10)
                sender.join(timeout=5)
                queued.close_input()
                result = queued.wait(timeout=30)
        assert _values(result) == [3, 5, 7]


class TestFairnessAndPriority:
    def test_weighted_deficit_fair_share(self):
        """Weights 3:1 admit A,B,A,A,A,B,B,B over a burst of 4+4 jobs."""
        quotas = {
            "gold": TenantQuota(weight=3.0),
            "bronze": TenantQuota(weight=1.0),
        }
        with _engine() as engine:
            with JobScheduler(
                engine, max_concurrent=1, pool_size=1, quotas=quotas
            ) as sched:
                jobs = [
                    _batch(sched, _slow_pipeline(), [1], tenant="gold")
                    for _ in range(4)
                ]
                jobs += [
                    _batch(sched, _slow_pipeline(), [1], tenant="bronze")
                    for _ in range(4)
                ]
                for job in jobs:
                    job.wait(timeout=60)
        assert sched.stats.admissions == [
            "gold", "bronze", "gold", "gold", "gold",
            "bronze", "bronze", "bronze",
        ]

    def test_priority_orders_within_tenant(self):
        finished = []
        with _engine() as engine:
            with JobScheduler(
                engine, max_concurrent=1, pool_size=1, aging_interval=3600.0
            ) as sched:
                blocker = _batch(sched, _blocker_pipeline(), [1])
                _wait_for(
                    lambda: sched.stats.admitted == 1, message="blocker admission"
                )
                low = _batch(sched, _pipeline("low"), [1], priority=0)
                high = _batch(sched, _pipeline("high"), [1], priority=10)
                low._on_terminal(lambda j: finished.append("low"))
                high._on_terminal(lambda j: finished.append("high"))
                for job in (blocker, low, high):
                    job.wait(timeout=30)
        # max_concurrent=1 runs serially, so terminal order is admission
        # order: the high-priority job jumped the earlier-submitted low one.
        assert finished == ["high", "low"]

    def test_aging_lifts_starved_jobs(self):
        finished = []
        with _engine() as engine:
            with JobScheduler(
                engine, max_concurrent=1, pool_size=1, aging_interval=0.05
            ) as sched:
                blocker = _batch(sched, _blocker_pipeline(), [1])
                _wait_for(
                    lambda: sched.stats.admitted == 1, message="blocker admission"
                )
                old_low = _batch(sched, _pipeline("old-low"), [1], priority=0)
                old_low._on_terminal(lambda j: finished.append("old-low"))
                # Let the low-priority job age past 3 priority levels...
                time.sleep(0.25)
                fresh_high = _batch(
                    sched, _pipeline("fresh-high"), [1], priority=3
                )
                fresh_high._on_terminal(lambda j: finished.append("fresh-high"))
                for job in (blocker, old_low, fresh_high):
                    job.wait(timeout=30)
        assert finished == ["old-low", "fresh-high"]


class TestEngineIntegration:
    def test_engine_submit_routes_through_scheduler(self):
        with _engine() as engine:
            with JobScheduler(engine, max_concurrent=2) as sched:
                job = engine.submit(
                    _pipeline(), inputs=[1, 2], scheduler=sched,
                    tenant="acme", priority=1,
                )
                result = job.wait(timeout=30)
        assert job.state is JobState.DONE
        assert _values(result) == [3, 5]
        assert sched.stats.admissions == ["acme"]
        assert result.counters.get("deploy_busy_fallback", 0) == 0

    def test_tenant_without_scheduler_is_rejected(self):
        with _engine() as engine:
            with pytest.raises(TypeError, match="scheduler"):
                engine.submit(_pipeline(), inputs=[1], tenant="acme")

    def test_foreign_scheduler_is_rejected(self):
        with _engine() as engine, _engine() as other:
            with JobScheduler(other, max_concurrent=1) as sched:
                with pytest.raises(ValueError, match="different Engine"):
                    engine.submit(_pipeline(), inputs=[1], scheduler=sched)

    def test_busy_fallback_counter_pinned_without_scheduler(self):
        """Pre-scheduler behavior: overlap falls back cold, now counted."""
        with _engine() as engine:
            first = engine.submit(_blocker_pipeline(), inputs=[1])
            second = engine.submit(_pipeline(), inputs=[1])
            second_result = second.wait(timeout=30)
            first.wait(timeout=30)
        assert second_result.counters.get("deploy_busy_fallback") == 1
        assert "deploy_cold" not in second_result.counters
        assert "deploy_warm" not in second_result.counters

    def test_busy_fallback_gone_under_scheduler(self):
        """The scheduler queues overlap instead of paying cold fallbacks."""
        with _engine() as engine:
            with JobScheduler(engine, max_concurrent=1, pool_size=1) as sched:
                first = _batch(sched, _slow_pipeline(), [1, 2])
                second = _batch(sched, _pipeline(), [1])
                results = [first.wait(timeout=30), second.wait(timeout=30)]
        for result in results:
            assert result.counters.get("deploy_busy_fallback", 0) == 0

    def test_submission_validation_raises_synchronously(self):
        with _engine() as engine:
            with JobScheduler(engine, max_concurrent=1) as sched:
                with pytest.raises(TypeError, match="procesess"):
                    sched.submit(_pipeline(), inputs=[1], procesess=3)
                with pytest.raises(ValueError, match="deadline"):
                    sched.submit(_pipeline(), inputs=[1], deadline=-1)

    def test_closed_scheduler_rejects_submission(self):
        with _engine() as engine:
            sched = JobScheduler(engine, max_concurrent=1)
            sched.close()
            with pytest.raises(RuntimeError, match="closed"):
                sched.submit(_pipeline(), inputs=[1])

    def test_close_cancels_queued_jobs(self):
        with _engine() as engine:
            sched = JobScheduler(engine, max_concurrent=1, pool_size=1)
            blocker = sched.submit(_blocker_pipeline(), inputs=[1])
            queued = sched.submit(_pipeline(), inputs=[1])
            sched.close()
            assert queued.state is JobState.CANCELLED
            assert blocker.done()


class TestStats:
    def test_percentile_nearest_rank(self):
        assert percentile([], 99) is None
        assert percentile([1.0], 99) == 1.0
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0

    def test_lifecycle_metrics_populate(self):
        with _engine() as engine:
            with JobScheduler(engine, max_concurrent=2, pool_size=2) as sched:
                jobs = [
                    _batch(sched, _pipeline(), [1, 2]) for _ in range(4)
                ]
                for job in jobs:
                    job.wait(timeout=30)
                snap = sched.stats.snapshot()
        assert snap["submitted"] == 4
        assert snap["completed"] == 4
        assert snap["queued"] == 0 and snap["running"] == 0
        assert snap["jobs_per_second"] > 0
        assert snap["first_result_p99"] is not None
        assert snap["first_result_p99"] >= snap["first_result_p50"]
        assert snap["queue_wait_p99"] is not None


#: What a source saw, in arrival order (instances are deep copies of the
#: submitted PE, so the record lives at module level; cleared per test).
_ARRIVALS = []


class Recording(IterativePE):
    """Source that records every item it is invoked with, then forwards it."""

    def _process(self, data):
        _ARRIVALS.append(data)
        return data


def _job_threads(prefix):
    return [t.name for t in threading.enumerate() if t.name.startswith(prefix)]


class TestOneJobPerSubmission:
    def test_returned_handle_is_the_one_that_runs(self):
        fired = []
        with _engine() as engine:
            with JobScheduler(engine, max_concurrent=2) as sched:
                job = sched.submit(_pipeline("identity"))
                job._on_terminal(lambda j: fired.append(j))
                job.send("src", [1])
                assert next(job.results(timeout=10)) == ("AddOne0.output", 3)
                # Mid-run: the dispatcher plus exactly one driver, no relay.
                assert _job_threads("sched-bridge") == []
                assert _job_threads("job-") == [
                    "job-scheduler", f"job-{MAPPING}-identity"
                ]
                assert engine._jobs == [job]
                job.wait(timeout=30)
            assert engine._jobs == []
        assert fired == [job]

    @pytest.mark.parametrize(
        "mapping,timing",
        [
            # Counters that differ between two *direct* runs of this job too
            # (25 pairs each on the build host), because they tally the
            # scaler's rounds / activations, idle wake-ups or how many
            # entries a worker's measured timings let one settle trip carry
            # (and whether it was read a window later), not work.
            ("dyn_auto_multi", {"scale_iterations", "max_active", "graph_copies"}),
            ("dyn_redis", {"empty_polls", "settle_trips"}),
            ("hybrid_redis", {"settle_trips"}),
            ("cluster_redis", {"empty_polls", "settle_trips", "settles_in_flight"}),
        ],
    )
    def test_scheduled_matches_direct_warm_submission(self, mapping, timing):
        """Same outputs, same counters: only the ``deploy_*`` stamps may differ."""

        def work(result):
            return {
                name: value
                for name, value in result.counters.items()
                if not name.startswith("deploy_") and name not in timing
            }

        def drive(job):
            job.send("src", [100, 101])
            return job.wait(timeout=60)

        with _engine(mapping=mapping, processes=3) as engine:
            direct = drive(engine.submit(_pipeline(), inputs=list(range(20))))
            with JobScheduler(engine, max_concurrent=1, pool_size=1) as sched:
                scheduled = drive(sched.submit(_pipeline(), list(range(20))))
        assert _values(scheduled) == _values(direct)
        assert work(scheduled) == work(direct)

    @pytest.mark.parametrize("mapping", ["dyn_multi", "dyn_redis"])
    def test_sends_keep_their_order_across_admission(self, mapping):
        """Initial inputs, then pre-admission sends, then post-admission sends."""
        _ARRIVALS.clear()
        graph = linear_graph(Recording(name="src"), Double(), name="ordered")
        # One worker, so arrival order at the source is feed order.
        with _engine(mapping=mapping, processes=1) as engine:
            with JobScheduler(engine, max_concurrent=1, pool_size=1) as sched:
                blocker = sched.submit(_pipeline("holds-the-slot"))
                _wait_for(lambda: sched.stats.admitted == 1, message="blocker")
                job = sched.submit(graph, inputs=[0, 1])
                job.send("src", [2, 3])
                assert job.state is JobState.PENDING
                blocker.close_input()
                _wait_for(lambda: sched.stats.admitted == 2, message="admission")
                job.send("src", [4, 5])
                job.wait(timeout=30)
        assert _ARRIVALS == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("mapping", ["dyn_multi", "dyn_redis"])
    def test_malformed_inputs_rejected_at_submit(self, mapping):
        """Regression: the spec error used to surface only at admission."""
        with _engine(mapping=mapping) as engine:
            with JobScheduler(engine, max_concurrent=1) as sched:
                with pytest.raises(MappingError, match="unknown PE 'nope'"):
                    sched.submit(_pipeline(), {"nope": [1]})
                # Nothing was queued, no slot or deployment lease was spent.
                assert sched.stats.submitted == 0
                assert sched._pools == {}
                assert engine._jobs == []

    def test_launch_refuses_an_incompatible_deployment(self):
        """One guard under ``Mapping.submit``, the engine and admission."""
        with _engine() as engine:
            mapping = engine._engine_for(MAPPING)
            deployment = mapping.deploy(3, engine.platform)
            try:
                job = mapping.prepare(_pipeline(), processes=4, platform=engine.platform)
                with pytest.raises(MappingError, match="not compatible"):
                    job._launch(deployment)
                assert job.state is JobState.FAILED
            finally:
                deployment.teardown()


class TestBeforeAdmission:
    @pytest.mark.parametrize("mapping", ["dyn_multi", "dyn_redis"])
    def test_close_input_before_admission(self, mapping):
        with _engine(mapping=mapping) as engine:
            with JobScheduler(engine, max_concurrent=1, pool_size=1) as sched:
                blocker = sched.submit(_pipeline("holds-the-slot"))
                _wait_for(lambda: sched.stats.admitted == 1, message="blocker")
                job = sched.submit(_pipeline(), inputs=[1])
                job.send("src", [2])
                job.close_input()
                with pytest.raises(RuntimeError, match="input is closed"):
                    job.send("src", [3])
                assert job.state is JobState.PENDING
                blocker.close_input()
                assert _values(job.wait(timeout=30)) == [3, 5]

    def test_cancel_before_admission_never_launches(self):
        with _engine() as engine:
            with JobScheduler(engine, max_concurrent=1, pool_size=1) as sched:
                blocker = sched.submit(_pipeline("holds-the-slot"))
                _wait_for(lambda: sched.stats.admitted == 1, message="blocker")
                job = sched.submit(_pipeline("never-runs"), inputs=[1])
                assert job.cancel()
                # Resolved on the spot: no driver to wait for.
                assert job.done()
                blocker.close_input()
                blocker.wait(timeout=30)
                assert _job_threads(f"job-{MAPPING}-never-runs") == []
                assert sched.stats.snapshot()["queued"] == 0

    def test_cancel_racing_admission_leaves_running_at_zero(self):
        """A cancel landing once the job is picked must see it counted admitted."""
        with _engine() as engine:
            with JobScheduler(engine, max_concurrent=1) as sched:
                picked, note_admitted = threading.Event(), sched.stats.note_admitted

                def slow_note_admitted(tenant, queue_wait):
                    picked.set()
                    time.sleep(0.2)  # the canceller below is at the lock by now
                    note_admitted(tenant, queue_wait)

                sched.stats.note_admitted = slow_note_admitted
                job = sched.submit(_pipeline("cancelled-at-the-door"))
                assert picked.wait(timeout=10)
                job.cancel()
                _wait_for(lambda: sched.stats.admitted == 1, message="counted")
                snap = sched.stats.snapshot()
        assert (snap["running"], snap["cancelled"]) == (0, 1)

    def test_blocked_sender_raises_when_job_is_cancelled(self):
        with _engine() as engine:
            with JobScheduler(
                engine, max_concurrent=1, pool_size=1, high_water=1
            ) as sched:
                blocker = sched.submit(_pipeline("holds-the-slot"))
                _wait_for(lambda: sched.stats.admitted == 1, message="blocker")
                job = sched.submit(_pipeline())
                job.send("src", [1])
                outcome = []

                def over_high_water():
                    try:
                        job.send("src", [2])
                    except BaseException as exc:  # noqa: BLE001 - recorded
                        outcome.append(exc)

                sender = threading.Thread(target=over_high_water, daemon=True)
                sender.start()
                sender.join(timeout=0.1)
                assert sender.is_alive()  # blocked, not refused
                job.cancel(reason="enough")
                sender.join(timeout=10)
                assert not sender.is_alive()
                blocker.close_input()
        assert len(outcome) == 1
        assert isinstance(outcome[0], JobCancelledError)

    def test_refused_send_costs_no_budget(self):
        with _engine() as engine:
            with JobScheduler(
                engine, max_concurrent=1, pool_size=1,
                high_water=2, backpressure="error",
            ) as sched:
                blocker = sched.submit(_pipeline("holds-the-slot"))
                _wait_for(lambda: sched.stats.admitted == 1, message="blocker")
                job = sched.submit(_pipeline())
                with pytest.raises(MappingError, match="unknown PE"):
                    job.send("ghost", [1, 2])
                job.send("src", [1, 2])  # the whole budget is still there
                blocker.close_input()
                assert _values(job.wait(timeout=30)) == [3, 5]

    def test_prewarm_finishing_admits_the_job_queued_behind_it(self):
        """The pool's slot comes back without an ``on_release``; no timer helps."""
        with _engine() as engine:
            mapping = engine._engine_for(MAPPING)
            deploy, gate = mapping.deploy, threading.Event()

            def slow_deploy(*args, **kwargs):
                gate.wait(timeout=30)
                return deploy(*args, **kwargs)

            mapping.deploy = slow_deploy
            with JobScheduler(engine, max_concurrent=2, pool_size=1) as sched:
                warmer = threading.Thread(
                    target=sched.prewarm, args=(MAPPING,), daemon=True
                )
                warmer.start()
                _wait_for(
                    lambda: MAPPING in sched._pools
                    and sched._pools[MAPPING].free_slots() == 0,
                    message="prewarm holding the slot",
                )
                job = _batch(sched, _pipeline(), [1])
                time.sleep(0.05)
                assert sched.stats.admitted == 0  # the only slot is deploying
                gate.set()
                result = job.wait(timeout=30)
                warmer.join(timeout=10)
        assert _values(result) == [3]
        assert result.counters.get("deploy_warm") == 1


class TestEventDrivenWaits:
    def test_idle_dispatcher_never_re_evaluates_admission(self):
        with _engine() as engine:
            with JobScheduler(engine, max_concurrent=1) as sched:
                _batch(sched, _pipeline(), [1]).wait(timeout=30)
                _wait_for(lambda: sched.stats.running == 0, message="drain")
                time.sleep(0.05)  # let the last wake-ups settle
                picks = []
                pick = sched._pick_locked
                sched._pick_locked = lambda now: picks.append(now) or pick(now)
                time.sleep(0.5)
                assert picks == []
