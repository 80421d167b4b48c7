"""Ablation: concurrent scheduler admission vs serialized warm submits.

The multi-job service exists so N small jobs stop queueing behind one
another on a single warm session.  This cell quantifies the tentpole's
claim: a burst of small sentiment-scoring jobs pushed through a
:class:`~repro.scheduler.JobScheduler` (``max_concurrent=4`` over a
prewarmed 4-deployment pool) against the pre-scheduler best case -- one
engine, one warm session, strictly serialized ``submit().wait()`` calls.

Both modes run the same catalog workflow with the same seed; per-job
outputs must be identical down to the byte (after canonical ordering --
parallel collection order is not part of the contract).  The jobs are
sleep-dominated (emulated compute under ``time_scale``), so concurrency
translates into real wall-clock speedup rather than GIL contention.

Acceptance bar: **sustained jobs/sec >= 2x serialized**.  A second,
informational cell reports the scheduler's p99 submit -> first-result
latency (the service-level metric the stats surface exists for).

``BENCH_SMOKE=1`` shrinks the workload for the CI bench-smoke lane.
"""

import os
import time

from repro.engine import Engine
from repro.scheduler import JobScheduler
from repro.scheduler.catalog import build_named_workflow

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: Large enough that per-job runtime (~70-120 ms) dwarfs the ~10 ms of
#: fixed submit/admission overhead; at 0.002 the burst is overhead-bound
#: and the concurrency win disappears into noise.
TIME_SCALE = 0.1
PROCESSES = 4
MAPPING = "dyn_auto_multi"
N_JOBS = 8
ARTICLES = 12 if SMOKE else 20
MAX_CONCURRENT = 4
#: 4-wide admission over sleep-dominated jobs leaves ample margin over 2x.
SPEEDUP_BAR = 2.0


def _workflow():
    graph, default_inputs = build_named_workflow(
        "sentiment-scoring", articles=ARTICLES
    )
    return graph, default_inputs


def _canonical(result):
    """Per-job outputs with collection order normalized, as bytes."""
    ordered = {
        key: sorted(values, key=repr)
        for key, values in sorted(result.outputs.items())
    }
    return repr(ordered).encode("utf-8")


def _serialized_burst():
    """Pre-scheduler best case: warm session, strictly one job at a time."""
    engine = Engine(
        mapping=MAPPING, processes=PROCESSES, time_scale=TIME_SCALE, seed=0
    )
    graph, inputs = _workflow()
    prime = engine.submit(graph, inputs=inputs).wait(timeout=120.0)
    assert prime.counters["deploy_cold"] == 1
    started = time.perf_counter()
    results = []
    for _ in range(N_JOBS):
        graph, inputs = _workflow()
        results.append(engine.submit(graph, inputs=inputs).wait(timeout=120.0))
    elapsed = time.perf_counter() - started
    assert results[-1].counters["deploy_warm"] == 1  # session reuse held
    engine.close()
    return elapsed, results


def _scheduled_burst():
    """The tentpole: N jobs admitted concurrently over a prewarmed pool."""
    engine = Engine(
        mapping=MAPPING, processes=PROCESSES, time_scale=TIME_SCALE, seed=0
    )
    scheduler = JobScheduler(
        engine, max_concurrent=MAX_CONCURRENT, pool_size=MAX_CONCURRENT
    )
    assert scheduler.prewarm(MAPPING) == MAX_CONCURRENT
    started = time.perf_counter()
    jobs = []
    for _ in range(N_JOBS):
        graph, inputs = _workflow()
        job = scheduler.submit(graph, inputs)
        job.close_input()
        jobs.append(job)
    results = [job.wait(timeout=120.0) for job in jobs]
    elapsed = time.perf_counter() - started
    stats = scheduler.stats
    assert stats.completed == N_JOBS
    assert stats.peak_running <= MAX_CONCURRENT
    for result in results:
        # Every admission came from the warm pool; no busy cold fallbacks.
        assert result.counters.get("deploy_busy_fallback", 0) == 0
    p99 = stats.first_result_percentile(99)
    jps = stats.jobs_per_second()
    scheduler.close()
    engine.close()
    return elapsed, results, p99, jps


def test_scheduler_throughput_vs_serialized(benchmark, capsys):
    """The acceptance criterion: >= 2x sustained jobs/sec, identical outputs."""

    def once():
        serial_elapsed, serial_results = _serialized_burst()
        sched_elapsed, sched_results, p99, jps = _scheduled_burst()
        return serial_elapsed, serial_results, sched_elapsed, sched_results, jps

    serial_elapsed, serial_results, sched_elapsed, sched_results, jps = (
        benchmark.pedantic(once, rounds=1, iterations=1)
    )
    serial_jps = N_JOBS / serial_elapsed
    sched_jps = N_JOBS / sched_elapsed
    ratio = sched_jps / serial_jps
    with capsys.disabled():
        print(
            f"\n[scheduler] {N_JOBS} x sentiment-scoring({ARTICLES}): "
            f"serialized {serial_jps:.2f} jobs/s, scheduled {sched_jps:.2f} "
            f"jobs/s ({ratio:.2f}x, stats-window {jps:.2f} jobs/s) at "
            f"max_concurrent={MAX_CONCURRENT}"
        )
    # Byte-identical per-job outputs: same workflow, same seed, both modes.
    reference = _canonical(serial_results[0])
    for result in serial_results + sched_results:
        assert _canonical(result) == reference
    assert ratio >= SPEEDUP_BAR


def test_scheduler_first_result_latency(benchmark, capsys):
    """Informational: p99 submit -> first-result under concurrent admission."""

    def once():
        _elapsed, _results, p99, _jps = _scheduled_burst()
        return p99

    p99 = benchmark.pedantic(once, rounds=1, iterations=1)
    assert p99 is not None and p99 > 0
    with capsys.disabled():
        print(
            f"\n[scheduler] p99 submit->first-result = {p99 * 1000:.0f} ms "
            f"over {N_JOBS} jobs (informational, not gated)"
        )
