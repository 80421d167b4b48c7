"""Ablation: warm-session submits vs cold per-run deployments.

The streaming-session redesign splits enactment into ``deploy -> feed ->
drain -> teardown`` so an :class:`~repro.engine.Engine` can keep one warm
deployment per mapping (pre-spawned worker pool, redisim server) and reuse
it across consecutive ``submit()`` calls.  This cell quantifies what the
reuse buys: the end-to-end latency of a burst of small submissions, cold
(a fresh engine -- and therefore a fresh deployment -- per submission,
which is exactly what ``Engine.run()`` does) against warm (one engine,
sequential submissions on the primed session).

The workload is deliberately tiny -- a 3-PE pipeline over a handful of
tuples -- so the spin-up cost the session amortizes (thread-pool spawn,
deployment wiring) is a visible fraction of each submission.  Cold and
warm bursts run as paired rounds (:func:`repro.bench.harness.paired_ratio`)
and the *median per-round ratio* is asserted, so machine-load drift hits
both members of a pair alike.

Acceptance bar: **warm measurably cheaper** -- median cold/warm >= 1.05
on ``multi`` and ``dyn_auto_multi``, with the ``deploy_warm`` counter
proving the spin-up was actually skipped.

``BENCH_SMOKE=1`` shrinks the pairing for the CI bench-smoke lane.
"""

import os
import time

import pytest

from repro.bench.harness import paired_ratio
from repro.core.pe import reset_auto_names
from repro.engine import Engine
from tests.conftest import AddOne, Double, Emit, linear_graph

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

TIME_SCALE = 0.002
PROCESSES = 12
SUBMITS_PER_BURST = 6 if SMOKE else 8
INPUTS = list(range(4))
PAIR_ROUNDS = 3 if SMOKE else 5
#: Modest bar: prototype medians sit at ~1.2-1.7x, CI runners are noisy.
SPEEDUP_BAR = 1.05


def _pipeline(name):
    reset_auto_names()
    return linear_graph(
        Emit(name="src"), Double(name="dbl"), AddOne(name="add"), name=name
    )


def _cold_burst(mapping):
    """One deployment per submission: what every pre-session caller paid."""
    started = time.perf_counter()
    for index in range(SUBMITS_PER_BURST):
        engine = Engine(mapping=mapping, processes=PROCESSES, time_scale=TIME_SCALE)
        engine.submit(_pipeline(f"cold-{index}"), inputs=INPUTS).wait(timeout=60.0)
        engine.close()
    return time.perf_counter() - started


def _warm_burst(mapping):
    """One engine, one primed session, consecutive submissions reuse it."""
    engine = Engine(mapping=mapping, processes=PROCESSES, time_scale=TIME_SCALE)
    prime = engine.submit(_pipeline("prime"), inputs=INPUTS).wait(timeout=60.0)
    assert prime.counters["deploy_cold"] == 1
    started = time.perf_counter()
    last = None
    for index in range(SUBMITS_PER_BURST):
        last = engine.submit(_pipeline(f"warm-{index}"), inputs=INPUTS).wait(
            timeout=60.0
        )
    elapsed = time.perf_counter() - started
    # The spin-up was provably skipped on the measured submissions.
    assert last.counters["deploy_warm"] == 1
    assert "deploy_cold" not in last.counters
    engine.close()
    return elapsed


@pytest.mark.parametrize("mapping", ("multi", "dyn_auto_multi"))
def test_warm_submit_cheaper_than_cold(benchmark, capsys, mapping):
    """The acceptance criterion: warm submits skip the deployment spin-up."""

    def once():
        return paired_ratio(
            lambda: _cold_burst(mapping),
            lambda: _warm_burst(mapping),
            PAIR_ROUNDS,
            measure=float,
            label=f"[{mapping}] cold/warm latency of {SUBMITS_PER_BURST}-submit bursts",
        )

    with capsys.disabled():
        paired = benchmark.pedantic(once, rounds=1, iterations=1)
    assert paired.median >= SPEEDUP_BAR


def test_warm_submit_results_identical(benchmark):
    """Session reuse is transparent: warm submits produce one-shot results."""

    def once():
        engine = Engine(
            mapping="dyn_auto_multi", processes=PROCESSES, time_scale=TIME_SCALE
        )
        reference = engine.run(_pipeline("ref"), inputs=INPUTS)
        first = engine.submit(_pipeline("s1"), inputs=INPUTS).wait(timeout=60.0)
        second = engine.submit(_pipeline("s2"), inputs=INPUTS).wait(timeout=60.0)
        engine.close()
        return reference, first, second

    reference, first, second = benchmark.pedantic(once, rounds=1, iterations=1)
    assert sorted(first.output("add")) == sorted(reference.output("add"))
    assert sorted(second.output("add")) == sorted(reference.output("add"))
    assert first.counters["tasks"] == reference.counters["tasks"]
    assert second.counters["tasks"] == reference.counters["tasks"]
    assert first.counters["deploy_cold"] == 1
    assert second.counters["deploy_warm"] == 1
    assert "deploy_cold" not in reference.counters
    assert "deploy_warm" not in reference.counters
