"""The six workloads: what runs, at what size, and one timed repeat of each.

Inputs are a pure function of ``--seed``; everything else (engine seed,
mapping, process count, time scale) is fixed, so two seeds differ in their
inputs and in nothing else.  Every workload pins ``time_scale >= 0.005``:
below it the system's poll intervals shrink with the clock and it
poll-spins, so numbers stop repeating.

A repeat is one *job* as that workload's user submits it: one
``Engine.run`` call (cold deploy included, users pay it) for the five
engine workloads, one closed-loop window of socket jobs for
``serve_closed``.
"""

from __future__ import annotations

import hashlib
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import oracle
import serve
from spans import SpanRecorder

from repro import Engine, IterativePE, WorkflowGraph
from repro.workflows import (
    build_internal_extinction_workflow,
    build_sentiment_scoring_workflow,
    build_sentiment_workflow,
)

#: The engine's own seed (PE random streams) never follows ``--seed``.
ENGINE_SEED = 0
#: Share of the inputs the untimed warm-up repeat runs.
WARMUP_SHARE = 0.1

LIFECYCLE = ("engine.submit_s", "jobs.first_result_s", "jobs.stream_s",
             "jobs.wait_s", "engine.close_s")


class Relay(IterativePE):
    """Zero-compute stage: what a chain of these costs is the framework."""

    def _process(self, data: Any) -> Any:
        return data


def relay_chain(stages: int = 6) -> WorkflowGraph:
    chain = Relay(name="relay0")
    for index in range(1, stages):
        chain = chain >> Relay(name=f"relay{index}")
    return WorkflowGraph.from_chain(chain, name="relay_chain")


# ------------------------------------------------------------ input makers
# Each returns (new_graph, inputs): a factory for a fresh graph per repeat
# (PE templates may keep state) and the seeded input list.

def _galaxy(n: int, seed: int):
    inputs = random.Random(seed).sample(range(1_000_000), n)
    return (lambda: build_internal_extinction_workflow(scale=1, heavy=True)[0]), inputs


def _chain(n: int, seed: int):
    rng = random.Random(seed)
    pool = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz0123456789", k=4096 + 64))
    inputs = []
    for index in range(n):
        at = rng.randrange(4096)
        inputs.append((index, pool[at:at + 64]))
    return relay_chain, inputs


def _article_ids(n: int, seed: int) -> List[int]:
    """``n`` article ids drawn from the first ``n + n // 4`` of the dataset.

    The dataset itself stays the repo's default one: seeds pick different
    articles out of one corpus, so the work two seeds ask for is alike.
    """
    return random.Random(seed).sample(range(n + n // 4), n)


def _sentiment(n: int, seed: int):
    return (lambda: build_sentiment_workflow(articles=n + n // 4)[0]), _article_ids(n, seed)


def _scoring(n: int, seed: int):
    return (lambda: build_sentiment_scoring_workflow(articles=n + n // 4)[0]), _article_ids(n, seed)


@dataclass(frozen=True)
class EngineSpec:
    """One engine workload: its engine settings, input maker and sizes."""

    make: Callable[[int, int], Tuple[Callable[[], WorkflowGraph], List[Any]]]
    engine: Dict[str, Any]
    size: int
    quick_size: int
    #: Share of the inputs the single-threaded ``simple`` baseline runs in
    #: the traced run (its wall is scaled back up to the full input).
    baseline_share: float


ENGINE_WORKLOADS: Dict[str, EngineSpec] = {
    "galaxy_autoscale": EngineSpec(
        _galaxy,
        dict(mapping="dyn_auto_multi", platform="server", processes=8, time_scale=0.05),
        size=300, quick_size=16, baseline_share=0.05,
    ),
    "chain_queue": EngineSpec(
        _chain,
        dict(mapping="dyn_auto_multi", platform="laptop", processes=4, time_scale=0.01),
        size=8000, quick_size=300, baseline_share=1.0,
    ),
    "chain_planned": EngineSpec(
        _chain,
        dict(mapping="dyn_auto_multi", platform="laptop", processes=4, time_scale=0.01,
             optimize=True, batch_size=32),
        size=40000, quick_size=1000, baseline_share=0.25,
    ),
    "stateful_hybrid": EngineSpec(
        _sentiment,
        dict(mapping="hybrid_redis", platform="laptop", processes=8, time_scale=0.005),
        size=1200, quick_size=40, baseline_share=0.25,
    ),
    "cluster_tcp": EngineSpec(
        _scoring,
        dict(mapping="cluster_redis", platform="laptop", processes=2, time_scale=0.01,
             start_method="fork"),
        size=400, quick_size=24, baseline_share=0.25,
    ),
}

SERVE = "serve_closed"
NAMES = tuple(ENGINE_WORKLOADS) + (SERVE,)


@dataclass
class Repeat:
    """What one timed repeat measured and produced."""

    wall_s: float
    process_time_s: float
    outputs: oracle.Canonical
    #: The oracle's outputs for the jobs of this repeat that completed.
    expected: oracle.Canonical
    jobs: int = 1
    jobs_failed: int = 0
    job_ms: List[float] = field(default_factory=list)
    first_result_ms: List[float] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    #: Lifecycle span durations of a traced repeat (name -> seconds).
    lifecycle: Dict[str, float] = field(default_factory=dict)
    active_share: float = 0.0
    #: Share of the machine's CPU time the hypervisor took away meanwhile.
    steal_share: float = 0.0


def digest(inputs: Any) -> str:
    return hashlib.sha256(repr(inputs).encode("utf-8")).hexdigest()[:16]


def _sum_counters(parts: Sequence[Dict[str, int]]) -> Dict[str, int]:
    """Counters of several jobs as one: sums, except the high-water mark."""
    total: Dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            total[key] = max(total.get(key, 0), value) if key == "max_active" \
                else total.get(key, 0) + value
    return total


class EngineRunner:
    """Set-up, timed repeats and traced repeats of one engine workload."""

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name = name
        self.spec = ENGINE_WORKLOADS[name]
        n = self.spec.quick_size if quick else self.spec.size
        self.new_graph, self.inputs = self.spec.make(n, seed)
        self.input_tuples = len(self.inputs)
        self.inputs_digest = digest(self.inputs)
        self.engine = Engine(seed=ENGINE_SEED, **self.spec.engine)
        self.expected: oracle.Canonical = {}

    def setup(self) -> None:
        """Oracle on the full input, then one untimed warm-up on a share of it."""
        self.expected = oracle.run_oracle(self.new_graph(), self.inputs, ENGINE_SEED)
        head = self.inputs[: max(1, int(len(self.inputs) * WARMUP_SHARE))]
        self.engine.run(self.new_graph(), inputs=head)

    def repeat(self) -> Repeat:
        graph = self.new_graph()
        start = time.perf_counter()
        result = self.engine.run(graph, inputs=self.inputs)
        wall = time.perf_counter() - start
        return self._repeat(wall, result)

    def traced_repeat(self, recorder: SpanRecorder, run: str) -> Repeat:
        """The same job through ``Engine.submit``, one span per lifecycle stage.

        A fresh engine per repeat, so the deploy is cold as in ``run()``.
        The stages are cut at consecutive timestamps: they are contiguous
        and sum to the traced wall by construction.
        """
        graph = self.new_graph()
        engine = Engine(seed=ENGINE_SEED, **self.spec.engine)
        stamps = [time.perf_counter()]
        job = engine.submit(graph, inputs=self.inputs)
        job.close_input()
        stamps.append(time.perf_counter())
        first = last = None
        for _key, _value in job.results():
            last = time.perf_counter()
            if first is None:
                first = last
        result = job.wait()
        waited = time.perf_counter()
        engine.close()
        closed = time.perf_counter()
        if first is None:  # no output reached the stream
            first = last = waited
        stamps += [first, last, waited, closed]
        recorder.chain(LIFECYCLE, stamps, run, root=f"{self.name}.job")
        repeat = self._repeat(closed - stamps[0], result)
        repeat.lifecycle = {
            name: end - start
            for name, start, end in zip(LIFECYCLE, stamps, stamps[1:])
        }
        return repeat

    def _repeat(self, wall: float, result: Any) -> Repeat:
        procs = self.spec.engine["processes"]
        return Repeat(
            wall_s=wall,
            process_time_s=result.process_time,
            outputs=oracle.canonical(result.outputs),
            expected=self.expected,
            job_ms=[wall * 1e3],
            # run() hands every result over when it returns: the caller's
            # first result arrives with the last.
            first_result_ms=[wall * 1e3],
            counters=dict(result.counters),
            active_share=result.process_time / (procs * wall),
        )

    def baseline_wall(self) -> float:
        """``simple`` on a share of the inputs at the workload's own time
        scale, scaled up to the full input: the single-threaded baseline."""
        count = max(1, int(len(self.inputs) * self.spec.baseline_share))
        with Engine(mapping="simple", seed=ENGINE_SEED,
                    time_scale=self.spec.engine["time_scale"]) as engine:
            graph = self.new_graph()
            start = time.perf_counter()
            engine.run(graph, inputs=self.inputs[:count])
            wall = time.perf_counter() - start
        return wall * len(self.inputs) / count

    def close(self) -> List[str]:
        self.engine.close()
        return []

    def peak_rss_mb(self) -> float:
        """This interpreter plus its largest reaped child (the system under
        test runs in-process, its worker processes are children)."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + children) / 1024.0


class ServeRunner:
    """``serve_closed``: socket clients against one ``repro serve`` daemon."""

    #: Distinct input lists per seed; job ``k`` sends list ``k % DISTINCT``.
    DISTINCT = 8
    #: Article ids are drawn from the first POOL articles of the dataset.
    POOL = 400
    processes = 4
    time_scale = 0.005
    max_jobs = 2

    def __init__(self, seed: int, quick: bool, src_dir: str,
                 generator_cpu: Optional[int]) -> None:
        self.name = SERVE
        self.src_dir = src_dir
        self.generator_cpu = generator_cpu
        rng = random.Random(seed)
        self.lists = [rng.sample(range(self.POOL), serve.JOB_TUPLES)
                      for _ in range(self.DISTINCT)]
        self.jobs = 8 if quick else 80
        self.input_tuples = self.jobs * serve.JOB_TUPLES
        self.inputs_digest = digest(self.lists)
        self.daemon: Optional[serve.Daemon] = None
        self.expected_per_list: List[oracle.Canonical] = []
        self._peak_rss_mb = 0.0

    def _job_inputs(self, jobs: int) -> List[List[int]]:
        return [self.lists[k % self.DISTINCT] for k in range(jobs)]

    def _new_graph(self) -> WorkflowGraph:
        return build_sentiment_scoring_workflow(articles=serve.JOB_TUPLES)[0]

    def setup(self) -> None:
        """Oracle per distinct list, daemon boot, warm-up window.

        The warm-up runs enough jobs to leave both pool deployments warm.
        """
        self.expected_per_list = [
            oracle.run_oracle(self._new_graph(), ids, ENGINE_SEED) for ids in self.lists
        ]
        self.daemon = serve.Daemon(self.src_dir, self.generator_cpu, self.processes,
                                   self.time_scale, self.max_jobs)
        warm = serve.closed_loop(self.daemon, self._job_inputs(2 * self.max_jobs * 2))
        if warm.failed:
            raise RuntimeError(f"warm-up job failed: {warm.failed[0].error}")

    def repeat(self) -> Repeat:
        window = serve.closed_loop(self.daemon, self._job_inputs(self.jobs))
        return self._repeat(window)

    def traced_repeat(self, recorder: SpanRecorder, run: str) -> Repeat:
        """A window whose client-side timestamps are kept as per-job spans."""
        window = serve.closed_loop(self.daemon, self._job_inputs(self.jobs))
        stages = ("submit_reply", "send", "close", "first_result", "done", "wait")
        keys = ("submit", "submit_reply", "sent", "closed", "first_result", "done", "end")
        sums = dict.fromkeys(stages, 0.0)
        good = [r for r in window.records if r.error is None]
        for record in good:
            stamps = [record.stamps[key] for key in keys]
            recorder.chain([f"serve.{s}" for s in stages], stamps,
                           f"{run}.c{record.client}.j{record.index}", root="serve.job")
            for stage, start, end in zip(stages, stamps, stamps[1:]):
                sums[stage] += end - start
        repeat = self._repeat(window)
        # The engine lifecycle names, read off the socket: what the client
        # sees of each stage, averaged per job.
        per_job = {stage: total / max(1, len(good)) for stage, total in sums.items()}
        repeat.lifecycle = {
            "engine.submit_s": per_job["submit_reply"] + per_job["send"] + per_job["close"],
            "jobs.first_result_s": per_job["first_result"],
            "jobs.stream_s": per_job["done"],
            "jobs.wait_s": per_job["wait"],
            "engine.close_s": 0.0,  # the daemon's deployments stay warm
        }
        return repeat

    def _repeat(self, window: serve.Window) -> Repeat:
        good = [r for r in window.records if r.error is None]
        return Repeat(
            wall_s=window.wall_s,
            process_time_s=sum(r.process_time for r in good),
            outputs=oracle.canonical(_group(v for r in good for v in r.values)),
            expected=oracle.merge([self.expected_per_list[r.index % self.DISTINCT]
                                   for r in good]),
            jobs=len(window.records),
            jobs_failed=len(window.failed),
            job_ms=[r.job_ms for r in good],
            first_result_ms=[r.first_result_ms for r in good],
            lag_ms=[r.lag_s * 1e3 for r in window.records],
            counters=_sum_counters([r.counters for r in good]),
            active_share=sum(r.process_time for r in good)
            / (self.processes * self.max_jobs * window.wall_s),
        )

    def baseline_wall(self) -> float:
        """One job's tuples on ``simple``, times the jobs of a window."""
        with Engine(mapping="simple", seed=ENGINE_SEED, time_scale=self.time_scale) as engine:
            graph = self._new_graph()
            start = time.perf_counter()
            engine.run(graph, inputs=self.lists[0])
            return (time.perf_counter() - start) * self.jobs

    def close(self) -> List[str]:
        """Stop the daemon; returns what did not shut down cleanly."""
        if self.daemon is None:
            return []
        self._peak_rss_mb = self.daemon.peak_rss_mb()
        clean = self.daemon.stop()
        return [] if clean else ["repro serve ignored SIGINT and was killed"]

    def peak_rss_mb(self) -> float:
        """The daemon's high-water mark, read just before it was stopped."""
        return self._peak_rss_mb


def _group(pairs) -> Dict[str, List[Any]]:
    grouped: Dict[str, List[Any]] = {}
    for key, value in pairs:
        grouped.setdefault(key, []).append(value)
    return grouped


def make_runner(name: str, seed: int, quick: bool, src_dir: str,
                generator_cpu: Optional[int]):
    if name == SERVE:
        return ServeRunner(seed, quick, src_dir, generator_cpu)
    if name not in ENGINE_WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return EngineRunner(name, seed, quick)
