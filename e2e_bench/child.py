"""One workload in one fresh interpreter: set-up, timed repeats, traced run.

``run.py`` starts this file once per measurement so that set-up time and
peak memory are per workload and one workload's threads cannot perturb the
next.  It talks to its parent through JSON lines on stdout: ``ready`` when
set-up is done (the parent clocks ``setup_s`` from process start to that
line), then one ``result``.

Phases (``--phases``, comma separated): ``setup`` stops after set-up;
``e2e`` measures the end-to-end metrics with tracing off; ``trace`` re-runs
the workload under the span recorder; ``probes`` runs the layer probes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import oracle  # noqa: E402
from spans import SpanRecorder  # noqa: E402

from repro.scheduler import percentile  # noqa: E402

#: Timed repeats a measurement never goes below, whatever ``--seconds``.
MIN_REPEATS = 3
#: Share of ``--seconds`` the traced run spends re-running the workload;
#: the layer probes share the rest.
TRACE_SHARE = 0.4
LEAK_GRACE_S = 3.0
#: A repeat during which the hypervisor stole more than this share of the
#: machine's CPU time measured the neighbours, not the program: it is still
#: verified, but kept out of the timings while enough quiet repeats exist.
STEAL_LIMIT = 0.02


def confine() -> Optional[int]:
    """Confine this interpreter, and everything it starts, to one CPU.

    Worker threads that pass one interpreter lock between two virtual CPUs
    stall whenever the host deschedules either, which made timings swing by
    20-45% from minute to minute on the calibration machine; on one CPU the
    same workloads are 20-35% faster and two to three times steadier.
    Returns a second CPU for load-generator threads, or ``None`` on a
    single-CPU machine (nothing is pinned then).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[1]


def emit(event: str, **payload: Any) -> None:
    print(json.dumps({"event": event, **payload}), flush=True)


# ------------------------------------------------------------------ isolation
def _listening_sockets() -> Set[str]:
    """Inodes of this process's TCP sockets in LISTEN state."""
    listening = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table, encoding="ascii") as handle:
                rows = [line.split() for line in handle.readlines()[1:]]
        except OSError:
            continue
        listening.update(row[9] for row in rows if row[3] == "0A")
    own = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            own.add(target[8:-1])
    return own & listening


def _child_pids() -> Set[int]:
    """Live or unreaped child processes of this interpreter."""
    me, children = os.getpid(), set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            children.add(int(entry))
    return children


def _survivors(baseline: Dict[str, set]) -> List[str]:
    """What the run left behind, after a short grace period to unwind."""
    deadline = time.monotonic() + LEAK_GRACE_S
    while True:
        threads = {t for t in threading.enumerate() if not t.daemon} - baseline["threads"]
        procs = _child_pids() - baseline["procs"]
        socks = _listening_sockets() - baseline["socks"]
        if not (threads or procs or socks) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    leaks = [f"non-daemon thread {t.name!r} survives the run" for t in threads]
    leaks += [f"child process {pid} was not reaped" for pid in sorted(procs)]
    leaks += [f"listening socket (inode {inode}) left open" for inode in sorted(socks)]
    return leaks


def cpu_ticks() -> Tuple[int, int]:
    """(stolen, total) CPU ticks of the whole machine since boot."""
    with open("/proc/stat", encoding="ascii") as handle:
        ticks = [int(field) for field in handle.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    return (after[0] - before[0]) / max(1, after[1] - before[1])


# -------------------------------------------------------------------- phases
def _tamper(repeat: Any) -> None:
    """Corrupt one output tuple (self-test hook behind ``--tamper``)."""
    key = sorted(repeat.outputs)[0]
    victim = sorted(repeat.outputs[key])[0]
    repeat.outputs[key][victim] -= 1
    repeat.outputs[key]["'tampered'"] += 1


def _measure(step, budget_s: float, repeats: Optional[int], tally: oracle.Tally,
             at_least: int = MIN_REPEATS, tamper: bool = False) -> List[Any]:
    """Call ``step`` until the budget is spent; verify every repeat.

    With ``repeats`` given the count is exact.  Otherwise ``at_least``
    quiet repeats (see ``STEAL_LIMIT``), stopping once another would
    overshoot the budget by more than half its length -- or at one and a
    half times the budget, when the machine never went quiet.
    """
    done: List[Any] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        before = cpu_ticks()
        repeat = step(len(done))
        repeat.steal_share = steal_share(before, cpu_ticks())
        if tamper and not done:
            _tamper(repeat)
        tally.check(repeat.expected, repeat.outputs, repeat.jobs, repeat.jobs_failed)
        # Verified: drop the outputs, or peak memory would grow with the
        # number of repeats and so with the speed of the host.
        repeat.outputs = repeat.expected = {}
        done.append(repeat)
        if repeats is not None:
            if len(done) >= repeats:
                return done
            continue
        typical = statistics.median(r.wall_s for r in done)
        elapsed = time.perf_counter() - start
        enough = len(_calm(done)) >= at_least or elapsed > 1.5 * budget_s
        if enough and elapsed + typical / 2 > budget_s:
            return done


def _calm(repeats: List[Any]) -> List[Any]:
    return [r for r in repeats if r.steal_share <= STEAL_LIMIT]


def quiet(repeats: List[Any], at_least: int = MIN_REPEATS) -> List[Any]:
    """The repeats to take timings from: the undisturbed ones, if enough."""
    calm = _calm(repeats)
    return calm if len(calm) >= min(at_least, len(repeats)) else repeats


def end_to_end(runner: Any, every: List[Any]) -> Dict[str, Any]:
    repeats = quiet(every)
    wall = statistics.median(r.wall_s for r in repeats)
    job_ms = [ms for r in repeats for ms in r.job_ms]
    first_ms = [ms for r in repeats for ms in r.first_result_ms]
    lag_ms = [ms for r in repeats for ms in r.lag_ms]
    jobs = sum(r.jobs - r.jobs_failed for r in repeats)
    metrics = {
        "wall_s": wall,
        "process_time_s": statistics.median(r.process_time_s for r in repeats),
        "active_share": statistics.median(r.active_share for r in repeats),
        "tuples_per_s": runner.input_tuples / wall,
        "jobs_per_s": jobs / sum(r.wall_s for r in repeats),
        "job_ms_p50": statistics.median(job_ms),
        "first_result_ms_p50": statistics.median(first_ms),
        "first_result_ms_p95": percentile(first_ms, 95),
    }
    if lag_ms:
        metrics["load_gen_lag_ms_p95"] = percentile(lag_ms, 95)
    return {
        "metrics": metrics,
        "repeats": len(repeats),
        "disturbed_repeats": len(every) - len(repeats),
        "latency_samples": len(job_ms),
    }


def traced(runner: Any, budget_s: float, repeats: Optional[int],
           tally: oracle.Tally, recorder: SpanRecorder) -> Dict[str, float]:
    """Alternate untraced and traced repeats; report the per-workload layers."""
    ticks = cpu_ticks()

    def step(index: int) -> Any:
        if index % 2 == 0:
            return runner.repeat()
        return runner.traced_repeat(recorder, f"{runner.name}.r{index // 2}")

    done = _measure(step, budget_s, repeats and 2 * repeats, tally, at_least=2)
    plain, spans = quiet(done[0::2], 1), quiet(done[1::2], 1)
    wall = statistics.median(r.wall_s for r in plain)
    traced_wall = statistics.median(r.wall_s for r in spans)
    counters = spans[-1].counters
    tasks = counters.get("tasks", 0)
    layers = {
        name: statistics.median(r.lifecycle[name] for r in spans)
        for name in spans[0].lifecycle
    }
    layers.update({
        "trace.wall_s": traced_wall,
        "trace.overhead_pct": (traced_wall - wall) / wall * 100.0,
        "trace.lifecycle_sum_s": sum(layers.values()),
        "mappings.tasks": tasks,
        "mappings.queue_puts": counters.get("queue_puts", 0),
        "mappings.private_puts": counters.get("private_puts", 0),
        "mappings.empty_polls": counters.get("empty_polls", 0),
        "mappings.task_us": wall / tasks * 1e6 if tasks else 0.0,
        "mappings.simple_wall_s": runner.baseline_wall(),
        "process_time_s": statistics.median(r.process_time_s for r in plain),
        "autoscale.scale_iterations": counters.get("scale_iterations", 0),
        "autoscale.max_active": counters.get("max_active", 0),
        "autoscale.active_share": statistics.median(r.active_share for r in plain),
        "host.steal_pct": steal_share(ticks, cpu_ticks()) * 100.0,
    })
    return layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--phases", default="e2e")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--tamper", action="store_true")
    parser.add_argument("--trace-out", default=os.path.join(HERE, "out", "trace.json"))
    args = parser.parse_args(argv)
    phases = args.phases.split(",")

    generator_cpu = confine()
    baseline = {
        "threads": set(threading.enumerate()),
        "procs": _child_pids(),
        "socks": _listening_sockets(),
    }
    tally = oracle.Tally()
    result: Dict[str, Any] = {"workload": args.workload, "seed": args.seed}
    recorder = SpanRecorder()
    runner = None
    if phases != ["probes"]:
        import workloads

        runner = workloads.make_runner(args.workload, args.seed, args.quick, SRC,
                                       generator_cpu)
        runner.setup()
        result.update(input_tuples=runner.input_tuples,
                      inputs_digest=runner.inputs_digest)
    emit("ready")

    repeats = 1 if args.quick and args.repeats is None else args.repeats
    try:
        if "e2e" in phases:
            done = _measure(lambda _i: runner.repeat(), args.seconds, repeats, tally,
                            tamper=args.tamper)
            result["end_to_end"] = end_to_end(runner, done)
        if "trace" in phases:
            result["per_layer"] = traced(runner, args.seconds * TRACE_SHARE,
                                         repeats, tally, recorder)
    finally:
        if runner is not None:
            tally.operations(runner.close())
    if "e2e" in phases:
        result["end_to_end"]["metrics"]["peak_rss_mb"] = runner.peak_rss_mb()

    if "probes" in phases:
        import probes

        budget = 0.0 if args.quick else args.seconds * (1.0 - TRACE_SHARE)
        layers = probes.run_all(budget, SRC, generator_cpu, recorder)
        result.setdefault("per_layer", {}).update(layers)

    tally.operations(_survivors(baseline))
    if recorder.spans:
        recorder.write(args.trace_out)
        result["trace_file"] = os.path.relpath(args.trace_out, os.path.dirname(HERE))
        result["spans"] = len(recorder.spans)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  oracle_equal=tally.oracle_equal, failed_share=tally.failed_share,
                  notes=tally.notes)
    emit("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
