#!/usr/bin/env python
"""Framework CPU per input: what a mapping spends beyond the PEs' own code.

    python scripts/framework_cpu.py [--workload W ...] [--repeats K] [--quick]
                                    [--seed N] [--attribute [--time-scale S]]

At time scale 1e-6 emulated compute sleeps vanish, so a run's process CPU
is its PE code plus the framework around it.  ``simple`` runs the same PE
code with next to no framework, so for each workload::

    framework us per input = (CPU of the workload's mapping - CPU of simple) / inputs

with both CPUs the median of ``--repeats`` runs (each side gets one
untimed warm-up run first).  A run's CPU is ``time.process_time`` --
every thread of this interpreter, which is where the in-process mappings
run all their workers and where ``cluster_tcp``'s coordinator and RESP
server run -- plus the ``RUSAGE_CHILDREN`` CPU of the worker processes it
reaped (``cluster_tcp``'s forked workers); ``workers s``, a part of
``mapping s``, is the median of the latter.  The workloads, their inputs
and their engine settings are ``e2e_bench/workloads.py``'s (imported,
never modified), time scale aside.

``--attribute`` then runs each workload's mapping once more with wrappers
around the layers' functions and prints where its CPU went: per-thread
``time.thread_time`` *exclusive* time (a wrapper's children are not its
own), summed over threads, per layer -- PE invoke, each keyspace command,
transaction, pickle, client, dispatch, worker loop, queues, scaler, meter,
counters -- and per function, for this process only (a forked worker's tallies die
with it; its CPU is printed as one line).  A wrapper costs one to two
microseconds per call, and that cost moves by tens of percent between
invocations; the script measures it right before and right after each
attributed run, prints both and takes their median back out of every row,
so the rows are estimates whose sum is the run's CPU net of the wrappers.
Beside that CPU it prints the run's voluntary and involuntary context
switches (``ru_nvcsw`` / ``ru_nivcsw`` of this process, all its threads):
a client woken for nothing costs a voluntary switch to park again.  A
profiler (cProfile) is not used: its per-call hook inflates the call-heavy
helpers several-fold on these workloads.  ``--time-scale`` sets the time
scale of the attributed runs only (default 1e-6, as the framework metric):
at a workload's own scale (``chain_queue``'s 0.01) the scaler sleeps its
pacing for real, and a scaler step costs about twice its CPU at 1e-6.

``--quick`` runs the workloads at their quick sizes with one repeat: a
smoke check that the script still runs against the tree, not a measurement.
"""

from __future__ import annotations

import argparse
import inspect
import os
import pickle
import resource
import statistics
import sys
import threading
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "e2e_bench")]

from workloads import ENGINE_SEED, ENGINE_WORKLOADS  # noqa: E402

from repro import Engine  # noqa: E402

WORKLOADS = ("stateful_hybrid", "cluster_tcp", "chain_queue", "galaxy_autoscale")
TIME_SCALE = 1e-6


def _engine(
    settings: Dict[str, Any], mapping: str | None = None, time_scale: float = TIME_SCALE
) -> Engine:
    settings = {**settings, "time_scale": time_scale}
    if mapping is not None:
        settings["mapping"] = mapping
    return Engine(seed=ENGINE_SEED, **settings)


def _children_cpu() -> float:
    """CPU seconds of every child process this interpreter has reaped."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _switches() -> Tuple[int, int]:
    """Voluntary and involuntary context switches of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_nvcsw, usage.ru_nivcsw


def run_cpu(
    make_graph: Callable[[], Any], inputs: List[Any], engine: Engine
) -> Tuple[float, float]:
    """CPU seconds of one ``Engine.run``: this process's, and its workers'.

    The second is what the worker processes the run started and reaped
    spent (0 for the in-process mappings).
    """
    graph = make_graph()
    started, children = time.process_time(), _children_cpu()
    engine.run(graph, inputs=list(inputs))
    return time.process_time() - started, _children_cpu() - children


def measure(name: str, repeats: int, quick: bool, seed: int) -> Dict[str, Any]:
    """Median CPU of the mapping and of ``simple``, and the framework share."""
    spec = ENGINE_WORKLOADS[name]
    make_graph, inputs = spec.make(spec.quick_size if quick else spec.size, seed)
    sides = {"mapping": _engine(spec.engine), "simple": _engine(spec.engine, "simple")}
    samples: Dict[str, List[Tuple[float, float]]] = {side: [] for side in sides}
    for side, engine in sides.items():
        run_cpu(make_graph, inputs, engine)
    # Alternate the sides so a drifting host moves both alike.
    for _ in range(repeats):
        for side, engine in sides.items():
            samples[side].append(run_cpu(make_graph, inputs, engine))
    for engine in sides.values():
        engine.close()
    mapping_s = statistics.median(sum(sample) for sample in samples["mapping"])
    simple_s = statistics.median(sum(sample) for sample in samples["simple"])
    return {
        "workload": name,
        "mapping": spec.engine["mapping"],
        "inputs": len(inputs),
        "mapping_cpu_s": mapping_s,
        "workers_cpu_s": statistics.median(workers for _own, workers in samples["mapping"]),
        "simple_cpu_s": simple_s,
        "framework_us_per_input": (mapping_s - simple_s) / len(inputs) * 1e6,
    }


# ------------------------------------------------------------- attribution
class Attribution:
    """Exclusive per-thread CPU of wrapped functions, by layer and function.

    A row is ``[calls, exclusive CPU s, calls of wrapped children]``.  The
    wrapper's own cost lands partly inside a call's clock window and partly
    in its caller's; :meth:`calibrate` measures both shares, and
    :meth:`rows` takes back out the ``inside`` / ``outside`` it is set to.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._tallies: List[Dict[Tuple[str, str], List[float]]] = []
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []
        #: Wrapper CPU per call charged to the call itself / to its caller.
        self.inside = self.outside = 0.0
        # A worker process forked while another thread held the lock would
        # block on its first tally.
        os.register_at_fork(after_in_child=self._fresh_lock)

    def _fresh_lock(self) -> None:
        self._lock = threading.Lock()

    def _tally(self) -> Dict[Tuple[str, str], List[float]]:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = {}
            self._local.stack = []
            with self._lock:
                self._tallies.append(tally)
        return tally

    def wrap(self, fn: Callable, layer: str, label: str) -> Callable:
        clock = time.thread_time
        key = (layer, label)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tally = self._tally()
            stack = self._local.stack
            frame = [0.0, 0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += spent
                    stack[-1][1] += 1
                row = tally.get(key)
                if row is None:
                    row = tally[key] = [0, 0.0, 0]
                row[0] += 1
                row[1] += spent - frame[0]
                row[2] += frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: Any, attr: str, layer: str, label: str) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            wrapped: Any = staticmethod(self.wrap(raw.__func__, layer, label))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, layer, label))
        elif callable(raw) and not inspect.isclass(raw):
            # A class held as an attribute (``DynamicMapping.workforce``)
            # is called to construct, not bound as a method: leave it be.
            wrapped = self.wrap(raw, layer, label)
        else:
            return
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def rebind(self, module: Any, attr: str, wrapped: Callable) -> None:
        """Point a module's name at ``wrapped``, undone by :meth:`unpatch`."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapped)

    def unpatch(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def reset(self) -> None:
        with self._lock:
            for tally in self._tallies:
                tally.clear()

    def calibrate(self, calls: int = 200_000) -> Tuple[float, float]:
        """The wrapper's CPU per call, ``(inside, outside)`` its window."""

        def noop() -> None:
            pass

        def loop(fn: Callable[[], None]) -> None:
            for _ in range(calls):
                fn()

        bare = time.thread_time()
        loop(noop)
        bare = time.thread_time() - bare
        inner = self.wrap(noop, "", "inner")
        self.wrap(loop, "", "outer")(inner)
        tally = self._tally()
        inside = tally.pop(("", "inner"))[1] / calls
        return inside, max(0.0, (tally.pop(("", "outer"))[1] - bare) / calls)

    def rows(self) -> Dict[Tuple[str, str], List[float]]:
        """``[calls, exclusive CPU s]`` per ``(layer, label)``, less the wrappers."""
        merged: Dict[Tuple[str, str], List[float]] = {}
        with self._lock:
            for tally in self._tallies:
                for key, (calls, spent, children) in list(tally.items()):
                    row = merged.setdefault(key, [0, 0.0])
                    row[0] += calls
                    row[1] += spent - calls * self.inside - children * self.outside
        for row in merged.values():
            row[1] = max(0.0, row[1])
        return merged


#: Module -> layer of every function and method defined in it.
MODULE_LAYERS = {
    "repro.redisim.client": "client",
    "repro.net.client": "client",
    "repro.net.resp": "RESP codec",
    "repro.net.server": "RESP server",
    "repro.net.core": "RESP server",
    "repro.mappings.redis_tasks": "worker loop",
    "repro.mappings.hybrid": "worker loop",
    "repro.mappings.dynamic": "worker loop",
    "repro.runtime.workers": "worker loop",
    "repro.runtime.queues": "queues",
    "repro.autoscale.autoscaler": "scaler",
    "repro.autoscale.strategies": "scaler",
    "repro.autoscale.trace": "scaler",
    "repro.runtime.accounting": "meter",
    "repro.core.concrete": "dispatch",
    "repro.core.groupings": "dispatch",
    "repro.runtime.cores": "compute (limiter, clock)",
    "repro.runtime.clock": "compute (limiter, clock)",
}


def _layer_of(module: str, owner: str, attr: str) -> Tuple[str, str]:
    if module == "repro.redisim.server" and owner == "RedisServer":
        # A command's helpers (_count, _park, _ack ...) are its own cost.
        if attr == "transaction":
            return "transaction", attr
        return ("" if attr.startswith("_") else f"keyspace {attr}"), attr
    if module == "repro.redisim.client" and attr.startswith(("_enc", "_dec", "_dumps", "_loads")):
        return ("pickle" if attr in ("_dumps", "_loads") else "client codec"), attr
    if module == "repro.mappings.base":
        if attr in ("dispatch_emissions", "dispatch_tasks"):
            return "dispatch", attr
        if owner == "Counters":
            return "counters", attr
        return "", attr
    if module == "repro.core.pe" and attr in ("_invoke", "_flush_postprocess"):
        return "PE invoke", attr
    if module == "repro.core.context" and attr in ("compute", "io_wait"):
        return "compute (limiter, clock)", attr
    return MODULE_LAYERS.get(module, ""), attr


def instrument(attribution: Attribution) -> None:
    """Wrap every function of the modules a hop runs through.

    Methods are patched on their class, so every caller sees the wrapper;
    a module-level function is also re-bound wherever a ``repro`` module
    imported it by name.
    """
    import repro.core.context  # noqa: F401
    import repro.core.pe  # noqa: F401
    import repro.mappings.base  # noqa: F401
    import repro.mappings.hybrid  # noqa: F401
    import repro.net.client  # noqa: F401
    import repro.net.server  # noqa: F401

    modules = [name for name in sys.modules if name.startswith("repro.")]
    originals: Dict[int, Any] = {}
    for module_name in modules:
        module = sys.modules[module_name]
        for attr, value in list(vars(module).items()):
            if inspect.isclass(value) and value.__module__ == module_name:
                for method in list(vars(value)):
                    if method.startswith("__"):
                        continue
                    layer, label = _layer_of(module_name, value.__name__, method)
                    if layer:
                        attribution.patch(value, method, layer, f"{value.__name__}.{label}")
            elif inspect.isfunction(value) and value.__module__ == module_name:
                layer, label = _layer_of(module_name, "", attr)
                if layer:
                    originals[id(value)] = (value, attribution.wrap(value, layer, label))
            elif isinstance(value, partial) and value.func in (pickle.dumps, pickle.loads):
                originals[id(value)] = (value, attribution.wrap(value, "pickle", attr))
    for module_name in modules:
        module = sys.modules[module_name]
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                attribution.rebind(module, attr, hit[1])
    for name in ("dumps", "loads"):
        attribution.patch(pickle, name, "pickle", f"pickle.{name}")


def attribute(
    name: str, quick: bool, seed: int, attribution: Attribution, time_scale: float
) -> None:
    """One instrumented run of the workload's mapping; prints its table."""
    spec = ENGINE_WORKLOADS[name]
    make_graph, inputs = spec.make(spec.quick_size if quick else spec.size, seed)
    engine = _engine(spec.engine, time_scale=time_scale)
    run_cpu(make_graph, inputs, engine)
    before = attribution.calibrate()
    attribution.reset()
    switched = _switches()
    total, workers = run_cpu(make_graph, inputs, engine)
    voluntary, involuntary = (b - a for a, b in zip(switched, _switches()))
    after = attribution.calibrate()
    engine.close()
    attribution.inside, attribution.outside = (
        statistics.median(pair) for pair in zip(before, after)
    )
    rows = attribution.rows()
    layers: Dict[str, List[float]] = {}
    for (layer, _label), (calls, spent) in rows.items():
        row = layers.setdefault(layer, [0, 0.0])
        row[0] += calls
        row[1] += spent
    wrapped_calls = sum(calls for calls, _spent in layers.values())
    wrappers = wrapped_calls * (attribution.inside + attribution.outside)
    attributed = sum(spent for _calls, spent in layers.values())
    layers["unattributed"] = [0, max(0.0, total - wrappers - attributed)]
    total -= wrappers
    per_input = 1e6 / len(inputs)
    print(
        f"\n{name} ({spec.engine['mapping']}, {len(inputs)} inputs, "
        f"time scale {time_scale:g}): attributed run"
    )
    print(
        "wrapper cost per call (inside + outside, us): "
        f"{before[0] * 1e6:.2f} + {before[1] * 1e6:.2f} before the run, "
        f"{after[0] * 1e6:.2f} + {after[1] * 1e6:.2f} after; netted at their median"
    )
    print(
        f"process CPU {total:.3f} s net of {wrappers:.3f} s of wrappers "
        f"({wrapped_calls} calls at {attribution.inside * 1e6:.2f} + "
        f"{attribution.outside * 1e6:.2f} us); exclusive thread CPU by layer"
    )
    print(f"context switches {voluntary} voluntary, {involuntary} involuntary (this process)")
    if workers:
        # Their tallies die with them: only this process is attributed.
        print(f"worker processes {workers:.3f} s more, not attributed")
    print(f"{'layer':<32} {'calls':>8} {'CPU s':>8} {'share':>7} {'us/input':>9}")
    for layer, (calls, spent) in sorted(layers.items(), key=lambda item: -item[1][1]):
        share = spent / total if total else 0.0
        print(f"{layer:<32} {calls:>8} {spent:>8.3f} {share:>7.1%} {spent * per_input:>9.1f}")
    print(f"\n{'function (top 40)':<52} {'calls':>8} {'CPU s':>8} {'us/input':>9}")
    ranked = sorted(rows.items(), key=lambda item: -item[1][1])[:40]
    for (layer, label), (calls, spent) in ranked:
        print(f"{label:<52} {calls:>8} {spent:>8.3f} {spent * per_input:>9.1f}")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true", help="quick sizes, one repeat")
    parser.add_argument("--attribute", action="store_true", help="per-layer CPU table")
    parser.add_argument(
        "--time-scale", type=float, default=TIME_SCALE,
        help=f"time scale of the attributed runs (default {TIME_SCALE:g})",
    )
    args = parser.parse_args(argv)
    if args.time_scale <= 0:
        parser.error("--time-scale must be positive")
    names = args.workload or list(WORKLOADS)
    repeats = 1 if args.quick else args.repeats
    print(f"framework CPU at time scale {TIME_SCALE:g}, median of {repeats} (seed {args.seed})")
    print(
        f"{'workload':<18} {'mapping':<16} {'inputs':>6} "
        f"{'simple s':>9} {'mapping s':>10} {'workers s':>10} {'framework us/input':>19}"
    )
    for name in names:
        row = measure(name, repeats, args.quick, args.seed)
        print(
            f"{row['workload']:<18} {row['mapping']:<16} {row['inputs']:>6} "
            f"{row['simple_cpu_s']:>9.3f} {row['mapping_cpu_s']:>10.3f} "
            f"{row['workers_cpu_s']:>10.3f} {row['framework_us_per_input']:>19.1f}"
        )
    if args.attribute:
        attribution = Attribution()
        instrument(attribution)
        try:
            for name in names:
                attribute(name, args.quick, args.seed, attribution, args.time_scale)
        finally:
            attribution.unpatch()
    return 0


if __name__ == "__main__":
    sys.exit(main())
