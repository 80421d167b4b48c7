"""e2e_bench: one command that prices every layer.

    python3 e2e_bench/run.py [--seed N] [--runs R] [--seconds S] [--repeats K]
                             [--trace] [--quick] [--out FILE]
        every workload: inputs from the seed, outputs checked against the
        ``simple`` oracle, every metric printed by name with its unit, and a
        JSON summary written.  ``--trace`` adds the separate traced run and
        the layer probes (per-layer metrics, ``e2e_bench/out/trace.json``).

    python3 e2e_bench/run.py --workload W --seed N --seconds S --trace 0|1
        one workload, as the benchmark driver calls it; the last line of
        stdout is ``{"correct", "attempted", "failed", "metrics"}``.

    python3 e2e_bench/run.py --compare A.json B.json
        two summaries side by side: medians, quartiles, relative gap and the
        bound per workload x end-to-end metric; exits non-zero beyond a bound.

Each workload runs in a fresh child interpreter (``child.py``), so set-up
time and peak memory are per workload.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")
#: Fresh interpreters that set the workload up; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A child that has not finished by then is killed (the driver allows 180 s).
CHILD_TIMEOUT_S = 150.0
#: End-to-end metrics the report prints but ``BENCHMARK.json`` does not gate:
#: they follow the host's speed too closely to repeat (``process_time_s``),
#: say something of their own on ``serve_closed`` only, or must stay 0 / 1.
REPORT_ONLY = {
    "process_time_s": "s", "job_ms_p50": "ms", "first_result_ms_p50": "ms",
    "jobs_per_s": "1/s", "first_result_ms_p95": "ms", "load_gen_lag_ms_p95": "ms",
    "failed_share": "ratio", "oracle_equal": "0/1",
}
#: Workloads the full report runs after those of ``BENCHMARK.json``, ungated:
#: their timings did not repeat within a bound the driver accepts (README).
REPORT_ONLY_WORKLOADS = ("chain_planned", "serve_closed")


class ChildFailed(RuntimeError):
    pass


def load_spec() -> Dict[str, Any]:
    with open(SPEC_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the child's process group, if anything of it is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(workload: str, seed: int, seconds: float, phases: str,
          quick: bool = False, repeats: Optional[int] = None,
          tamper: bool = False) -> Tuple[float, Dict[str, Any]]:
    """Run one child; returns (seconds from start to ``ready``, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--phases", phases]
    cmd += ["--quick"] if quick else []
    cmd += ["--tamper"] if tamper else []
    cmd += ["--repeats", str(repeats)] if repeats is not None else []
    started = time.perf_counter()
    # Its own process group, so that whatever the child started (the daemon,
    # cluster workers) can be stopped with it on every way out of here.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, [proc])
    watchdog.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if not line.startswith('{"event"'):
                continue
            message = json.loads(line)
            if message["event"] == "ready":
                setup_s = time.perf_counter() - started
            elif message["event"] == "result":
                result = message
        code = proc.wait()
    finally:
        watchdog.cancel()
        _kill_group(proc)
        proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None or result is None:
        raise ChildFailed(f"{workload} [{phases}] exited {code} without a result")
    return setup_s, result


def measure(workload: str, seed: int, seconds: float, phases: str,
            quick: bool = False, repeats: Optional[int] = None,
            tamper: bool = False) -> Dict[str, Any]:
    """One run of one workload: set-up samples, then the measuring child."""
    extra = 0 if quick or "e2e" not in phases else SETUP_SAMPLES - 1
    setups = [spawn(workload, seed, seconds, "setup", quick)[0] for _ in range(extra)]
    setup_s, result = spawn(workload, seed, seconds, phases, quick, repeats, tamper)
    if "end_to_end" in result:
        metrics = result["end_to_end"]["metrics"]
        metrics["setup_s"] = statistics.median(setups + [setup_s])
        metrics["failed_share"] = result["failed_share"]
        metrics["oracle_equal"] = result["oracle_equal"]
    return result


# ------------------------------------------------------------------ printing
def units(spec: Dict[str, Any]) -> Dict[str, str]:
    table = dict(REPORT_ONLY)
    for group in ("end_to_end", "per_layer"):
        table.update({m["name"]: m["unit"] for m in spec[group]})
    return table


def show(title: str, values: Dict[str, float], unit_of: Dict[str, str]) -> None:
    print(f"== {title}")
    for name in sorted(values):
        print(f"  {name:<42} {values[name]:>14.6g} {unit_of.get(name, '?')}")


def show_result(result: Dict[str, Any], unit_of: Dict[str, str]) -> None:
    name = result["workload"]
    if "end_to_end" in result:
        e2e = result["end_to_end"]
        show(f"{name}: end to end, seed {result['seed']}, {result['input_tuples']} input "
             f"tuples (digest {result['inputs_digest']}), {e2e['repeats']} timed repeats, "
             f"{e2e['latency_samples']} latency samples, {e2e['disturbed_repeats']} "
             f"disturbed repeats set aside", e2e["metrics"], unit_of)
    if "per_layer" in result:
        show(f"{name}: per layer (traced run and probes)", result["per_layer"], unit_of)
    for note in result["notes"]:
        print(f"  !! {note}")


def correct(result: Dict[str, Any]) -> bool:
    return result["failed"] == 0 and result["oracle_equal"] == 1


# --------------------------------------------------------------- driver mode
def driver(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """One workload, one mode; the contract's result object on the last line."""
    group, phases = ("per_layer", "trace,probes") if args.trace else ("end_to_end", "e2e")
    result = measure(args.workload, args.seed, args.seconds, phases,
                     args.quick, args.repeats, args.tamper)
    show_result(result, units(spec))
    measured = result["per_layer"] if args.trace else result["end_to_end"]["metrics"]
    missing = [m["name"] for m in spec[group] if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct(result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in spec[group]},
    }))
    return 0 if correct(result) else 1


# ----------------------------------------------------------------- full mode
def full(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload, ``--runs`` times on consecutive seeds; writes ``--out``."""
    unit_of = units(spec)
    names = [w["name"] for w in spec["workloads"]] + list(REPORT_ONLY_WORKLOADS)
    summary: Dict[str, Any] = {
        "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
        "quick": args.quick, "workloads": {name: {"runs": []} for name in names},
    }
    ok = True
    phases = "e2e,trace" if args.trace else "e2e"
    for run in range(args.runs):
        for name in names:
            try:
                result = measure(name, args.seed + run, args.seconds, phases,
                                 args.quick, args.repeats, args.tamper)
            except ChildFailed as exc:
                print(f"!! {exc}")
                ok = False
                continue
            show_result(result, unit_of)
            ok = ok and correct(result)
            summary["workloads"][name]["runs"].append({
                "seed": result["seed"],
                "inputs_digest": result["inputs_digest"],
                "input_tuples": result["input_tuples"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "repeats": result["end_to_end"]["repeats"],
                "disturbed_repeats": result["end_to_end"]["disturbed_repeats"],
                "latency_samples": result["end_to_end"]["latency_samples"],
                "metrics": result["end_to_end"]["metrics"],
                "per_layer": result.get("per_layer", {}),
            })
    if args.trace:
        # The layer probes do not depend on the workload: once is enough.
        try:
            _setup, probes = spawn("-", args.seed, args.seconds, "probes", args.quick)
            show("layer probes", probes["per_layer"], unit_of)
            summary["probes"] = probes["per_layer"]
            ok = ok and probes["failed"] == 0
        except ChildFailed as exc:
            print(f"!! {exc}")
            ok = False
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    print(f"summary written to {args.out}; {'all correct' if ok else 'FAILURES above'}")
    return 0 if ok else 1


# ------------------------------------------------------------------- compare
def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as the driver computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    """Agreement of two summaries on every gated workload x metric.

    The gap is B's median against A's, signed so that positive is worse;
    beyond the metric's bound in either direction the sets disagree.  The
    spread is (Q3 - Q1) / median within one set.
    """
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        sets = [json.load(a), json.load(b)]
    print(f"{'workload':<17}{'metric':<21}{'unit':<6}{'A q1/med/q3':<34}"
          f"{'B q1/med/q3':<34}{'gap':>8}{'spreadA':>9}{'spreadB':>9}{'bound':>7}")
    beyond = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns = []
            for summary in sets:
                runs = summary["workloads"].get(workload, {}).get("runs", [])
                columns.append([run["metrics"][name] for run in runs if name in run["metrics"]])
            if not all(columns):
                print(f"{workload:<17}{name:<21}missing from a set")
                beyond += 1
                continue
            (a1, a2, a3), (b1, b2, b3) = quartiles(columns[0]), quartiles(columns[1])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            gap = sign * (b2 - a2) / a2
            spreads = ((a3 - a1) / a2, (b3 - b1) / b2)
            # setup_s is gated on its medians only, as the driver does.
            wide = name != "setup_s" and max(spreads) > bound
            flag = "  DISAGREE" if abs(gap) > bound else ("  WIDE" if wide else "")
            beyond += bool(flag)
            print(f"{workload:<17}{name:<21}{metric['unit']:<6}"
                  f"{f'{a1:.5g}/{a2:.5g}/{a3:.5g}':<34}{f'{b1:.5g}/{b2:.5g}/{b3:.5g}':<34}"
                  f"{gap:>+8.1%}{spreads[0]:>9.1%}{spreads[1]:>9.1%}{bound:>7.0%}{flag}")
    print(f"{beyond} workload x metric pair(s) beyond their bound" if beyond
          else "every gated workload x metric agrees within its bound")
    return 1 if beyond else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="exactly K timed repeats, whatever --seconds")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, on seeds seed..seed+runs-1")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="tiny inputs, one repeat")
    parser.add_argument("--out", default=os.path.join(HERE, "out", "summary.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--tamper", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("e2e_bench measures the program under src/repro, which is not here",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    # A terminated benchmark unwinds like an interrupted one: ``spawn`` stops
    # the child's process group on its way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return driver(args, spec) if args.workload else full(args, spec)
    except ChildFailed as exc:
        print(f"!! {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
