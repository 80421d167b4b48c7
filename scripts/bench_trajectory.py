#!/usr/bin/env python
"""Paired parent/change runs of ``e2e_bench`` -> a slim ``BENCH_<pr>.json``.

ROADMAP asks for a perf *trajectory*: one small file per PR at the repo
root saying, per gated workload and end-to-end metric, where the parent
stood, where the change stands and how many alternating pairs it won.
This script makes that file; it never touches ``e2e_bench/`` or
``BENCHMARK.json``, it only calls the benchmark the way the driver does::

    python scripts/bench_trajectory.py --parent /root/scratch/parent \\
        --change . --pairs 10 --pr 14 --out BENCH_14.json

``--parent`` and ``--change`` are two checkouts (the parent one made with
``git clone`` / ``git archive``).  Every pair runs both sides on one seed
(``--seed`` + pair index), alternating which side goes first; each run is
``python3 e2e_bench/run.py --workload W --seed N --seconds S --trace 0`` in
that checkout.  Raw per-run lines go to ``--log`` (JSONL, not committed);
``--from-log`` summarises an existing log instead of running anything.

``--workload W`` (repeatable) restricts the run to some of the gated
workloads.  With it an **A/A control** is one more invocation: give two
clones of the parent as ``--parent`` / ``--change`` and keep its ``--log``;
``--aa-log`` then folds that log into the summary as ``aa_control`` (same
cells, "change" being the second copy), so a reader can hold the change's
gap against the gap two copies of one commit show on the same host.

The summary keeps medians, quartiles and pair counts only -- no sample
arrays -- so the file stays a few KB.  A pair is *won* when the change's
run is better than the parent's run of the same pair by the metric's own
direction; ties count for neither.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    """One driver-mode run; the last stdout line is its JSON result."""
    done = subprocess.run(
        [sys.executable, "e2e_bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def paired_runs(
    parent: Path, change: Path, workloads: List[str], pairs: int, seed: int, seconds: int
) -> Iterator[Dict[str, Any]]:
    sides = {"parent": parent, "change": change}
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result = run_once(sides[side], workload, seed + pair, seconds)
                yield {"side": side, "workload": workload, "seed": seed + pair,
                       "pair": pair, "result": result}


def _spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarise(runs: List[Dict[str, Any]], benchmark: Dict[str, Any]) -> Dict[str, Any]:
    """Per workload x end-to-end metric: both sides' spread and the pairs won."""
    out: Dict[str, Any] = {}
    for workload in [w["name"] for w in benchmark["workloads"]]:
        by_pair: Dict[int, Dict[str, Dict[str, Any]]] = {}
        for run in runs:
            if run["workload"] == workload:
                by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
        complete = [sides for sides in by_pair.values() if len(sides) == 2]
        if not complete:
            continue
        cell: Dict[str, Any] = {
            "pairs": len(complete),
            "failed": {side: sum(p[side]["failed"] for p in complete)
                       for side in ("parent", "change")},
            "oracle_equal": all(p[side]["correct"] for p in complete
                                for side in ("parent", "change")),
        }
        for metric in benchmark["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            parent = [p["parent"]["metrics"][name]["value"] for p in complete]
            change = [p["change"]["metrics"][name]["value"] for p in complete]
            won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            lost = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
            before, after = _spread(parent), _spread(change)
            cell[name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "parent": before, "change": after,
                "gap_pct": round(100.0 * (after["median"] / before["median"] - 1.0), 2),
                "pairs_won": won, "pairs_lost": lost,
            }
        out[workload] = cell
    return out


def read_log(path: Path) -> List[Dict[str, Any]]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=200)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument(
        "--log", type=Path, default=Path(tempfile.gettempdir()) / "bench_trajectory_runs.jsonl"
    )
    parser.add_argument("--from-log", type=Path)
    parser.add_argument("--workload", action="append", help="only this gated workload")
    parser.add_argument("--aa-log", type=Path, help="log of a parent-vs-parent-copy run")
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in benchmark["workloads"]]
    if args.workload:
        unknown = sorted(set(args.workload) - set(gated))
        if unknown:
            parser.error(f"not a gated workload: {', '.join(unknown)}")
        gated = [name for name in gated if name in args.workload]
    if args.from_log is not None:
        runs = read_log(args.from_log)
    else:
        if args.parent is None:
            parser.error("--parent is required unless --from-log is given")
        runs = []
        with args.log.open("w") as log:
            for run in paired_runs(
                args.parent, args.change, gated,
                args.pairs, args.seed, benchmark["run_seconds"],
            ):
                runs.append(run)
                log.write(json.dumps(run) + "\n")
                log.flush()
    summary = {
        "pr": args.pr,
        "command": "python3 e2e_bench/run.py --workload W --seed N "
                   f"--seconds {benchmark['run_seconds']} --trace 0",
        "method": "alternating parent/change pairs, one seed per pair; medians and "
                  "inclusive quartiles over the pairs' run-level metrics",
        "seeds": sorted({run["seed"] for run in runs}),
        "workloads": summarise(runs, benchmark),
    }
    if args.aa_log is not None:
        control = read_log(args.aa_log)
        summary["aa_control"] = {
            "method": "the same pairs with a second clone of the parent as the change",
            "seeds": sorted({run["seed"] for run in control}),
            "workloads": summarise(control, benchmark),
        }
    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    out = args.out if args.out is not None else args.change / f"BENCH_{args.pr}.json"
    out.write_text(text)
    print(f"wrote {out} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
