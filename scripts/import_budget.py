#!/usr/bin/env python
"""What ``import repro`` costs and loads, over five fresh interpreters.

Every ``repro`` CLI call, the ``repro serve`` boot and every spawned
``cluster_redis`` worker pays this import before doing any work, and
``e2e_bench`` gates it as ``setup_s`` / ``peak_rss_mb``.  Prints the median
wall time of the import statement, the largest peak RSS, and the
third-party top-level modules it pulled in::

    python scripts/import_budget.py

Exits 1 when ``scipy`` or ``networkx`` is among them: the seismic filters
load scipy on first use and only ``WorkflowGraph.to_networkx()`` imports
networkx, so either showing up here is an eager import that crept back.
The numbers are printed for the reader, never compared against a limit.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5
ON_FIRST_USE = ("scipy", "networkx")

CHILD = """
import json, resource, sys, sysconfig, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
import repro
wall = time.perf_counter() - started
site = tuple({sysconfig.get_path("purelib"), sysconfig.get_path("platlib")})
print(json.dumps({
    "wall_s": wall,
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "third_party": sorted(
        name for name, module in sys.modules.items()
        if "." not in name and not name.startswith("_")
        and (getattr(module, "__file__", None) or "").startswith(site)
    ),
}))
"""


def main() -> int:
    runs = []
    for _ in range(RUNS):
        done = subprocess.run(
            [sys.executable, "-c", CHILD, str(ROOT / "src")],
            capture_output=True,
            text=True,
            check=True,
        )
        runs.append(json.loads(done.stdout))
    loaded = sorted(set().union(*(run["third_party"] for run in runs)))
    print(f"import repro, {RUNS} fresh interpreters ({sys.version.split()[0]})")
    print(f"  wall median : {statistics.median(run['wall_s'] for run in runs):.3f} s")
    print(f"  peak RSS max: {max(run['rss_mb'] for run in runs):.1f} MB")
    print(f"  third party : {', '.join(loaded) or '(none)'}")
    eager = [name for name in ON_FIRST_USE if name in loaded]
    if eager:
        print(f"FAIL: import repro loaded {', '.join(eager)} (first-use only)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
