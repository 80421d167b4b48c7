"""Guard on what a run that filters no seismic trace loads.

``scipy.signal`` (~1.3 s, ~85 MB) and ``networkx`` (~0.15 s, ~15 MB) used
to be imported by ``import repro`` itself, so every CLI call, the ``repro
serve`` boot and every spawned ``cluster_redis`` worker paid for three
filter calls and one ``topological_sort`` it never made.  The check is on
module absence only: a timing or RSS number would flake on a loaded
machine.
"""

from tests.conftest import run_in_fresh_interpreter

PROBE = """
import sys

import repro
import repro.cli
import repro.mappings.cluster  # what a spawned cluster_redis worker imports
import repro.scheduler.service  # what `repro serve` imports
import repro.workflows

for argv in (
    ["list"],
    ["run", "galaxy", "--mapping", "auto", "--processes", "4", "--time-scale", "0.001"],
    ["run", "sentiment", "--mapping", "auto", "--processes", "10", "--articles", "10",
     "--time-scale", "0.001"],
    ["plan", "galaxy"],
):
    assert repro.cli.main(argv) == 0, argv
loaded = [name for name in ("scipy", "networkx") if name in sys.modules]
assert not loaded, f"a run without a seismic trace imported {loaded}"
"""


def test_non_seismic_run_loads_neither_scipy_nor_networkx():
    run_in_fresh_interpreter(PROBE)
