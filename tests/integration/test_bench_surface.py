"""Guard on the program surface ``e2e_bench`` imports and calls.

``e2e_bench/`` lies outside ``testpaths``, and its own tests take about
40 s, so a rename in the planner or the engine options that breaks the
benchmark would pass the fast lane.  This imports its probe and workload
modules the way ``e2e_bench/run.py`` does (``src/`` and ``e2e_bench/`` on
``sys.path``), runs the planner probe on a small budget and builds, without
running, the engine of the planned workload.
"""

from pathlib import Path

from tests.conftest import run_in_fresh_interpreter

ROOT = Path(__file__).resolve().parents[2]

PROBE = """
import sys

sys.path[:0] = sys.argv[1:]

import probes
import workloads
from repro import Engine

metrics = probes.planner(0.02)
assert metrics["planner.fused_members"] == 6, metrics
for key in ("planner.plan_s", "planner.profile_s", "planner.fusion_only_s"):
    assert metrics[key] > 0, metrics
engine = Engine(**workloads.ENGINE_WORKLOADS["chain_planned"].engine)
assert engine.config.optimize is True
engine.close()
"""


def test_probes_and_workloads_import_and_plan():
    run_in_fresh_interpreter(PROBE, str(ROOT / "src"), str(ROOT / "e2e_bench"))
