"""``scripts/framework_cpu.py`` at its quick size, so the sizing tool cannot rot."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "framework_cpu.py"

#: Workload -> (mapping, quick input count).
WORKLOADS = {
    "stateful_hybrid": ("hybrid_redis", "40"),
    "cluster_tcp": ("cluster_redis", "24"),
    "chain_queue": ("dyn_auto_multi", "300"),
    "galaxy_autoscale": ("dyn_auto_multi", "16"),
}


def _sections(lines):
    """The attribution table of each workload, by workload name."""
    sections, name = {}, None
    for line in lines:
        if line.endswith("attributed run"):
            name = line.split()[0]
            sections[name] = []
        elif name is not None:
            sections[name].append(line)
    return sections


def test_quick_run_prints_a_row_and_an_attribution_table():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--quick", "--attribute"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for name, (mapping, inputs) in WORKLOADS.items():
        [row] = [line.split() for line in lines if line.startswith(f"{name}  ")]
        assert row[1:3] == [mapping, inputs]
    sections = _sections(lines)
    assert set(sections) == set(WORKLOADS)
    layers = {name: {line.split()[0] for line in table if line} for name, table in sections.items()}
    # The layers the attribution prices, each reached by the run.
    assert {"PE", "pickle", "transaction", "dispatch", "worker", "client"} <= layers[
        "stateful_hybrid"
    ]
    assert {"RESP", "client", "keyspace"} <= layers["cluster_tcp"]
    assert {"PE", "dispatch", "worker", "queues"} <= layers["chain_queue"]
    assert {"PE", "worker"} <= layers["galaxy_autoscale"]
    # The hop's routing and invoke functions are priced by name, in their
    # layers; the queue hop itself is one frame per take.
    functions = {line.split()[0] for line in sections["chain_queue"] if line}
    assert {"dispatch_tasks", "IterativePE._invoke", "DynamicWorkforce._hops"} <= functions
    assert {"TrackedQueue.settle_and_get", "Autoscaler.process"} <= functions
    assert not {"DynamicWorkforce.process_task", "TrackedQueue._settle"} & functions
    # A window's children and the pills go out as XADDN; nothing sends XADD.
    for name in ("stateful_hybrid", "cluster_tcp"):
        assert any(line.startswith("keyspace xaddn ") for line in sections[name])
        assert not any(line.startswith("keyspace xadd ") for line in sections[name])
    # The wrapper cost is calibrated on both sides of every attributed run.
    for name, table in sections.items():
        [line] = [line for line in table if line.startswith("wrapper cost per call")]
        assert "before the run" in line and "after; netted at their median" in line
    # Each attributed run's CPU comes with its context switches.
    for name, table in sections.items():
        [line] = [line for line in table if line.startswith("context switches ")]
        assert re.fullmatch(
            r"context switches \d+ voluntary, \d+ involuntary \(this process\)", line
        ), line
    # The forked workers' CPU is reported, not attributed.
    assert any(line.startswith("worker processes ") for line in sections["cluster_tcp"])


def test_attribute_runs_at_the_given_time_scale():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--quick", "--attribute", "--workload", "chain_queue",
         "--time-scale", "0.01"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # The framework metric keeps its own scale; the attributed run takes the flag's.
    assert lines[0].startswith("framework CPU at time scale 1e-06")
    assert "chain_queue (dyn_auto_multi, 300 inputs, time scale 0.01): attributed run" in lines
