"""``scripts/framework_cpu.py`` at its quick size, so the sizing tool cannot rot."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "framework_cpu.py"


def test_quick_run_prints_a_row_and_an_attribution_table():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--quick", "--workload", "stateful_hybrid", "--attribute"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    [row] = [line.split() for line in lines if line.startswith("stateful_hybrid  ")]
    assert row[1:3] == ["hybrid_redis", "40"]
    layers = {line.split()[0] for line in lines if line}
    # The layers the attribution prices, each reached by the run.
    assert {"PE", "pickle", "transaction", "dispatch", "worker", "client"} <= layers
    assert any(line.startswith("keyspace xadd ") for line in lines)
