"""``scripts/parity.py`` on a two-cell subset, so the parity check cannot rot."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "parity.py"


def _parity(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=120
    )


def test_dump_then_compare(tmp_path):
    out = tmp_path / "a.json"
    done = _parity(
        "--workflow", "sentiment-scoring", "--mapping", "dyn_multi",
        "--variant", "batch8", "--out", str(out),
    )
    assert done.returncode == 0, done.stderr
    cells = json.loads(out.read_text())
    run, execute = (cells[f"sentiment-scoring|dyn_multi|batch8|{e}"] for e in ("run", "execute"))
    assert len(cells) == 2
    assert run == execute
    assert run["counters"]["tasks"] > 0 and "empty_polls" not in run["counters"]
    assert sum(sum(values.values()) for values in run["outputs"].values()) > 0

    assert _parity("--compare", str(out), str(out)).returncode == 0
    changed = tmp_path / "b.json"
    run["counters"]["tasks"] += 1
    changed.write_text(json.dumps(cells))
    differ = _parity("--compare", str(out), str(changed))
    assert differ.returncode == 1
    assert "DIFF sentiment-scoring|dyn_multi|batch8|run" in differ.stdout
