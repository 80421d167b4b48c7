"""Self-test of the benchmark itself (not part of tier-1).

    python -m pytest e2e_bench/tests -q

Everything goes through ``run.py`` as a user or the driver would call it,
in ``--quick`` mode (tiny inputs, one repeat).
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
#: The gated workloads, then the two the full report runs ungated.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["chain_planned", "serve_closed"]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Printed for every workload although BENCHMARK.json does not gate them.
REPORT_ONLY = ("process_time_s", "job_ms_p50", "first_result_ms_p50", "jobs_per_s",
               "first_result_ms_p95", "failed_share", "oracle_equal")


def run(*args, check=True):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT, text=True,
                          capture_output=True, timeout=170)
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One ``--quick --trace`` pass over every workload: (stdout, summary, seconds)."""
    out = tmp_path_factory.mktemp("e2e") / "summary.json"
    started = time.monotonic()
    proc = run("--quick", "--trace", "--seed", "3", "--out", str(out))
    elapsed = time.monotonic() - started
    return proc.stdout, json.loads(out.read_text()), elapsed


def test_quick_finishes_and_names_every_metric(quick):
    stdout, summary, elapsed = quick
    assert elapsed < 30, f"--quick took {elapsed:.1f} s"
    layers = dict(summary["probes"])
    for name in WORKLOADS:
        (only,) = summary["workloads"][name]["runs"]
        assert only["failed"] == 0 and only["metrics"]["oracle_equal"] == 1, name
        missing = [m for m in (*END_TO_END, *REPORT_ONLY) if m not in only["metrics"]]
        assert not missing, (name, missing)
        assert all(only["metrics"][m] > 0 for m in END_TO_END), (name, only["metrics"])
        layers.update(only["per_layer"])
    assert "load_gen_lag_ms_p95" in summary["workloads"]["serve_closed"]["runs"][0]["metrics"]
    assert sorted(PER_LAYER) == sorted(layers)
    # Every printed metric line carries a known unit.
    rows = re.findall(r"^  (\S+)\s+\S+ (\S+)$", stdout, flags=re.M)
    assert len(rows) > len(WORKLOADS) * len(END_TO_END) + len(PER_LAYER)
    assert all(unit != "?" for _name, unit in rows), [r for r in rows if r[1] == "?"]


def test_driver_contract_line():
    for trace, group in (("0", END_TO_END), ("1", PER_LAYER)):
        result = last_json(run("--workload", "chain_queue", "--seed", "5",
                               "--seconds", "1", "--quick", "--trace", trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == group


def test_tampered_output_flips_oracle_and_exit_code():
    proc = run("--workload", "chain_queue", "--quick", "--trace", "0", "--tamper",
               check=False)
    assert proc.returncode == 1
    result = last_json(proc)
    assert result["correct"] is False and result["failed"] == 1
    assert re.search(r"oracle_equal\s+0 0/1", proc.stdout)


def test_lifecycle_spans_nest_and_sum_to_traced_wall():
    result = last_json(run("--workload", "chain_planned", "--quick", "--trace", "1"))
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    stages = ("engine.submit_s", "jobs.first_result_s", "jobs.stream_s",
              "jobs.wait_s", "engine.close_s")
    assert sum(layers[s] for s in stages) == pytest.approx(layers["trace.wall_s"], rel=0.02)
    with open(os.path.join(BENCH, "out", "trace.json"), encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    roots = [s for s in spans if s["name"] == "chain_planned.job"]
    assert roots
    for root in roots:
        children = [s for s in spans if s["parent"] == root["id"]]
        assert [c["name"] for c in children] == list(stages)
        assert all(c["run"] == root["run"] for c in children)
        assert all(root["start"] <= c["start"] <= c["end"] <= root["end"] for c in children)
        covered = sum(c["end"] - c["start"] for c in children)
        assert covered == pytest.approx(root["end"] - root["start"], rel=0.02)


def test_seed_changes_the_inputs_and_nothing_else():
    def facts(seed):
        proc = run("--workload", "stateful_hybrid", "--quick", "--trace", "0",
                   "--seed", str(seed))
        header = re.search(r"seed (\d+), (\d+) input tuples \(digest (\w+)\), "
                           r"(\d+) timed repeats", proc.stdout)
        return header.groups(), last_json(proc)["attempted"]

    (seed_a, tuples_a, digest_a, repeats_a), attempted_a = facts(11)
    (_s, tuples_b, digest_b, repeats_b), attempted_b = facts(12)
    (_s, _t, digest_again, _r), _a = facts(11)
    assert seed_a == "11"
    assert digest_a != digest_b and digest_a == digest_again
    assert (tuples_a, repeats_a, attempted_a) == (tuples_b, repeats_b, attempted_b)
