"""Table 3: hybrid_redis vs multi ratios on the sentiment workflow.

The paper reports all ratios below 1 on both platforms (0.32 runtime in
the best server case) -- "especially noteworthy, based on the observation
that the Redis mapping is overall slower than Multiprocessing with the
same settings".  We assert the sub-1 mean ratios; the absolute factor
depends on testbed scale (see "Known deviations from the paper" in
docs/benchmarks.md).
"""

from repro.metrics.ratios import summarize_ratios


def test_table3(run_experiment):
    grids = run_experiment("table3")
    grid = grids["400 articles"]

    summary = summarize_ratios(grid, "hybrid_redis", "multi")
    rt_mean, _ = summary.runtime_mean_std
    assert rt_mean < 1.0, rt_mean
    assert summary.by_runtime.runtime_ratio < 0.95
