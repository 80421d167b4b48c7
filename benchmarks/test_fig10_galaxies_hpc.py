"""Figure 10: Internal Extinction of Galaxies on HPC (64 cores).

The multiprocessing family only (no Redis on the HPC cluster), 4..64
processes, with the heavier 5X/10X workloads.  Asserts Section 5.2's HPC
findings: a quick runtime drop up to ~16 processes that then flattens, a
near-linear process-time growth for ``dyn_multi``, and a visibly flatter
slope for ``dyn_auto_multi`` ("strongly supports the effectiveness of
auto-scaling, especially when a large number of processes are involved").
"""


def test_fig10(run_experiment):
    grids = run_experiment("fig10")
    ten_x = grids["10X standard"]

    # Runtime drops to 16 processes, then flattens.  (The paper's drop
    # factor is larger; our thread substrate has a GIL floor per task --
    # see "Known deviations from the paper" in docs/benchmarks.md.)
    r4 = ten_x[("dyn_multi", 4)].runtime
    r16 = ten_x[("dyn_multi", 16)].runtime
    r64 = ten_x[("dyn_multi", 64)].runtime
    assert r16 < r4 * 0.9
    assert r64 < r4 * 1.4  # flattening: no strong regression at full width

    # Process time: dyn_multi grows steeply with processes (near-linear in
    # the paper); the auto-scaled variant stays clearly below it at scale.
    pt_growth_dyn = (
        ten_x[("dyn_multi", 64)].process_time / ten_x[("dyn_multi", 8)].process_time
    )
    assert pt_growth_dyn > 2.0

    # At 64 processes the auto-scaler must be the more efficient option.
    assert (
        ten_x[("dyn_auto_multi", 64)].process_time
        < ten_x[("dyn_multi", 64)].process_time
    )
