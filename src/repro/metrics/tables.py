"""ASCII rendering of result tables and figure series.

The benchmark harness prints, for every reproduced table and figure, the
same rows/series the paper reports: per-process-count runtime and process
time per mapping (figures), and prioritized ratio rows (tables).
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Tuple

from repro.metrics.ratios import RatioSummary
from repro.metrics.result import RunResult


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Minimal fixed-width table renderer."""
    rendered_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rendered_rows)
    return "\n".join(lines)


def render_series(
    title: str,
    grid: Mapping[Tuple[str, int], RunResult],
    mappings: Sequence[str],
    processes: Sequence[int],
) -> str:
    """Figure-style series: one row per process count, runtime & process time.

    Matches the paper's figure layout: left block = runtime (s), right
    block = total process time (s), one series (column) per mapping.
    """
    headers = ["procs"]
    headers += [f"rt:{m}" for m in mappings]
    headers += [f"pt:{m}" for m in mappings]
    rows: List[List[str]] = []
    for p in processes:
        row: List[str] = [str(p)]
        for metric in ("runtime", "process_time"):
            for m in mappings:
                result = grid.get((m, p))
                if result is None:
                    row.append("-")
                else:
                    row.append(f"{getattr(result, metric):.3f}")
        rows.append(row)
    return f"== {title} ==\n" + render_table(headers, rows)


def render_ratio_table(title: str, summaries: Mapping[str, RatioSummary]) -> str:
    """Table 1-3 style block: prioritized rows + [mean, std] per comparison.

    Parameters
    ----------
    summaries:
        Label (e.g. platform name) -> :class:`RatioSummary`.
    """
    headers = [
        "label",
        "A/B",
        "prioritized by",
        "runtime ratio",
        "process time ratio",
    ]
    rows: List[List[str]] = []
    for label, summary in summaries.items():
        pair = f"{summary.numerator}/{summary.denominator}"
        by_rt = summary.by_runtime
        by_pt = summary.by_process_time
        rt_mean, rt_std = summary.runtime_mean_std
        pt_mean, pt_std = summary.process_time_mean_std
        rows.append(
            [label, pair, "runtime", f"{by_rt.runtime_ratio:.2f}", f"{by_rt.process_time_ratio:.2f}"]
        )
        rows.append(
            [label, pair, "process time", f"{by_pt.runtime_ratio:.2f}", f"{by_pt.process_time_ratio:.2f}"]
        )
        rows.append(
            [
                label,
                pair,
                "[mean, std]",
                f"[{rt_mean:.2f}, {rt_std:.2f}]",
                f"[{pt_mean:.2f}, {pt_std:.2f}]",
            ]
        )
    return f"== {title} ==\n" + render_table(headers, rows)


def render_trace(title: str, trace, max_points: int = 20) -> str:
    """Figure 13 style series: iteration, active size, monitored metric."""
    iterations, active, metric = trace.series(changes_only=True)
    if len(iterations) > max_points:
        step = max(1, len(iterations) // max_points)
        iterations = iterations[::step]
        active = active[::step]
        metric = metric[::step]
    rows = [
        [str(i), str(a), f"{m:.1f}"]
        for i, a, m in zip(iterations, active, metric)
    ]
    headers = ["iteration", "active processes", trace.metric_name]
    return f"== {title} ==\n" + render_table(headers, rows)
