"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files, around the calls into
each layer's public functions; nothing under ``src/`` is instrumented.
One span is ``(id, name, run, parent, start, end)`` with times from
``time.perf_counter``; spans of one workload repeat (or one service job)
share a ``run`` identifier.  The recorder only appends to a list -- it is
kept in memory and written out once, when the benchmark ends.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Dict, List, Optional, Sequence


class SpanRecorder:
    """Append-only span list.  Appends are atomic, so threads may share one."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)

    def add(
        self, name: str, start: float, end: float, run: str,
        parent: Optional[int] = None,
    ) -> int:
        """Record a finished span from two timestamps; returns its id."""
        span_id = next(self._ids)
        self.spans.append({"id": span_id, "name": name, "run": run,
                           "parent": parent, "start": start, "end": end})
        return span_id

    def chain(
        self, names: Sequence[str], stamps: Sequence[float], run: str,
        root: str,
    ) -> int:
        """Record contiguous child spans under one root span.

        ``stamps`` holds ``len(names) + 1`` timestamps; child ``i`` covers
        ``stamps[i]..stamps[i + 1]``, so the children sum to the root by
        construction.  Returns the root's id.
        """
        if len(stamps) != len(names) + 1:
            raise ValueError("need one more timestamp than span names")
        root_id = self.add(root, stamps[0], stamps[-1], run)
        for name, start, end in zip(names, stamps, stamps[1:]):
            self.add(name, start, end, run, parent=root_id)
        return root_id

    def write(self, path: str) -> None:
        """Write every span as JSON (times relative to the earliest start)."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        rows = [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin}
            for s in self.spans
        ]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows}, handle)
