#!/usr/bin/env python
"""Outputs and non-volatile counters of a grid of one-shot runs, as JSON.

A change that must not alter behaviour is checked by dumping the grid in
two checkouts and comparing the files::

    python scripts/parity.py --out parent.json     # run in the parent checkout
    python scripts/parity.py --out change.json     # run in the change
    python scripts/parity.py --compare parent.json change.json

The grid is the six catalog workflows (at small sizes) x the seven
in-process registry names x {plain, batch_size=8, fuse=True,
optimize=True, checkpoint_interval=5, crash} x {``Engine.run``,
``Mapping.execute``}, plus ``cluster_redis`` on the two stateless
workflows.  The ``crash`` variant is ``checkpoint_interval=5`` plus a
fresh one-shot :class:`~repro.state.CrashInjector` that kills the first
pinned instance (the first stateful PE in topological order, instance 0)
at its first invocation, before anything it ran was dispatched, so the
recovered run's outputs are the uncrashed run's.  Each
cell records its outputs -- per results key, the multiset of canonical
``repr`` strings of ``e2e_bench/oracle.py`` -- and every counter outside
:data:`VOLATILE`; a cell that raises records the exception's type instead
(``refused`` for a :class:`~repro.core.exceptions.MappingError`, ``error``
otherwise).  ``--workflow`` / ``--mapping`` / ``--variant`` / ``--entry``
(each repeatable) restrict the grid.  ``--compare`` prints every differing
or missing cell and exits 1 if there is one.

The script imports ``repro`` from ``src/`` of the checkout it lives in, so
a copy dropped into another checkout checks that checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "e2e_bench")]
# ``repro`` itself is imported where cells run: ``--compare`` needs none of it.

from oracle import canonical  # noqa: E402

#: Counters that differ between two runs of one cell on one commit: they
#: tally scaler rounds, activations, idle wake-ups and settle trips, not work.
#: ``checkpoints`` too: a pinned instance also checkpoints whenever its queue
#: read times out with work uncommitted, so the count follows arrival timing
#: (3 or 4 on one ``seismic2`` cell, run to run).  ``queue_puts`` too: a
#: batched ``multi`` worker flushes its partial envelopes whenever its input
#: queue runs dry, so the envelope count follows arrival timing.  ``tasks``
#: and ``private_puts`` still count work and stay compared.
VOLATILE = frozenset({
    "checkpoints", "empty_polls", "graph_copies", "max_active", "queue_puts",
    "scale_iterations", "settle_trips", "settles_in_flight",
})

#: Counters of the ``crash`` variant that follow timing: how much of the
#: dead instance's window reached its PEL (``replayed``, ``stateful_tasks``)
#: and whether a checkpoint landed first (``restores``, ``deduplicated``).
CRASH_VOLATILE = VOLATILE | {"deduplicated", "replayed", "restores", "stateful_tasks"}

#: Catalog workflow -> the parameters that keep a cell small.
WORKFLOWS: Dict[str, Dict[str, Any]] = {
    "galaxy": {},
    "seismic": {"stations": 4},
    "seismic2": {"stations": 4},
    "sentiment": {"articles": 20},
    "sentiment-recoverable": {"articles": 20},
    "sentiment-scoring": {"articles": 40},
}

#: The workflows ``cluster_redis`` also runs (it is stateless-only, and
#: each run starts worker processes).
CLUSTER_WORKFLOWS = ("galaxy", "sentiment-scoring")

VARIANTS: Dict[str, Dict[str, Any]] = {
    "plain": {},
    "batch8": {"batch_size": 8},
    "fuse": {"fuse": True},
    "optimize": {"optimize": True},
    # The recoverable pinned path; every mapping without stateful
    # checkpointing refuses it.
    "checkpoint": {"checkpoint_interval": 5},
    # The same, with the first pinned instance killed once (see run_cell).
    "crash": {"checkpoint_interval": 5},
}

ENTRIES = ("run", "execute")
#: ``multi``'s floor on sentiment (one process per PE instance), so every
#: workflow clears every floor and only capability refusals remain.
PROCESSES = 14
TIME_SCALE = 1e-4
SEED = 0


def grid() -> Iterator[Tuple[str, str, str, str]]:
    """Every ``(workflow, mapping, variant, entry)`` cell, in a fixed order."""
    from repro.mappings import capability_table

    names = [name for name, _caps in capability_table()]
    for workflow in WORKFLOWS:
        for mapping in names:
            if mapping == "cluster_redis" and workflow not in CLUSTER_WORKFLOWS:
                continue
            for variant in VARIANTS:
                for entry in ENTRIES:
                    yield workflow, mapping, variant, entry


def run_cell(
    workflow: str, mapping: str, variant: str, entry: str, out_dir: str
) -> Dict[str, Any]:
    """Enact one cell and reduce it to what must not change.

    PEs that write files (an ``out_dir`` attribute, seismic's
    ``writeOutput``) write under ``out_dir``, and that path is masked in
    the outputs, so two checkouts' cells compare equal.
    """
    from repro import Engine
    from repro.core.exceptions import MappingError
    from repro.core.pe import reset_auto_names
    from repro.mappings import get_mapping
    from repro.scheduler.catalog import build_named_workflow
    from repro.state import CrashInjector

    reset_auto_names()  # PE auto-names key the outputs: same names in any order
    graph, inputs = build_named_workflow(workflow, **WORKFLOWS[workflow])
    for pe in graph.pes.values():
        if hasattr(pe, "out_dir"):
            pe.out_dir = out_dir
    options = dict(VARIANTS[variant])
    stateful = {pe.name for pe in graph.stateful_pes()}
    pinned = [name for name in graph.topological_order() if name in stateful]
    if variant == "crash" and pinned:
        options["crash_injector"] = CrashInjector({f"{pinned[0]}.0": 1})
    volatile = CRASH_VOLATILE if variant == "crash" else VOLATILE
    settings = dict(processes=PROCESSES, time_scale=TIME_SCALE, seed=SEED)
    try:
        if entry == "run":
            with Engine(mapping=mapping, **settings, **options) as engine:
                result = engine.run(graph, inputs=inputs)
        else:
            result = get_mapping(mapping).execute(graph, inputs, **settings, **options)
    except MappingError as exc:
        return {"refused": type(exc).__name__}
    except Exception as exc:  # noqa: BLE001 - a failing cell is a reading
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "outputs": {
            key: {
                value.replace(out_dir, "<out_dir>"): count
                for value, count in sorted(counter.items())
            }
            for key, counter in sorted(canonical(result.outputs).items())
        },
        "counters": {
            name: value
            for name, value in sorted(result.counters.items())
            if name not in volatile
        },
    }


def dump(selected: Dict[str, Optional[List[str]]]) -> Dict[str, Any]:
    cells: Dict[str, Any] = {}
    with tempfile.TemporaryDirectory(prefix="parity-") as out_dir:
        for cell in grid():
            if any(want and value not in want for value, want in zip(cell, selected.values())):
                continue
            key = "|".join(cell)
            cells[key] = run_cell(*cell, out_dir)
            print(key, next(iter(cells[key])), file=sys.stderr, flush=True)
    return cells


def compare(a_path: str, b_path: str) -> int:
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    differ = [key for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]
    for key in differ:
        print(f"DIFF {key}\n  A: {json.dumps(a.get(key))[:400]}\n  B: {json.dumps(b.get(key))[:400]}")
    kinds = {
        kind: sum(1 for key in set(a) & set(b) if kind in a[key] and a[key] == b[key])
        for kind in ("outputs", "refused", "error")
    }
    print(
        f"{len(set(a) | set(b))} cells: {len(differ)} differ; equal: "
        f"{kinds['outputs']} ran, {kinds['refused']} refused, {kinds['error']} failed"
    )
    return 1 if differ else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--out", help="write the grid here (default: stdout)")
    parser.add_argument("--workflow", action="append", choices=list(WORKFLOWS))
    parser.add_argument("--mapping", action="append")
    parser.add_argument("--variant", action="append", choices=list(VARIANTS))
    parser.add_argument("--entry", action="append", choices=list(ENTRIES))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    cells = dump({
        "workflow": args.workflow, "mapping": args.mapping,
        "variant": args.variant, "entry": args.entry,
    })
    text = json.dumps(cells, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
