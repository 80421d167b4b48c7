"""The mapping options are exactly the keys the mappings read.

A mapping option is a key read from a run's options under
``src/repro/mappings`` (``options.get("…")``, ``options["…"]`` or
``options.pop("…")``).  Unknown keys pass through silently --
``mapping="auto"`` forwards every option to whichever mapping it picks --
so an option that stops being read must be refused by name
(:data:`repro.mappings.registry.REMOVED_OPTIONS`), and one that starts
being read lands here with its first caller.
"""

import re
from pathlib import Path

import repro.mappings
from repro.mappings.registry import REMOVED_OPTIONS

READ = re.compile(r'options\.(?:get|pop)\(\s*"(\w+)"|options\[\s*"(\w+)"\s*\]')

#: Every option a mapping reads.
OPTIONS = {
    "address",
    "batch_size",
    "checkpoint_interval",
    "crash_after",
    "crash_injector",
    "crash_workers",
    "fuse",
    "namespace",
    "net_server",
    "optimize",
    "redis_server",
    "start_method",
    "state_store",
    "strategy",
    "termination",
}


def read_keys():
    package = Path(repro.mappings.__file__).parent
    return {
        first or second
        for path in package.glob("*.py")
        for first, second in READ.findall(path.read_text(encoding="utf-8"))
    }


def test_mappings_read_exactly_the_listed_options():
    assert read_keys() == OPTIONS


def test_no_removed_option_is_read():
    assert read_keys() & REMOVED_OPTIONS.keys() == set()
    assert set(REMOVED_OPTIONS) == {
        "plan",
        "session_chunk",
        "initial_active",
        "scale_interval",
        "max_respawns",
        "reclaim_idle_ms",
        "join_timeout",
        "scheduler",
        "tenant",
        "priority",
    }
