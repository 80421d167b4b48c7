"""Scheduler-suite fixtures: every test must leave no job-path thread behind."""

import threading
import time

import pytest


def _job_path_threads():
    """Driver, dispatcher, service, feeder and warm-pool threads alive now."""
    return {
        t
        for t in threading.enumerate()
        if t.name.startswith(("job-", "sched-", "feed-")) or "-warm" in t.name
    }


@pytest.fixture(autouse=True)
def _no_leaked_job_threads():
    """No ``job-*``, ``sched-*``, ``feed-*`` or ``*-warm`` thread outlives a test.

    Threads unwind asynchronously after ``close()`` (a handler ends when
    its socket reads EOF), so the check polls up to a bounded grace.
    """
    before = _job_path_threads()
    yield
    end = time.monotonic() + 5.0
    while True:
        leaked = _job_path_threads() - before
        if not leaked or time.monotonic() >= end:
            break
        time.sleep(0.01)
    assert not leaked, f"leaked threads: {sorted(t.name for t in leaked)}"
