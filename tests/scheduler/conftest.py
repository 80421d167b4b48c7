"""Scheduler-suite fixtures: every test must leave no job-path thread behind."""

import pytest

from tests.conftest import no_leaked_threads


@pytest.fixture(autouse=True)
def _no_leaked_job_threads():
    """No driver, dispatcher, service, feeder or warm-pool thread -- ``job-*``,
    ``sched-*``, ``feed-*`` or ``*-warm*`` -- outlives a test."""
    yield from no_leaked_threads("job-", "sched-", "feed-", contains=("-warm",))
