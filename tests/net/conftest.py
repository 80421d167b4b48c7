"""Every test must leave no RESP or socket-server thread behind."""

import pytest

from tests.conftest import no_leaked_threads


@pytest.fixture(autouse=True)
def _no_leaked_server_threads():
    """No ``resp-*`` or ``sock-*`` accept or connection thread outlives a test."""
    yield from no_leaked_threads("resp-", "sock-")
