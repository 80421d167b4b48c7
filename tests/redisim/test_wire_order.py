"""Entry IDs whose wire forms sort wrongly as strings, on both layers.

The keyspace names an entry by its wire ID (formatted once, at ``XADD``)
and keys the PEL by it, so every answer that has an order -- the PEL
replay and its paging cursor, ``XPENDING``'s min/max -- must
sort by the ID, not by the string: ``"10-0" < "9-5"`` as text.  The
completion count (``XACKDECR``) must stay exactly-once whichever way an
ID is spelled.  Every test runs in process and over RESP/TCP.
"""

import pytest

pytestmark = pytest.mark.network

#: Stream order; as strings they sort "10-0" < "100-2" < "11-0" < "9-5".
IDS = ["9-5", "10-0", "11-0", "100-2"]


@pytest.fixture
def delivered(layer):
    """``IDS`` added to stream ``s`` and delivered to consumer ``c1`` of ``g``."""
    keyspace, connect = layer
    client = connect()
    for n, entry_id in enumerate(IDS):
        assert client.xadd("s", {"n": n}, id=entry_id) == entry_id
    client.xgroup_create("s", "g", id="0")
    [(_key, entries)] = client.xreadgroup("g", "c1", {"s": ">"}, count=10)
    assert [entry_id for entry_id, _fields in entries] == IDS
    return keyspace, client


def test_pending_replay_is_in_stream_order(delivered):
    _keyspace, client = delivered
    [(_key, entries)] = client.xreadgroup("g", "c1", {"s": "0"})
    assert [entry_id for entry_id, _fields in entries] == IDS
    [(_key, entries)] = client.xreadgroup("g", "c1", {"s": "9-5"}, count=2)
    assert [entry_id for entry_id, _fields in entries] == ["10-0", "11-0"]


def test_xpending_min_and_max_are_by_id(delivered):
    _keyspace, client = delivered
    summary = client.xpending("s", "g")
    assert (summary["pending"], summary["min"], summary["max"]) == (4, "9-5", "100-2")


def test_an_adopter_pages_a_named_pel_in_stream_order(delivered):
    """The adopter of ``c1`` reads ``c1``'s PEL as ``c1``, two at a time,
    each page starting past the last ID of the one before."""
    _keyspace, client = delivered
    pages, cursor = [], "0"
    while True:
        [(_key, page)] = client.xreadgroup("g", "c1", {"s": cursor}, count=2)
        if not page:
            break
        pages.append([entry_id for entry_id, _fields in page])
        cursor = page[-1][0]
    assert pages == [["9-5", "10-0"], ["11-0", "100-2"]]
    # An acked entry leaves the page; the rest keep their order.
    assert client.xack("s", "g", "10-0") == 1
    [(_key, entries)] = client.xreadgroup("g", "c1", {"s": "0"}, count=2)
    assert [entry_id for entry_id, _fields in entries] == ["9-5", "11-0"]


def test_xackdecr_releases_each_entry_once(delivered):
    _keyspace, client = delivered
    client.set("left", 10)
    # "10-0" twice in one call, then the same call again: each acks once.
    assert client.xack_decr("s", "g", "10-0", "left", 3, "9-5", 2, "10-0", 5) == 2
    assert int(client.get("left")) == 5
    assert client.xack_decr("s", "g", "10-0", "left", 3, "9-5", 2) == 0
    assert int(client.get("left")) == 5
    summary = client.xpending("s", "g")
    assert (summary["pending"], summary["min"], summary["max"]) == (2, "11-0", "100-2")


def test_another_spelling_of_a_pending_id_acks_it_once(delivered):
    _keyspace, client = delivered
    client.set("left", 4)
    # "11" is 11-0 (a missing sequence is 0), "0100-2" is 100-2.
    assert client.xack_decr("s", "g", "11", "left", 1, "0100-2", 1) == 2
    assert client.xack_decr("s", "g", "11-0", "left", 1, "100-2", 1) == 0
    assert int(client.get("left")) == 2
    assert client.xack("s", "g", "9-5", "10-0", "9-5") == 2
    assert client.xpending("s", "g")["pending"] == 0
