"""Tests for the pipelined settle of one entry (children, credit, XACKDECR)."""

import pytest

from repro.mappings.redis_tasks import GROUP, RedisTaskBoard
from repro.redisim.client import RedisClient
from repro.redisim.server import RedisServer
from tests.conftest import settle_entry


@pytest.fixture
def board():
    server = RedisServer()
    board = RedisTaskBoard(RedisClient(server), namespace="fin")
    board.setup()
    return board


class TestFinish:
    def test_publishes_children_and_completes(self, board):
        client = board.client
        board.put_tasks([("root", None, 0)], 1)
        [(entry_id, _task)] = board.fetch("c", client)
        settle_entry(board, client, entry_id, [("child", "input", 1), ("child", "input", 2)])
        # parent completed, two children outstanding
        assert board.outstanding() == 2
        # parent acked: no pending entries for the consumer beyond children
        assert client.xpending(board.stream_key, GROUP)["pending"] == 0
        fetched = board.fetch("c", client, count=2)
        assert [t for _e, t in fetched] == [("child", "input", 1), ("child", "input", 2)]

    def test_no_children_drains(self, board):
        client = board.client
        board.put_tasks([("leaf", "input", 9)], 1)
        [(entry_id, _task)] = board.fetch("c", client)
        settle_entry(board, client, entry_id)
        assert board.is_drained()

    def test_atomicity_of_counter(self, board):
        """The counter never transiently hits zero while children exist:
        the settle books the children before decrementing the parent
        inside one pipeline."""
        client = board.client
        board.put_tasks([("root", None, 0)], 1)
        [(entry_id, _task)] = board.fetch("c", client)
        settle_entry(board, client, entry_id, [("child", "input", 1)])
        assert board.outstanding() == 1
        assert not board.is_drained()

    def test_chain_until_drained(self, board):
        client = board.client
        board.put_tasks([("pe", None, 0)], 1)
        depth = 0
        while True:
            fetched = board.fetch("c", client)
            if not fetched:
                break
            for entry_id, task in fetched:
                _pe, _port, value = task
                children = [("pe", "input", value + 1)] if value < 5 else []
                settle_entry(board, client, entry_id, children)
                depth = max(depth, value)
        assert depth == 5
        assert board.is_drained()
