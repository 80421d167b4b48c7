"""Tests for RedisServer strings, lists and hashes."""

import threading

import pytest

from repro.redisim.errors import RedisError, WrongTypeError
from repro.redisim.server import RedisServer


@pytest.fixture
def server():
    return RedisServer()


class TestStrings:
    def test_set_get(self, server):
        server.set("k", "v")
        assert server.get("k") == "v"

    def test_get_missing_is_none(self, server):
        assert server.get("nope") is None

    def test_incrby_from_missing(self, server):
        assert server.incrby("counter") == 1
        assert server.incrby("counter", 5) == 6

    def test_decrby(self, server):
        server.set("c", 10)
        assert server.decrby("c", 3) == 7

    def test_incr_non_integer_raises(self, server):
        server.set("k", "abc")
        with pytest.raises(RedisError):
            server.incrby("k")

    def test_wrongtype_on_list_key(self, server):
        server.rpush("l", 1)
        with pytest.raises(WrongTypeError):
            server.get("l")


class TestGenericOps:
    def test_delete_returns_count(self, server):
        server.set("a", 1)
        server.set("b", 2)
        assert server.delete("a", "b", "missing") == 2

    def test_exists(self, server):
        server.set("a", 1)
        assert server.exists("a", "b") == 1

    def test_keys_pattern(self, server):
        server.set("task:1", 1)
        server.set("task:2", 2)
        server.set("other", 3)
        assert sorted(server.keys("task:*")) == ["task:1", "task:2"]


class TestLists:
    def test_rpush_lpop_fifo(self, server):
        server.rpush("q", "a", "b", "c")
        assert server.lpop("q") == "a"
        assert server.lpop("q") == "b"

    def test_pop_empty_is_none(self, server):
        assert server.lpop("missing") is None

    def test_lpop_with_a_count_pops_up_to_that_many(self, server):
        """``LPOP key count`` (Redis >= 6.2): a list, nil for a missing key."""
        server.rpush("q", "a", "b", "c")
        assert server.lpop("q", 2) == ["a", "b"]
        assert server.lpop("q", 0) == []
        assert server.lpop("q", 9) == ["c"]
        assert server.exists("q") == 0
        assert server.lpop("q", 9) is None

    @pytest.mark.parametrize("count", [-1, "2", 1.0, True])
    def test_lpop_with_a_hostile_count_pops_nothing(self, server, count):
        server.rpush("q", "a", "b")
        with pytest.raises(RedisError):
            server.lpop("q", count)
        assert server.llen("q") == 2

    def test_empty_list_key_removed(self, server):
        server.rpush("q", "only")
        server.lpop("q")
        assert server.exists("q") == 0

    def test_llen(self, server):
        assert server.llen("q") == 0
        server.rpush("q", 1, 2)
        assert server.llen("q") == 2

    def test_lrange_inclusive(self, server):
        server.rpush("q", *range(5))
        assert server.lrange("q", 1, 3) == [1, 2, 3]

    def test_lrange_minus_one_means_end(self, server):
        server.rpush("q", *range(4))
        assert server.lrange("q", 0, -1) == [0, 1, 2, 3]


class TestBlpop:
    def test_immediate(self, server):
        server.rpush("q", "x")
        assert server.blpop(["q"], timeout=0.1) == ("q", "x")

    def test_timeout_none_result(self, server):
        assert server.blpop(["q"], timeout=0.02) is None

    def test_multiple_keys_priority(self, server):
        server.rpush("b", "bee")
        assert server.blpop(["a", "b"], timeout=0.1) == ("b", "bee")

    def test_wakeup_on_push(self, server):
        got = []

        def consumer():
            got.append(server.blpop(["q"], timeout=2.0))

        t = threading.Thread(target=consumer)
        t.start()
        server.rpush("q", "late")
        t.join(timeout=3)
        assert got == [("q", "late")]


class TestHashes:
    def test_hgetall(self, server):
        server.hincrby("h", "a", 1)
        server.hincrby("h", "b", 2)
        assert server.hgetall("h") == {"a": 1, "b": 2}

    def test_hdel(self, server):
        server.hincrby("h", "a", 1)
        assert server.hdel("h", "a", "ghost") == 1
        assert server.exists("h") == 0  # empty hash removed

    def test_hincrby(self, server):
        assert server.hincrby("h", "n", 3) == 3
        assert server.hincrby("h", "n", -1) == 2
