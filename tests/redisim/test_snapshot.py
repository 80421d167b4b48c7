"""Tests for the recovery-oriented substrate commands (SNAPSHOT/RESTORE,
RPUSHSEQ, BLMOVE, LTRIM) and the server-shutdown wakeup semantics."""

import threading
import time

import pytest

from repro.redisim import RedisClient, RedisServer
from repro.redisim.errors import ConnectionError as RedisConnectionError
from repro.redisim.errors import RedisError


@pytest.fixture
def server():
    return RedisServer()


@pytest.fixture
def client(server):
    return RedisClient(server)


class TestSnapshotRestore:
    def test_restore_missing_returns_none(self, client):
        assert client.restore("snaps", "pe.0") is None

    def test_round_trip(self, client):
        state = {"counts": {"a": 3}, "last": ("a", 3)}
        assert client.snapshot("snaps", "pe.0", 7, state)
        assert client.restore("snaps", "pe.0") == (7, state)

    def test_round_trip_isolates_payload(self, client):
        state = {"counts": {"a": 3}}
        client.snapshot("snaps", "pe.0", 1, state)
        state["counts"]["a"] = 99  # writer keeps mutating after the save
        _seq, restored = client.restore("snaps", "pe.0")
        assert restored == {"counts": {"a": 3}}

    def test_snapshots_are_per_instance(self, client):
        client.snapshot("snaps", "pe.0", 1, "zero")
        client.snapshot("snaps", "pe.1", 2, "one")
        assert client.restore("snaps", "pe.0") == (1, "zero")
        assert client.restore("snaps", "pe.1") == (2, "one")

    def test_stale_write_rejected(self, client):
        """A presumed-dead worker flushing an old checkpoint after its
        instance advanced elsewhere must not clobber the newer state."""
        assert client.snapshot("snaps", "pe.0", 10, "new")
        assert not client.snapshot("snaps", "pe.0", 4, "stale")
        assert client.restore("snaps", "pe.0") == (10, "new")

    def test_equal_seq_overwrites(self, client):
        client.snapshot("snaps", "pe.0", 5, "first")
        assert client.snapshot("snaps", "pe.0", 5, "second")
        assert client.restore("snaps", "pe.0") == (5, "second")


class TestRpushSeq:
    def test_assigns_monotonic_sequences(self, client):
        assert client.rpush_seq("q", "a", "b") == [1, 2]
        assert client.rpush_seq("q", "c") == [3]

    def test_sequence_survives_emptying(self, client):
        """The replay cursor must not restart after the list drains."""
        client.rpush_seq("q", "a")
        client.blmove_seq("q", "pending", timeout=0.1)
        assert client.rpush_seq("q", "b") == [2]

    def test_lrange_seq_decodes(self, client):
        client.rpush_seq("q", ("data", "port", 1), ("data", "port", 2))
        assert client.lrange_seq("q") == [
            (1, ("data", "port", 1)),
            (2, ("data", "port", 2)),
        ]

    def test_delete_resets_sequence(self, client):
        client.rpush_seq("q", "a")
        client.delete("q")
        assert client.rpush_seq("q", "b") == [1]


class TestBlmove:
    def test_moves_head_to_tail(self, client):
        client.rpush_seq("src", "a", "b")
        assert client.blmove_seq("src", "dst", timeout=0.1) == (1, "a")
        assert client.lrange_seq("dst") == [(1, "a")]
        assert client.lrange_seq("src") == [(2, "b")]

    def test_timeout_returns_none(self, client):
        assert client.blmove_seq("src", "dst", timeout=0.01) is None

    def test_wakes_on_push(self, server, client):
        results = []

        def consumer():
            results.append(client.blmove_seq("src", "dst", timeout=2.0))

        thread = threading.Thread(target=consumer, daemon=True)
        thread.start()
        time.sleep(0.05)
        RedisClient(server).rpush_seq("src", "hello")
        thread.join(timeout=2.0)
        assert results == [(1, "hello")]


class TestBlmoveCount:
    """``BLMOVESEQ ... COUNT n``: a window of entries enters the log at once."""

    def test_moves_up_to_count_in_order(self, server, client):
        client.rpush_seq("src", "a", "b", "c")
        assert client.blmove_seq("src", "dst", timeout=0.1, count=2) == [(1, "a"), (2, "b")]
        assert client.blmove_seq("src", "dst", timeout=0.1, count=9) == [(3, "c")]
        assert client.lrange_seq("dst") == [(1, "a"), (2, "b"), (3, "c")]
        assert server.exists("src") == 0
        # One command per window, however many entries it moved.
        assert server.command_count["blmove"] == 2

    def test_timeout_returns_none(self, client):
        assert client.blmove_seq("src", "dst", timeout=0.01, count=4) is None

    def test_wakes_on_push_and_takes_what_queued(self, server, client):
        results = []

        def consumer():
            results.append(client.blmove_seq("src", "dst", timeout=2.0, count=8))

        thread = threading.Thread(target=consumer, daemon=True)
        thread.start()
        time.sleep(0.05)
        RedisClient(server).rpush_seq("src", "x", "y")
        thread.join(timeout=2.0)
        assert results == [[(1, "x"), (2, "y")]]

    def test_same_source_and_destination_rotates(self, client):
        client.rpush_seq("q", "a", "b")
        assert client.blmove_seq("q", "q", timeout=0.1, count=2) == [(1, "a"), (2, "b")]
        assert client.lrange_seq("q") == [(1, "a"), (2, "b")]

    @pytest.mark.parametrize("count", [-1, 0, "2", 1.0, True])
    def test_hostile_count_moves_nothing(self, server, count):
        server.rpushseq("src", "a", "b")
        with pytest.raises(RedisError):
            server.blmove("src", "dst", timeout=0.01, count=count)
        assert server.llen("src") == 2
        assert server.exists("dst") == 0


class TestLtrim:
    def test_trims_prefix(self, client):
        client.rpush("q", "a", "b", "c", "d")
        client.ltrim("q", 2, -1)
        assert client.lrange("q", 0, -1) == ["c", "d"]

    def test_trim_to_empty_removes_key(self, server, client):
        client.rpush("q", "a")
        client.ltrim("q", 1, -1)
        assert server.exists("q") == 0

    def test_missing_key_ok(self, client):
        assert client.ltrim("missing", 0, -1)

    def test_inclusive_range(self, client):
        client.rpush("q", "a", "b", "c", "d")
        client.ltrim("q", 1, 2)
        assert client.lrange("q", 0, -1) == ["b", "c"]


class TestXackDecr:
    """XACK + conditional DECR as one atomic step (the reclaim-race guard)."""

    def _setup_entry(self, client):
        client.xgroup_create("s", "g", id="0", mkstream=True)
        client.set("outstanding", 1)
        entry_id = client.xadd("s", {"task": "t"})
        client.xreadgroup("g", "c0", {"s": ">"})  # deliver into the PEL
        return entry_id

    def test_acked_entry_decrements(self, client):
        entry_id = self._setup_entry(client)
        assert client.xack_decr("s", "g", entry_id, "outstanding") == 1
        assert client.get("outstanding") == 0

    def test_already_acked_entry_does_not_decrement(self, client):
        entry_id = self._setup_entry(client)
        client.xack_decr("s", "g", entry_id, "outstanding")
        assert client.xack_decr("s", "g", entry_id, "outstanding") == 0
        assert client.get("outstanding") == 0  # never goes negative

    def test_usable_in_pipeline(self, client):
        entry_id = self._setup_entry(client)
        pipe = client.pipeline()
        pipe.xack_decr("s", "g", entry_id, "outstanding")
        assert pipe.execute() == [1]
        assert client.get("outstanding") == 0


class TestServerShutdown:
    """Satellite bugfix: readers blocked with ``timeout=None`` must be woken
    with ConnectionError on server close, not hang forever."""

    @pytest.mark.parametrize("timeout", [None, 30.0])
    def test_blpop_woken_on_close(self, server, client, timeout):
        errors = []

        def reader():
            try:
                client.blpop("nothing", timeout=timeout)
            except RedisConnectionError as exc:
                errors.append(exc)

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        time.sleep(0.05)
        server.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert len(errors) == 1

    def test_blmove_woken_on_close(self, server, client):
        errors = []

        def reader():
            try:
                client.blmove_seq("nothing", "dst", timeout=None)
            except RedisConnectionError as exc:
                errors.append(exc)

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        time.sleep(0.05)
        server.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert len(errors) == 1

    def test_blocking_xread_woken_on_close(self, server, client):
        errors = []

        def reader():
            try:
                client.xread({"stream": "$"}, block=30_000)
            except RedisConnectionError as exc:
                errors.append(exc)

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        time.sleep(0.05)
        server.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert len(errors) == 1

    def test_blocking_xreadgroup_woken_on_close(self, server, client):
        client.xgroup_create("stream", "grp", id="0", mkstream=True)
        errors = []

        def reader():
            try:
                client.xreadgroup("grp", "c0", {"stream": ">"}, block=30_000)
            except RedisConnectionError as exc:
                errors.append(exc)

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        time.sleep(0.05)
        server.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert len(errors) == 1

    def test_commands_after_close_fail(self, server, client):
        server.close()
        with pytest.raises(RedisConnectionError):
            client.set("k", 1)
        with pytest.raises(RedisConnectionError):
            client.blpop("q", timeout=0.01)

    def test_close_idempotent(self, server):
        server.close()
        server.close()
        assert server.closed
