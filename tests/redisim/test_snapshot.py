"""Tests for redisim's own substrate commands (SNAPSHOT/RESTORE, RPUSHSEQ,
BLMOVESEQ, XACKDECR) and the server-shutdown wakeup semantics."""

import threading
import time

import pytest

from repro.redisim import RedisClient, RedisServer
from repro.redisim.errors import ConnectionError as RedisConnectionError


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

    def test_moved_entries_decode(self, client):
        client.rpush_seq("q", ("data", "port", 1), ("data", "port", 2))
        assert client.blmove_seq("q", "log", timeout=0.1) == (1, ("data", "port", 1))
        assert client.blmove_seq("q", "log", timeout=0.1) == (2, ("data", "port", 2))

    def test_delete_resets_sequence(self, client):
        client.rpush_seq("q", "a")
        client.delete("q")
        assert client.rpush_seq("q", "b") == [1]


class TestBlmove:
    def test_moves_head_to_tail(self, server, client):
        client.rpush_seq("src", "a", "b")
        assert client.blmove_seq("src", "dst", timeout=0.1) == (1, "a")
        assert client.blmove_seq("dst", "src", timeout=0.1) == (1, "a")
        assert [seq for seq, _blob in server.lrange("src", 0, -1)] == [2, 1]

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

    def test_same_source_and_destination_rotates(self, client):
        client.rpush_seq("q", "a", "b")
        assert client.blmove_seq("q", "q", timeout=0.1) == (1, "a")
        assert client.blmove_seq("q", "q", timeout=0.1) == (2, "b")
        assert client.blmove_seq("q", "q", timeout=0.1) == (1, "a")

    def test_moves_one_entry_per_command(self, server, client):
        """The windowed ``COUNT`` form is gone: a call moves one pair."""
        client.rpush_seq("src", "a", "b")
        with pytest.raises(TypeError):
            server.blmove("src", "dst", timeout=0.01, count=2)
        with pytest.raises(TypeError):
            client.blmove_seq("src", "dst", timeout=0.01, count=2)
        assert server.llen("src") == 2 and server.exists("dst") == 0
        assert client.blmove_seq("src", "dst", timeout=0.1) == (1, "a")
        assert server.llen("src") == 1 and server.llen("dst") == 1


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
