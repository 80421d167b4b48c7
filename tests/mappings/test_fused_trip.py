"""The fused settle-and-fetch trip of :class:`StreamWorker`.

One pipeline settles a window of entries and reads the next, so a saturated
worker costs at most one round trip per entry (``tests/mappings/
test_window.py`` pins the windows wider than one).  These tests count
round trips (``client.ops``) and pending entries (``XPENDING``) on an
in-process keyspace -- structure, never wall-clock -- and pin who may read
ahead when.
"""

import pytest

from repro.mappings.redis_tasks import PILL
from tests.conftest import Double, linear_graph
from tests.mappings.test_reclaim import Boom, _pending, _workforce


def _wide(worker):
    """Pin ``worker``'s read-ahead at ``WINDOW_CAP``, whatever it measures.

    An infinite trip stays infinite under the running mean, so the sizing
    rule answers the cap from the first settle to the last.
    """
    worker._trip, worker._service = float("inf"), 0.0
    return worker


class TestRoundTripBudget:
    def test_backlog_costs_one_trip_per_entry(self):
        """N queued entries, one worker: N + a constant round trips (one
        fused trip each, then the starved tail), where settle-then-fetch
        needs 2N."""
        n = 40
        state, wf = _workforce(linear_graph(Double(name="double")), list(range(n)))
        wf.seed_roots()
        worker = wf.worker("solo")
        worker.run_dedicated(lambda: None)
        assert sorted(state.collector.as_dict()["double.output"]) == [2 * i for i in range(n)]
        assert state.counters.get("tasks") == n
        # 1 blocking fetch for the first entry, N fused trips, the empty
        # blocking polls of the retry budget and the termination read.
        assert worker.client.ops <= n + 8
        assert _pending(wf) == 0 and wf.board.is_drained()

    def test_batched_entries_fuse_the_same_way(self):
        state, wf = _workforce(
            linear_graph(Double(name="double")), list(range(64)), batch_size=8
        )
        wf.seed_roots()
        worker = wf.worker("solo")
        worker.run_dedicated(lambda: None)
        assert state.counters.get("tasks") == 64
        assert worker.client.ops <= 8 + 8  # 8 envelopes, not 64 tuples
        assert wf.board.is_drained()

    def test_seeding_is_pipelined_at_every_batch_size(self):
        """The unbatched path used to cost INCR + XADD per root."""
        _state, wf = _workforce(linear_graph(Double(name="double")), list(range(300)))
        before = wf.board.client.ops
        wf.seed_roots()
        # 300 roots x 2 commands in frames of 256 commands, + the GET.
        assert wf.board.client.ops - before == 3 + 1
        assert wf.board.outstanding() == 300
        entries = wf.board.client.xrange(wf.board.stream_key)
        assert [fields["task"] for _id, fields in entries] == [
            ("double", None, {"input": i}) for i in range(300)
        ]


class TestSessionsHoldNothing:
    @pytest.mark.parametrize("chunk", [1, 3, 8])
    def test_session_returns_with_empty_hands(self, chunk):
        """A session's worker is discarded on return, so the entry that
        reaches ``chunk`` must not read ahead."""
        _state, wf = _workforce(linear_graph(Double(name="double")), list(range(20)))
        wf.seed_roots()
        done = 0
        while done < 20:
            processed = wf.drain_session("auto-0", chunk)
            assert 1 <= processed <= chunk
            done += processed
            assert _pending(wf, wf.consumer_name("auto-0")) == 0
            assert wf.board.outstanding() == 20 - done
        assert wf.board.is_drained()

    def test_envelopes_overshoot_by_at_most_one_fetch(self):
        _state, wf = _workforce(
            linear_graph(Double(name="double")), list(range(40)), batch_size=4
        )
        wf.seed_roots()
        assert wf.drain_session("auto-0", 6) == 8  # two envelopes, never three
        assert _pending(wf) == 0 and wf.board.outstanding() == 32

    def test_session_round_trips(self):
        """k entries in k fused trips + the opening blocking fetch."""
        _state, wf = _workforce(linear_graph(Double(name="double")), list(range(20)))
        wf.seed_roots()
        worker = wf.worker("auto-0")
        assert worker.run_session(8) == 8
        assert worker.client.ops == 1 + 8


class TestWhoMayReadAhead:
    def test_pe_exception_settles_and_prefetches_nothing(self):
        _state, wf = _workforce(linear_graph(Boom(name="boom")), ["boom", "later"])
        wf.seed_roots()
        worker = wf.worker("solo")
        with pytest.raises(ValueError):
            worker.run_dedicated(lambda: None)
        assert _pending(wf) == 0  # the failing entry is settled, the next untouched
        assert wf.board.outstanding() == 1 and wf.board.backlog() == 1

    def test_prefetched_pill_is_acked_and_ends_the_worker(self):
        """Pills behind the last task ride back on a read-ahead.

        Re-pinned for windows: the read-ahead is ``COUNT w`` now, so it
        brings *both* pills where ``COUNT 1`` brought one.  The properties
        are the old ones -- the worker ends on a pill it acked, and the
        peer's pill survives for the peer to end on -- but the peer's is
        now one the first worker published again behind its ack, in the
        same trip.
        """
        state, wf = _workforce(linear_graph(Double(name="double")), [1, 2])
        wf.seed_roots()
        wf.board.put_pills(2)  # one for this worker, one for a peer
        worker = _wide(wf.worker("first"))
        fetched_pills = []
        consume = worker.consume

        def spy(fetched, *args, **kwargs):
            fetched_pills.extend(p for _id, p in fetched if p is PILL)
            return consume(fetched, *args, **kwargs)

        worker.consume = spy
        worker.run_dedicated(lambda: pytest.fail("a pilled worker must not broadcast"))
        assert fetched_pills == [PILL, PILL]
        # 1 opening fetch + 2 window trips: the first brought the second
        # task and both pills, the second settled all three.
        assert worker.client.ops == 3
        assert _pending(wf) == 0 and wf.board.is_drained()
        assert wf.board.backlog() == 1  # the peer's pill is there again

        wf.worker("peer").run_dedicated(lambda: pytest.fail("pilled too"))
        assert wf.board.backlog() == 0 and _pending(wf) == 0
        assert sorted(state.collector.as_dict()["double.output"]) == [2, 4]

    def test_after_fetch_counts_prefetched_entries(self):
        """``crash_after`` fires on the n-th fetched entry however it was
        fetched -- with that entry in the PEL and un-acked.

        Re-pinned for windows: a read-ahead of ``COUNT w`` hands all four
        remaining entries to one ``after_fetch`` call, so the crash finds
        four entries fetched, pending and un-acked where it found one.
        """
        _state, wf = _workforce(linear_graph(Double(name="double")), list(range(5)))
        wf.seed_roots()
        worker = _wide(wf.worker("doomed"))
        seen = []

        class Killed(Exception):
            pass

        def after_fetch(entries):
            seen.append(entries)
            if sum(seen) > 2:
                raise Killed

        worker.after_fetch = after_fetch
        with pytest.raises(Killed):
            worker.run_dedicated(lambda: None)
        assert seen == [1, 4]  # every entry counted before any of its fetch ran
        assert _pending(wf, wf.consumer_name("doomed")) == 4
        assert wf.board.outstanding() == 4  # one settled, the window still owed

    def test_stop_is_observed_between_two_entries(self):
        """``run_until`` checks ``stop()`` before every entry, read ahead or not.

        Re-pinned for windows: the worker's hands now hold a whole window
        (entries 2..9) when ``stop()`` turns true, so this pins that the
        check sits between two entries *of a window*, not between windows.
        """
        state, wf = _workforce(linear_graph(Double(name="double")), list(range(10)))
        wf.seed_roots()
        worker = _wide(wf.worker("stoppable"))
        # Progress is read off the results: ``tasks`` is counted once per window.
        def ran():
            return len(state.collector.as_dict().get("double.output", ()))

        worker.run_until(lambda: ran() >= 3)
        assert ran() == 3 and state.counters.get("tasks") == 3
        # What ran is settled; the window's unstarted tail stays pending.
        assert wf.board.outstanding() == 7
        assert _pending(wf, wf.consumer_name("stoppable")) == 6
