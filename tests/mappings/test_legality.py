"""One legality gate: every entry point gives the same answer, synchronously.

The matrix is generated from ``capability_table()``: each registry name
meets each way a request can be illegal, through all six entry points.
What is expected is worked out here from the capability record and
``process_floor`` alone -- not by asking ``refusal`` -- so the rule set is
tested against the declaration.  Legal cells are also held against the
``simple`` oracle: this file is the seed of the differential suite.
"""

import threading
import time

import pytest

from repro import Engine
from repro.core.exceptions import (
    InsufficientProcessesError,
    MappingError,
    UnsupportedFeatureError,
)
from repro.mappings import capability_table, get_mapping, select_mapping
from repro.planner import fuse_graph
from repro.platforms.profiles import HPC, SERVER
from repro.scheduler import JobScheduler
from repro.workflows import build_sentiment_workflow
from tests.conftest import (
    FAST_SCALE,
    AddOne,
    Double,
    Emit,
    StatefulCounter,
    linear_graph,
)

PROCESSES = 6


def _chain():
    return linear_graph(Emit(name="src"), Double(name="mid"), AddOne(name="end"))


def _stateful():
    return linear_graph(Emit(name="src"), StatefulCounter(name="counter"))


def _graph_for(caps):
    """A graph the mapping may enact, stateful where it can be."""
    return (_stateful if caps.stateful else _chain)()


def _inputs_for(caps):
    return [("a", 1), ("b", 2), ("a", 3)] if caps.stateful else [1, 2, 3]


#: scenario -> (graph, platform, processes, options, expected refusal type)
#: for one capability row; ``None`` means the request is legal.
SCENARIOS = {
    "stateful graph": lambda cls, caps: (
        _stateful(), SERVER, PROCESSES, {},
        None if caps.stateful else UnsupportedFeatureError,
    ),
    "redis-less platform": lambda cls, caps: (
        _graph_for(caps), HPC, PROCESSES, {},
        MappingError if caps.requires_redis else None,
    ),
    "below the process floor": lambda cls, caps: (
        _graph_for(caps), SERVER, cls.process_floor(_graph_for(caps)) - 1, {},
        InsufficientProcessesError,
    ),
    "batch_size=8": lambda cls, caps: (
        _graph_for(caps), SERVER, PROCESSES, {"batch_size": 8},
        None if caps.batching else UnsupportedFeatureError,
    ),
    "checkpoint_interval=5": lambda cls, caps: (
        _graph_for(caps), SERVER, PROCESSES, {"checkpoint_interval": 5},
        None if caps.recoverable and caps.stateful else UnsupportedFeatureError,
    ),
    "address=": lambda cls, caps: (
        _graph_for(caps), SERVER, PROCESSES, {"address": "127.0.0.1:1"},
        None if caps.networked else UnsupportedFeatureError,
    ),
    "fuse=True": lambda cls, caps: (
        _graph_for(caps), SERVER, PROCESSES, {"fuse": True}, None,
    ),
    # The prebuilt-plan option was removed; it is refused by name.
    "plan=": lambda cls, caps: (
        _graph_for(caps), SERVER, PROCESSES,
        {"plan": fuse_graph(_graph_for(caps))}, UnsupportedFeatureError,
    ),
}


def _job_path_threads():
    """Driver, dispatcher, feeder, warm-pool and deadline-timer threads."""
    return {
        t
        for t in threading.enumerate()
        if t.name.startswith(("job-", "feed-"))
        or "-warm" in t.name
        or isinstance(t, threading.Timer)
    }


def _settled(before, grace=5.0):
    """Job-path threads beyond ``before`` once stragglers had time to end."""
    end = time.monotonic() + grace
    while (leaked := _job_path_threads() - before) and time.monotonic() < end:
        time.sleep(0.01)
    return sorted(t.name for t in leaked)


def _sorted_outputs(result):
    return {key: sorted(map(repr, values)) for key, values in result.outputs.items()}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("name", [name for name, _caps in capability_table()])
def test_all_entry_points_agree(name, scenario):
    mapping = get_mapping(name)
    caps = mapping.capabilities
    graph, platform, processes, options, expected = SCENARIOS[scenario](
        type(mapping), caps
    )
    inputs = _inputs_for(caps)
    common = dict(processes=processes, platform=platform, time_scale=FAST_SCALE)
    before = _job_path_threads()

    def engine():
        return Engine(mapping=name, **common, **options)

    def scheduled(eng):
        return JobScheduler(eng, max_concurrent=1)

    if expected is not None:
        # select_mapping collects the refusal into its own summary error;
        # the five enacting entry points raise it -- from the call itself.
        with pytest.raises(UnsupportedFeatureError, match=name):
            select_mapping(graph, platform, prefer=name, processes=processes,
                           options=options)
        with engine() as eng, scheduled(eng) as sched:
            for call in (
                lambda: eng.run(graph, inputs=inputs),
                lambda: eng.submit(graph, inputs=inputs),
                lambda: sched.submit(graph, inputs=inputs),
                lambda: mapping.submit(graph, inputs, **common, **options),
                lambda: mapping.execute(graph, inputs, **common, **options),
            ):
                with pytest.raises(MappingError) as raised:
                    call()
                assert raised.type is expected
            # Nothing was leased, queued or counted for a refused request.
            assert not eng._sessions or all(
                pool.deployment is None for pool in eng._sessions.values()
            )
            assert sched.stats.submitted == sched.stats.admitted == 0
        assert _settled(before) == []
        return

    assert select_mapping(
        graph, platform, prefer=name, processes=processes, options=options
    ) == name
    with engine() as eng, scheduled(eng) as sched:
        for submit in (
            lambda: eng.submit(graph, inputs=inputs),
            lambda: sched.submit(graph, inputs=inputs),
            lambda: mapping.submit(graph, inputs, **common, **options),
        ):
            submit().cancel()
        if not caps.networked:
            # Worker OS processes per run: tests/mappings/test_cluster.py
            # enacts the networked mapping; here its gate is what is held.
            oracle = _sorted_outputs(
                get_mapping("simple").execute(graph, inputs, time_scale=FAST_SCALE)
            )
            assert _sorted_outputs(eng.run(graph, inputs=inputs)) == oracle
            assert _sorted_outputs(
                mapping.execute(graph, inputs, **common, **options)
            ) == oracle
    assert _settled(before) == []


class TestAutoSelectsByTheEnforcedFloor:
    """``auto`` reads the floor the mapping enforces, not a constant."""

    def test_sentiment_falls_through_to_a_mapping_that_fits(self):
        graph, inputs = build_sentiment_workflow(articles=20)
        oracle = get_mapping("simple").execute(graph, inputs, time_scale=FAST_SCALE)
        for processes in range(1, 7):
            with Engine(mapping="auto", processes=processes,
                        time_scale=FAST_SCALE) as engine:
                assert engine.resolve_mapping(graph) == "simple"
                result = engine.run(graph, inputs=inputs)
            assert result.mapping == "simple"
            assert _sorted_outputs(result) == _sorted_outputs(oracle)

    def test_sentiment_takes_hybrid_from_its_floor_up(self):
        graph, inputs = build_sentiment_workflow(articles=20)
        hybrid = get_mapping("hybrid_redis")
        assert hybrid.process_floor(graph) == 7  # 6 pinned instances + 1
        with Engine(mapping="auto", processes=7, time_scale=FAST_SCALE) as engine:
            result = engine.run(graph, inputs=inputs)
        assert result.mapping == "hybrid_redis"
        # top3Happiest.1 is never fed (global grouping): its slot is stateless.
        assert result.counters["stateless_workers"] == 2

    def test_stateless_chain_on_hybrid_needs_one_process(self):
        graph = _chain()
        assert select_mapping(graph, prefer="hybrid_redis", processes=1) == "hybrid_redis"
        with Engine(mapping="auto", prefer="hybrid_redis", processes=1,
                    time_scale=FAST_SCALE) as engine:
            result = engine.run(graph, inputs=[1, 2, 3])
        assert result.mapping == "hybrid_redis"
        assert sorted(result.output("end")) == [3, 5, 7]


class TestARefusalLeavesNothingBehind:
    """A floor refusal used to surface at ``wait()``, after the lease."""

    def test_refused_submit_keeps_a_primed_session_warm(self):
        with Engine(mapping="multi", processes=3, time_scale=FAST_SCALE) as engine:
            assert engine.submit(_chain(), inputs=[1]).wait(10).counters["deploy_cold"] == 1
            with pytest.raises(InsufficientProcessesError, match="at least 4"):
                engine.submit(linear_graph(Emit(name="a"), Double(name="b"),
                                           AddOne(name="c"), Double(name="d")),
                              inputs=[1])
            assert "idle=1, leased=0" in repr(engine._sessions["multi"])
            assert engine.submit(_chain(), inputs=[1]).wait(10).counters["deploy_warm"] == 1

    def test_refused_first_submit_deploys_nothing(self):
        before = _job_path_threads()
        with Engine(mapping="multi", processes=2, time_scale=FAST_SCALE) as engine:
            with pytest.raises(InsufficientProcessesError):
                engine.submit(_chain(), inputs=[1])
            assert _job_path_threads() == before
            assert engine._sessions == {}

    def test_refused_scheduled_submit_takes_no_slot(self):
        before = _job_path_threads()
        with Engine(mapping="multi", processes=2, time_scale=FAST_SCALE) as engine:
            with JobScheduler(engine, max_concurrent=1) as scheduler:
                with pytest.raises(InsufficientProcessesError):
                    scheduler.submit(_chain(), inputs=[1], deadline=30.0)
                assert scheduler.stats.admitted == scheduler.stats.submitted == 0
                # No driver, and the refused handle's deadline is not armed.
                assert {t.name for t in _job_path_threads() - before} == {"job-scheduler"}


class TestFloorIsHeldAgainstThePlannedGraph:
    """Fusion lowers ``multi``'s floor; the gate reads the graph it enacts."""

    @pytest.mark.parametrize("entry", ["run", "submit", "execute"])
    def test_fused_multi_runs_between_the_two_floors(self, entry):
        multi = get_mapping("multi")
        assert multi.process_floor(_chain()) == 3
        with pytest.raises(InsufficientProcessesError):
            multi.execute(_chain(), [1, 2], processes=2, time_scale=FAST_SCALE)
        with Engine(mapping="multi", processes=2, fuse=True,
                    time_scale=FAST_SCALE) as engine:
            if entry == "run":
                result = engine.run(_chain(), inputs=[1, 2])
            elif entry == "submit":
                result = engine.submit(_chain(), inputs=[1, 2]).wait(10)
            else:
                result = multi.execute(_chain(), [1, 2], processes=2, fuse=True,
                                       time_scale=FAST_SCALE)
        assert sorted(result.output("end")) == [3, 5]
        assert result.counters["fused_members"] == 3
