"""One way to run once: ``Engine.run`` is ``Mapping.execute``.

Both enact on a ``job-<mapping>-<workflow>`` driver thread the call joins,
never on the caller's thread (on the caller's thread the same run peaks
12-35% higher in RSS), and they agree cell for cell.  Nothing here
asserts on timing.
"""

import threading

import pytest

from repro import Engine
from repro.core.pe import IterativePE
from repro.mappings import capability_table, get_mapping
from repro.mappings.registry import refusal
from tests.conftest import FAST_SCALE, AddOne, Double, Emit, StatefulCounter, linear_graph

PROCESSES = 6

NAMES = [name for name, _caps in capability_table()]

#: Counters that differ between two runs of one cell: scaler rounds,
#: activations, idle wake-ups and settle trips, not work.
VOLATILE = {
    "empty_polls", "graph_copies", "max_active", "scale_iterations",
    "settle_trips", "settles_in_flight",
}

#: Threads a ``Recorder`` instance ran on, in this process.
_SEEN = []


class Recorder(IterativePE):
    """Pass-through source that records the thread it runs on."""

    def _process(self, data):
        _SEEN.append(threading.current_thread())
        return data


def _options(name, **options):
    # Worker OS processes: forked, so a run costs no interpreter start.
    return {**options, "start_method": "fork"} if name == "cluster_redis" else options


def _job_threads():
    return {t for t in threading.enumerate() if t.name.startswith("job-")}


def _sorted_outputs(result):
    return {key: sorted(map(repr, values)) for key, values in result.outputs.items()}


def _work(result):
    return {k: v for k, v in result.counters.items() if k not in VOLATILE}


@pytest.mark.parametrize("name", NAMES)
def test_no_pe_runs_on_the_callers_thread(name):
    graph = linear_graph(Recorder(name="src"), Double(name="mid"), AddOne(name="end"))
    options = _options(name)
    caller = threading.current_thread()
    before = _job_threads()
    with Engine(mapping=name, processes=PROCESSES, time_scale=FAST_SCALE, **options) as engine:
        entries = {
            "run": lambda: engine.run(graph, inputs=[1, 2, 3]),
            "execute": lambda: get_mapping(name).execute(
                graph, [1, 2, 3], processes=PROCESSES, time_scale=FAST_SCALE, **options
            ),
        }
        for entry, call in entries.items():
            _SEEN.clear()
            result = call()
            assert sorted(result.output("end")) == [3, 5, 7], entry
            assert caller not in _SEEN, entry
            if name == "simple":
                assert {t.name for t in _SEEN} == {"job-simple-linear"}, entry
            elif name != "cluster_redis":  # its PEs run in worker processes
                assert len(_SEEN) == 3, entry
            # The driver was joined: no job-* thread outlives the return.
            assert _job_threads() <= before, entry


VARIANTS = {"plain": {}, "batch_size=8": {"batch_size": 8}, "fuse=True": {"fuse": True}}


def _graph(stateful):
    """A graph the mapping may enact, stateful where it can be."""
    if stateful:
        return linear_graph(Emit(name="src"), StatefulCounter(name="counter"))
    return linear_graph(Emit(name="src"), Double(name="mid"))


def _legal_cells():
    for name, caps in capability_table():
        for variant, options in VARIANTS.items():
            error = refusal(
                get_mapping(name), _graph(caps.stateful), processes=PROCESSES,
                options=options,
            )
            if error is None:
                yield name, variant


@pytest.mark.parametrize("name,variant", list(_legal_cells()))
def test_run_and_execute_agree(name, variant):
    stateful = get_mapping(name).capabilities.stateful
    inputs = [("a", 1), ("b", 2), ("a", 3)] if stateful else [1, 2, 3]
    options = _options(name, **VARIANTS[variant])
    with Engine(mapping=name, processes=PROCESSES, time_scale=FAST_SCALE, **options) as engine:
        ran = engine.run(_graph(stateful), inputs=inputs)
    executed = get_mapping(name).execute(
        _graph(stateful), inputs, processes=PROCESSES, time_scale=FAST_SCALE, **options
    )
    assert _sorted_outputs(ran) == _sorted_outputs(executed)
    assert _work(ran) == _work(executed)


#: Set by a ``Gate`` once it holds an item; set by the test to let it go.
_ENTERED = threading.Event()
_RELEASE = threading.Event()


class Gate(IterativePE):
    """Holds the run inside a PE until the test releases it."""

    def _process(self, data):
        _ENTERED.set()
        assert _RELEASE.wait(60), "the test never released the gate"
        return data


@pytest.mark.parametrize("name", ["simple", "dyn_multi"])
def test_close_during_run_returns_and_the_run_finishes(name):
    """``close()`` does not cancel or wait on a ``run()`` in flight."""
    _ENTERED.clear()
    _RELEASE.clear()
    graph = linear_graph(Gate(name="src"), Double(name="mid"))
    engine = Engine(mapping=name, processes=2, time_scale=FAST_SCALE)
    outcome = []
    runner = threading.Thread(
        target=lambda: outcome.append(engine.run(graph, inputs=[1, 2]))
    )
    runner.start()
    try:
        assert _ENTERED.wait(60)
        engine.close()
        # close() came back while the run was still held inside its PE.
        assert runner.is_alive() and not _RELEASE.is_set()
    finally:
        _RELEASE.set()
        runner.join(60)
    assert sorted(outcome[0].output("mid")) == [2, 4]
    with pytest.raises(RuntimeError, match="closed"):
        engine.run(graph, inputs=[1])
