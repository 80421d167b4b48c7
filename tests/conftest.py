"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.core.graph import WorkflowGraph
from repro.core.pe import ConsumerPE, GenericPE, IterativePE, reset_auto_names
from repro.runtime.clock import Clock


@pytest.fixture(autouse=True)
def _deterministic_auto_names():
    """Reset per-class auto-name counters so every test builds ``Double0``
    from the first unnamed ``Double()``, regardless of test order."""
    reset_auto_names()
    yield


def no_leaked_threads(*prefixes, contains=(), grace=5.0):
    """Body of an autouse fixture: ``yield from no_leaked_threads("resp-")``.

    Fails the test if a thread whose name starts with one of ``prefixes``
    (or contains one of ``contains``) started during it and is still alive
    ``grace`` seconds after it ended.  Threads unwind asynchronously after
    ``close()`` (a handler ends when its socket reads EOF), so the check
    polls up to the grace.
    """

    def watched():
        return {
            t
            for t in threading.enumerate()
            if t.name.startswith(prefixes) or any(part in t.name for part in contains)
        }

    before = watched()
    yield
    end = time.monotonic() + grace
    while True:
        leaked = watched() - before
        if not leaked or time.monotonic() >= end:
            break
        time.sleep(0.01)
    assert not leaked, f"leaked threads: {sorted(t.name for t in leaked)}"


#: time_scale used across the suite: nominal seconds become ~2 ms.
FAST_SCALE = 0.002

#: All parallel mappings (everything except the sequential oracle).
PARALLEL_MAPPINGS = (
    "multi",
    "dyn_multi",
    "dyn_auto_multi",
    "dyn_redis",
    "dyn_auto_redis",
    "hybrid_redis",
)

#: Mappings that reject stateful workflows.
STATELESS_ONLY = ("dyn_multi", "dyn_auto_multi", "dyn_redis", "dyn_auto_redis")


def run_in_fresh_interpreter(code: str, *argv: str) -> None:
    """Run ``code`` in a new interpreter on this one's ``sys.path``; fail
    with its stderr unless it exits 0.  For checks on ``sys.modules``, which
    this process (scipy and networkx long imported) cannot make."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


@pytest.fixture
def fast_clock() -> Clock:
    return Clock(FAST_SCALE)


class Emit(IterativePE):
    """Pass-through PE used by many structural tests."""

    def _process(self, data):
        return data


class Double(IterativePE):
    def _process(self, data):
        return 2 * data


class AddOne(IterativePE):
    def _process(self, data):
        return data + 1


class Collect(ConsumerPE):
    """Sink that remembers everything it saw (instance-local)."""

    def __init__(self, name=None):
        super().__init__(name)
        self.seen = []

    def _process(self, data):
        self.seen.append(data)


class KeyedEmit(IterativePE):
    """Emits (key, value) tuples for grouping tests."""

    def _process(self, data):
        key, value = data
        return (key, value)


class StatefulCounter(GenericPE):
    """Counts inputs per key (group-by element 0); flushes at close."""

    def __init__(self, name=None, instances=2):
        super().__init__(name)
        self._add_input(self.INPUT_NAME, grouping=[0])
        self._add_output(self.OUTPUT_NAME)
        self.numprocesses = instances
        self.counts = {}

    def process(self, inputs):
        key, _value = inputs[self.INPUT_NAME]
        self.counts[key] = self.counts.get(key, 0) + 1
        return None

    def postprocess(self):
        for key in sorted(self.counts):
            self.write(self.OUTPUT_NAME, (key, self.counts[key]))


def settle_entry(board, client, entry_id, children=()) -> None:
    """Settle one fetched entry as a worker's window does, in one pipeline:
    the children's credit, their payloads, then the entry's ``XACKDECR``."""
    pipe = client.pipeline()
    board.book(pipe, len(children))
    board.queue_tasks(pipe, list(children), 1)
    board.queue_settle(pipe, [(entry_id, 1)])
    pipe.execute()


def linear_graph(*pes, name="linear") -> WorkflowGraph:
    """Chain PEs: pe0.output -> pe1.input -> ..."""
    graph = WorkflowGraph(name)
    for pe in pes:
        graph.add(pe)
    for up, down in zip(pes, pes[1:]):
        graph.connect(up, "output", down, "input")
    return graph
