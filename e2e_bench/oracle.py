"""The ``simple`` mapping as semantic oracle, and failure accounting.

``simple`` runs a workflow sequentially in one thread; every other mapping
must produce the same outputs as a multiset.  Outputs do not depend on the
clock, so the oracle runs at ``time_scale=1e-4`` during set-up, whatever
scale the workload itself uses.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List

#: Floats are rounded before comparison (as tests/integration does): the
#: stateful aggregates sum in arrival order, which differs per mapping.
FLOAT_DIGITS = 9

ORACLE_TIME_SCALE = 1e-4

Canonical = Dict[str, Counter]


def _normal(value: Any) -> Any:
    """Round floats and flatten containers to what JSON would carry.

    Tuples become lists so a value that crossed the ``repro serve`` socket
    compares equal to the oracle's in-process one.
    """
    if isinstance(value, float):
        return round(value, FLOAT_DIGITS)
    if isinstance(value, dict):
        return {key: _normal(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normal(item) for item in value]
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return _normal(value.tolist())
    return value


def canonical(outputs: Dict[str, Iterable[Any]]) -> Canonical:
    """Outputs as one multiset of ``repr`` strings per results key."""
    return {
        key: Counter(repr(_normal(value)) for value in values)
        for key, values in outputs.items()
    }


def run_oracle(graph: Any, inputs: Any, seed: int) -> Canonical:
    """Enact ``graph`` on ``simple`` and return its canonical outputs."""
    from repro import Engine

    with Engine(mapping="simple", time_scale=ORACLE_TIME_SCALE, seed=seed) as engine:
        return canonical(engine.run(graph, inputs=inputs).outputs)


def expected_count(expected: Canonical) -> int:
    return sum(sum(counter.values()) for counter in expected.values())


def mismatches(expected: Canonical, got: Canonical) -> int:
    """Output tuples missing or wrong against the oracle (0 when equal).

    A wrong tuple shows up as one missing and one surplus; it is counted
    once, so the result never exceeds the larger of the two multisets.
    """
    wrong = 0
    for key in set(expected) | set(got):
        want, have = expected.get(key, Counter()), got.get(key, Counter())
        missing = sum((want - have).values())
        surplus = sum((have - want).values())
        wrong += max(missing, surplus)
    return wrong


def merge(parts: List[Canonical]) -> Canonical:
    """The multiset union of several canonical outputs."""
    total: Canonical = {}
    for part in parts:
        for key, counter in part.items():
            total.setdefault(key, Counter()).update(counter)
    return total


class Tally:
    """Operations attempted and failed, over every verified repeat."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Output tuples that differ from the oracle (part of ``failed``).
        self.wrong = 0
        self.notes: List[str] = []

    def check(self, expected: Canonical, got: Canonical, jobs: int = 1,
              jobs_failed: int = 0) -> None:
        """Account one repeat: its jobs plus its expected output tuples.

        A failed, refused or timed-out job is one failed operation; a short
        or wrong stream shows as missing tuples.
        """
        wrong = mismatches(expected, got)
        self.attempted += jobs + expected_count(expected)
        self.failed += jobs_failed + wrong
        self.wrong += wrong
        if wrong:
            self.notes.append(f"{wrong} output tuple(s) differ from the oracle")
        if jobs_failed:
            self.notes.append(f"{jobs_failed} job(s) failed, were refused or timed out")

    def operations(self, failures: List[str]) -> None:
        """A step that is not an output tuple (a shutdown, the leak check):
        one operation when it went well, one failed operation per failure."""
        self.attempted += max(1, len(failures))
        self.failed += len(failures)
        self.notes += failures

    @property
    def oracle_equal(self) -> int:
        return int(self.wrong == 0)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
