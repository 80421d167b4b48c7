"""Processing elements of the Sentiment Analyses workflow.

Stateless PEs (read, the two sentiment scorers, the tokenizer, the two
state extractors) and the two stateful PEs of Figure 7:

- :class:`HappyState` -- *group-by* on ``state``: all scores of one state
  land on the same instance, which maintains the running aggregate.
- :class:`Top3Happiest` -- *global* grouping: all aggregates converge on
  one instance that keeps the top-3 table and flushes it at close.

Nominal costs model the original workloads: the SWN3 path (tokenize +
lexicon lookups per token) is markedly heavier than AFINN, and both scale
with article length -- the skew that makes static allocation lose to
hybrid dynamic scheduling.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.pe import GenericPE, IterativePE
from repro.workflows.sentiment.articles import make_article
from repro.workflows.sentiment.lexicon import afinn_score, swn3_score
from repro.workflows.sentiment.tokenizer import tokenize

#: Reference article length used to normalize per-article costs.
_REF_WORDS = 240.0


class ReadArticles(IterativePE):
    """Stream articles from the (synthetic) dataset by index."""

    def __init__(
        self,
        name: str = "readArticles",
        seed: int = 23,
        read_latency: float = 0.006,
        parse_cost: float = 0.004,
    ) -> None:
        super().__init__(name)
        self.seed = seed
        self.read_latency = read_latency
        self.parse_cost = parse_cost

    def _process(self, data: Any) -> Dict[str, Any]:
        self.io_wait(self.read_latency)
        self.compute(self.parse_cost)
        return make_article(int(data), seed=self.seed)


def _length_factor(article: Dict[str, Any]) -> float:
    return max(0.2, len(article["text"]) / (6.0 * _REF_WORDS))


class SentimentAFINN(IterativePE):
    """AFINN-lexicon sentiment score of the raw article text."""

    def __init__(self, name: str = "sentimentAFINN", cost: float = 0.050) -> None:
        super().__init__(name)
        self.cost = cost

    def _process(self, article: Dict[str, Any]) -> Dict[str, Any]:
        self.compute(self.cost * _length_factor(article))
        score = afinn_score(tokenize(article["text"]))
        return {"id": article["id"], "state": article["state"], "score": float(score)}


class TokenizeWD(IterativePE):
    """Word-tokenize the article for the SWN3 path.

    Emits a compact bag-of-words (token -> count) rather than the raw token
    list: semantically equivalent for lexicon scoring and far lighter to
    ship between processes.
    """

    def __init__(self, name: str = "tokenizeWD", cost: float = 0.080) -> None:
        super().__init__(name)
        self.cost = cost

    def _process(self, article: Dict[str, Any]) -> Dict[str, Any]:
        self.compute(self.cost * _length_factor(article))
        tokens = tokenize(article["text"])
        counts: Dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        return {
            "id": article["id"],
            "state": article["state"],
            "n_tokens": len(tokens),
            "counts": counts,
        }


class SentimentSWN3(IterativePE):
    """SentiWordNet-3 sentiment score over the tokenized bag-of-words."""

    def __init__(self, name: str = "sentimentSWN3", cost: float = 0.070) -> None:
        super().__init__(name)
        self.cost = cost

    def _process(self, record: Dict[str, Any]) -> Dict[str, Any]:
        self.compute(self.cost * max(0.2, record["n_tokens"] / _REF_WORDS))
        score = sum(
            swn3_score([token]) * count for token, count in record["counts"].items()
        )
        return {"id": record["id"], "state": record["state"], "score": float(score)}


class FindState(IterativePE):
    """Map a scored record to its ``(state, score)`` tuple.

    Emits tuples so the downstream group-by can key on element 0, the
    dispel4py idiom (``grouping=[0]``).
    """

    def __init__(self, name: str = "findState", cost: float = 0.008) -> None:
        super().__init__(name)
        self.cost = cost

    def _process(self, record: Dict[str, Any]) -> Tuple[str, float]:
        self.compute(self.cost)
        return (record["state"], record["score"])


class HappyState(GenericPE):
    """Per-state running aggregate (stateful, group-by ``state``).

    Receives ``(state, score)`` tuples grouped by state; emits an updated
    ``(state, mean_score, count)`` aggregate per input, so the downstream
    top-3 always holds the latest picture.
    """

    def __init__(self, name: str = "happyState", instances: int = 4, cost: float = 0.008) -> None:
        super().__init__(name)
        self._add_input(self.INPUT_NAME, grouping=[0])
        self._add_output(self.OUTPUT_NAME)
        self.numprocesses = instances
        self.cost = cost
        self._totals: Dict[str, List[float]] = {}

    def process(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        self.compute(self.cost)
        state, score = inputs[self.INPUT_NAME]
        bucket = self._totals.setdefault(state, [0.0, 0.0])
        bucket[0] += float(score)
        bucket[1] += 1.0
        return {
            self.OUTPUT_NAME: (state, bucket[0] / bucket[1], int(bucket[1]))
        }

    def snapshot(self) -> Dict[str, Tuple[float, int]]:
        """Final per-state (mean, count) table (used by white-box tests)."""
        return {
            state: (total / count, int(count))
            for state, (total, count) in self._totals.items()
        }


class RecoverableHappyState(HappyState):
    """``HappyState`` with explicit, minimal checkpoint hooks.

    The default :meth:`~repro.core.pe.GenericPE.get_state` would also drag
    constructor parameters (``cost``...) into every snapshot; the override
    captures exactly the aggregate table -- the idiom for PEs whose state
    is a small core inside a larger object.
    """

    def get_state(self) -> Dict[str, Any]:
        return {"totals": {state: list(bucket) for state, bucket in self._totals.items()}}

    def set_state(self, state: Dict[str, Any]) -> None:
        self._totals = {name: list(bucket) for name, bucket in state["totals"].items()}


class Top3Happiest(GenericPE):
    """Maintain and report the top-3 happiest states (stateful, global).

    Keeps the latest aggregate per state; at close emits the top three by
    mean score on the ``top3`` port.  The paper requests 2 instances for
    this PE -- under the global grouping only instance 0 ever receives
    data, and idle instances emit nothing.
    """

    def __init__(self, name: str = "top3Happiest", instances: int = 2, cost: float = 0.004) -> None:
        super().__init__(name)
        self._add_input(self.INPUT_NAME, grouping="global")
        self._add_output("top3")
        self.numprocesses = instances
        self.cost = cost
        self._latest: Dict[str, Tuple[float, int]] = {}

    def process(self, inputs: Dict[str, Any]) -> None:
        self.compute(self.cost)
        state, mean_score, count = inputs[self.INPUT_NAME]
        self._latest[state] = (float(mean_score), int(count))
        return None

    def top3(self) -> List[Tuple[str, float, int]]:
        ranked = sorted(
            ((state, mean, count) for state, (mean, count) in self._latest.items()),
            key=lambda row: (-row[1], row[0]),
        )
        return ranked[:3]

    def postprocess(self) -> None:
        if self._latest:
            self.write("top3", self.top3())


class RecoverableTop3Happiest(Top3Happiest):
    """``Top3Happiest`` with explicit checkpoint hooks (latest-wins table)."""

    def get_state(self) -> Dict[str, Any]:
        return {"latest": dict(self._latest)}

    def set_state(self, state: Dict[str, Any]) -> None:
        self._latest = dict(state["latest"])
