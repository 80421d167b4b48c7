"""Sentiment Analyses for News Articles workflow (Section 4.3).

Two concurrent sentiment paths over a stream of news articles, aggregated
by US state (Figure 7)::

    readArticles -+-> sentimentAFINN ---------------> findStateAFINN -+
                  |                                                   +-> happyState -> top3Happiest
                  +-> tokenizeWD -> sentimentSWN3 --> findStateSWN3 --+

``happyState`` is stateful and distributed over four instances with a
*group-by* on the article's state; ``top3Happiest`` is stateful under a
*global* grouping (2 instances requested, only instance 0 receives data --
the static inefficiency the paper points out).  The remaining PEs are
stateless, making this workflow "an ideal testbed to explore the behavior
of enhanced dynamic deployment within the realm of a real stateful
application".

Substitutions: the Kaggle news dataset becomes a deterministic
synthetic article generator; the AFINN and SentiWordNet-3 lexicons become
embedded mini-lexicons with the same shape (word -> valence / positive &
negative scores).
"""

from repro.workflows.sentiment.articles import generate_articles
from repro.workflows.sentiment.lexicon import AFINN, SWN3, afinn_score, swn3_score
from repro.workflows.sentiment.pes import (
    FindState,
    HappyState,
    ReadArticles,
    RecoverableHappyState,
    RecoverableTop3Happiest,
    SentimentAFINN,
    SentimentSWN3,
    TokenizeWD,
    Top3Happiest,
)
from repro.workflows.sentiment.tokenizer import tokenize
from repro.workflows.sentiment.workflow import (
    build_recoverable_sentiment_workflow,
    build_sentiment_scoring_workflow,
    build_sentiment_workflow,
)

__all__ = [
    "AFINN",
    "FindState",
    "HappyState",
    "ReadArticles",
    "RecoverableHappyState",
    "RecoverableTop3Happiest",
    "SWN3",
    "SentimentAFINN",
    "SentimentSWN3",
    "TokenizeWD",
    "Top3Happiest",
    "afinn_score",
    "build_recoverable_sentiment_workflow",
    "build_sentiment_scoring_workflow",
    "build_sentiment_workflow",
    "generate_articles",
    "swn3_score",
    "tokenize",
]
