"""BM25 example retrieval and few-shot prompt construction.

Prompt layout: a fixed header line, then Human/Computer blocks for each
retrieved example, then the target's Human block with a dangling
"Computer:" for the model to complete. Examples are chosen greedily by
relevance under a token budget, then arranged per the ordering strategy;
ordering never changes which examples are included.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

from .errors import PromptError
from .sql import render_schema
from .splits import DatasetExample

HEADER = "Let's translate what a human user says into what a computer might say."
DEFAULT_BUDGET = 1500
DEFAULT_MAX_EXAMPLES = 20

# Dialogue context modes
MODE_NONE = "none"
MODE_LAST_AGENT = "last_agent"
MODE_LAST_USER_AND_AGENT = "last_user_and_agent"
# SQL context modes (schema rendering is always present)
MODE_SQL_NONE = "sql_none"
MODE_SQL_LAST_INTERACTION = "sql_last_interaction"
MODE_SQL_ALL_INTERACTIONS = "sql_all_interactions"

DIALOGUE_MODES = (MODE_NONE, MODE_LAST_AGENT, MODE_LAST_USER_AND_AGENT)
SQL_MODES = (MODE_SQL_NONE, MODE_SQL_LAST_INTERACTION, MODE_SQL_ALL_INTERACTIONS)

# Prompt example orderings
ORDER_RANDOM = "random"
ORDER_BEST_FIRST = "best_first"
ORDER_BEST_LAST = "best_last"
ORDERS = (ORDER_RANDOM, ORDER_BEST_FIRST, ORDER_BEST_LAST)


@dataclass(frozen=True)
class ContextMode:
    name: str
    with_values: bool = False

    def __post_init__(self):
        if self.name not in DIALOGUE_MODES + SQL_MODES:
            raise ValueError(f"unknown context mode {self.name!r}")
        if self.with_values and self.name not in SQL_MODES:
            raise ValueError("with_values only applies to SQL modes")


def render_input(ex: DatasetExample, mode: ContextMode) -> str:
    """Render context plus utterance with the benchmark's separators:
    dialogue ``l | a | u`` / ``a | u`` / ``u``; SQL ``c | d , u`` where c
    joins prior interactions with `` | `` and d is the schema rendering."""
    if mode.name == MODE_NONE:
        return ex.utterance
    if mode.name == MODE_LAST_AGENT:
        return f"{ex.last_agent_utt} | {ex.utterance}"
    if mode.name == MODE_LAST_USER_AND_AGENT:
        return f"{ex.last_user_utt} | {ex.last_agent_utt} | {ex.utterance}"
    # SQL family
    if ex.schema is None:
        raise PromptError(f"example {ex.id!r} has no schema for SQL rendering")
    d = render_schema(ex.schema, with_values=mode.with_values)
    if mode.name == MODE_SQL_NONE:
        prior = []
    elif mode.name == MODE_SQL_LAST_INTERACTION:
        prior = list(ex.prior_interactions[-1:])
    else:
        prior = list(ex.prior_interactions)
    if prior:
        c = " | ".join(prior)
        return f"{c} | {d} , {ex.utterance}"
    return f"{d} , {ex.utterance}"


# ---------------------------------------------------------------------------
# Okapi BM25


def _terms(text: str):
    return text.lower().split()


class _Bm25Index:
    """One pool's postings: each term's (document, term frequency) pairs in
    pool order, the document lengths and their mean."""

    def __init__(self, pool):
        docs = [_terms(doc) for doc in pool]
        self.n = len(docs)
        self.lengths = [len(d) for d in docs]
        self.avgdl = sum(self.lengths) / self.n if docs else 0.0
        self.postings: dict = {}
        for i, d in enumerate(docs):
            for t, f in Counter(d).items():
                self.postings.setdefault(t, []).append((i, f))


# retrieval scores many queries against one pool: keep the last pool's index
_index = lru_cache(maxsize=1)(_Bm25Index)


def bm25_scores(query: str, pool, k1: float = 1.2, b: float = 0.75):
    """Okapi BM25 score of each pool document against the query.

    idf uses the standard 0.5-smoothed form ln((N - df + 0.5)/(df + 0.5)).
    Each document adds its query terms' contributions in query order, a
    repeated query term once per occurrence.
    """
    index = _index(tuple(pool))
    n, lengths, avgdl = index.n, index.lengths, index.avgdl
    scores = [0.0] * n
    for t in _terms(query):
        postings = index.postings.get(t)
        if postings is None:
            continue
        df = len(postings)
        idf = math.log((n - df + 0.5) / (df + 0.5))
        for i, f in postings:
            norm = 1 - b + b * (lengths[i] / avgdl)
            scores[i] += idf * f * (k1 + 1) / (f + k1 * norm)
    return scores


def bm25_rank(query: str, pool, k1: float = 1.2, b: float = 0.75):
    """Pool indices best-first; ties keep pool order, as the sort is
    stable (with reverse=True too)."""
    scores = bm25_scores(query, pool, k1=k1, b=b)
    return sorted(range(len(pool)), key=scores.__getitem__, reverse=True)


# ---------------------------------------------------------------------------
# Prompt construction


@dataclass(frozen=True)
class PromptExample:
    uc: str
    p: str
    relevance: float

    def __post_init__(self):
        if not self.uc:
            raise PromptError("prompt example has empty input rendering")
        if not math.isfinite(self.relevance):
            raise PromptError("prompt example has non-finite relevance")


@dataclass
class Prompt:
    text: str
    examples: list  # included PromptExamples, in emitted order

    @property
    def n_examples(self) -> int:
        return len(self.examples)


def whitespace_tokens(text: str) -> int:
    """The prompt budget's unit: the number of whitespace-separated words."""
    return len(text.split())


def _block(ex: PromptExample) -> str:
    return f"Human: {ex.uc}\nComputer: {ex.p}"


def _assemble(examples, target: str) -> str:
    return "\n".join([HEADER, *map(_block, examples), f"Human: {target}", "Computer:"])


def build_prompt(
    examples,
    target: str,
    order: str = ORDER_BEST_LAST,
    budget: int = DEFAULT_BUDGET,
    max_examples: int = DEFAULT_MAX_EXAMPLES,
    seed: int = 0,
) -> Prompt:
    """Greedy budget-limited prompt assembly.

    Examples are taken most-relevant-first, equal relevances in input
    order (the sort is stable), until the next block would exceed the
    budget or the example cap; the included set is then
    arranged per `order` (best_last puts the most relevant example
    immediately before the target block).

    The budget counts whitespace-separated words, block by block: blocks
    are joined by newlines, so no word spans two of them, and the header
    and target block are counted once and each example's block as it is
    taken.
    """
    if order not in ORDERS:
        raise PromptError(f"unknown ordering {order!r}")
    if max_examples < 0:
        raise PromptError(f"max_examples must not be negative, got {max_examples}")
    used = whitespace_tokens(_assemble([], target))
    if used > budget:
        raise PromptError("budget too small for the header and target block")

    included = []
    for ex in sorted(examples, key=attrgetter("relevance"), reverse=True):
        if len(included) >= max_examples:
            break
        used += whitespace_tokens(_block(ex))
        if used > budget:
            break
        included.append(ex)

    if order == ORDER_BEST_FIRST:
        arranged = included
    elif order == ORDER_BEST_LAST:
        arranged = list(reversed(included))
    else:
        arranged = list(included)
        random.Random(seed).shuffle(arranged)
    return Prompt(_assemble(arranged, target), arranged)
