"""The benchmark's stand-in language model and its independent oracles.

The oracles recompute what the program returns by other means: masks by
advancing each token on its own instead of walking the trie, log-scores
from the stand-in's definition or from raw n-gram counts, SQL validity with
SQLite, and MTOP well-formedness with a bracket parser built from the
training trees.
"""

from __future__ import annotations

import math
import random
import sqlite3
import zlib

from gramdec.decoder import Scorer

OFF_GOLD = -10.0


def prefix_key(prefix) -> int:
    """Stable hash of a token-id prefix (independent of PYTHONHASHSEED)."""
    return zlib.crc32(",".join(map(str, prefix)).encode("ascii"))


class StandInScorer(Scorer):
    """Stand-in language model: 0 for the gold's next token while the prefix
    follows the gold, and -10 minus a seeded jitter in [0, 1) for every
    other token. The jitter of token t after prefix p is
    jitter[(t + crc32(p)) % V], so scores never tie and never depend on the
    process.

    `conditioning` names the request; `golds` maps it to the gold token ids
    with eos appended.
    """

    def __init__(self, vocab_size: int, seed: int):
        rng = random.Random(seed)
        self.vocab_size = vocab_size
        self.jitter = [rng.random() for _ in range(vocab_size)]
        self._neg = [OFF_GOLD - j for j in self.jitter]
        self.golds = {}
        self.calls_after_best = 0

    def score(self, prefix, conditioning=""):
        gold = self.golds[conditioning]
        n = len(prefix)
        if n >= len(gold):
            self.calls_after_best += 1
        k = prefix_key(prefix) % self.vocab_size
        scores = self._neg[k:] + self._neg[:k]
        if n < len(gold) and tuple(prefix) == gold[:n]:
            scores[gold[n]] = 0.0
        return scores


def stand_in_logprob(scorer: StandInScorer, gold, tokens) -> float:
    """Sum of the stand-in's per-step scores along `tokens`, from its
    definition rather than from its score vectors."""
    total = 0.0
    for i, t in enumerate(tokens):
        if i < len(gold) and tuple(tokens[:i]) == gold[:i] and t == gold[i]:
            continue
        k = prefix_key(tokens[:i])
        total += OFF_GOLD - scorer.jitter[(t + k) % scorer.vocab_size]
    return total


def ngram_logprob(corpus, order: int, vocab_size: int, tokens) -> float:
    """Add-one n-gram log-probability of `tokens`, counted from `corpus`."""
    k = order - 1
    counts = {}
    for seq in corpus:
        padded = [None] * k + list(seq)
        for i in range(k, len(padded)):
            ctx = tuple(padded[i - k : i])
            counts[ctx + (padded[i],)] = counts.get(ctx + (padded[i],), 0) + 1
            counts[ctx] = counts.get(ctx, 0) + 1
    padded = [None] * k + list(tokens)
    total = 0.0
    for i in range(k, len(padded)):
        ctx = tuple(padded[i - k : i])
        num = counts.get(ctx + (padded[i],), 0) + 1
        total += math.log(num / (counts.get(ctx, 0) + vocab_size))
    return total


def trial_mask(state, entries, eos_id: int) -> set:
    """Mask oracle: advance each token's string on its own."""
    out = {eos_id} if state.is_complete() else set()
    for tid, text in enumerate(entries):
        if tid != eos_id and state.advance_string(text)[0] is not None:
            out.add(tid)
    return out


def sqlite_error(tables, query: str):
    """None if SQLite runs `query` on an empty in-memory copy of the
    schema, else SQLite's error message."""
    con = sqlite3.connect(":memory:")
    try:
        for t in tables:
            cols = ", ".join(
                f"{c} {'INTEGER' if kind == 'int' else 'TEXT'}" for c, kind in t.columns
            )
            con.execute(f"CREATE TABLE {t.name} ({cols})")
        con.execute(query).fetchall()
    except sqlite3.Error as exc:
        return str(exc)
    finally:
        con.close()
    return None


def _parse_bracket(text: str, i: int):
    """Parse one `[LABEL child ...]` node at text[i]; returns
    ((label, pattern, children), end). A pattern lists the children as
    their labels, with TEXT for a raw span."""
    if text[i] != "[":
        raise ValueError(f"expected '[' at {i}")
    j = i + 1
    while j < len(text) and text[j] not in " []":
        j += 1
    label = text[i + 1 : j]
    pattern = []
    children = []
    while True:
        if j >= len(text):
            raise ValueError("missing ']'")
        if text[j] == "]":
            return (label, tuple(pattern), children), j + 1
        if text[j] != " ":
            raise ValueError(f"expected ' ' at {j}")
        j += 1
        if j < len(text) and text[j] == "[":
            child, j = _parse_bracket(text, j)
            children.append(child)
            pattern.append(child[0])
            continue
        k = j
        while k < len(text) and text[k] not in "[]":
            k += 1
        if k < len(text) and text[k] == "[":
            k -= 1  # the space before a child node separates it
        if k <= j:
            raise ValueError(f"empty text span at {j}")
        pattern.append("TEXT")
        j = k


def _nodes(node):
    yield node
    for child in node[2]:
        yield from _nodes(child)


class MtopChecker:
    """Accepts a bracketed tree iff it parses, its root is an intent seen at
    a training root, and every node's (label, child pattern) was seen in a
    training tree."""

    def __init__(self, train_trees):
        self.roots = set()
        self.patterns = set()
        for tree in train_trees:
            root = self._parse(tree)
            self.roots.add(root[0])
            self.patterns.update((n[0], n[1]) for n in _nodes(root))

    @staticmethod
    def _parse(text):
        root, end = _parse_bracket(text, 0)
        if end != len(text):
            raise ValueError(f"trailing text at {end}")
        return root

    def accepts(self, text: str) -> bool:
        try:
            root = self._parse(text)
        except (ValueError, IndexError):
            return False
        if root[0] not in self.roots:
            return False
        return all((n[0], n[1]) in self.patterns for n in _nodes(root))
