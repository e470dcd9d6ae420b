"""Subword vocabulary handling and exact legal-next-token masks.

The mask engine is tokenizer-agnostic: tokens are plain character strings,
so byte-level vocabularies work by treating bytes as characters of the
terminal alphabet. The end-of-sequence token is legal exactly when the
consumed prefix is a complete member of the grammar's language, which rules
out truncated outputs by construction.

A mask is built from per-position splits of the vocabulary (the kernel's
`classify`): each scan position of a grammar splits the trie once, on its
first use, into the tokens it accepts in any context and the tokens whose
legality depends on the context, leaving out those that no context of
the grammar admits. A state's mask is the union of the accepted sets of
its frontier's scan positions, plus those of the context-dependent tokens
that survive a trial advance on the state's chart. The splits are cached
on the trie per grammar and freed with either.
"""

from __future__ import annotations

import json
import weakref

from .earley import PrefixState
from .engine import kernel
from .errors import DisallowedTokenError, VocabularyError
from .jsonl import json_objects


class Vocabulary:
    """Dense token-id to string table with a designated eos id."""

    def __init__(self, entries, eos_id: int):
        self.entries = list(entries)
        self.eos_id = eos_id
        self.size = len(self.entries)
        if not 0 <= eos_id < self.size:
            raise VocabularyError(f"eos id {eos_id} outside [0, {self.size})")
        for i, text in enumerate(self.entries):
            if i == eos_id:
                if text != "":
                    raise VocabularyError("eos token must map to the empty string")
            elif text == "":
                raise VocabularyError(f"token {i} has an empty string")

    @classmethod
    def from_pairs(cls, pairs, eos_id: int) -> "Vocabulary":
        """Build from (id, text) pairs; ids must be dense in [0, n)."""
        by_id = {}
        for tid, text in pairs:
            if tid in by_id:
                raise VocabularyError(f"duplicate token id {tid}")
            by_id[tid] = text
        if sorted(by_id) != list(range(len(by_id))):
            raise VocabularyError("token ids are not dense in [0, size)")
        return cls([by_id[i] for i in range(len(by_id))], eos_id)

    def __len__(self):
        return self.size

    def __getitem__(self, tid: int) -> str:
        return self.entries[tid]

    def detokenize(self, ids) -> str:
        return "".join(self.entries[t] for t in ids if t != self.eos_id)


def load_vocab_jsonl(text: str) -> Vocabulary:
    """Parse the vocabulary wire format: a JSONL header {"eos": id}
    followed by one {"id": int, "text": str} record per token."""
    eos_id = None
    pairs = []
    for lineno, rec in json_objects(text, VocabularyError):
        if "eos" in rec:
            if eos_id is not None:
                raise VocabularyError("duplicate eos header")
            eos_id = rec["eos"]
            if type(eos_id) is not int:
                raise VocabularyError(f"eos on line {lineno} is not an integer")
        elif "id" in rec and "text" in rec:
            tid, tok = rec["id"], rec["text"]
            if type(tid) is not int or not isinstance(tok, str):
                raise VocabularyError(
                    f"record on line {lineno} needs an integer id and a string text"
                )
            pairs.append((tid, tok))
        else:
            raise VocabularyError(f"unrecognized record on line {lineno}")
    if eos_id is None:
        raise VocabularyError("missing eos header record")
    return Vocabulary.from_pairs(pairs, eos_id)


def dump_vocab_jsonl(v: Vocabulary) -> str:
    lines = [json.dumps({"eos": v.eos_id})]
    for i, text in enumerate(v.entries):
        lines.append(json.dumps({"id": i, "text": text}, ensure_ascii=False))
    return "\n".join(lines) + "\n"


class _TrieNode:
    __slots__ = ("children", "token_ids")

    def __init__(self):
        self.children = {}
        self.token_ids = []


class _Split:
    """One scan position's split of the vocabulary: the token ids it
    accepts in any context, and the ids that the chart must decide."""

    __slots__ = ("accepted", "dependent", "__weakref__")

    def __init__(self, accepted: frozenset, dependent: frozenset):
        self.accepted = accepted
        self.dependent = dependent


class TokenTrie:
    """Prefix trie over the vocabulary's token strings, with the cache of
    the splits masks are built from."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        # A grammar's tables -> {scan position: _Split}. Keys are held
        # weakly and the splits refer to no state, so a grammar's entry goes
        # with the grammar.
        self._cache = weakref.WeakKeyDictionary()
        # Equal splits are one object, shared by positions and grammars,
        # and dropped once no grammar's entry holds them.
        self._interned = weakref.WeakValueDictionary()
        self.root = _TrieNode()
        for tid, text in enumerate(vocab.entries):
            if tid == vocab.eos_id:
                continue
            node = self.root
            for ch in text:
                nxt = node.children.get(ch)
                if nxt is None:
                    nxt = _TrieNode()
                    node.children[ch] = nxt
                node = nxt
            node.token_ids.append(tid)


def build_trie(v: Vocabulary) -> TokenTrie:
    return TokenTrie(v)


def allowed_tokens(s: PrefixState, t: TokenTrie) -> set:
    """Exact legal-next-token set for a grammar state.

    The union of the accepted sets of the frontier's scan positions, plus
    each of their context-dependent tokens that survives a trial advance
    on the state. eos is included exactly when the state is already a
    complete member of the language.
    """
    out = set()
    if s.is_complete():
        out.add(t.vocab.eos_id)
    cached = t._cache.get(s.tables)
    if cached is None:
        cached = t._cache[s.tables] = {}
    dependent = set()
    for pos in kernel.scan_positions(s):
        split = cached.get(pos)
        if split is None:  # classified on its first use by any state of the grammar
            key = kernel.classify(s.tables, pos, t.root)
            split = t._interned.get(key)
            if split is None:
                split = t._interned[key] = _Split(*key)
            cached[pos] = split
        out |= split.accepted
        dependent |= split.dependent
    # Trial advances share prefixes: `reached` maps each prefix advanced
    # so far to its state, or None once it died.
    reached = {"": s}
    entries = t.vocab.entries
    for tid in dependent - out:
        text = entries[tid]
        k = len(text)
        while text[:k] not in reached:
            k -= 1
        state = reached[text[:k]]
        while state is not None and k < len(text):
            state = state.advance_char(text[k])
            k += 1
            reached[text[:k]] = state
        if state is not None:
            out.add(tid)
    return out


def dense_mask(ids, size: int) -> list:
    """Decoder-friendly boolean view of a token-id set."""
    mask = [False] * size
    for tid in ids:
        if not 0 <= tid < size:
            raise VocabularyError(f"token id {tid} outside [0, {size})")
        mask[tid] = True
    return mask


def advance_token(s: PrefixState, t: TokenTrie, tid: int) -> PrefixState:
    """Advance a state by every character of one token's string."""
    if tid == t.vocab.eos_id:
        raise DisallowedTokenError("cannot advance past eos")
    if not 0 <= tid < t.vocab.size:
        raise DisallowedTokenError(f"token id {tid} outside [0, {t.vocab.size})")
    text = t.vocab[tid]
    state, consumed = s.advance_string(text)
    if state is None:
        raise DisallowedTokenError(
            f"token {tid} ({text!r}) dies at character offset {consumed}"
        )
    return state
