"""Subword vocabulary handling and exact legal-next-token masks.

The mask engine is tokenizer-agnostic: tokens are plain character strings,
so byte-level vocabularies work by treating bytes as characters of the
terminal alphabet. The end-of-sequence token is legal exactly when the
consumed prefix is a complete member of the grammar's language, which rules
out truncated outputs by construction.
"""

from __future__ import annotations

import json

from .earley import PrefixState
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


class TokenTrie:
    """Immutable prefix trie over the vocabulary's token strings."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
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

    def lookup(self, text: str):
        """Token ids whose string is exactly `text` (empty list if none)."""
        node = self.root
        for ch in text:
            node = node.children.get(ch)
            if node is None:
                return []
        return list(node.token_ids)


def build_trie(v: Vocabulary) -> TokenTrie:
    return TokenTrie(v)


def allowed_tokens(s: PrefixState, t: TokenTrie) -> set:
    """Exact legal-next-token set for a grammar state.

    Co-walks the trie with the recognizer, pruning a whole subtree as soon
    as a character dies. eos is included exactly when the state is already
    a complete member of the language.
    """
    out = set()
    if s.is_complete():
        out.add(t.vocab.eos_id)
    stack = [(t.root, s)]
    while stack:
        node, state = stack.pop()
        for ch, child in node.children.items():
            nxt = state.advance_char(ch)
            if nxt is None:
                continue
            out.update(child.token_ids)
            if child.children:
                stack.append((child, nxt))
    return out


def dense_mask(ids, size: int) -> list:
    """Decoder-friendly boolean view of a token-id set."""
    mask = [False] * size
    for tid in ids:
        mask[tid] = True
    return mask


def advance_token(s: PrefixState, t: TokenTrie, tid: int) -> PrefixState:
    """Advance a state by every character of one token's string."""
    if tid == t.vocab.eos_id:
        raise DisallowedTokenError("cannot advance past eos")
    text = t.vocab[tid]
    state, consumed = s.advance_string(text)
    if state is None:
        raise DisallowedTokenError(
            f"token {tid} ({text!r}) dies at character offset {consumed}"
        )
    return state
