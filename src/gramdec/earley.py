"""Character-incremental Earley recognition.

A PrefixState is the frontier column of the chart after consuming a
character prefix: it holds that column's own closed items, also indexed by
the nonterminal each waits on, and the grammar's shared set of the items
it predicted, and the earlier columns are the states its own items'
origins point at. States are values: advancing builds one new state,
never mutates or copies the earlier ones, so beam-search branches can
fork freely. A prefix survives exactly when it extends to some member of
the language: recognition runs on the reduced grammar, which this module
builds and compiles once per grammar.
"""

from __future__ import annotations

import weakref

from .engine import kernel
from .grammar import Grammar, reduce


class CompiledGrammar:
    """A reduced grammar's empty-prefix state, which holds the kernel's
    tables and which every state of the grammar shares (states are never
    mutated). No state points back here, so once the grammar that keys
    this entry is dropped, reference counting frees it."""

    def __init__(self, grammar: Grammar):
        tables = kernel.compile_tables(grammar)
        self.initial = PrefixState(tables, None, *kernel.initial_column(tables))


# Grammar -> CompiledGrammar of its reduction. Equal grammars share an
# entry, which lives as long as the grammar that keys it. Two threads that
# miss at once both compile, and either entry is correct.
_compiled = weakref.WeakKeyDictionary()


class CharMask:
    """Set of legal next characters; may be cofinite via a negated class.

    Negated classes fold into one excluded set, the intersection of the
    classes less the positive characters, so equal masks have equal fields:
    a cofinite mask holds no positive characters and one negated class.
    """

    def __init__(self, positive, negated_classes=()):
        positive = frozenset(positive)
        negated = [frozenset(n) for n in negated_classes]
        if negated:
            self.positive = frozenset()
            self.negated_classes = (frozenset.intersection(*negated) - positive,)
        else:
            self.positive = positive
            self.negated_classes = ()

    def __contains__(self, c) -> bool:
        if self.negated_classes:
            return c not in self.negated_classes[0]
        return c in self.positive

    @property
    def is_finite(self) -> bool:
        return not self.negated_classes

    def as_set(self) -> frozenset:
        if not self.is_finite:
            raise ValueError("character mask is cofinite, not enumerable")
        return self.positive

    def __iter__(self):
        return iter(sorted(self.as_set()))

    def __eq__(self, other):
        if isinstance(other, CharMask):
            return (
                self.positive == other.positive
                and self.negated_classes == other.negated_classes
            )
        if isinstance(other, (set, frozenset)):
            return self.is_finite and self.positive == frozenset(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.positive, self.negated_classes))

    def __repr__(self):
        if self.is_finite:
            return f"CharMask({sorted(self.positive)!r})"
        return f"CharMask([], negated=[{sorted(self.negated_classes[0])!r}])"


class PrefixState:
    """Earley recognizer state after consuming a character prefix: the
    grammar's tables, the empty-prefix state (None on that state itself,
    so no state refers to itself), and the frontier column's own items,
    its waits and its shared prediction set. States are weakly referable,
    so a cache can key on a grammar's empty-prefix state and go with the
    grammar."""

    __slots__ = ("tables", "initial", "items", "waits", "pred", "__weakref__")

    def __init__(self, tables, initial: "PrefixState | None", items, waits, pred):
        self.tables = tables
        self.initial = initial
        self.items = items
        self.waits = waits
        self.pred = pred

    def advance_char(self, c: str) -> "PrefixState | None":
        """New state after one character, or None if the prefix dies."""
        if len(c) != 1:
            raise ValueError("advance_char takes exactly one character")
        advanced = kernel.advance(self.tables, self, c)
        if advanced is None:
            return None
        return PrefixState(self.tables, self.initial or self, *advanced)

    def advance_string(self, s: str) -> "tuple[PrefixState | None, int]":
        """Advance over each character; returns (state or None, chars consumed)."""
        state = self
        for i, c in enumerate(s):
            nxt = state.advance_char(c)
            if nxt is None:
                return None, i
            state = nxt
        return state, len(s)

    def allowed_next_chars(self) -> CharMask:
        positive, negated = kernel.next_chars(self.tables, self)
        return CharMask(positive, negated)

    def is_complete(self) -> bool:
        return kernel.accepted(self.tables, self.initial or self, self)


def init_state(g: Grammar) -> PrefixState:
    """The grammar's shared empty-prefix state. The grammar is reduced and
    compiled on first use; raises EmptyLanguageError if its language is
    empty."""
    compiled = _compiled.get(g)
    if compiled is None:
        compiled = _compiled[g] = CompiledGrammar(reduce(g))
    return compiled.initial


def check_string(g: Grammar, text: str):
    """Recognize a whole string: (verdict, offset).

    verdict is "accepted" (member), "incomplete" (viable prefix but not a
    member), or "rejected" with offset at the first dead character.
    """
    state = init_state(g)
    nxt, consumed = state.advance_string(text)
    if nxt is None:
        return "rejected", consumed
    if nxt.is_complete():
        return "accepted", len(text)
    return "incomplete", len(text)
