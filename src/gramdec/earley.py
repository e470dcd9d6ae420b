"""Character-incremental Earley recognition.

A PrefixState is the kernel's frontier column after consuming a character
prefix (see `engine.kernel`). A prefix survives exactly when it extends to
some member of the language: recognition runs on the reduced grammar,
which this module builds and compiles once per grammar, and whole strings
are checked here.
"""

from __future__ import annotations

import weakref

from .engine import kernel
from .engine.kernel import CharMask, PrefixState  # noqa: F401  (public names)
from .grammar import Grammar, reduce


class CompiledGrammar:
    """A reduced grammar's empty-prefix state, which holds the kernel's
    tables and which every state of the grammar shares (states are never
    mutated). No state points back here, so once the grammar that keys
    this entry is dropped, reference counting frees it."""

    def __init__(self, grammar: Grammar):
        self.initial = kernel.initial_state(kernel.compile_tables(grammar))


# Grammar -> CompiledGrammar of its reduction. Equal grammars share an
# entry, which lives as long as the grammar that keys it. Two threads that
# miss at once both compile, and either entry is correct.
_compiled = weakref.WeakKeyDictionary()


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
