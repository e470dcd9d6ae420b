"""Context-free grammar data model, textual format, reduction, and enumeration.

Grammars are character-level: terminals are raw strings, character classes
match exactly one character, and repetition is expressed through recursive
nonterminals. The empty string terminal ("") is the explicit epsilon and is
only legal as a production's entire right-hand side.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    EmptyLanguageError,
    EnumerationExplosion,
    GramdecError,
    GrammarSyntaxError,
    GrammarValidationError,
)

TERMINAL = "terminal"
NONTERMINAL = "nonterminal"
CHARCLASS = "charclass"

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Symbol:
    """One grammar symbol: terminal literal, nonterminal, or character class."""

    kind: str
    text: str = ""
    name: str = ""
    chars: frozenset = frozenset()
    negated: bool = False

    @staticmethod
    def t(text: str) -> "Symbol":
        return Symbol(TERMINAL, text=text)

    @staticmethod
    def nt(name: str) -> "Symbol":
        return Symbol(NONTERMINAL, name=name)

    @staticmethod
    def cc(chars, negated: bool = False) -> "Symbol":
        return Symbol(CHARCLASS, chars=frozenset(chars), negated=negated)


@dataclass(frozen=True)
class Production:
    lhs: str
    rhs: tuple

    def __post_init__(self):
        rhs = tuple(self.rhs)
        if not rhs:  # normalize: epsilon is always the explicit "" terminal
            rhs = (Symbol.t(""),)
        object.__setattr__(self, "rhs", rhs)


class Grammar:
    """Immutable CFG: start symbol plus an ordered production list.

    Validation runs at construction: every referenced nonterminal must be
    defined, the start symbol must have at least one production, duplicate
    productions are rejected, and epsilon terminals may only appear as an
    entire right-hand side.
    """

    def __init__(self, start: str, productions):
        self.start = start
        self.productions = tuple(productions)
        self._hash = None  # computed on first use; the grammar never changes
        self._validate()

    def _validate(self):
        if not self.start:
            raise GrammarValidationError("start symbol is empty")
        defined = dict.fromkeys(p.lhs for p in self.productions)
        if self.start not in defined:
            raise GrammarValidationError(
                f"start symbol {self.start!r} has no productions"
            )
        for name in defined:
            if not _NAME.fullmatch(name):  # the text format could not spell it
                raise GrammarValidationError(f"bad nonterminal name {name!r}")
        seen = set()
        for p in self.productions:
            key = (p.lhs, p.rhs)
            if key in seen:
                raise GrammarValidationError(
                    f"duplicate production for {p.lhs!r}"
                )
            seen.add(key)
            for i, sym in enumerate(p.rhs):
                if sym.kind == NONTERMINAL:
                    if sym.name not in defined:
                        raise GrammarValidationError(
                            f"undefined nonterminal {sym.name!r} "
                            f"referenced from {p.lhs!r}"
                        )
                elif sym.kind == TERMINAL:
                    if sym.text == "" and len(p.rhs) != 1:
                        raise GrammarValidationError(
                            f"epsilon terminal must be the entire rhs "
                            f"(production for {p.lhs!r})"
                        )
                elif sym.kind == CHARCLASS:
                    if not sym.chars:
                        raise GrammarValidationError(
                            f"empty character class in production for {p.lhs!r}"
                        )
                else:
                    raise GrammarValidationError(f"unknown symbol kind {sym.kind!r}")

    @property
    def nonterminals(self):
        return list(dict.fromkeys(p.lhs for p in self.productions))

    def __eq__(self, other):
        return (
            isinstance(other, Grammar)
            and self.start == other.start
            and self.productions == other.productions
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.start, self.productions))
        return self._hash

    def __repr__(self):
        return f"Grammar(start={self.start!r}, {len(self.productions)} productions)"


# ---------------------------------------------------------------------------
# Textual grammar format


_LITERAL_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}
_CLASS_ESCAPES = {"]": "]", "\\": "\\", "n": "\n", "t": "\t", "-": "-", "^": "^", "[": "["}
_LITERAL_TABLE = str.maketrans({c: "\\" + e for e, c in _LITERAL_ESCAPES.items()})
_CLASS_TABLE = str.maketrans({c: "\\" + e for e, c in _CLASS_ESCAPES.items()})

# One rhs item: blanks, "|", a literal, a class, a name, or any other
# character. A literal's or class's body runs to its closing character or
# to the end of the line, and may end in a lone backslash.
_ITEM = re.compile(
    r'[ \t]+|(\|)|"((?:[^"\\]|\\.?)*)("?)|\[(\^?)((?:[^\]\\]|\\.?)*)(\]?)'
    rf"|({_NAME.pattern})|(.)",
    re.S,
)
_ESCAPE = re.compile(r"\\(.?)", re.S)
# One part of a class body: an escape, a range, or one character.
_CLASS_PART = re.compile(r"\\(.?)|([^\\])-([^\\])|(.)", re.S)


def _parse_rhs_items(lineno: int, start_col: int, text: str):
    """Parse a rule's rhs into its alternatives, each a list of Symbols.

    A top-level ``|`` ends an alternative; inside quotes and classes it is
    an ordinary character. An empty alternative is epsilon. Errors are
    reported left to right, so a bad part of a body wins over a missing
    closing character.
    """
    alts = []
    items = []

    def err(msg, offset):
        raise GrammarSyntaxError(msg, lineno, start_col + offset + 1)

    for m in _ITEM.finditer(text):
        bar, lit, lit_end, negated, body, cls_end, name, other = m.groups()
        if bar:
            alts.append(items)
            items = []
        elif lit is not None:
            if "\\" in lit:
                for e in _ESCAPE.finditer(text, m.start(2), m.end(2)):
                    if e[1] not in _LITERAL_ESCAPES:
                        err("bad escape in string literal", e.start())
                lit = _ESCAPE.sub(lambda e: _LITERAL_ESCAPES[e[1]], lit)
            if not lit_end:
                err("unterminated string literal", m.start())
            items.append(Symbol.t(lit))
        elif body is not None:
            chars = set()
            for part in _CLASS_PART.finditer(text, m.start(5), m.end(5)):
                escape, lo, hi, char = part.groups()
                if escape is not None:
                    if escape not in _CLASS_ESCAPES:
                        err("bad escape in character class", part.start())
                    chars.add(_CLASS_ESCAPES[escape])
                elif lo is not None:
                    if lo > hi:
                        err(f"inverted range {lo}-{hi}", part.start())
                    chars.update(map(chr, range(ord(lo), ord(hi) + 1)))
                else:
                    chars.add(char)
            if not cls_end:
                err("unterminated character class", m.start())
            if not chars:
                err("empty character class", m.start())
            items.append(Symbol.cc(chars, bool(negated)))
        elif name:
            items.append(Symbol.nt(name))
        elif other:
            err(f"unexpected character {other!r}", m.start())
    alts.append(items)
    return alts


def parse_grammar(text: str) -> Grammar:
    """Parse the line-based grammar format into a Grammar.

    Format: ``# comment`` lines, an optional ``@start Name`` directive, and
    rules ``Name -> item item ...`` where an item is a quoted literal, a
    ``[...]``/``[^...]`` character class, or a bare nonterminal identifier.
    ``|`` separates alternatives on one line. The first rule's lhs is the
    start symbol unless ``@start`` overrides it. Lines end at ``\n`` only,
    so literals and classes may hold any other character. A backslash
    escapes what ``_LITERAL_ESCAPES`` names in a literal and what
    ``_CLASS_ESCAPES`` names in a class; ``a-z`` in a class is a range.
    """
    productions = []
    start = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "@start":
            if start is not None:
                raise GrammarSyntaxError("duplicate @start directive", lineno, 1)
            if len(parts) != 2:
                raise GrammarSyntaxError("@start takes exactly one name", lineno, 1)
            start = parts[1]
            continue
        if "->" not in line:
            raise GrammarSyntaxError("expected 'Name -> ...' rule", lineno, 1)
        lhs_text, _, rhs_text = line.partition("->")
        lhs = lhs_text.strip()
        if not _NAME.fullmatch(lhs):
            raise GrammarSyntaxError(f"bad nonterminal name {lhs!r}", lineno, 1)
        col_base = raw.index("->") + 2
        for items in _parse_rhs_items(lineno, col_base, rhs_text):
            # "" alone is epsilon; elsewhere empty literals are rejected later
            productions.append(Production(lhs, tuple(items)))
    if not productions:
        raise GrammarSyntaxError("no rules in grammar", 1, 1)
    return Grammar(productions[0].lhs if start is None else start, productions)


def _serialize_symbol(sym: Symbol) -> str:
    if sym.kind == TERMINAL:
        return '"' + sym.text.translate(_LITERAL_TABLE) + '"'
    if sym.kind == NONTERMINAL:
        return sym.name
    body = "".join(sorted(sym.chars)).translate(_CLASS_TABLE)
    return "[" + ("^" if sym.negated else "") + body + "]"


def serialize_grammar(g: Grammar) -> str:
    """Deterministic textual form; reparses to a structurally equal Grammar."""
    lines = [f"@start {g.start}"]
    for p in g.productions:
        rhs = " ".join(_serialize_symbol(s) for s in p.rhs)
        lines.append(f"{p.lhs} -> {rhs}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Analysis: reduction, nullability, enumeration


def _production_rhs_nts(p: Production):
    return [s.name for s in p.rhs if s.kind == NONTERMINAL]


def _derivers(g: Grammar, leaf) -> set:
    """Nonterminals with a production made only of nonterminals in the set
    and of literals and classes that `leaf` accepts. Each production counts
    the symbols it still waits on, a symbol `leaf` rejects never arriving,
    and each nonterminal found counts its uses down once, so the cost is
    linear."""
    productions = g.productions
    waiting = []
    users = {}  # nonterminal -> the index of the production of each use
    work = []
    for i, p in enumerate(productions):
        n = 0
        for s in p.rhs:
            if s.kind == NONTERMINAL:
                users.setdefault(s.name, []).append(i)
                n += 1
            elif not leaf(s):
                n += 1
        waiting.append(n)
        if not n:
            work.append(p.lhs)
    found = set()
    while work:
        nt = work.pop()
        if nt in found:
            continue
        found.add(nt)
        for i in users.get(nt, ()):
            waiting[i] -= 1
            if not waiting[i]:
                work.append(productions[i].lhs)
    return found


def reduce(g: Grammar) -> Grammar:
    """Strip unreachable and unproductive nonterminals; language unchanged."""
    productive = _derivers(g, lambda s: True)
    if g.start not in productive:
        raise EmptyLanguageError(
            f"start symbol {g.start!r} derives no terminal string"
        )
    useful = [
        p
        for p in g.productions
        if p.lhs in productive
        and all(n in productive for n in _production_rhs_nts(p))
    ]
    reachable = {g.start}
    frontier = [g.start]
    by_lhs = {}
    for p in useful:
        by_lhs.setdefault(p.lhs, []).append(p)
    while frontier:
        nt = frontier.pop()
        for p in by_lhs.get(nt, []):
            for n in _production_rhs_nts(p):
                if n not in reachable:
                    reachable.add(n)
                    frontier.append(n)
    kept = [p for p in useful if p.lhs in reachable]
    return Grammar(g.start, kept)


def nullable_set(g: Grammar) -> set:
    """Nonterminals that derive the empty string."""
    return _derivers(g, lambda s: s.kind == TERMINAL and not s.text)


_ENUM_LIMIT = 10**6


def enumerate_language(g: Grammar, max_len: int, limit: int = _ENUM_LIMIT) -> set:
    """All strings of L(g) with length <= max_len, by bottom-up fixpoint.

    Brute-force oracle for the recognizer tests; refuses negated character
    classes (their alphabet is unbounded) and raises EnumerationExplosion
    once more than `limit` strings accumulate across nonterminals.
    """
    if max_len > 12:
        raise GramdecError("enumerate_language is capped at max_len 12")
    for p in g.productions:
        for s in p.rhs:
            if s.kind == CHARCLASS and s.negated:
                raise GramdecError(
                    "cannot enumerate a language with negated character classes"
                )
    lang = {nt: set() for nt in {p.lhs for p in g.productions}}
    changed = True
    while changed:
        changed = False
        total = sum(len(v) for v in lang.values())
        for p in g.productions:
            partial = {""}
            for s in p.rhs:
                nxt = set()
                if s.kind == TERMINAL:
                    pieces = [s.text]
                elif s.kind == CHARCLASS:
                    pieces = s.chars
                else:
                    pieces = sorted(lang[s.name], key=len)  # shortest first
                for left in partial:
                    room = max_len - len(left)
                    for piece in pieces:
                        if len(piece) > room:
                            break
                        nxt.add(left + piece)
                partial = nxt
                if not partial:
                    break
            before = len(lang[p.lhs])
            lang[p.lhs] |= partial
            if len(lang[p.lhs]) != before:
                changed = True
            total += len(lang[p.lhs]) - before
            if total > limit:
                raise EnumerationExplosion(
                    f"language enumeration exceeded {limit} strings"
                )
    return lang[g.start]
