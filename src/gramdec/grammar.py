"""Context-free grammar data model, textual format, reduction, and enumeration.

Grammars are character-level: terminals are raw strings, character classes
match exactly one character, and repetition is expressed through recursive
nonterminals. The empty string terminal ("") is the explicit epsilon and is
only legal as a production's entire right-hand side.
"""

from __future__ import annotations

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

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


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
        defined = {p.lhs for p in self.productions}
        if self.start not in defined:
            raise GrammarValidationError(
                f"start symbol {self.start!r} has no productions"
            )
        seen = set()
        for p in self.productions:
            if not p.lhs:
                raise GrammarValidationError("empty nonterminal name")
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
        out = []
        seen = set()
        for p in self.productions:
            if p.lhs not in seen:
                seen.add(p.lhs)
                out.append(p.lhs)
        return out

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


def _parse_rhs_items(lineno: int, start_col: int, text: str):
    """Parse a rule's rhs into its alternatives, each a list of Symbols.

    A top-level ``|`` ends an alternative; inside quotes and classes it is
    an ordinary character. An empty alternative is epsilon.
    """
    alts = []
    items = []
    i = 0
    n = len(text)

    def err(msg, offset):
        raise GrammarSyntaxError(msg, lineno, start_col + offset + 1)

    while i < n:
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if c == "|":
            alts.append(items)
            items = []
            i += 1
        elif c == '"':
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    err("unterminated string literal", i)
                ch = text[j]
                if ch == '"':
                    break
                if ch == "\\":
                    if j + 1 >= n or text[j + 1] not in _LITERAL_ESCAPES:
                        err("bad escape in string literal", j)
                    buf.append(_LITERAL_ESCAPES[text[j + 1]])
                    j += 2
                else:
                    buf.append(ch)
                    j += 1
            items.append(Symbol.t("".join(buf)))
            i = j + 1
        elif c == "[":
            j = i + 1
            negated = False
            if j < n and text[j] == "^":
                negated = True
                j += 1
            chars = set()
            closed = False
            while j < n:
                ch = text[j]
                if ch == "]":
                    closed = True
                    j += 1
                    break
                if ch == "\\":
                    if j + 1 >= n or text[j + 1] not in _CLASS_ESCAPES:
                        err("bad escape in character class", j)
                    chars.add(_CLASS_ESCAPES[text[j + 1]])
                    j += 2
                    continue
                if (
                    j + 2 < n
                    and text[j + 1] == "-"
                    and text[j + 2] not in "]\\"
                ):
                    lo, hi = ch, text[j + 2]
                    if ord(lo) > ord(hi):
                        err(f"inverted range {lo}-{hi}", j)
                    chars.update(chr(k) for k in range(ord(lo), ord(hi) + 1))
                    j += 3
                    continue
                chars.add(ch)
                j += 1
            if not closed:
                err("unterminated character class", i)
            if not chars:
                err("empty character class", i)
            items.append(Symbol.cc(chars, negated))
            i = j
        elif c in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            items.append(Symbol.nt(text[i:j]))
            i = j
        else:
            err(f"unexpected character {c!r}", i)
    alts.append(items)
    return alts


def parse_grammar(text: str) -> Grammar:
    """Parse the line-based grammar format into a Grammar.

    Format: ``# comment`` lines, an optional ``@start Name`` directive, and
    rules ``Name -> item item ...`` where an item is a quoted literal, a
    ``[...]``/``[^...]`` character class, or a bare nonterminal identifier.
    ``|`` separates alternatives on one line. The first rule's lhs is the
    start symbol unless ``@start`` overrides it. Lines end at ``\n`` only,
    so literals and classes may hold any other character.
    """
    productions = []
    start = None
    start_directive_seen = False
    first_lhs = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@start"):
            if start_directive_seen:
                raise GrammarSyntaxError("duplicate @start directive", lineno, 1)
            start_directive_seen = True
            parts = line.split()
            if len(parts) != 2:
                raise GrammarSyntaxError("@start takes exactly one name", lineno, 1)
            start = parts[1]
            continue
        if "->" not in line:
            raise GrammarSyntaxError("expected 'Name -> ...' rule", lineno, 1)
        lhs_text, _, rhs_text = line.partition("->")
        lhs = lhs_text.strip()
        if not lhs or lhs[0] not in _IDENT_START or any(
            c not in _IDENT_CONT for c in lhs
        ):
            raise GrammarSyntaxError(f"bad nonterminal name {lhs!r}", lineno, 1)
        if first_lhs is None:
            first_lhs = lhs
        col_base = raw.index("->") + 2
        for items in _parse_rhs_items(lineno, col_base, rhs_text):
            # "" alone is epsilon; elsewhere empty literals are rejected later
            productions.append(Production(lhs, tuple(items)))
    if not productions:
        raise GrammarSyntaxError("no rules in grammar", 1, 1)
    if start is None:
        start = first_lhs
    return Grammar(start, productions)


def _escape_literal(text: str) -> str:
    out = []
    for c in text:
        if c == "\\":
            out.append("\\\\")
        elif c == '"':
            out.append('\\"')
        elif c == "\n":
            out.append("\\n")
        elif c == "\t":
            out.append("\\t")
        else:
            out.append(c)
    return '"' + "".join(out) + '"'


def _escape_class_char(c: str) -> str:
    if c in "]\\-^[":
        return "\\" + c
    if c == "\n":
        return "\\n"
    if c == "\t":
        return "\\t"
    return c


def _serialize_symbol(sym: Symbol) -> str:
    if sym.kind == TERMINAL:
        return _escape_literal(sym.text)
    if sym.kind == NONTERMINAL:
        return sym.name
    body = "".join(_escape_class_char(c) for c in sorted(sym.chars))
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


def reduce(g: Grammar) -> Grammar:
    """Strip unreachable and unproductive nonterminals; language unchanged."""
    productive = set()
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            if p.lhs in productive:
                continue
            if all(n in productive for n in _production_rhs_nts(p)):
                productive.add(p.lhs)
                changed = True
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
    nullable = set()
    changed = True
    while changed:
        changed = False
        for p in g.productions:
            if p.lhs in nullable:
                continue
            ok = True
            for s in p.rhs:
                if s.kind == TERMINAL:
                    if s.text != "":
                        ok = False
                        break
                elif s.kind == CHARCLASS:
                    ok = False
                    break
                elif s.name not in nullable:
                    ok = False
                    break
            if ok:
                nullable.add(p.lhs)
                changed = True
    return nullable


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
                    pieces = sorted(s.chars)
                else:
                    pieces = lang[s.name]
                for left in partial:
                    room = max_len - len(left)
                    for piece in pieces:
                        if len(piece) <= room:
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
