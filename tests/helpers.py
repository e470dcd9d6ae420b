"""Shared test utilities: random grammar generation and independent oracles.

The oracles here deliberately avoid the code paths they check: language
enumeration has a second breadth-first implementation, and token masks are
recomputed by per-token trial advancement.
"""

import random

from hypothesis import strategies as st

from gramdec.errors import EmptyLanguageError, EnumerationExplosion, GramdecError
from gramdec.grammar import (
    CHARCLASS,
    NONTERMINAL,
    TERMINAL,
    Grammar,
    Production,
    Symbol,
    enumerate_language,
    reduce,
)
from gramdec.tokens import Vocabulary


def random_grammar(rng: random.Random, max_nts=4, alphabet="abc", max_prods=8):
    """One random reduced grammar, or None if the draw was degenerate."""
    n_nts = rng.randint(1, max_nts)
    names = [chr(ord("A") + i) for i in range(n_nts)]
    prods = []
    seen = set()
    for _ in range(rng.randint(n_nts, max_prods)):
        lhs = rng.choice(names)
        rhs = []
        for _ in range(rng.randint(0, 3)):
            r = rng.random()
            if r < 0.45:
                text = "".join(
                    rng.choice(alphabet) for _ in range(rng.randint(1, 2))
                )
                rhs.append(Symbol.t(text))
            elif r < 0.8:
                rhs.append(Symbol.nt(rng.choice(names)))
            else:
                k = rng.randint(1, min(3, len(alphabet)))
                rhs.append(Symbol.cc(rng.sample(list(alphabet), k)))
        if not rhs:
            rhs = [Symbol.t("")]
        key = (lhs, tuple(rhs))
        if key in seen:
            continue
        seen.add(key)
        prods.append(Production(lhs, tuple(rhs)))
    if not any(p.lhs == names[0] for p in prods):
        prods.insert(0, Production(names[0], (Symbol.t(rng.choice(alphabet)),)))
    try:
        return reduce(Grammar(names[0], prods))
    except (EmptyLanguageError, GramdecError):
        return None


def random_grammars(count, seed, max_lang=4000, enum_len=8, **kwargs):
    """Yield `count` reduced random grammars with enumerable languages."""
    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        assert attempts < count * 200, "random grammar generation stalled"
        g = random_grammar(rng, **kwargs)
        if g is None:
            continue
        bounds = [b for b in (4, 6) if b < enum_len] + [enum_len]
        try:
            # step the bound up so exploding grammars bail cheaply
            lang = None
            for bound in bounds:
                lang = enumerate_language(g, bound)
                if len(lang) > max_lang:
                    lang = None
                    break
        except EnumerationExplosion:
            continue
        if lang is None:
            continue
        if len(lang) > max_lang:
            continue
        produced += 1
        yield g, lang


def bfs_enumerate(grammar: Grammar, max_len: int):
    """Second, independent enumeration oracle: breadth-first expansion of
    the leftmost nonterminal over sentential forms."""
    by_lhs = {}
    for p in grammar.productions:
        by_lhs.setdefault(p.lhs, []).append(p)

    min_len = {nt: None for nt in by_lhs}
    changed = True
    while changed:
        changed = False
        for p in grammar.productions:
            total = 0
            ok = True
            for s in p.rhs:
                if s.kind == TERMINAL:
                    total += len(s.text)
                elif s.kind == CHARCLASS:
                    total += 1
                else:
                    m = min_len.get(s.name)
                    if m is None:
                        ok = False
                        break
                    total += m
            if ok and (min_len[p.lhs] is None or total < min_len[p.lhs]):
                min_len[p.lhs] = total
                changed = True

    def lower_bound(form):
        total = len(form[0])
        for s in form[1]:
            if s.kind == TERMINAL:
                total += len(s.text)
            elif s.kind == CHARCLASS:
                total += 1
            else:
                total += min_len[s.name] or 0
        return total

    out = set()
    start = ("", (Symbol.nt(grammar.start),))
    frontier = [start]
    visited = {start}
    cap = max_len + 8  # guards unit/epsilon cycles in pathological draws
    while frontier:
        nxt = []
        for prefix, rest in frontier:
            if not rest:
                if len(prefix) <= max_len:
                    out.add(prefix)
                continue
            head, tail = rest[0], rest[1:]
            if head.kind == TERMINAL:
                form = (prefix + head.text, tail)
                if lower_bound(form) <= max_len and form not in visited:
                    visited.add(form)
                    nxt.append(form)
            elif head.kind == CHARCLASS:
                for c in sorted(head.chars):
                    form = (prefix + c, tail)
                    if lower_bound(form) <= max_len and form not in visited:
                        visited.add(form)
                        nxt.append(form)
            else:
                for p in by_lhs[head.name]:
                    body = tuple(s for s in p.rhs if not (s.kind == TERMINAL and not s.text))
                    form = (prefix, body + tail)
                    if len(form[1]) > cap:
                        continue
                    if lower_bound(form) <= max_len and form not in visited:
                        visited.add(form)
                        nxt.append(form)
        frontier = nxt
    return out


def saturated_prefixes(
    grammar, max_prefix_len=6, start_len=8, max_enum_len=12, limit=50_000
):
    """Exact prefix oracle: prefixes (up to max_prefix_len) of language
    members, enumerated at growing length bounds until the prefix set stops
    changing twice in a row. Returns None when saturation is not reached
    (such grammars are skipped by callers: the enumeration bound would not
    certify non-viability)."""
    previous = None
    stable = 0
    for bound in range(start_len, max_enum_len + 1, 2):
        try:
            lang = enumerate_language(grammar, bound, limit=limit)
        except (EnumerationExplosion, GramdecError):
            return None
        current = {p for p in prefixes_of(lang) if len(p) <= max_prefix_len}
        if current == previous:
            stable += 1
            if stable >= 2:
                return current
        else:
            stable = 0
        previous = current
    return None


def prefixes_of(strings):
    out = set()
    for s in strings:
        for i in range(len(s) + 1):
            out.add(s[:i])
    return out


def make_vocab(tokens):
    """Vocabulary from token strings; eos is appended as the last id."""
    entries = list(tokens) + [""]
    return Vocabulary(entries, eos_id=len(entries) - 1)


def random_vocab(rng: random.Random, alphabet="abc", max_tokens=12, max_len=3):
    n = rng.randint(1, max_tokens)
    seen = set()
    tokens = []
    for _ in range(n):
        t = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
        if t not in seen:
            seen.add(t)
            tokens.append(t)
    return make_vocab(tokens)


def grammar_alphabet(grammar):
    """The characters the grammar's terminals and classes name."""
    alphabet = set()
    for p in grammar.productions:
        for sym in p.rhs:
            if sym.kind == TERMINAL:
                alphabet.update(sym.text)
            elif sym.kind == CHARCLASS:
                alphabet.update(sym.chars)
    return alphabet


# any character a str can hold: escapes, quotes, brackets, control and
# line-separator characters included
CHARS = st.characters(exclude_categories=("Cs",))
_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True)

# the grammar format's special characters and blanks, and a few whole
# items, so that some drawn texts are grammars
_TEXT_PIECES = list('SA_"\\[]^-|>#@$ant09 \t\r') + ['"a"', "[a-c]", " S", " A", '""']


def grammar_texts():
    """Hypothesis strategy: hostile grammar text, lines of rules and of
    anything else."""
    junk = st.lists(st.sampled_from(_TEXT_PIECES + ["->", "@start ", "\n"]), max_size=10)
    rule = st.tuples(
        st.sampled_from(["S", "A", "  S", "1x", ""]),
        st.sampled_from([" -> ", "->", "  ->", " "]),
        st.lists(st.sampled_from(_TEXT_PIECES), max_size=8).map("".join),
    )
    line = st.one_of(rule, rule, rule, junk).map("".join)  # rules 3 times as often
    return st.lists(line, max_size=4).map("\n".join)


@st.composite
def grammars(draw):
    """Hypothesis strategy: unreduced grammars over any characters."""
    names = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    symbol = st.one_of(
        st.text(CHARS, min_size=1, max_size=4).map(Symbol.t),
        st.sampled_from(names).map(Symbol.nt),
        st.builds(Symbol.cc, st.frozensets(CHARS, min_size=1, max_size=5), st.booleans()),
    )
    rhs = st.one_of(st.just(()), st.lists(symbol, min_size=1, max_size=4).map(tuple))
    productions = [
        Production(name, r)
        for name in names
        for r in draw(st.lists(rhs, min_size=1, max_size=3, unique=True))
    ]
    return Grammar(draw(st.sampled_from(names)), productions)
