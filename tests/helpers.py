"""Shared test utilities: random grammar generation, independent oracles
and local scorer servers, over http and https.

The oracles here deliberately avoid the code paths they check: language
enumeration has a second breadth-first implementation, viable prefixes are
enumerated from a prefix grammar, and token masks are recomputed by
per-token trial advancement.
"""

import contextlib
import json
import math
import random
import re
import shutil
import socket
import ssl
import subprocess
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import strategies as st

from gramdec.earley import init_state
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


def _shortest_yields(grammar: Grammar) -> dict:
    """Nonterminal -> the length of its shortest derived string, by
    fixpoint; None for an unproductive nonterminal."""
    min_len = {p.lhs: None for p in grammar.productions}
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
    return min_len


def bfs_enumerate(grammar: Grammar, max_len: int):
    """Second, independent enumeration oracle: breadth-first expansion of
    the leftmost nonterminal over sentential forms."""
    by_lhs = {}
    for p in grammar.productions:
        by_lhs.setdefault(p.lhs, []).append(p)
    min_len = _shortest_yields(grammar)

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


def viable_prefixes(grammar, max_prefix_len=6, limit=50_000):
    """Exact prefix oracle: the prefixes (up to max_prefix_len) of language
    members, enumerated from the prefix grammar, in which PRE(A) derives
    every prefix of every string that A derives. Returns None for negated
    classes and when the enumeration exceeds `limit`."""
    productive = {nt for nt, m in _shortest_yields(grammar).items() if m is not None}
    full = {nt: f"F{i}" for i, nt in enumerate(productive)}
    pre = {nt: f"P{i}" for i, nt in enumerate(productive)}
    rules = {}
    for p in grammar.productions:
        nts = [s.name for s in p.rhs if s.kind == NONTERMINAL]
        if p.lhs not in productive or not productive.issuperset(nts):
            continue  # no member derives through it
        rhs = tuple(Symbol.nt(full[s.name]) if s.kind == NONTERMINAL else s for s in p.rhs)
        rules[full[p.lhs], rhs] = rules[pre[p.lhs], rhs] = None
        for i, s in enumerate(p.rhs):
            # PRE(A) -> X1 .. X(i-1) and then PRE(Xi), or a proper prefix
            # of a terminal or class Xi
            if s.kind == NONTERMINAL:
                tails = [(Symbol.nt(pre[s.name]),)]
            elif s.kind == TERMINAL:
                tails = [(Symbol.t(s.text[:k]),) if k else () for k in range(len(s.text))]
            else:
                tails = [()]
            for tail in tails:
                rules[pre[p.lhs], rhs[:i] + tail or (Symbol.t(""),)] = None
    try:
        prefix_grammar = Grammar(pre[grammar.start], [Production(*r) for r in rules])
        lang = enumerate_language(prefix_grammar, max_prefix_len, limit=limit)
    except (EnumerationExplosion, GramdecError):
        return None
    return lang


def viable_prefix_states(g, lang, max_len=6):
    """(prefix, state) for every prefix (up to max_len) of the members
    `lang`, shortest first, sharing parent states so that each prefix
    costs one advance."""
    words = {w[:k] for w in lang for k in range(min(len(w), max_len) + 1)}
    states = {"": init_state(g)}
    for word in sorted(words, key=lambda w: (len(w), w)):
        if word:
            state = states[word[:-1]].advance_char(word[-1])
            assert state is not None, (g, word)
            states[word] = state
        yield word, states[word]


def assert_survival_is_viability(g, max_len=6):
    """Every word up to max_len over `probe_alphabet(g)` survives exactly
    when it is a viable prefix."""
    viable = viable_prefixes(g, max_len)
    alphabet = probe_alphabet(g)
    frontier = [("", init_state(g))]
    while frontier:
        prefix, state = frontier.pop()
        if len(prefix) == max_len:
            continue
        for c in alphabet:
            nxt = state.advance_char(c)
            assert (nxt is not None) == (prefix + c in viable), (g, prefix + c)
            if nxt is not None:
                frontier.append((prefix + c, nxt))


def oracle_allowed(state, vocab):
    """Independent mask oracle: trial-advance every token string."""
    out = set()
    for tid, text in enumerate(vocab.entries):
        if tid == vocab.eos_id:
            if state.is_complete():
                out.add(tid)
            continue
        nxt, _ = state.advance_string(text)
        if nxt is not None:
            out.add(tid)
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


def probe_alphabet(grammar):
    """The grammar's characters, sorted, and "z", which no random grammar
    uses: one character outside the alphabet exercises sure-reject paths."""
    return sorted(grammar_alphabet(grammar) | {"z"})


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


# names that `grammars` draws no other nonterminal by: drawn names have at
# most 5 characters
LOOP_NAMES = ("Loop_a", "Loop_b")


@st.composite
def grammars(draw, loops=False):
    """Hypothesis strategy: unreduced grammars over any characters. With
    `loops`, also two loop-shaped nonterminals, `A -> C A` and either
    `A -> ""` or `A -> C`, for C a one-character terminal or a positive or
    negated class, used anywhere in the other productions' right-hand
    sides, also in a row, and drawn as the start too."""
    names = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    symbols = [
        st.text(CHARS, min_size=1, max_size=4).map(Symbol.t),
        st.sampled_from(names).map(Symbol.nt),
        st.builds(Symbol.cc, st.frozensets(CHARS, min_size=1, max_size=5), st.booleans()),
    ]
    productions = []
    if loops:
        symbols.append(st.sampled_from(LOOP_NAMES).map(Symbol.nt))
        scan = st.one_of(
            st.text(CHARS, min_size=1, max_size=1).map(Symbol.t),
            st.builds(Symbol.cc, st.frozensets(CHARS, min_size=1, max_size=2), st.booleans()),
        )
        for name in LOOP_NAMES:
            c = draw(scan)
            productions.append(Production(name, (c, Symbol.nt(name))))
            productions.append(Production(name, draw(st.sampled_from([(), (c,)]))))
    symbol = st.one_of(symbols)
    rhs = st.one_of(st.just(()), st.lists(symbol, min_size=1, max_size=4).map(tuple))
    productions += [
        Production(name, r)
        for name in names
        for r in draw(st.lists(rhs, min_size=1, max_size=3, unique=True))
    ]
    start = draw(st.sampled_from(names + list(LOOP_NAMES) if loops else names))
    return Grammar(start, productions)


# 200 bodies that are not a JSON object whose "scores" is a list of numbers
BAD_BODIES = {
    "garbage": b"not json",
    "list": b"[1, 2, 3]",
    "scores-int": b'{"scores": 5}',
    "scores-str": b'{"scores": ["x", "y", "z"]}',
    "scores-null": b'{"scores": [0.0, null, 0.0]}',
    "deep": b"[" * 100_000,  # deeper than the parser's recursion limit
}


class ScorerHandler(BaseHTTPRequestHandler):
    """A scorer service over a 3-token vocabulary, answering as `behavior`
    says: "ok", "error" (HTTP 500) or one of BAD_BODIES. `last_request`
    holds the last request's JSON body and headers."""

    behavior = "ok"
    last_request = None

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        ScorerHandler.last_request = body, self.headers
        if self.behavior == "error":
            self.send_response(500)
            self.end_headers()
            return
        if self.behavior in BAD_BODIES:
            payload = BAD_BODIES[self.behavior]
        else:
            n = 3
            scores = [math.log(1 / n)] * n
            # echo length of prefix into the first score for testability
            scores[0] += 0.001 * len(body["prefix"])
            payload = json.dumps({"scores": scores}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _serving(tls=None):
    """The port of a ScorerHandler on 127.0.0.1, answering "ok" until a test
    sets ScorerHandler.behavior; over TLS with the (certificate, key) files
    `tls`."""
    ScorerHandler.behavior = "ok"
    ScorerHandler.last_request = None
    server = HTTPServer(("127.0.0.1", 0), ScorerHandler)
    if tls is not None:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(*tls)
        server.socket = context.wrap_socket(server.socket, server_side=True)
    # a short poll interval: shutdown() waits for the next poll
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def scorer_server():
    """The URL of a ScorerHandler on a local port, answering "ok" until a
    test sets ScorerHandler.behavior."""
    with _serving() as port:
        yield f"http://127.0.0.1:{port}/"


@pytest.fixture()
def tls_cert(tmp_path):
    """(certificate, key) files of a new self-signed certificate for
    127.0.0.1, made by the local openssl; the test is skipped without it."""
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("openssl is not installed")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        [openssl, "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1",
         "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
         "-keyout", str(key), "-out", str(cert)],
        check=True, capture_output=True, timeout=60,
    )
    return cert, key


@pytest.fixture()
def https_scorer_server(tls_cert):
    """scorer_server over https, behind tls_cert's certificate, which no
    client trusts unless a test names it in SSL_CERT_FILE."""
    with _serving(tls_cert) as port:
        yield f"https://127.0.0.1:{port}/"


def _read_request(conn):
    """Read one HTTP request with a Content-Length body off conn."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = re.search(rb"(?im)^content-length:\s*(\d+)", head)
    left = int(length.group(1)) - len(body) if length else 0
    while left > 0:
        chunk = conn.recv(left)
        if not chunk:
            return
        left -= len(chunk)


@contextlib.contextmanager
def raw_server(reply):
    """The URL of a server on a local port that takes one connection, reads
    one request and then sends the bytes `reply` and closes, or (reply None)
    stays silent until the client hangs up. Each wait is bounded by 10 s."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)

    def serve():
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        with conn:
            conn.settimeout(10)
            try:
                _read_request(conn)
                if reply is None:
                    conn.recv(1)
                else:
                    conn.sendall(reply)
            except OSError:
                pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}/"
    finally:
        thread.join()
        listener.close()
