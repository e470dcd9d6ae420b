import gc
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gramdec.decoder import DecodeConfig, decode, train_ngram
from gramdec.earley import CharMask, check_string, init_state
from gramdec.engine import kernel
from gramdec.errors import EmptyLanguageError
from gramdec.grammar import (
    Grammar,
    Production,
    Symbol,
    enumerate_language,
    nullable_set,
    parse_grammar,
    reduce,
)
from gramdec.induction import (
    SignatureTable,
    induce_lispress_grammar,
    induce_mtop_grammar,
    parse_mtop,
    type_check,
)
from gramdec.lispress import parse_sexp
from gramdec.sql import (
    DbColumn,
    DbSchema,
    DbTable,
    load_base_sql_grammar,
    specialize_sql_grammar,
)
from gramdec.tokens import Vocabulary, allowed_tokens, build_trie

from helpers import (
    assert_survival_is_viability,
    grammar_alphabet,
    grammars,
    probe_alphabet,
    random_grammars,
    viable_prefix_states,
    viable_prefixes,
)

ANBN = reduce(parse_grammar('@start S\nS -> "a" S "b"\nS -> ""'))


class TestInit:
    def test_epsilon_in_language(self):
        assert init_state(ANBN).is_complete() is True

    def test_not_complete(self):
        g = parse_grammar('S -> "a"')
        assert init_state(g).is_complete() is False

    def test_initial_allowed_chars(self):
        # oracle: first characters of enumerated members
        firsts = {w[0] for w in enumerate_language(ANBN, 6) if w}
        assert init_state(ANBN).allowed_next_chars() == firsts == {"a"}

    def test_unreduced_grammar_recognizes_like_its_reduction(self):
        checked = 0
        for g, _ in random_grammars(30, seed=83, max_lang=400):
            noisy = Grammar(
                g.start,
                g.productions
                + (
                    Production(g.start, (Symbol.t("b"), Symbol.nt("Loop"))),
                    Production("Loop", (Symbol.t("c"), Symbol.nt("Loop"))),  # unproductive
                    Production("Unreached", (Symbol.t("a"),)),
                ),
            )
            frontier = [("", init_state(noisy), init_state(reduce(noisy)))]
            while frontier:
                word, s, r = frontier.pop()
                assert check_string(noisy, word) == check_string(reduce(noisy), word)
                assert s.allowed_next_chars() == r.allowed_next_chars(), (noisy, word)
                if len(word) == 4:
                    continue
                for c in probe_alphabet(noisy):
                    s2, r2 = s.advance_char(c), r.advance_char(c)
                    assert (s2 is None) == (r2 is None), (noisy, word + c)
                    if s2 is not None:
                        frontier.append((word + c, s2, r2))
            checked += 1
        assert checked == 30

    def test_empty_language(self):
        with pytest.raises(EmptyLanguageError):
            init_state(parse_grammar('S -> "a" S'))


class TestCompileCache:
    def test_one_compile_per_distinct_grammar(self, monkeypatch):
        compiled = []
        compile_tables = kernel.compile_tables

        def counting(grammar):
            compiled.append(grammar)
            return compile_tables(grammar)

        monkeypatch.setattr(kernel, "compile_tables", counting)
        text = 'S -> "q" S "r" | "qr"'  # built by no other test: the cache is process-wide
        g = parse_grammar(text)
        vocab = Vocabulary(["q", "r", "qr", ""], eos_id=3)
        scorer = train_ngram([[0, 1, 3]], order=2, vocab_size=4)
        cfg = DecodeConfig(beam_size=2, max_tokens=6)
        for grammar in (g, g, parse_grammar(text)):
            assert init_state(grammar).advance_string("qq")[0] is not None
            assert check_string(grammar, "qqrr") == ("accepted", 4)
            assert check_string(grammar, decode(scorer, grammar, vocab, cfg)[0].text)[0] == "accepted"
        assert compiled == [g]
        assert init_state(g) is init_state(g) is init_state(parse_grammar(text))

    def test_entry_does_not_keep_its_grammar_alive(self):
        g = parse_grammar('S -> "k" | "kk"')
        state = init_state(g).advance_char("k")
        ref = weakref.ref(g)
        del g
        assert ref() is None
        assert state.is_complete()  # states keep their own tables


def test_one_kernel_module():
    assert Path(kernel.__file__).parts[-2:] == ("engine", "kernel.py")


def test_table_layout():
    # one slot per scanned character or nonterminal, then a None end slot;
    # the epsilon terminal takes no slot, and a scan moves the dot by 1;
    # the accept production `accept -> S` comes last, its lhs id 2
    g = parse_grammar('S -> "ab" A | ""\nA -> [^x]')
    tables = kernel.compile_tables(g)
    syms, lhs_at, starts = tables.syms, tables.lhs_at, tables.starts
    a, b, not_x = (frozenset("a"), False, 1), (frozenset("b"), False, 1), (frozenset("x"), True, 1)
    assert syms == [a, b, 1, None, None, not_x, None, 0, None]
    assert tables.scans == [a, b, None, None, None, not_x, None, None, None]
    assert lhs_at == [0, 0, 0, 0, 0, 1, 1, 2, 2]
    assert starts == [[0, 4], [5], [7]]
    assert tables.start == 2
    assert tables.nullable == [True, False, True]
    # the positions after A's one slot and after S's in accept
    assert tables.uses == [[8], [3], []]


def plain(chars, negated=False):
    return (frozenset(chars), negated, 1)


def loop(chars, negated=False):
    return (frozenset(chars), negated, 0)


DIGITS = "0123456789"
OPEN, CLOSE = plain("("), plain(")")


@pytest.mark.parametrize(
    "text,syms,scans",
    [
        # A -> "" | C A: each use of A is one loop slot, whose scan stays there
        ('S -> "(" A ")"\nA -> "" | [0-9] A', [OPEN, 1, CLOSE], [OPEN, loop(DIGITS), CLOSE]),
        ('S -> "(" A ")"\nA -> [0-9] A | ""', [OPEN, 1, CLOSE], [OPEN, loop(DIGITS), CLOSE]),
        # A -> C | C A: each use is a plain C and then a loop slot
        (
            'S -> "(" A ")"\nA -> [0-9] | [0-9] A',
            [OPEN, plain(DIGITS), 1, CLOSE],
            [OPEN, plain(DIGITS), loop(DIGITS), CLOSE],
        ),
        (
            'S -> "(" A ")"\nA -> [^)] A | [^)]',
            [OPEN, plain(")", True), 1, CLOSE],
            [OPEN, plain(")", True), loop(")", True), CLOSE],
        ),
        # a one-character terminal is the same scan as its class
        (
            'S -> "(" A ")"\nA -> "x" A | [x]',
            [OPEN, plain("x"), 1, CLOSE],
            [OPEN, plain("x"), loop("x"), CLOSE],
        ),
    ],
)
def test_loop_slot_layout(text, syms, scans):
    tables = kernel.compile_tables(parse_grammar(text))
    end = len(syms)  # S's end slot; `accept -> S` follows it
    assert tables.syms == syms + [None, 0, None]
    assert tables.scans == scans + [None, None, None]
    # A's own productions are not laid out, and its slot can be skipped
    assert tables.starts == [[0], [], [end + 1]]
    assert tables.nullable == [False, True, False]
    assert tables.uses == [[end + 2], [end - 1], []]


@pytest.mark.parametrize(
    "text,syms,scans,nullable",
    [
        # a loop-shaped start is a loop slot in `accept -> A`
        ('A -> "" | "a" A', [0], [loop("a")], True),
        ('A -> [x] | [x] A', [plain("x"), 0], [plain("x"), loop("x")], False),
    ],
)
def test_loop_shaped_start_layout(text, syms, scans, nullable):
    tables = kernel.compile_tables(parse_grammar(text))
    assert tables.syms == syms + [None]
    assert tables.scans == scans + [None]
    assert tables.starts == [[], [0]]
    assert tables.start == 1
    # A's slot can be skipped; accept is nullable iff the language holds ""
    assert tables.nullable == [True, nullable]
    assert tables.uses == [[len(syms)], []]


def test_loops_in_a_row_and_at_the_ends():
    g = parse_grammar('S -> A B "c" A\nA -> "" | "a" A\nB -> "b" | "b" B')
    tables = kernel.compile_tables(g)
    assert tables.syms == [1, plain("b"), 2, plain("c"), 1, None, 0, None]
    assert tables.scans == [
        loop("a"), plain("b"), loop("b"), plain("c"), loop("a"), None, None, None,
    ]
    for word, verdict in [
        ("bc", "accepted"), ("aabbbcaa", "accepted"), ("bca", "accepted"),
        ("ab", "incomplete"), ("abcb", "rejected"), ("c", "rejected"),
    ]:
        assert check_string(g, word)[0] == verdict, word


@pytest.mark.parametrize(
    "text",
    [
        'S -> "(" A ")"\nA -> "ab" A | ""',  # a two-character terminal
        'S -> "(" A ")"\nA -> [x] A | [y]',  # a different class
        'S -> "(" A ")"\nA -> [x] A | "" | "z"',  # three productions
        'S -> "(" A ")"\nA -> A [x] | ""',  # left recursion
        'S -> "(" A ")"\nA -> [x] B | ""\nB -> [x] A | ""',  # recursion through another
    ],
)
def test_loop_lookalikes_compile_as_productions(text):
    g = parse_grammar(text)
    tables = kernel.compile_tables(g)
    per_lhs = [sum(p.lhs == name for p in g.productions) for name in g.nonterminals]
    assert list(map(len, tables.starts)) == per_lhs + [1]  # and `accept -> S`
    # every scan is a plain one, read at a scan slot
    assert tables.scans == [s if type(s) is tuple else None for s in tables.syms]
    assert all(s[2] == 1 for s in tables.scans if s)
    names = (*g.nonterminals, g.start)  # accept is nullable iff S is
    assert tables.nullable == [name in nullable_set(g) for name in names]


class TestAdvance:
    def test_accept_path(self):
        s = init_state(ANBN)
        s = s.advance_char("a")
        assert s is not None and not s.is_complete()
        s = s.advance_char("b")
        assert s is not None and s.is_complete()

    def test_reject(self):
        assert init_state(ANBN).advance_char("b") is None

    def test_source_state_unchanged(self):
        s0 = init_state(ANBN)
        before = (s0.is_complete(), s0.allowed_next_chars())
        s1 = s0.advance_char("a")
        s1.advance_char("a").advance_char("b")
        assert (s0.is_complete(), s0.allowed_next_chars()) == before
        assert s0.advance_char("b") is None and s0.advance_string("ab")[0].is_complete()
        assert (s1.is_complete(), s1.allowed_next_chars()) == (False, {"a", "b"})
        assert s1.advance_char("b").is_complete()

    def test_mid_terminal_progress(self):
        g = parse_grammar('S -> "abc"')
        s = init_state(g).advance_string("ab")[0]
        assert s is not None and not s.is_complete()
        assert s.allowed_next_chars() == {"c"}

    def test_viable_prefix_equals_language_prefixes(self):
        for g, _ in random_grammars(80, seed=31, max_lang=800):
            assert_survival_is_viability(g, max_len=6)


class TestAllowedChars:
    def test_after_a(self):
        s = init_state(ANBN).advance_string("a")[0]
        assert s.allowed_next_chars() == {"a", "b"}

    def test_equals_trial_advance(self):
        for g, lang in random_grammars(50, seed=47, max_lang=250):
            alphabet = probe_alphabet(g)
            for word, state in viable_prefix_states(g, lang, max_len=6):
                oracle = {c for c in alphabet if state.advance_char(c) is not None}
                assert state.allowed_next_chars() == oracle, (g, word)


class TestComplete:
    @pytest.mark.parametrize(
        "prefix,expected", [("aabb", True), ("aab", False), ("", True), ("ab", True)]
    )
    def test_anbn(self, prefix, expected):
        assert init_state(ANBN).advance_string(prefix)[0].is_complete() is expected

    def test_agrees_with_enumeration(self):
        for g, lang in random_grammars(50, seed=59, max_lang=250):
            for word, state in viable_prefix_states(g, lang, max_len=6):
                assert state.is_complete() == (word in lang), (g, word)


class TestIncrementality:
    def test_char_at_a_time_equals_whole_string(self):
        for g, lang in random_grammars(40, seed=71, max_lang=400):
            for word in sorted(lang):
                if len(word) > 6:
                    continue
                verdict, _ = check_string(g, word)
                assert verdict == "accepted"


class TestForkIndependence:
    def test_branches_do_not_interact(self):
        s = init_state(ANBN).advance_string("aa")[0]
        fork_a = s.advance_char("a")
        fork_b = s.advance_char("b")
        assert fork_a.allowed_next_chars() == {"a", "b"}
        assert fork_b.allowed_next_chars() == {"b"}
        # deep-advance one fork; the other and the parent stay intact
        fork_a.advance_string("abbb")
        assert fork_b.advance_char("b").is_complete()
        assert s.allowed_next_chars() == {"a", "b"}


LITERALS = ["sql_string", "mtop_text", "lispress_string"]


def literal_grammar(literal):
    """A grammar and a prefix of it that opens a literal: a SQL string
    (`A -> "" | C A`), an MTOP text span or an induced Lispress string
    (`A -> C | C A`)."""
    if literal == "sql_string":
        schema = DbSchema([DbTable("t", [DbColumn("c")])])
        g = specialize_sql_grammar(load_base_sql_grammar(), schema)
        return g, "SELECT c FROM t WHERE c = '"
    if literal == "mtop_text":
        return induce_mtop_grammar([parse_mtop("[IN:A [SL:B x]]")]), "[IN:A [SL:B "
    sigs = SignatureTable()
    sigs.add_signature("f", ["String"], "Unit")
    sigs.add_literal("String", 'String -> "\\"" C "\\""\nC -> [^"] | [^"] C')
    return induce_lispress_grammar([type_check(parse_sexp('(f "y")'), sigs)], sigs), '(f "'


class TestColumns:
    def test_advance_cost_does_not_grow_with_the_prefix(self):
        g = induce_mtop_grammar([parse_mtop("[IN:A [IN:A x]]")])
        step = "[IN:A " * 100

        def best_of_3(depth):
            state, _ = init_state(g).advance_string("[IN:A " * depth)
            times = []
            for _ in range(3):
                t = time.perf_counter()
                assert state.advance_string(step)[0] is not None
                times.append(time.perf_counter() - t)
            return min(times)

        shallow, deep = best_of_3(100), best_of_3(5000)
        assert deep < 5 * shallow, (shallow, deep)

    @pytest.mark.parametrize("literal", LITERALS)
    def test_a_literal_character_keeps_the_state(self, literal):
        # the item at the literal's loop slot scans to itself and closes to
        # the same items, so the literal's column is one object throughout
        g, opening = literal_grammar(literal)
        state, _ = init_state(g).advance_string(opening + "x")
        assert state.advance_char("x") is state
        assert state.advance_string("x" * 50)[0] is state

    @pytest.mark.parametrize("literal", LITERALS)
    def test_literal_character_cost_grows_linearly(self, literal):
        # a character of a right-recursive literal scans its loop slot in
        # place, so it costs the same at any depth (about 1.0x); when each
        # character completed the chain of all earlier ones, the last
        # character of n=1600 cost about 8x that of n=200
        g, opening = literal_grammar(literal)

        def advance_time(state):
            t = time.perf_counter()
            assert state.advance_char("x") is not None
            return time.perf_counter() - t

        short_state, _ = init_state(g).advance_string(opening + "x" * 199)
        long_state, _ = short_state.advance_string("x" * 1400)
        gc.disable()  # one collection inside a timing would swamp it
        try:
            times = [(advance_time(short_state), advance_time(long_state)) for _ in range(20)]
        finally:
            gc.enable()
        short, long = map(min, zip(*times))
        assert long < 3 * short, (short, long)

    def test_a_loop_shaped_start_scans_in_place(self):
        # a grammar that is one literal is a loop slot in `accept -> T`, so
        # 4,000 characters take about 4 ms; laid out as productions, each
        # character completed the chain of all earlier ones (1.2 s)
        g = parse_grammar(r"T -> [^\[\]] | [^\[\]] T")
        init_state(g)  # compiled outside the timing
        t = time.perf_counter()
        assert check_string(g, "y" * 4000) == ("accepted", 4000)
        assert time.perf_counter() - t < 0.05
        state = init_state(g).advance_char("y")
        assert state.advance_char("y") is state

    def test_a_terminal_builds_no_column_per_character(self, monkeypatch):
        # the columns inside a terminal wait on a character, predict
        # nothing and are never an origin, so only the last one is built
        g = parse_grammar('S -> "' + "a" * 4000 + '"')
        literal, opening = literal_grammar("sql_string")
        initial, (inside, _) = init_state(g), init_state(literal).advance_string(opening + "x")
        built = []
        prefix_state = kernel.PrefixState

        def counting(*args):
            built.append(args)
            return prefix_state(*args)

        monkeypatch.setattr(kernel, "PrefixState", counting)
        state, consumed = initial.advance_string("a" * 4000)
        assert consumed == 4000 and state.is_complete()
        assert len(built) == 1
        assert inside.advance_string("x" * 50) == (inside, 50)
        assert len(built) == 1

    @pytest.mark.parametrize(
        "text,verdict", [('T -> [x] | [x] T', "incomplete"), ('T -> "" | [x] T', "accepted")]
    )
    def test_the_empty_prefix_of_a_loop_shaped_start(self, text, verdict):
        assert check_string(parse_grammar(text), "") == (verdict, 0)

    def test_columns_form_no_reference_cycles(self):
        # refcounting alone frees a dropped state's columns, and then a
        # dropped grammar's compiled entry (a grammar no other test builds,
        # since the compile cache is process-wide)
        g = parse_grammar('S -> "(" S ")" S | ""')
        gc.collect()
        gc.disable()
        try:
            state, _ = init_state(g).advance_string("(()())" * 50)
            assert state.is_complete()
            del state
            assert gc.collect() == 0
            del g
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_prediction_sets_hold_no_column(self):
        # a grammar no other test builds, since the compile cache is
        # process-wide
        g = parse_grammar('S -> "{" L "}"\nL -> S L | ""')
        text = "{" + "{}{{}}" * 20 + "}"

        def live_prediction_sets():
            return sum(type(o) is kernel.Predictions for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            assert init_state(g).advance_string(text)[0].is_complete()
            predictions = init_state(g).tables.predictions
            cached = len(predictions)
            assert cached > 1
            # with the cache warm, a dropped state dies by refcounting
            state, _ = init_state(g).advance_string(text)
            assert len(predictions) == cached
            ref = weakref.ref(state)
            del state
            assert ref() is None
            # and a dropped grammar frees its cached prediction sets
            before = live_prediction_sets()
            ref = weakref.ref(init_state(g))
            del g, predictions
            assert ref() is None
            assert live_prediction_sets() == before - cached
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_mask_cache_goes_with_its_trie_and_its_grammar(self):
        # a grammar no other test builds, since the compile cache is
        # process-wide
        g = parse_grammar('S -> "<" S ">" S | "z"')
        vocab = Vocabulary(["<", ">", "z", "<z", "z>", ">z", ""], eos_id=6)
        gc.collect()
        gc.disable()
        try:
            def masks(trie):
                state = init_state(g)
                for ch in "<<z>":
                    allowed_tokens(state, trie)
                    state = state.advance_char(ch)

            trie = build_trie(vocab)
            masks(trie)
            assert len(trie._cache) == 1 and len(trie._interned) > 0
            cache, interned = weakref.ref(trie._cache), weakref.ref(trie._interned)
            del trie
            assert cache() is None and interned() is None

            trie = build_trie(vocab)
            masks(trie)
            assert len(trie._cache) == 1 and len(trie._interned) > 0
            del g
            assert len(trie._cache) == 0 and len(trie._interned) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()


def textbook_column(tables, chart, text):
    """The next Earley column of `chart` as a set of (pos, origin column
    index). chart[0] is the root stand-in, which holds no item, and
    chart[k] is the column of text[:k - 1]. The next column scans the last
    character of `text` (or, after the root, seeds the accept production at
    the root), then predicts and completes until nothing changes, a
    zero-span completion reading the growing column itself. A loop slot, a
    nonterminal slot with a scan, stands for any run of its characters: its
    scan stays at the slot, and the dot skips it as it would a nullable
    nonterminal."""
    syms, scans, lhs_at, starts = tables.syms, tables.scans, tables.lhs_at, tables.starts
    k = len(chart)
    if k == 1:
        column = {(starts[tables.start][0], 0)}
    else:
        ch = text[k - 2]
        column = {
            (pos if type(syms[pos]) is int else pos + 1, origin)
            for pos, origin in chart[-1]
            if scans[pos] is not None and (ch in scans[pos][0]) != scans[pos][1]
        }
    changed = True
    while changed:
        changed = False
        for pos, origin in list(column):
            sym = syms[pos]
            if sym is None:
                waiting = column if origin == k else chart[origin]
                new = {(p + 1, o) for p, o in waiting if syms[p] == lhs_at[pos]}
            elif type(sym) is int and scans[pos] is not None:
                new = {(pos + 1, origin)}
            elif type(sym) is int:
                new = {(p, k) for p in starts[sym]}
            else:
                continue
            if not new <= column:
                column |= new
                changed = True
    return column


def assert_columns_equal_the_textbook_closure(g, viable):
    """Along every prefix in `viable`, a state's own items are the textbook
    items that started in an older column, and its prediction set holds
    what the kernel reads of those that started in the state itself: the
    positions before a scan pair and, per nonterminal, the positions after
    it. Origins compare as column indices, the root stand-in's being 0."""
    initial = init_state(g)
    tables = initial.tables
    root = initial.items[0][1]  # the origin of the seeded accept item
    paths = {"": ([root, initial], [set(), textbook_column(tables, [set()], "")])}
    for word in sorted(viable, key=lambda w: (len(w), w)):
        if word:
            states, chart = paths[word[:-1]]
            state = states[-1].advance_char(word[-1])
            assert state is not None, (g, word)
            states = states + [state]
            chart = chart + [textbook_column(tables, chart, word)]
            paths[word] = (states, chart)
        states, chart = paths[word]
        index = {id(s): i for i, s in enumerate(states)}
        state, k = states[-1], len(states) - 1
        syms, scans = tables.syms, tables.scans
        own = [(pos, index[id(origin)]) for pos, origin in state.items]
        assert len(set(own)) == len(own)
        assert set(own) == {(p, o) for p, o in chart[-1] if o < k}, (g, word)
        predicted = {p for p, o in chart[-1] if o == k}
        scan_at = state.pred.scan_at
        assert len(set(scan_at)) == len(scan_at)
        assert set(scan_at) == {p for p in predicted if scans[p] is not None}
        waits = {}
        for p in predicted:
            if type(syms[p]) is int:
                waits.setdefault(syms[p], set()).add(p + 1)
        got = {nt: set(after) for nt, after in state.pred.waits.items()}
        assert got == waits, (g, word)
        assert all(len(set(after)) == len(after) for after in state.pred.waits.values())


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.one_of(grammars(), grammars(loops=True)))
# completions into prediction sets with several items waiting on one
# nonterminal, in the empty prefix's column and in a later one
@example(parse_grammar('S -> A "b" | A "c"\nA -> "a"'))
@example(parse_grammar('S -> "x" T\nT -> A "b" | A "c" | A\nA -> "a" | "a" A'))
# loop slots in a row, at both ends of a production and alone in one
@example(parse_grammar('S -> A B "c" A | B\nA -> "" | "a" A\nB -> "b" | "b" B'))
# two items that scan to one at a loop slot: B's plain "0" after each
# completion of A, and the loop slot's own item
@example(parse_grammar('A -> "" | A B\nB -> "0" | "0" B'))
def test_columns_equal_the_textbook_closure(g):
    try:
        init_state(g)
    except EmptyLanguageError:
        assume(False)
    viable = viable_prefixes(g, max_prefix_len=5, limit=5000)
    assume(viable is not None)
    assert_columns_equal_the_textbook_closure(g, viable)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.one_of(grammars(), grammars(loops=True)))
# completions into a column with several own items waiting on one
# nonterminal, and into prediction sets with several
@example(parse_grammar('S -> "x" A "b" | "x" A "c"\nA -> "a" | "a" A'))
@example(parse_grammar('S -> "x" T\nT -> A "b" | A "c" | A\nA -> "a" | "a" A'))
# "00000" is viable, though its shortest completion has 16 characters
@example(parse_grammar('A -> "0000" | A A A A'))
@example(parse_grammar('S -> A B "c" A | B\nA -> "" | "a" A\nB -> "b" | "b" B'))
def test_check_string_agrees_with_enumeration(g):
    # every viable word up to the bound, and each word one
    # character past a viable prefix (one character may lie outside the
    # grammar's), a dead one also with a character after the dead one
    try:
        init_state(g)
    except EmptyLanguageError:
        assume(False)
    bound = 5
    viable = viable_prefixes(g, max_prefix_len=bound, limit=5000)
    assume(viable is not None)
    members = enumerate_language(reduce(g), bound, limit=5000)
    alphabet = grammar_alphabet(g)
    alphabet.add(min({chr(i) for i in range(len(alphabet) + 1)} - alphabet))
    words = set(viable)
    for prefix in viable:
        if len(prefix) < bound:
            for c in alphabet:
                words.add(prefix + c)
                if prefix + c not in viable:
                    words.add(prefix + c + c)
    for word in sorted(words):
        verdict, offset = check_string(g, word)
        if word in viable:
            expected = ("accepted" if word in members else "incomplete", len(word))
        else:
            dead = next(k for k in range(len(word)) if word[: k + 1] not in viable)
            expected = ("rejected", dead)
        assert (verdict, offset) == expected, (g, word)


def columns_equal(a, b, memo):
    """Whether two columns hold the same item positions with origins that
    compare equal in turn, and the same predictions and completeness."""
    if a is b:
        return True
    key = id(a), id(b)
    if key not in memo:
        memo[key] = (
            [pos for pos, _ in a.items] == [pos for pos, _ in b.items]
            and a.pred.scan_at == b.pred.scan_at
            and a.pred.waits == b.pred.waits
            and a.is_complete() == b.is_complete()
            and all(columns_equal(x, y, memo) for (_, x), (_, y) in zip(a.items, b.items))
        )
    return memo[key]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.one_of(grammars(), grammars(loops=True)))
# a multi-character terminal that ends a production, one that runs into a
# loop slot, and a loop-shaped start
@example(parse_grammar('S -> A "d" | A A\nA -> "abc" | "ab"'))
@example(parse_grammar('S -> "ab" A "c" | "abc"\nA -> "" | [bc] A'))
@example(parse_grammar('T -> [ab] | [ab] T'))
def test_a_string_run_equals_its_characters_one_at_a_time(g):
    # from every state of the char-at-a-time path, a run over the rest of
    # the word reaches an equal state, and a dead extension dies at the
    # same character
    try:
        init_state(g)
    except EmptyLanguageError:
        assume(False)
    bound = 5
    viable = viable_prefixes(g, max_prefix_len=bound, limit=5000)
    assume(viable is not None)
    alphabet = grammar_alphabet(g)
    alphabet.add(min({chr(i) for i in range(len(alphabet) + 1)} - alphabet))
    paths = {"": [init_state(g)]}
    for word in sorted(viable, key=len):
        if word:
            paths[word] = paths[word[:-1]] + [paths[word[:-1]][-1].advance_char(word[-1])]
        states = paths[word]
        memo = {}
        for j, state in enumerate(states):
            got, consumed = state.advance_string(word[j:])
            assert consumed == len(word) - j and columns_equal(got, states[-1], memo), (g, word, j)
        if len(word) == bound:
            continue
        for c in sorted(alphabet):
            if word + c not in viable:
                assert states[-1].advance_char(c) is None
                for j, state in enumerate(states):
                    assert state.advance_string(word[j:] + c + c) == (None, len(word) - j), (g, word, j)


def test_columns_equal_the_textbook_closure_on_small_alphabets():
    # few characters and shared nonterminals, so that columns complete
    # into prediction sets with several items waiting on one nonterminal
    for g, _ in random_grammars(60, seed=5, max_lang=800):
        assert_columns_equal_the_textbook_closure(g, viable_prefixes(g, max_prefix_len=5))


class TestCharMask:
    def test_negated_class_is_cofinite(self):
        g = parse_grammar('S -> [^ab]')
        mask = init_state(g).allowed_next_chars()
        assert not mask.is_finite
        assert "z" in mask and "a" not in mask
        with pytest.raises(ValueError):
            mask.as_set()

    def test_equal_masks_compare_equal(self):
        # after "x" two items wait on [^a], after "y" one: the same characters
        g = reduce(parse_grammar('S -> "x" C | "y" D\nC -> [^a] | [^a] C\nD -> [^a]'))
        s = init_state(g)
        after_x = s.advance_char("x").allowed_next_chars()
        after_y = s.advance_char("y").allowed_next_chars()
        assert after_x == after_y and hash(after_x) == hash(after_y)
        assert CharMask({"a"}, {"a", "b"}) == CharMask((), {"b"})

    def test_set_equality_and_iteration(self):
        mask = CharMask({"b", "a"})
        assert mask == {"a", "b"}
        assert list(mask) == ["a", "b"]

