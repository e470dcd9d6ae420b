import gc
import random
import time

import pytest
from hypothesis import given, settings

from gramdec.errors import (
    EmptyLanguageError,
    GrammarSyntaxError,
    GrammarValidationError,
)
from gramdec.grammar import (
    Grammar,
    Production,
    Symbol,
    enumerate_language,
    nullable_set,
    parse_grammar,
    reduce,
    serialize_grammar,
)

from helpers import bfs_enumerate, grammar_texts, grammars, random_grammars

ANBN = '@start S\nS -> "a" S "b"\nS -> ""'


class TestParse:
    def test_basic(self):
        g = parse_grammar(ANBN)
        assert g.start == "S"
        assert len(g.productions) == 2
        assert g.productions[0] == Production(
            "S", (Symbol.t("a"), Symbol.nt("S"), Symbol.t("b"))
        )

    def test_first_lhs_is_start_without_directive(self):
        g = parse_grammar('X -> "a" Y\nY -> "b"')
        assert g.start == "X"

    def test_undefined_nonterminal(self):
        with pytest.raises(GrammarValidationError, match="T"):
            parse_grammar("S -> T")

    def test_duplicate_start_directive(self):
        with pytest.raises(GrammarSyntaxError):
            parse_grammar('@start S\n@start S\nS -> "a"')

    def test_syntax_error_has_position(self):
        with pytest.raises(GrammarSyntaxError) as err:
            parse_grammar('S -> "a')
        assert err.value.line == 1

    def test_error_column_after_alternative(self):
        with pytest.raises(GrammarSyntaxError) as err:
            parse_grammar('S -> "a" | "b" $')
        assert err.value.column == 16

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ('S -> "ab', "unterminated string literal", 1, 6),
            ('S -> "a\\qb"', "bad escape in string literal", 1, 8),
            ('S -> "ab\\', "bad escape in string literal", 1, 9),
            # an error inside an unterminated body is reported first
            ('S -> "a\\q', "bad escape in string literal", 1, 8),
            ("S -> [a\\qb]", "bad escape in character class", 1, 8),
            ("S -> [z-a]", "inverted range z-a", 1, 7),
            ("S -> [b-a", "inverted range b-a", 1, 7),
            ("S -> [ab", "unterminated character class", 1, 6),
            ("S -> []", "empty character class", 1, 6),
            ("S -> [^]", "empty character class", 1, 6),
            ('S -> "a" $', "unexpected character '$'", 1, 10),
            ('1x -> "a"', "bad nonterminal name '1x'", 1, 1),
            ('@start S\n@start S\nS -> "a"', "duplicate @start directive", 2, 1),
            ('@start S T\nS -> "a"', "@start takes exactly one name", 1, 1),
            ('@startfoo S\nS -> "a"', "expected 'Name -> ...' rule", 1, 1),  # a word, not a prefix
            ('S "a"', "expected 'Name -> ...' rule", 1, 1),
            ("# only a comment", "no rules in grammar", 1, 1),
            # columns count from the raw line, leading blanks included
            ('   S -> "a" $', "unexpected character '$'", 1, 13),
            ('S -> "a"\n  T -> [^\\x]', "bad escape in character class", 2, 10),
        ],
    )
    def test_syntax_error_message_and_position(self, text, message, line, column):
        with pytest.raises(GrammarSyntaxError) as err:
            parse_grammar(text)
        assert str(err.value) == f"{message} (line {line}, column {column})"
        assert (err.value.line, err.value.column) == (line, column)

    def test_alternatives_and_comments(self):
        g = parse_grammar('# top\nS -> "a" | "b" S | [xy] | "|" | [|] |\n')
        assert [p.rhs for p in g.productions[3:]] == [
            (Symbol.t("|"),),
            (Symbol.cc("|"),),
            (Symbol.t(""),),
        ]
        assert len(g.productions) == 6

    def test_escapes(self):
        g = parse_grammar('S -> "\\"\\\\\\n\\t"')
        assert g.productions[0].rhs[0].text == '"\\\n\t'

    def test_charclass_range_and_negation(self):
        g = parse_grammar('S -> [a-c] | [^"]')
        assert g.productions[0].rhs[0].chars == frozenset("abc")
        assert g.productions[1].rhs[0].negated

    def test_epsilon_only_full_rhs(self):
        with pytest.raises(GrammarValidationError):
            parse_grammar('S -> "a" ""')


class TestSerialize:
    def test_epsilon_grammar(self):
        g = Grammar("S", [Production("S", (Symbol.t(""),))])
        assert serialize_grammar(g) == '@start S\nS -> ""\n'

    def test_deterministic(self):
        g = parse_grammar(ANBN)
        assert serialize_grammar(g) == serialize_grammar(g)

    def test_round_trip_random(self):
        # parse . serialize = identity over random grammars
        for g, _ in random_grammars(150, seed=11, max_lang=10**6, enum_len=3):
            text = serialize_grammar(g)
            assert parse_grammar(text) == g
            assert serialize_grammar(parse_grammar(text)) == text


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(grammars())
def test_serialize_round_trips(g):
    assert parse_grammar(serialize_grammar(g)) == g


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(grammar_texts())
def test_hostile_text_parses_or_ends_in_a_typed_error(text):
    try:
        g = parse_grammar(text)
    except GrammarSyntaxError as err:
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.column <= max(len(lines[err.line - 1]), 1)
    except GrammarValidationError:
        pass
    else:
        assert parse_grammar(serialize_grammar(g)) == g


@pytest.mark.parametrize("name", ["a-b", "my nt", "1x"])
def test_names_the_text_format_cannot_spell_are_rejected(name):
    with pytest.raises(GrammarValidationError, match=f"bad nonterminal name {name!r}"):
        Grammar("S", [Production("S", (Symbol.nt(name),)), Production(name, ())])


class TestReduce:
    def test_drops_useless(self):
        g = Grammar(
            "S",
            [
                Production("S", (Symbol.t("a"),)),
                Production("X", (Symbol.nt("X"),)),
            ],
        )
        r = reduce(g)
        assert [p.lhs for p in r.productions] == ["S"]

    def test_empty_language(self):
        g = Grammar("S", [Production("S", (Symbol.nt("S"),))])
        with pytest.raises(EmptyLanguageError):
            reduce(g)

    def test_idempotent_and_language_preserving(self):
        rng = random.Random(5)
        count = 0
        for g, lang in random_grammars(60, seed=rng.random(), enum_len=6):
            r = reduce(g)
            assert reduce(r) == r
            assert enumerate_language(r, 6) == lang
            count += 1
        assert count == 60

    def test_cost_grows_linearly_along_a_chain(self):
        # A0 -> A1, ..., An -> "" listed top-down: a fixpoint that rescans
        # every production settles one rule per pass, so 8x the rules cost
        # about 64x, where counting each use down once costs about 8x
        def chain(n):
            rules = [Production(f"A{i}", (Symbol.nt(f"A{i + 1}"),)) for i in range(n)]
            return Grammar("A0", rules + [Production(f"A{n}", (Symbol.t(""),))])

        def best_of_3(g):
            times = []
            for _ in range(3):
                t = time.perf_counter()
                assert len(reduce(g).productions) == len(nullable_set(g)) == len(g.productions)
                times.append(time.perf_counter() - t)
            return min(times)

        short_g, long_g = chain(500), chain(4000)
        gc.disable()  # one collection inside a timing would swamp it
        try:
            short, long = best_of_3(short_g), best_of_3(long_g)
        finally:
            gc.enable()
        assert long < 24 * short, (short, long)


class TestNullable:
    def test_epsilon(self):
        assert nullable_set(parse_grammar('S -> ""')) == {"S"}

    def test_terminal_only(self):
        assert nullable_set(parse_grammar('S -> "a"')) == set()

    def test_transitive(self):
        g = parse_grammar('S -> A B\nA -> ""\nB -> ""')
        assert nullable_set(g) == {"S", "A", "B"}


class TestEnumerate:
    def test_anbn(self):
        g = parse_grammar(ANBN)
        assert enumerate_language(g, 4) == {"", "ab", "aabb"}

    def test_right_recursion(self):
        g = parse_grammar('S -> "a" S | "a"')
        assert enumerate_language(g, 3) == {"a", "aa", "aaa"}

    def test_monotone_in_length(self):
        for g, _ in random_grammars(40, seed=7):
            for n in range(5):
                assert enumerate_language(g, n) <= enumerate_language(g, n + 1)

    def test_agrees_with_bfs_expander(self):
        # second, independent oracle implementation
        for g, lang in random_grammars(80, seed=23, enum_len=6):
            assert bfs_enumerate(g, 6) == enumerate_language(g, 6) == lang


def test_validate_scans_every_rhs_nonterminal():
    with pytest.raises(GrammarValidationError):
        Grammar("S", [Production("S", (Symbol.nt("S"), Symbol.nt("Q")))])


def test_duplicate_productions_rejected():
    with pytest.raises(GrammarValidationError):
        Grammar(
            "S",
            [Production("S", (Symbol.t("a"),)), Production("S", (Symbol.t("a"),))],
        )
