import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramdec.errors import SexpError
from gramdec.lispress import canonical, lispress_equal, parse_sexp

PLAN = (
    '(Yield (Event.start (FindNumNextEvent (Event.subject_? (?~= "staff meeting"))'
    " 2L)))"
)


class TestParse:
    def test_atom(self):
        assert parse_sexp("foo") == "foo"

    def test_nested(self):
        assert parse_sexp("(a (b c) d)") == ["a", ["b", "c"], "d"]

    def test_quoted_string_keeps_quotes(self):
        assert parse_sexp('(?~= "staff meeting")') == ["?~=", '"staff meeting"']

    def test_string_escapes(self):
        assert parse_sexp('"say \\"hi\\" \\\\"') == '"say \\"hi\\" \\\\"'
        assert parse_sexp('(x "a\\\\" "\\"")') == ["x", '"a\\\\"', '"\\""']

    def test_plan(self):
        tree = parse_sexp(PLAN)
        assert tree[0] == "Yield"
        assert tree[1][1][2] == "2L"

    def test_empty_input(self):
        with pytest.raises(SexpError):
            parse_sexp("   ")

    def test_unbalanced(self):
        with pytest.raises(SexpError):
            parse_sexp("(a (b)")
        with pytest.raises(SexpError):
            parse_sexp("a)")

    def test_trailing_garbage(self):
        with pytest.raises(SexpError):
            parse_sexp("(a) b")

    def test_unterminated_string(self):
        with pytest.raises(SexpError):
            parse_sexp('(a "b)')

    @pytest.mark.parametrize(
        "text,message",
        [
            ('(a "b)', "unterminated string starting at offset 3"),
            ('(a "b\\q")', "bad escape at offset 5"),
            ('"ab\\', "bad escape at offset 3"),
            ('"a\\q', "bad escape at offset 2"),  # the escape before the missing quote
            ("(a (b)", "unbalanced parentheses: missing ')'"),
            ("a)", "trailing garbage after expression: ')'"),
            ("(a) b", "trailing garbage after expression: 'b'"),
            (" \n", "empty input"),
        ],
    )
    def test_error_message_and_offset(self, text, message):
        with pytest.raises(SexpError) as info:
            parse_sexp(text)
        assert str(info.value) == message


class TestCanonical:
    def test_tight_parens_single_spaces(self):
        assert canonical(parse_sexp("( a\n  ( b   c )\td )")) == "(a (b c) d)"

    def test_fixed_point(self):
        c = canonical(parse_sexp(PLAN))
        assert canonical(parse_sexp(c)) == c == PLAN

    def test_quoted_whitespace_preserved(self):
        assert canonical(parse_sexp('(x  "a  b")')) == '(x "a  b")'

    def test_empty_lists_and_deep_nesting(self):
        assert canonical([[], ["a", []]]) == "(() (a ()))"
        deep = "(a " * 4999 + "(b)" + ")" * 4999
        assert canonical(parse_sexp(deep.replace(" ", "  "))) == deep

    def test_empty_atom(self):
        with pytest.raises(SexpError):
            canonical(["a", ""])


def random_tree(rng, depth=0):
    if depth >= 3 or rng.random() < 0.4:
        if rng.random() < 0.25:
            body = "".join(rng.choice("ab c") for _ in range(rng.randint(0, 4)))
            return '"' + body + '"'
        return "".join(rng.choice("xyz._?=0") for _ in range(rng.randint(1, 5)))
    return [random_tree(rng, depth + 1) for _ in range(rng.randint(1, 4))]


def sprinkle_whitespace(rng, text):
    out = []
    for c in text:
        out.append(c)
        if c in "()" and rng.random() < 0.5:
            out.append(rng.choice([" ", "  ", "\n", "\t"]))
    return "".join(out)


class TestRoundTrip:
    def test_fuzz_round_trip(self):
        rng = random.Random(17)
        for _ in range(400):
            tree = random_tree(rng)
            text = canonical(tree)
            assert parse_sexp(text) == tree

    def test_whitespace_invariance(self):
        # quoted strings protect internal spacing; everything else is fair game
        rng = random.Random(19)
        for _ in range(200):
            tree = random_tree(rng)
            text = canonical(tree)
            assert canonical(parse_sexp(sprinkle_whitespace(rng, text))) == text


_BARE = st.text(st.characters(exclude_categories=("Cs",), exclude_characters='() \t\n\r"'), min_size=1)
_QUOTED = st.lists(
    st.one_of(
        st.characters(exclude_categories=("Cs",), exclude_characters='"\\'),
        st.sampled_from(['\\"', "\\\\"]),
    )
).map(lambda parts: '"' + "".join(parts) + '"')
_TREES = st.recursive(_BARE | _QUOTED, lambda children: st.lists(children, max_size=4))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_TREES)
def test_canonical_is_idempotent(tree):
    text = canonical(tree)
    assert canonical(parse_sexp(text)) == text
    assert parse_sexp(text) == tree


class TestEqual:
    def test_whitespace_variants_equal(self):
        assert lispress_equal("(a (b c))", " ( a\n( b   c ) ) ")

    def test_structural_difference(self):
        assert not lispress_equal("(a (b c))", "(a (b c) d)")
        assert not lispress_equal("(a b)", "(a (b))")
        assert not lispress_equal("x", "y")

    def test_atom_vs_list(self):
        assert not lispress_equal("a", "(a)")

    def test_parse_failure_raises(self):
        with pytest.raises(SexpError):
            lispress_equal("(a", "(a)")

    def test_equivalence_relation(self):
        rng = random.Random(23)
        trees = [random_tree(rng) for _ in range(40)]
        texts = [canonical(t) for t in trees]
        for i, a in enumerate(texts):
            assert lispress_equal(a, a)
            for b in texts[i + 1 :]:
                assert lispress_equal(a, b) == lispress_equal(b, a)
