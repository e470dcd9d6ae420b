import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gramdec.earley import check_string, init_state
from gramdec.engine import kernel
from gramdec.errors import DisallowedTokenError, EmptyLanguageError, VocabularyError
from gramdec.grammar import parse_grammar, reduce
from gramdec.sql import DbColumn, DbSchema, DbTable, load_base_sql_grammar, specialize_sql_grammar
from gramdec.tokens import (
    Vocabulary,
    advance_token,
    allowed_tokens,
    build_trie,
    dense_mask,
    dump_vocab_jsonl,
    load_vocab_jsonl,
)

from helpers import (
    CHARS,
    grammar_alphabet,
    grammars,
    make_vocab,
    oracle_allowed,
    random_grammars,
    random_vocab,
    viable_prefix_states,
)

ANBN = reduce(parse_grammar('@start S\nS -> "a" S "b"\nS -> ""'))


class TestVocabulary:
    def test_valid(self):
        v = make_vocab(["a", "ab", "b"])
        assert v.size == 4 and v.eos_id == 3

    def test_eos_must_be_empty(self):
        with pytest.raises(VocabularyError):
            Vocabulary(["a", "b"], eos_id=0)

    def test_non_eos_must_be_nonempty(self):
        with pytest.raises(VocabularyError):
            Vocabulary(["a", "", ""], eos_id=2)

    def test_dense_ids(self):
        with pytest.raises(VocabularyError):
            Vocabulary.from_pairs([(0, "a"), (2, "b"), (3, "")], eos_id=3)

    def test_jsonl_round_trip(self):
        v = make_vocab(["a", "ab", "über", "\u2028", "\x0c\r"])
        assert load_vocab_jsonl(dump_vocab_jsonl(v)).entries == v.entries

    def test_jsonl_requires_eos_header(self):
        with pytest.raises(VocabularyError):
            load_vocab_jsonl('{"id": 0, "text": "a"}')

    def test_detokenize_skips_eos(self):
        v = make_vocab(["a", "b"])
        assert v.detokenize([0, 1, v.eos_id]) == "ab"


def trie_ids(t, text):
    """The token ids at the trie node that `text` spells ([] if none)."""
    node = t.root
    for ch in text:
        node = node.children.get(ch)
        if node is None:
            return []
    return node.token_ids


class TestTrie:
    def test_terminal_markers(self):
        v = make_vocab(["a", "ab", "b"])
        t = build_trie(v)
        assert trie_ids(t, "a") == [0]
        assert trie_ids(t, "ab") == [1]
        assert trie_ids(t, "b") == [2]
        assert trie_ids(t, "ba") == []

    def test_exhaustive_lookup_random_vocab(self):
        rng = random.Random(3)
        tokens = set()
        while len(tokens) < 1000:
            tokens.add(
                "".join(rng.choice("abcdef") for _ in range(rng.randint(1, 6)))
            )
        v = make_vocab(sorted(tokens))
        t = build_trie(v)
        for tid, text in enumerate(v.entries):
            if tid != v.eos_id:
                assert tid in trie_ids(t, text)


class TestAllowedTokens:
    def test_empty_prefix(self):
        v = make_vocab(["a", "b", "ab", "aa"])
        t = build_trie(v)
        s = init_state(ANBN)
        # eos legal because the empty string is in the language
        assert allowed_tokens(s, t) == {0, 2, 3, v.eos_id}

    def test_after_aab(self):
        v = make_vocab(["a", "b", "ab", "aa"])
        t = build_trie(v)
        s, _ = init_state(ANBN).advance_string("aab")
        assert allowed_tokens(s, t) == {1}

    def test_vocab_disjoint_from_alphabet(self):
        v = make_vocab(["x", "y"])
        t = build_trie(v)
        s = init_state(ANBN)
        assert allowed_tokens(s, t) == {v.eos_id}  # only eos: epsilon in L
        g = reduce(parse_grammar('S -> "a"'))
        assert allowed_tokens(init_state(g), build_trie(v)) == set()

    def test_mask_exactness_random(self):
        rng = random.Random(99)
        for g, lang in random_grammars(60, seed=13, max_lang=200):
            vocab = random_vocab(rng)
            trie = build_trie(vocab)
            for _, state in viable_prefix_states(g, lang, max_len=6):
                assert allowed_tokens(state, trie) == oracle_allowed(state, vocab)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.one_of(grammars(), grammars(loops=True)), st.data())
    def test_masks_match_trial_advance(self, g, data):
        try:
            state = init_state(g)
        except EmptyLanguageError:
            assume(False)
        # tokens over the grammar's characters and one more, which negated
        # classes may accept
        alphabet = sorted(grammar_alphabet(g) | {data.draw(CHARS)})
        states, path = [state], ""
        for _ in range(8):
            mask = state.allowed_next_chars()
            viable = [c for c in alphabet if c in mask]
            if not viable:
                break
            path += data.draw(st.sampled_from(viable))
            state = state.advance_char(path[-1])
            states.append(state)
        # and pieces of a viable path, which cross the ends of its
        # productions into the contexts that the path gives them
        token = st.text(st.sampled_from(alphabet), min_size=1, max_size=4)
        if path:
            piece = st.tuples(st.integers(0, len(path) - 1), st.integers(1, 4))
            token = st.one_of(token, piece.map(lambda ik: path[ik[0] : ik[0] + ik[1]]))
        vocab = make_vocab(data.draw(st.lists(token, min_size=1, max_size=12, unique=True)))
        trie = build_trie(vocab)
        for state in states:
            assert allowed_tokens(state, trie) == oracle_allowed(state, vocab)

    def test_dense_mask_view(self):
        assert dense_mask({1, 3}, 5) == [False, True, False, True, False]

    @pytest.mark.parametrize("ids,bad", [({-1, 2}, -1), ({9}, 9), ({4}, 4)])
    def test_dense_mask_rejects_ids_outside_the_vocabulary(self, ids, bad):
        # a negative id would index from the end
        with pytest.raises(VocabularyError, match=f"token id {bad} outside"):
            dense_mask(ids, 4)


def classify_at(state, trie, negated=False):
    """(accepted, dependent) at the scan position on the state's frontier
    whose class is negated or not."""
    scans = state.tables.scans
    (pos,) = [p for p in kernel.scan_positions(state) if scans[p][1] == negated]
    return kernel.classify(state.tables, pos, trie.root)


class TestSplit:
    def test_token_crossing_a_right_recursive_literal(self):
        long = "x" * 70
        v = make_vocab(["ab", 'ab"', 'a"b', '"', "a", long, long + '"'])
        t = build_trie(v)
        # C has a third production, for an escaped quote, so it is laid
        # out as productions and the literal ends where C's production does
        g = reduce(parse_grammar(r'S -> "\"" C "\""' "\n" r'C -> [^"\\] C | "\\\"" C | ""'))
        inside = init_state(g).advance_char('"')
        accepted, dependent = classify_at(inside, t, negated=True)
        # the literal's own characters are accepted in any context, however
        # long; what crosses its end goes to the chart, unless nothing may
        # follow it anywhere: 'a"b' has a character after the closing quote
        assert accepted == {0, 4, 5}
        assert dependent == {1, 6}
        mask = allowed_tokens(inside, t)
        assert mask == oracle_allowed(inside, v) == {0, 1, 3, 4, 5, 6}
        after = inside.advance_string("ab" + long)[0]
        assert allowed_tokens(after, t) == oracle_allowed(after, v)
        # a loop-shaped C is a loop slot in S's own production, so the
        # closing quote does not leave the production that is split
        g = reduce(parse_grammar('S -> "\\"" C "\\""\nC -> [^"] C | ""'))
        inside = init_state(g).advance_char('"')
        assert classify_at(inside, t, negated=True) == ({0, 1, 4, 5, 6}, set())
        mask = allowed_tokens(inside, t)
        assert mask == oracle_allowed(inside, v) == {0, 1, 3, 4, 5, 6}
        after = inside.advance_string("ab" + long)[0]
        assert after is inside
        assert allowed_tokens(after, t) == oracle_allowed(after, v)

    def test_token_popping_past_the_frontier_item(self):
        g = reduce(parse_grammar('S -> A "b"\nA -> "a"'))
        v = make_vocab(["a", "ab", "ac", "b"])
        t = build_trie(v)
        s = init_state(g)
        # "b" follows A in some context, "c" in none
        assert classify_at(s, t) == ({0}, {1})
        assert allowed_tokens(s, t) == oracle_allowed(s, v) == {0, 1}

    def test_token_legal_after_one_use_of_its_nonterminal(self):
        # A is used twice: followed by "x" in S, and at the end of B, so
        # that ")" follows it only one completion further up
        g = reduce(parse_grammar('S -> A "x" | "(" B ")"\nB -> A\nA -> "a"'))
        v = make_vocab(["a", "ax", "a)", "az", "(a"])
        t = build_trie(v)
        s = init_state(g)
        inside = s.advance_char("(")
        # "a)" continues only the second use and "az" no use at all
        assert classify_at(inside, t) == ({0}, {1, 2})
        assert allowed_tokens(inside, t) == oracle_allowed(inside, v) == {0, 2}
        assert allowed_tokens(s, t) == oracle_allowed(s, v) == {0, 1, 4}

    def test_left_recursion_inside_the_production_is_exact(self):
        g = reduce(parse_grammar('S -> "(" E ")"\nE -> E "+x" | "x"'))
        v = make_vocab(["(x+x", "(x+x+x", "(x)", "x"])
        t = build_trie(v)
        s = init_state(g)
        # left recursion inside the scan position's own production needs no
        # context
        assert classify_at(s, t) == ({0, 1, 2}, set())
        assert allowed_tokens(s, t) == oracle_allowed(s, v)

    @pytest.mark.parametrize(
        "text,alphabet",
        [('S -> "b" A\nA -> A A | "a"', "ab"), ('E -> E "+" E | "x"', "x+")],
    )
    def test_left_recursion_is_exact_and_bounded(self, text, alphabet):
        # Every position against every token up to 12 characters, in a child
        # capped at 512 MB and 60 s, so that a runaway walk fails the test
        # instead of exhausting the machine.
        script = (
            "import resource, sys\n"
            "from itertools import product\n"
            "from gramdec.earley import init_state\n"
            "from gramdec.engine import kernel\n"
            "from gramdec.grammar import parse_grammar, reduce\n"
            "from gramdec.tokens import Vocabulary, build_trie\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "text, alphabet = sys.argv[1:]\n"
            "tables = init_state(reduce(parse_grammar(text))).tables\n"
            "tokens = [''.join(p) for n in range(1, 13) for p in product(alphabet, repeat=n)]\n"
            "root = build_trie(Vocabulary(tokens + [''], len(tokens))).root\n"
            "for pos, sym in enumerate(tables.syms):\n"
            "    if type(sym) is tuple:\n"
            "        kernel.classify(tables, pos, root)\n"
        )
        src = str(Path(kernel.__file__).parents[2])
        done = subprocess.run(
            [sys.executable, "-c", script, text, alphabet],
            env={"PYTHONPATH": src},
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()[-500:]
        g = reduce(parse_grammar(text))
        tokens = ["".join(p) for n in range(1, 5) for p in product(alphabet, repeat=n)]
        v = make_vocab(tokens)
        t = build_trie(v)
        words = ["".join(p) for n in range(5) for p in product(alphabet, repeat=n)]
        for word in words:
            state, _ = init_state(g).advance_string(word)
            if state is not None:
                assert allowed_tokens(state, t) == oracle_allowed(state, v), word

    def test_large_vocabulary_matches_trial_advance(self):
        # every 1-3 character string over 31 characters: 30,783 tokens
        alphabet = " '(),*.0123=ACDEFHILMNORSTWaemu"
        assert len(set(alphabet)) == 31
        tokens = ["".join(p) for n in (1, 2, 3) for p in product(alphabet, repeat=n)]
        v = make_vocab(tokens)
        t = build_trie(v)
        schema = DbSchema([DbTable("emu", [DbColumn("name"), DbColumn("ma")])])
        g = specialize_sql_grammar(load_base_sql_grammar(), schema)
        s = init_state(g)
        for prefix in ("", "SELECT name FROM emu WHERE name = 'a ", "SELECT "):
            state, _ = s.advance_string(prefix)
            assert allowed_tokens(state, t) == oracle_allowed(state, v), prefix


class TestAdvanceToken:
    def test_matches_char_advance(self):
        v = make_vocab(["a", "b", "ab"])
        t = build_trie(v)
        s = init_state(ANBN)
        via_token = advance_token(s, t, 2)
        via_chars, _ = s.advance_string("ab")
        assert via_token.is_complete() and via_chars.is_complete()
        via_token = advance_token(advance_token(s, t, 0), t, 2)
        via_chars, _ = s.advance_string("aab")
        for state in (via_token, via_chars):
            assert not state.is_complete() and state.allowed_next_chars() == {"b"}
            assert state.advance_char("a") is None and state.advance_char("b").is_complete()

    def test_spelling_aabb(self):
        v = make_vocab(["a", "b", "ab"])
        t = build_trie(v)
        s = init_state(ANBN)
        for tid in (0, 0, 1, 1):
            s = advance_token(s, t, tid)
        assert s.is_complete()

    def test_disallowed_token(self):
        v = make_vocab(["a", "b"])
        t = build_trie(v)
        with pytest.raises(DisallowedTokenError):
            advance_token(init_state(ANBN), t, 1)

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("SELEX", 4),  # dies inside a bare run: "SELE" waits on a character
            ("SELECTEX", 7),  # dies after "SELECTE" completed `"SELECT" [a-z]`
        ],
    )
    def test_a_dead_token_names_its_offset(self, text, offset):
        g = parse_grammar('S -> "SELECTED" | "SELECT" [a-z]')
        assert check_string(g, text) == ("rejected", offset)
        t = build_trie(make_vocab([text]))
        with pytest.raises(DisallowedTokenError, match=f"dies at character offset {offset}$"):
            advance_token(init_state(g), t, 0)

    def test_eos_not_advanceable(self):
        v = make_vocab(["a"])
        t = build_trie(v)
        with pytest.raises(DisallowedTokenError):
            advance_token(init_state(ANBN), t, v.eos_id)

    @pytest.mark.parametrize("tid", [-2, -1, 4, 7])
    def test_id_outside_the_vocabulary(self, tid):
        # -2 would index "ab" and -1 the empty eos text, which advances
        # nothing; 7 would raise a bare IndexError
        t = build_trie(Vocabulary(["a", "b", "ab", ""], eos_id=3))
        with pytest.raises(DisallowedTokenError, match=f"token id {tid} outside"):
            advance_token(init_state(ANBN), t, tid)

    def test_masked_token_paths_stay_viable(self):
        # replaying any token path kept inside the mask spells a viable prefix
        rng = random.Random(5)
        for g, lang in random_grammars(25, seed=77, max_lang=200):
            vocab = random_vocab(rng)
            trie = build_trie(vocab)
            for _ in range(5):
                state = init_state(g)
                spelled = ""
                for _ in range(4):
                    mask = allowed_tokens(state, trie) - {vocab.eos_id}
                    if not mask:
                        break
                    tid = rng.choice(sorted(mask))
                    state = advance_token(state, trie, tid)
                    spelled += vocab.entries[tid]
                    check, _ = init_state(g).advance_string(spelled)
                    assert check is not None, (g, spelled)
