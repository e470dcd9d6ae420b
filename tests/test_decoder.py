import itertools
import math
import random
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gramdec
from gramdec.decoder import (
    DecodeConfig,
    HttpScorer,
    Hypothesis,
    NgramScorer,
    Scorer,
    decode,
    train_ngram,
)
from gramdec.earley import init_state
from gramdec.errors import (
    EmptyLanguageError,
    NoViableHypothesisError,
    ScorerError,
    VocabularyError,
)
from gramdec.grammar import parse_grammar, reduce
from gramdec.sql import DbColumn, DbSchema, DbTable, load_base_sql_grammar, specialize_sql_grammar
from gramdec.tokens import Vocabulary, advance_token, allowed_tokens, build_trie

from helpers import CHARS, ScorerHandler, grammar_alphabet, grammars, make_vocab, raw_server
from helpers import https_scorer_server, scorer_server, tls_cert  # noqa: F401  (fixtures)

ANBN = reduce(parse_grammar('@start S\nS -> "a" S "b"\nS -> ""'))


class TableScorer(Scorer):
    """Fixed log-score table keyed by prefix; falls back to uniform."""

    def __init__(self, size, table=None):
        self.size = size
        self.table = table or {}

    def score(self, prefix, conditioning=""):
        if tuple(prefix) in self.table:
            return self.table[tuple(prefix)]
        return [math.log(1.0 / self.size)] * self.size


class TestNgram:
    def test_bigram_hand_computed(self):
        # corpus "a b eos": P(b | a) = (1+1)/(1+3), P(a | a) = 1/(1+3)
        scorer = train_ngram([[0, 1, 2]], order=2, vocab_size=3)
        start = scorer.score(())
        assert start[0] == pytest.approx(math.log(0.5))
        assert start[1] == start[2] == pytest.approx(math.log(0.25))
        after_a = scorer.score((0,))
        assert after_a[1] == pytest.approx(math.log(0.5))
        assert after_a[0] == pytest.approx(math.log(0.25))

    def test_unigram_ignores_context(self):
        scorer = train_ngram([[0, 1, 2]], order=1, vocab_size=3)
        assert scorer.score(()) == scorer.score((0, 1))
        assert scorer.score(())[0] == pytest.approx(math.log(2 / 6))

    def test_scores_normalize(self):
        scorer = train_ngram([[0, 1, 0, 2]], order=3, vocab_size=3)
        for prefix in [(), (0,), (0, 1), (1, 1, 0)]:
            total = sum(math.exp(s) for s in scorer.score(prefix))
            assert total == pytest.approx(1.0)

    def test_order_and_corpus_validation(self):
        with pytest.raises(ValueError):
            train_ngram([[0]], order=0, vocab_size=3)
        with pytest.raises(ValueError):
            train_ngram([], order=2, vocab_size=3)

    def test_corpus_ids_outside_vocabulary(self):
        with pytest.raises(ValueError):
            train_ngram([[0, 3]], order=2, vocab_size=3)
        with pytest.raises(ValueError):
            train_ngram([[0, -1, 2]], order=1, vocab_size=3)
        with pytest.raises(ValueError):
            train_ngram([[0, -1, 2]], order=2, vocab_size=3)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda v: st.tuples(
                st.just(v),
                st.lists(st.lists(st.integers(0, v - 1), max_size=6), min_size=1, max_size=5),
                st.lists(st.integers(0, 9), max_size=4),
                st.lists(st.integers(0, v - 1), max_size=7),
            )
        ),
        st.integers(1, 5),
    )
    def test_scores_equal_the_add_one_formula(self, draw, order):
        vocab_size, corpus, repeats, prefix = draw
        # repeated sequences count once per occurrence
        corpus = corpus + [corpus[r % len(corpus)] for r in repeats]
        scorer = train_ngram(corpus, order, vocab_size=vocab_size)
        k = order - 1
        # every prefix of `prefix`: shorter and longer than the context, and
        # contexts never seen in training
        for n in range(len(prefix) + 1):
            ctx = ((-1,) * k + tuple(prefix[:n]))[n:]
            counts = [0] * vocab_size
            for seq in corpus:
                padded = (-1,) * k + tuple(seq)
                for i in range(k, len(padded)):
                    if padded[i - k : i] == ctx:
                        counts[padded[i]] += 1
            denom = sum(counts) + vocab_size
            want = [math.log((c + 1) / denom).hex() for c in counts]
            assert [s.hex() for s in scorer.score(prefix[:n])] == want, (ctx, corpus)


class TestDecode:
    def test_constrained_outputs_are_members(self):
        vocab = make_vocab(["a", "b", "ab", "aa"])
        scorer = train_ngram([[0, 1, vocab.eos_id]], order=2, vocab_size=vocab.size)
        results = decode(scorer, ANBN, vocab, DecodeConfig(beam_size=4, max_tokens=8))
        assert results
        from gramdec.earley import check_string

        for r in results:
            assert check_string(ANBN, r.text)[0] == "accepted"

    def test_adversarial_scorer_is_masked(self):
        # scorer loves "b" first, which no language member starts with
        vocab = make_vocab(["a", "b"])
        table = {(): [math.log(0.1), math.log(0.8), math.log(0.1)]}
        scorer = TableScorer(vocab.size, table)
        cfg = DecodeConfig(beam_size=2, max_tokens=6)
        best = decode(scorer, ANBN, vocab, cfg)[0]
        assert not best.text.startswith("b")
        loose = decode(scorer, None, vocab, DecodeConfig(beam_size=1, max_tokens=6))[0]
        assert loose.tokens[0] == 1

    def test_score_is_exact_sum(self):
        vocab = make_vocab(["a", "b"])
        scorer = train_ngram([[0, 1, vocab.eos_id]], order=2, vocab_size=vocab.size)
        best = decode(scorer, ANBN, vocab, DecodeConfig(beam_size=2, max_tokens=6))[0]
        total = 0.0
        for i, tid in enumerate(best.tokens):
            total += scorer.score(best.tokens[:i])[tid]
        assert best.logprob == pytest.approx(total, abs=1e-12)

    def test_wide_beam_matches_exhaustive_oracle(self):
        vocab = make_vocab(["a", "b", "ab"])
        scorer = train_ngram(
            [[2, vocab.eos_id], [0, 1, vocab.eos_id]], order=2, vocab_size=vocab.size
        )
        trie = build_trie(vocab)
        non_eos = [t for t in range(vocab.size) if t != vocab.eos_id]

        best_oracle = None
        for n in range(0, 4):
            for body in itertools.product(non_eos, repeat=n):
                seq = body + (vocab.eos_id,)
                state = init_state(ANBN)
                ok = True
                for tid in body:
                    try:
                        state = advance_token(state, trie, tid)
                    except Exception:
                        ok = False
                        break
                if not ok or not state.is_complete():
                    continue
                total = sum(scorer.score(seq[:i])[seq[i]] for i in range(len(seq)))
                if best_oracle is None or total > best_oracle:
                    best_oracle = total

        got = decode(scorer, ANBN, vocab, DecodeConfig(beam_size=64, max_tokens=4))[0]
        assert got.logprob == pytest.approx(best_oracle, abs=1e-12)

    def test_no_viable_hypothesis(self):
        g = reduce(parse_grammar('S -> "ab"'))
        vocab = make_vocab(["a"])
        scorer = TableScorer(vocab.size)
        # after "a" the grammar needs "b", which no token spells
        with pytest.raises(NoViableHypothesisError) as err:
            decode(scorer, g, vocab, DecodeConfig(beam_size=2, max_tokens=4))
        assert err.value.step == 1
        assert str(err.value) == "no hypothesis finished: every mask was empty at step 1"

    def test_budget_exhaustion_drops_unfinished(self):
        g = reduce(parse_grammar('S -> "a" S | "a"'))
        vocab = make_vocab(["a"])
        # scorer vastly prefers continuing with "a" over stopping
        table_row = [math.log(0.99), math.log(0.01)]
        scorer = TableScorer(vocab.size, {})
        scorer.score = lambda prefix, conditioning="": table_row
        with pytest.raises(NoViableHypothesisError) as err:
            decode(scorer, g, vocab, DecodeConfig(beam_size=1, max_tokens=5))
        assert err.value.step == 5
        assert str(err.value) == "no hypothesis finished within max_tokens=5"
        # a second beam slot keeps the eos hypothesis around; the budget
        # bounds finished bodies at max_tokens - 1 since eos spends a step
        results = decode(scorer, g, vocab, DecodeConfig(beam_size=2, max_tokens=5))
        assert sorted(r.text for r in results) == ["a", "aa", "aaa", "aaaa"]

    def test_unconstrained_keeps_unfinished(self):
        vocab = make_vocab(["a"])
        table_row = [math.log(0.99), math.log(0.01)]
        scorer = TableScorer(vocab.size)
        scorer.score = lambda prefix, conditioning="": table_row
        cfg = DecodeConfig(beam_size=1, max_tokens=3)
        best = decode(scorer, None, vocab, cfg)[0]
        assert best.tokens == (0, 0, 0)

    def test_deterministic(self):
        vocab = make_vocab(["a", "b", "ab", "aa"])
        scorer = train_ngram([[0, 1, vocab.eos_id]], order=2, vocab_size=vocab.size)
        cfg = DecodeConfig(beam_size=3, max_tokens=8)
        a = [(r.text, r.logprob) for r in decode(scorer, ANBN, vocab, cfg)]
        b = [(r.text, r.logprob) for r in decode(scorer, ANBN, vocab, cfg)]
        assert a == b

    def test_trie_of_another_vocabulary(self):
        # vb swaps va's ids, so vb's trie would hand out ids of va that
        # spell other strings
        va = Vocabulary(["a", "b", "ab", ""], eos_id=3)
        vb = Vocabulary(["b", "a", "ba", ""], eos_id=3)
        scorer = train_ngram([[0, 1, 3]], order=2, vocab_size=4)
        cfg = DecodeConfig(beam_size=4)
        with pytest.raises(VocabularyError):
            decode(scorer, ANBN, va, cfg, trie=build_trie(vb))
        equal = build_trie(Vocabulary(va.entries, 3))
        assert decode(scorer, ANBN, va, cfg, trie=equal) == decode(scorer, ANBN, va, cfg)

    def test_scorer_contract_enforced(self):
        vocab = make_vocab(["a"])

        class Short(Scorer):
            def score(self, prefix, conditioning=""):
                return [0.0]

        with pytest.raises(ScorerError):
            decode(Short(), ANBN, vocab, DecodeConfig())

        class NonFinite(Scorer):
            def score(self, prefix, conditioning=""):
                return [float("nan")] * vocab.size

        with pytest.raises(ScorerError):
            decode(NonFinite(), ANBN, vocab, DecodeConfig())

    def test_rounding_tie_breaks_by_token_id(self):
        # after a prefix at -1e16 both continuations round to the same
        # total, so the lower token id wins although its own score is lower
        vocab = make_vocab(["a", "b", "c"])
        scorer = TableScorer(
            vocab.size,
            {(): [-1e16, -1e17, -1e17, -1e17], (0,): [-1e17, -0.9, -0.5, -1e17]},
        )
        assert -1e16 + -0.9 == -1e16 + -0.5
        cfg = DecodeConfig(beam_size=1, max_tokens=2)
        assert decode(scorer, None, vocab, cfg)[0].tokens == (0, 1)

    def test_rounded_int_scores_tie_by_token_id(self):
        # ints beyond 2**53 round on their way into the float total: after
        # 2**60 both continuations total 0.0, so the lower token id wins
        # although its own score is lower
        vocab = make_vocab(["a", "b"])
        scorer = TableScorer(
            vocab.size, {(): [2**60, -10.0, -10.0], (0,): [-(2**60) - 1, -(2**60) + 1, -(10**30)]}
        )
        for beam in (1, 2):
            best = decode(scorer, None, vocab, DecodeConfig(beam_size=beam, max_tokens=2))[0]
            assert (best.tokens, best.logprob) == ((0, 0), 0.0)

    def test_non_finite_masked_out_scores_are_ignored(self):
        # "b" is not legal first, and eos is not legal after "a" or "aa"
        vocab = make_vocab(["a", "b"])
        nan, inf = float("nan"), float("inf")
        bad = {(): [-0.1, nan, -2.0], (0,): [-0.1, -0.2, inf], (0, 0): [-0.1, -0.2, -inf]}
        good = {(): [-0.1, -3.0, -2.0], (0,): [-0.1, -0.2, -3.0], (0, 0): [-0.1, -0.2, -3.0]}
        cfg = DecodeConfig(beam_size=2, max_tokens=5)
        got = decode(TableScorer(vocab.size, bad), ANBN, vocab, cfg)
        assert got == decode(TableScorer(vocab.size, good), ANBN, vocab, cfg)

    def test_non_finite_legal_score_in_second_slot(self):
        g = reduce(parse_grammar('S -> "a" "b" | "b" "a"'))
        vocab = make_vocab(["a", "b"])
        # slot 0 holds "a", slot 1 holds "b"; only "a" is legal after "b"
        table = {
            (): [-0.1, -0.2, -5.0],
            (0,): [-1.0, -0.1, -1.0],
            (1,): [float("nan"), float("inf"), -1.0],
        }
        with pytest.raises(ScorerError, match="token 0$"):
            decode(TableScorer(vocab.size, table), g, vocab, DecodeConfig(beam_size=2))

    @pytest.mark.parametrize("beam", [2, 3, 4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 10**400], ids=["nan", "inf", "huge"])
    def test_outranked_slot_with_a_non_finite_score(self, beam, bad):
        # after "a" the four tokens "w".."z" fill the beam at totals of
        # -0.2 to -0.5, while the last slot, at -5 or below, can reach no
        # more than -5.9 with its finite scores; a non-finite score at one
        # of its legal ids still fails the decode, and one at its illegal
        # ids is still ignored
        g = reduce(parse_grammar('S -> [abcd] T\nT -> [wxyz]'))
        vocab = make_vocab(["a", "b", "c", "d", "w", "x", "y", "z"])
        trie = build_trie(vocab)
        table = {
            (): [-0.1, -5.0, -6.0, -7.0, -9.0, -9.0, -9.0, -9.0, -9.0],
            (0,): [-1.0, -1.0, -1.0, -1.0, -0.1, -0.2, -0.3, -0.4, -1.0],
        }
        last = (beam - 1,)
        cfg = DecodeConfig(beam_size=beam, max_tokens=4)
        row = [-0.9] * vocab.size
        row[5] = bad  # "x", legal after any of "a".."d"
        with pytest.raises(ScorerError, match="token 5$"):
            decode(TableScorer(vocab.size, {**table, last: row}), g, vocab, cfg, trie=trie)
        row = [-0.9] * vocab.size
        row[0] = row[3] = row[vocab.eos_id] = bad  # "a", "d" and eos are not
        scorer = TableScorer(vocab.size, {**table, last: row})
        want = reference_decode(scorer, g, vocab, cfg, trie)
        got = decode(scorer, g, vocab, cfg, trie=trie)
        assert [(r.text, r.logprob.hex(), r.tokens) for r in got] == [
            (text, logprob.hex(), tokens) for text, logprob, tokens in want
        ]

    @pytest.mark.parametrize("beam", [1, 2])
    def test_int_score_too_large_for_a_float(self, beam):
        # "b" is not legal first, so a score there is ignored; at a legal
        # id an int beyond float range is not finite, alone or summed with
        # floats
        vocab = make_vocab(["a", "b"])
        huge = 10**400
        cfg = DecodeConfig(beam_size=beam, max_tokens=5)
        masked = TableScorer(vocab.size, {(): [-2.0, huge, -0.1]})
        plain = TableScorer(vocab.size, {(): [-2.0, -3.0, -0.1]})
        assert decode(masked, ANBN, vocab, cfg) == decode(plain, ANBN, vocab, cfg)
        for row in ([-0.1, -3.0, -huge], [-1, -3, huge]):
            with pytest.raises(ScorerError, match="token 2$"):
                decode(TableScorer(vocab.size, {(): row}), ANBN, vocab, cfg)
        # two huge ints whose int sum is finite
        with pytest.raises(ScorerError, match="token 0$"):
            decode(TableScorer(vocab.size, {(): [huge, -3.0, -huge]}), ANBN, vocab, cfg)

    @pytest.mark.parametrize("beam", [1, 3, 4])
    def test_a_literal_asks_for_one_mask_per_state(self, monkeypatch, beam):
        # inside the literal every token leaves the state as it was, so a
        # hypothesis keeps its parent's mask
        g = reduce(parse_grammar("S -> \"'\" T \"'\"\nT -> [a-z] T | \"\""))
        vocab = make_vocab(["'", "a", "b", "ab", "ba", "'a"])
        trie = build_trie(vocab)
        target = (0, 3, 1, 4, 2, 0, vocab.eos_id)
        table = {}
        for k, tid in enumerate(target):
            table[target[:k]] = [-1.0 - t / 8 for t in range(vocab.size)]
            table[target[:k]][tid] = 0.0
        asked = []
        made = []

        def counting(state, t):
            asked.append(state)
            return allowed_tokens(state, t)

        def recording(*args, **kwargs):
            made.append(Hypothesis(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(gramdec.decoder, "allowed_tokens", counting)
        monkeypatch.setattr(gramdec.decoder, "Hypothesis", recording)
        cfg = DecodeConfig(beam_size=beam, max_tokens=10)
        got = decode(TableScorer(vocab.size, table), g, vocab, cfg, trie=trie)
        assert got[0].tokens == target
        assert len(asked) == len({id(s) for s in asked})
        if beam == 1:
            # the root's, the literal's and the closed literal's state
            assert len(asked) == 3
        assert all(h.mask is None or h.mask == allowed_tokens(h.state, trie) for h in made)
        assert sum(h.mask is not None for h in made) > len(asked)

    def test_finite_scores_whose_sum_overflows(self):
        vocab = make_vocab(["a", "b"])
        scorer = TableScorer(vocab.size, {(): [-1e308] * vocab.size})
        assert math.isinf(sum(scorer.score(())))
        results = decode(scorer, ANBN, vocab, DecodeConfig(beam_size=2, max_tokens=1))
        assert [(r.text, r.logprob) for r in results] == [("", -1e308)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam_size=0)
        with pytest.raises(ValueError):
            DecodeConfig(max_tokens=0)
        # 2.5 tokens would decode 3, and a 2.5 beam would fail inside heapq
        for bad in (2.5, 2.0, True, "2", None):
            with pytest.raises(ValueError, match="beam_size must be an int"):
                DecodeConfig(beam_size=bad)
            with pytest.raises(ValueError, match="max_tokens must be an int"):
                DecodeConfig(max_tokens=bad)


def reference_decode(scorer, grammar, vocab, cfg, trie):
    """Beam search as one full sort of every (score, token id, slot)
    candidate per step under the key (-score, token id, slot); returns
    (text, logprob, tokens) best-first, or [] when nothing finished."""
    constrained = grammar is not None
    root = init_state(grammar) if constrained else None
    active = [((), 0.0, root)]
    finished = []
    for _ in range(cfg.max_tokens):
        candidates = []
        for slot, (tokens, logprob, state) in enumerate(active):
            scores = scorer.score(tokens)
            legal = allowed_tokens(state, trie) if constrained else range(vocab.size)
            candidates += [(logprob + scores[t], t, slot) for t in legal]
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_active = []
        for score, tid, slot in candidates[: cfg.beam_size]:
            tokens, _, state = active[slot]
            if tid == vocab.eos_id:
                finished.append((tokens + (tid,), score))
            else:
                nxt = advance_token(state, trie, tid) if constrained else None
                next_active.append((tokens + (tid,), score, nxt))
        active = next_active
        if not active:
            break
    pool = finished if constrained else finished + [(t, s) for t, s, _ in active]
    pool.sort(key=lambda h: (-h[1], h[0]))
    return [(vocab.detokenize(t), s, t) for t, s in pool]


class SeededScorer(Scorer):
    """Scores drawn per prefix from a few values, so totals tie often;
    `first` is added to every score of the first step."""

    VALUES = (0.0, -0.1, -0.2, -0.3, -0.5, -1.0, -1.0, -2.5)

    def __init__(self, size, seed, first=0.0):
        self.size = size
        self.seed = seed
        self.first = first

    def score(self, prefix, conditioning=""):
        rng = random.Random(f"{self.seed}:{list(prefix)}")
        base = 0.0 if prefix else self.first
        return [base + rng.choice(self.VALUES) for _ in range(self.size)]


class DistinctScorer(Scorer):
    """Scores that never tie, in the shape of perfbench's stand-in: one
    best token at `base`, every other at base - scale * (1 + k) * step
    for a distinct seeded k, where base is `first` on the first step and
    0.0 after it, and scale is 1 + |base|, so the first step's scores stay
    distinct too.

    `best` says where the best token lies: among the legal ids, the
    illegal ones or any id (any id when the chosen set is empty). When
    `masked` is not None, it is the score of every other masked-out id.
    """

    def __init__(self, grammar, trie, seed, first, step, best, masked):
        self.grammar = grammar
        self.trie = trie
        self.seed = seed
        self.first = first
        self.step = step
        self.best = best
        self.masked = masked

    def _legal(self, prefix):
        size = self.trie.vocab.size
        if self.grammar is None:
            return set(range(size))
        state = init_state(self.grammar)
        for tid in prefix:
            state = advance_token(state, self.trie, tid)
        return allowed_tokens(state, self.trie)

    def score(self, prefix, conditioning=""):
        rng = random.Random(f"{self.seed}:{list(prefix)}")
        size = self.trie.vocab.size
        base = 0.0 if prefix else self.first
        scale = 1.0 + abs(base)
        order = rng.sample(range(size), size)
        scores = [base - scale * (1 + k) * self.step for k in order]
        legal = self._legal(prefix)
        illegal = [t for t in range(size) if t not in legal]
        pool = {"legal": sorted(legal), "illegal": illegal, "any": range(size)}[self.best]
        best = rng.choice(pool or range(size))
        if self.masked is not None:
            for t in illegal:
                scores[t] = self.masked
        scores[best] = base
        return scores


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.one_of(grammars(), grammars(loops=True)), st.data())
def test_decode_matches_full_sort_reference(g, data):
    try:
        init_state(g)
    except EmptyLanguageError:
        assume(False)
    alphabet = sorted(grammar_alphabet(g) | {data.draw(CHARS)})
    token = st.text(st.sampled_from(alphabet), min_size=1, max_size=3)
    vocab = make_vocab(data.draw(st.lists(token, min_size=1, max_size=8, unique=True)))
    trie = build_trie(vocab)
    scorer = SeededScorer(vocab.size, data.draw(st.integers(0, 2**16)))
    cfg = DecodeConfig(
        beam_size=data.draw(st.integers(1, 5)),
        max_tokens=data.draw(st.integers(1, 6)),
    )
    grammar = g if data.draw(st.booleans()) else None
    want = reference_decode(scorer, grammar, vocab, cfg, trie)
    if not want:
        with pytest.raises(NoViableHypothesisError):
            decode(scorer, grammar, vocab, cfg, trie=trie)
        return
    got = decode(scorer, grammar, vocab, cfg, trie=trie)
    assert [(r.text, r.logprob.hex(), r.tokens) for r in got] == [
        (text, logprob.hex(), tokens) for text, logprob, tokens in want
    ]


class Converted(Scorer):
    """Another scorer's scores, handed out in another container."""

    def __init__(self, inner, convert):
        self.inner = inner
        self.convert = convert

    def score(self, prefix, conditioning=""):
        return self.convert(self.inner.score(prefix, conditioning))


class EndsAfter(Scorer):
    """Another scorer whose eos scores 1e17 after `n` tokens."""

    def __init__(self, inner, eos, n):
        self.inner = inner
        self.eos = eos
        self.n = n

    def score(self, prefix, conditioning=""):
        scores = self.inner.score(prefix, conditioning)
        if len(prefix) >= self.n:
            scores[self.eos] = 1e17
        return scores


# every token without a newline is legal at every step
ANY_LINE = reduce(parse_grammar('S -> [^\\n] S | ""'))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(["any line", "drawn", "unconstrained"]),
    st.sampled_from(["tying", "distinct"]),
    st.data(),
)
def test_large_vocabulary_decode_matches_full_sort_reference(kind, scores, data):
    # a few hundred tokens, so one step's mask can hold hundreds of ids;
    # after a first step at about -1e16 (whose ulp is 2) a step's totals
    # round together, and the lower token id must win. Distinct scores
    # draw steps with one clear winner, whose best token may be masked
    # out, and masked-out ids that score -inf or NaN.
    if kind == "drawn":
        g = data.draw(grammars(loops=True))
        try:
            init_state(g)
        except EmptyLanguageError:
            assume(False)
        alphabet = grammar_alphabet(g) | set("ab")
    else:
        g = ANY_LINE
        alphabet = set("ab\n")
    alphabet = sorted(alphabet | {data.draw(CHARS)})
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    size = data.draw(st.integers(150, 400))
    tokens = set()
    for _ in range(20 * size):
        if len(tokens) == size:
            break
        tokens.add("".join(rng.choices(alphabet, k=rng.randint(1, 8))))
    vocab = make_vocab(sorted(tokens))
    trie = build_trie(vocab)
    first = data.draw(st.sampled_from([0.0, -1e16]))
    seed = data.draw(st.integers(0, 2**16))
    cfg = DecodeConfig(
        beam_size=data.draw(st.sampled_from([1, 1, 2, 3, 4, 5])),
        max_tokens=data.draw(st.integers(2, 6)),
    )
    grammar = None if kind == "unconstrained" else g
    if scores == "tying":
        scorer = SeededScorer(vocab.size, seed, first)
    else:
        scorer = DistinctScorer(
            grammar,
            trie,
            seed,
            first,
            step=data.draw(st.sampled_from([1.0, 1e-3, 1e-17])),
            best=data.draw(st.sampled_from(["legal", "legal", "illegal", "any"])),
            masked=data.draw(st.sampled_from([None, None, -math.inf, math.nan])),
        )
    # so that greedy decodes finish, and compare more than their failure
    scorer = EndsAfter(scorer, vocab.eos_id, data.draw(st.integers(1, cfg.max_tokens)))
    want = reference_decode(scorer, grammar, vocab, cfg, trie)
    if not want:
        with pytest.raises(NoViableHypothesisError):
            decode(scorer, grammar, vocab, cfg, trie=trie)
        return
    got = decode(scorer, grammar, vocab, cfg, trie=trie)
    assert [(r.text, r.logprob.hex(), r.tokens) for r in got] == [
        (text, logprob.hex(), tokens) for text, logprob, tokens in want
    ]



@pytest.mark.parametrize("beam", [1, 3])
@pytest.mark.parametrize("container", ["tuple", "numpy"])
def test_scores_need_not_be_a_list(container, beam):
    # the Scorer contract asks for len, indexing and iteration only
    convert = pytest.importorskip("numpy").array if container == "numpy" else tuple
    rng = random.Random(0)
    vocab = make_vocab(sorted({"".join(rng.choices("ab\n", k=rng.randint(1, 3))) for _ in range(60)}))
    trie = build_trie(vocab)
    cfg = DecodeConfig(beam_size=beam, max_tokens=6)
    cases = itertools.product(
        [ANY_LINE, None], [0.0, -1e16], [1.0, 1e-17], ["legal", "illegal"], [None, -math.inf]
    )
    for seed, (grammar, first, step, best, masked) in enumerate(cases):
        scorer = EndsAfter(DistinctScorer(grammar, trie, seed, first, step, best, masked), vocab.eos_id, 3)
        want = decode(scorer, grammar, vocab, cfg, trie=trie)
        got = decode(Converted(scorer, convert), grammar, vocab, cfg, trie=trie)
        assert [(r.text, r.logprob.hex(), r.tokens) for r in got] == [
            (r.text, r.logprob.hex(), r.tokens) for r in want
        ]


class Counted(Scorer):
    """Another scorer, counting its calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def score(self, prefix, conditioning=""):
        self.calls += 1
        return self.inner.score(prefix, conditioning)


def _sql_case():
    schema = DbSchema([DbTable("head", [DbColumn("born_state"), DbColumn("age")])])
    g = specialize_sql_grammar(load_base_sql_grammar(), schema)
    words = ["SELECT", "FROM", "WHERE", "AND", "head", "age", "born_state", "count"]
    tokens = [w for word in words for w in (word, " " + word)]
    return g, make_vocab(tokens + [", ", " = ", " > ", "(*)", "'", "1", "x", " "])


def _any_line_case():
    rng = random.Random(0)
    tokens = {"".join(rng.choices("ab\n", k=rng.randint(1, 3))) for _ in range(60)}
    return ANY_LINE, make_vocab(sorted(tokens))


@pytest.mark.parametrize("case", [_any_line_case, _sql_case], ids=["any-line", "sql"])
def test_an_outranked_hypothesis_is_neither_masked_nor_advanced(monkeypatch, case):
    # one token a step scores 0.0 and the others -1.0, -2.0, ..., so the
    # best hypothesis's children fill most of the next beam; a hypothesis
    # that cannot reach it is not masked, and a chosen token is advanced
    # only when its hypothesis is masked
    g, vocab = case()
    trie = build_trie(vocab)
    cfg = DecodeConfig(beam_size=4, max_tokens=8)
    asked = []
    advanced = []
    made = []

    def counting_mask(state, t):
        asked.append(state)
        return allowed_tokens(state, t)

    def counting_advance(state, t, tid):
        advanced.append(tid)
        return advance_token(state, t, tid)

    def recording(*args, **kwargs):
        made.append(Hypothesis(*args, **kwargs))
        return made[-1]

    for seed in range(3):
        scorer = Counted(EndsAfter(DistinctScorer(g, trie, seed, 0.0, 1.0, "legal", None), vocab.eos_id, 5))
        want = reference_decode(scorer, g, vocab, cfg, trie)
        assert want
        scorer.calls = 0
        del asked[:], advanced[:], made[:]
        with monkeypatch.context() as m:
            m.setattr(gramdec.decoder, "allowed_tokens", counting_mask)
            m.setattr(gramdec.decoder, "advance_token", counting_advance)
            m.setattr(gramdec.decoder, "Hypothesis", recording)
            got = decode(scorer, g, vocab, cfg, trie=trie)
        assert [(r.text, r.logprob.hex(), r.tokens) for r in got] == [
            (text, logprob.hex(), tokens) for text, logprob, tokens in want
        ]
        assert len(asked) < scorer.calls and len(advanced) < scorer.calls
        # every advanced hypothesis holds its mask, unless it finished
        for h in made:
            assert h.state is None or h.mask is not None or h.tokens[-1] == vocab.eos_id


def _reply(status: str, body: bytes, length=None) -> bytes:
    """An HTTP/1.1 reply with a JSON content type; `length` overrides the
    body's Content-Length."""
    length = len(body) if length is None else length
    head = f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {length}\r\n"
    return head.encode() + b"Connection: close\r\n\r\n" + body


# a valid body: a reply carrying it fails by its own fault alone
SCORES = b'{"scores": [0.0, 0.0, 0.0]}'


class TestHttpScorer:
    def test_round_trip(self, scorer_server):
        ScorerHandler.behavior = "ok"
        s = HttpScorer(scorer_server)
        scores = s.score((1, 2), "ctx\ud800")
        assert len(scores) == 3
        assert scores[0] == pytest.approx(math.log(1 / 3) + 0.002)
        body, headers = ScorerHandler.last_request
        assert body == {"conditioning": "ctx\ud800", "prefix": [1, 2]}
        assert headers["Content-Type"] == "application/json"

    @pytest.mark.parametrize("url", ["not a url", "http://", "http://[::1"])
    def test_malformed_url(self, url):
        with pytest.raises(ScorerError):
            HttpScorer(url, timeout=0.5).score((), "")

    def test_file_url_is_not_read(self, tmp_path):
        path = tmp_path / "scores.json"
        path.write_bytes(SCORES)
        with pytest.raises(ScorerError):
            HttpScorer(path.as_uri(), timeout=0.5).score((), "")

    def test_ftp_url_opens_nothing(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
            with pytest.raises(ScorerError):
                HttpScorer(f"ftp://127.0.0.1:{port}/scores", timeout=0.5).score((), "")
            listener.setblocking(False)
            with pytest.raises(BlockingIOError):
                listener.accept()  # no connection waits

    @pytest.mark.parametrize(
        "reply",
        [
            pytest.param(b"HTTP/1.1 204 No Content\r\n\r\n", id="204"),
            pytest.param(_reply("201 Created", SCORES), id="201"),
            pytest.param(_reply("200 OK", SCORES, length=len(SCORES) + 20), id="truncated-body"),
            pytest.param(b"", id="closed-without-reply"),
            pytest.param(_reply("200 OK", b'{"scores": [0.0, \xff, 0.0]}'), id="not-utf-8"),
        ],
    )
    def test_bad_reply(self, reply):
        with raw_server(reply) as url:
            with pytest.raises(ScorerError):
                HttpScorer(url, timeout=5).score((), "")

    def test_redirect_is_not_followed(self, scorer_server):
        head = f"HTTP/1.1 307 Temporary Redirect\r\nLocation: {scorer_server}\r\n"
        with raw_server(head.encode() + b"Content-Length: 0\r\n\r\n") as url:
            with pytest.raises(ScorerError, match="HTTP 307$"):
                HttpScorer(url, timeout=5).score((), "")
        assert ScorerHandler.last_request is None

    def test_import_loads_no_http_client(self):
        script = (
            "import sys, gramdec, gramdec.cli\n"
            "print([m for m in ('requests', 'urllib.request', 'http.client') if m in sys.modules])\n"
        )
        src = str(Path(gramdec.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], env={"PYTHONPATH": src}, capture_output=True, timeout=60
        )
        assert done.returncode == 0, done.stderr.decode()[-500:]
        assert done.stdout.decode().strip() == "[]"

    def test_round_trip_without_requests(self, scorer_server, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)  # import requests fails
        assert len(HttpScorer(scorer_server).score((1,), "ctx")) == 3

    def test_silent_server_times_out(self):
        with raw_server(None) as url:
            start = time.monotonic()
            with pytest.raises(ScorerError):
                HttpScorer(url, timeout=0.5).score((), "")
            assert time.monotonic() - start < 5

    def test_http_error(self, scorer_server):
        ScorerHandler.behavior = "error"
        with pytest.raises(ScorerError):
            HttpScorer(scorer_server).score((), "")

    def test_bad_payload(self, scorer_server):
        ScorerHandler.behavior = "garbage"
        with pytest.raises(ScorerError):
            HttpScorer(scorer_server).score((), "")

    @pytest.mark.parametrize("behavior", ["list", "scores-int", "scores-str", "scores-null", "deep"])
    def test_scores_not_a_list_of_numbers(self, scorer_server, behavior):
        ScorerHandler.behavior = behavior
        with pytest.raises(ScorerError):
            HttpScorer(scorer_server).score((), "")
        with pytest.raises(ScorerError):
            decode(HttpScorer(scorer_server), ANBN, make_vocab(["a", "b"]), DecodeConfig())

    def test_connection_refused(self):
        with pytest.raises(ScorerError):
            HttpScorer("http://127.0.0.1:9/", timeout=0.5).score((), "")


class TestHttpsScorer:
    def test_trusted_certificate(self, https_scorer_server, tls_cert, monkeypatch):
        monkeypatch.setenv("SSL_CERT_FILE", str(tls_cert[0]))
        scores = HttpScorer(https_scorer_server, timeout=5).score((1, 2), "ctx")
        assert scores[0] == pytest.approx(math.log(1 / 3) + 0.002)
        assert ScorerHandler.last_request[0] == {"conditioning": "ctx", "prefix": [1, 2]}

    def test_untrusted_certificate(self, https_scorer_server):
        with pytest.raises(ScorerError, match="CERTIFICATE_VERIFY_FAILED"):
            HttpScorer(https_scorer_server, timeout=5).score((), "")
        assert ScorerHandler.last_request is None

    def test_plain_http_server(self, scorer_server):
        url = scorer_server.replace("http://", "https://", 1)
        with pytest.raises(ScorerError, match="WRONG_VERSION_NUMBER"):
            HttpScorer(url, timeout=5).score((), "")

    def test_server_that_never_handshakes(self):
        with raw_server(None) as url:
            start = time.monotonic()
            with pytest.raises(ScorerError):
                HttpScorer(url.replace("http://", "https://", 1), timeout=0.5).score((), "")
            assert time.monotonic() - start < 5
