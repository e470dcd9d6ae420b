import itertools
import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from gramdec.decoder import (
    DecodeConfig,
    HttpScorer,
    NgramScorer,
    Scorer,
    decode,
    train_ngram,
)
from gramdec.earley import init_state
from gramdec.errors import NoViableHypothesisError, ScorerError
from gramdec.grammar import parse_grammar, reduce
from gramdec.tokens import advance_token, build_trie

from helpers import make_vocab

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

    def test_vocab_size_inferred(self):
        assert train_ngram([[0, 4]], order=1).vocab_size == 5

    def test_order_and_corpus_validation(self):
        with pytest.raises(ValueError):
            train_ngram([[0]], order=0)
        with pytest.raises(ValueError):
            train_ngram([], order=2)


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
        loose = decode(
            scorer, None, vocab, DecodeConfig(beam_size=1, max_tokens=6, constrained=False)
        )[0]
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
        with pytest.raises(NoViableHypothesisError):
            decode(scorer, g, vocab, DecodeConfig(beam_size=2, max_tokens=4))

    def test_budget_exhaustion_drops_unfinished(self):
        g = reduce(parse_grammar('S -> "a" S | "a"'))
        vocab = make_vocab(["a"])
        # scorer vastly prefers continuing with "a" over stopping
        table_row = [math.log(0.99), math.log(0.01)]
        scorer = TableScorer(vocab.size, {})
        scorer.score = lambda prefix, conditioning="": table_row
        with pytest.raises(NoViableHypothesisError):
            decode(scorer, g, vocab, DecodeConfig(beam_size=1, max_tokens=5))
        # a second beam slot keeps the eos hypothesis around; the budget
        # bounds finished bodies at max_tokens - 1 since eos spends a step
        results = decode(scorer, g, vocab, DecodeConfig(beam_size=2, max_tokens=5))
        assert sorted(r.text for r in results) == ["a", "aa", "aaa", "aaaa"]

    def test_unconstrained_keeps_unfinished(self):
        vocab = make_vocab(["a"])
        table_row = [math.log(0.99), math.log(0.01)]
        scorer = TableScorer(vocab.size)
        scorer.score = lambda prefix, conditioning="": table_row
        cfg = DecodeConfig(beam_size=1, max_tokens=3, constrained=False)
        best = decode(scorer, None, vocab, cfg)[0]
        assert best.tokens == (0, 0, 0)

    def test_deterministic(self):
        vocab = make_vocab(["a", "b", "ab", "aa"])
        scorer = train_ngram([[0, 1, vocab.eos_id]], order=2, vocab_size=vocab.size)
        cfg = DecodeConfig(beam_size=3, max_tokens=8)
        a = [(r.text, r.logprob) for r in decode(scorer, ANBN, vocab, cfg)]
        b = [(r.text, r.logprob) for r in decode(scorer, ANBN, vocab, cfg)]
        assert a == b

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam_size=0)
        with pytest.raises(ValueError):
            DecodeConfig(max_tokens=0)
        with pytest.raises(ValueError):
            decode(TableScorer(2), None, make_vocab(["a"]), DecodeConfig())


# 200 bodies that are not a JSON object whose "scores" is a list of numbers
BAD_BODIES = {
    "garbage": b"not json",
    "list": b"[1, 2, 3]",
    "scores-int": b'{"scores": 5}',
    "scores-str": b'{"scores": ["x", "y", "z"]}',
    "scores-null": b'{"scores": [0.0, null, 0.0]}',
}


class _ScorerHandler(BaseHTTPRequestHandler):
    behavior = "ok"

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
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


@pytest.fixture()
def scorer_server():
    server = HTTPServer(("127.0.0.1", 0), _ScorerHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/"
    server.shutdown()


class TestHttpScorer:
    def test_round_trip(self, scorer_server):
        _ScorerHandler.behavior = "ok"
        s = HttpScorer(scorer_server)
        scores = s.score((1, 2), "ctx")
        assert len(scores) == 3
        assert scores[0] == pytest.approx(math.log(1 / 3) + 0.002)

    def test_http_error(self, scorer_server):
        _ScorerHandler.behavior = "error"
        with pytest.raises(ScorerError):
            HttpScorer(scorer_server).score((), "")

    def test_bad_payload(self, scorer_server):
        _ScorerHandler.behavior = "garbage"
        with pytest.raises(ScorerError):
            HttpScorer(scorer_server).score((), "")

    @pytest.mark.parametrize("behavior", ["list", "scores-int", "scores-str", "scores-null"])
    def test_scores_not_a_list_of_numbers(self, scorer_server, behavior):
        _ScorerHandler.behavior = behavior
        with pytest.raises(ScorerError):
            HttpScorer(scorer_server).score((), "")
        with pytest.raises(ScorerError):
            decode(HttpScorer(scorer_server), ANBN, make_vocab(["a", "b"]), DecodeConfig())

    def test_connection_refused(self):
        with pytest.raises(ScorerError):
            HttpScorer("http://127.0.0.1:9/", timeout=0.5).score((), "")
