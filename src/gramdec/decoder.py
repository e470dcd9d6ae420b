"""Constrained beam search over a pluggable next-token scorer.

The constrained and unconstrained paths share everything except mask
application, so comparing the two isolates the constraint system. In
constrained mode eos is only offered at complete states and every returned
string is a member of the grammar's language; unfinished hypotheses are
dropped at the token budget rather than returned truncated.

A step reads each hypothesis's legal scores in one pass and checks them
with one sum; the next beam is the best beam_size of all hypotheses' legal
tokens, taken in one selection over (cost, token id, slot) tuples.

A greedy step (beam_size 1) builds those tuples only for the tokens that
can win it: those whose score is at least
cut - 2 * (ulp(logprob + cut) + ulp(cut)), cut being the best legal score,
found in one pass. This keeps every token whose total ties the best: a
float sum is monotone in each addend, and two exact sums that round to the
same total T lie within ulp(T) of each other, so a tying float score is at
least cut - ulp(T). An int score beyond 2**53 is rounded to a float before
it is added, by up to half an ulp of itself, which the ulp(cut) term
covers. An overflowing total makes the bound -inf and keeps every token.
The selection among the kept tokens, ties by token id included, is the
same as among all of them.

A greedy step over a wide mask, one holding more than 1/WIDE of the
vocabulary, first tries that cut over the whole score vector. The float
sum of every score must be finite, the first id of the best score must be
legal, and the runner-up score, from heapq.nlargest(2), must lie below the
bound. That id is then the only token the cut keeps, and no legal score is
read one by one. Otherwise the step falls back to the pass over the legal
ids: a score that is not finite (legal or not), a best token that is
masked out, or a second score within the bound. These passes over all V
scores cost as much as the legal pass over V/4 ids at 2,000 tokens and
V/3 at 300, hence WIDE = 4.

A hypothesis carries its mask from the first time its state is scored.
A token that leaves the state object as it was, as inside a literal,
hands the same mask to the child, so a literal asks for one mask per
state. A mask lives only as long as some hypothesis holds it.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import add, ge, indexOf, neg

from .earley import init_state
from .errors import NoViableHypothesisError, ScorerError, VocabularyError
from .grammar import Grammar
from .tokens import TokenTrie, Vocabulary, advance_token, allowed_tokens, build_trie


class Scorer:
    """Contract: score(prefix, conditioning) returns one log-score per
    vocabulary id, deterministically, as a sequence with len, indexing by
    id and iteration (a list, a tuple or a NumPy array). Scores must be
    finite for the tokens that are legal at that step, and only those are
    checked (every id is legal when unconstrained); an int too large for a
    float is not finite. Implementations must tolerate concurrent calls or
    document serialized access."""

    def score(self, prefix: tuple, conditioning: str):
        raise NotImplementedError


@dataclass
class DecodeConfig:
    beam_size: int = 5
    max_tokens: int = 128

    def __post_init__(self):
        for name in ("beam_size", "max_tokens"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, not {value!r}")


@dataclass
class Hypothesis:
    tokens: tuple
    logprob: float
    state: object  # PrefixState, or None when unconstrained
    mask: object = None  # allowed_tokens(state), once asked for


@dataclass
class DecodeResult:
    text: str
    logprob: float
    tokens: tuple


def _is_finite(x):
    """math.isfinite, and False for an int too large for a float."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _sum_is_finite(scores):
    """Whether the float sum of scores is finite. It is not when a score
    is not finite, is an int too large for a float, or when finite scores
    overflow; the float start converts every int, so two huge ints cannot
    cancel."""
    try:
        return math.isfinite(sum(scores, 0.0))
    except OverflowError:
        return False


# a greedy step tries the whole-vector cut first when more than 1/WIDE of
# the vocabulary is legal (module docstring)
WIDE = 4


def _clear_winner(scores, legal, logprob):
    """The id of the one token that can win a greedy step, found by passes
    over the whole score vector, or None when the step needs the pass over
    the legal ids: a score is not finite, the best score's first id is not
    legal, or another score comes within the greedy cut of it."""
    if not _sum_is_finite(scores):
        return None
    cut, *runner_up = heapq.nlargest(2, scores)  # no runner-up when V is 1
    i0 = indexOf(scores, cut)
    if i0 not in legal:
        return None
    lo = cut - 2 * (math.ulp(logprob + cut) + math.ulp(cut))
    if runner_up and runner_up[0] >= lo:
        return None
    return i0


def decode(
    scorer: Scorer,
    grammar: Grammar | None,
    vocab: Vocabulary,
    cfg: DecodeConfig,
    conditioning: str = "",
    trie: TokenTrie | None = None,
):
    """Beam search; returns DecodeResults sorted best-first.

    Decoding is constrained exactly when a grammar is given, and a given
    trie must be built for a vocabulary equal to `vocab`. Within a step,
    candidates of equal total break ties by the lower token id, then the
    lower beam slot; the results are sorted by score, then by their token
    ids in lexicographic order. So runs are deterministic. Scores are
    exact sums of the chosen per-step log-scores.

    A greedy step over a wide mask tries the cut over the whole score
    vector first and falls back to the pass over the legal ids when a
    score is not finite, the best token is masked out or a second score
    comes within the cut; a hypothesis keeps its parent's mask while its
    state is the parent's (module docstring).
    """
    constrained = grammar is not None
    if constrained:
        if trie is None:
            trie = build_trie(vocab)
        elif trie.vocab is not vocab and trie.vocab.entries != vocab.entries:
            # equal entries hold their one empty string at the same eos id
            raise VocabularyError("the trie was built for another vocabulary")
        root = init_state(grammar)
    else:
        root = None
    active = [Hypothesis(tokens=(), logprob=0.0, state=root)]
    finished = []
    eos = vocab.eos_id
    greedy = cfg.beam_size == 1

    step = 0
    while step < cfg.max_tokens:
        # One stream of (cost, token id, slot) per slot, cost being -score,
        # so the tuples' own order is best-first with ties by token id, then
        # slot.
        streams = []
        for slot, hyp in enumerate(active):
            scores = scorer.score(hyp.tokens, conditioning)
            if len(scores) != vocab.size:
                raise ScorerError(
                    f"scorer returned {len(scores)} scores for vocabulary of {vocab.size}"
                )
            if not constrained:
                legal = range(vocab.size)
            elif hyp.mask is None:
                legal = hyp.mask = allowed_tokens(hyp.state, trie)
            else:
                legal = hyp.mask
            if greedy and WIDE * len(legal) > vocab.size:
                winner = _clear_winner(scores, legal, hyp.logprob)
                if winner is not None:
                    streams.append(((-(hyp.logprob + scores[winner]), winner, slot),))
                    continue
            vals = list(map(scores.__getitem__, legal))
            # one pass over the sum; only a sum that is not finite takes the
            # per-token check
            if not _sum_is_finite(vals):
                for tid, s in zip(legal, vals):
                    if not _is_finite(s):
                        raise ScorerError(f"non-finite score for token {tid}")
            if greedy and vals:
                # only the tokens that can tie the best total (module docstring)
                cut = max(vals)
                lo = cut - 2 * (math.ulp(hyp.logprob + cut) + math.ulp(cut))
                legal = list(compress(legal, map(ge, vals, repeat(lo))))
                vals = list(map(scores.__getitem__, legal))
            totals = map(add, repeat(hyp.logprob), vals)
            streams.append(zip(map(neg, totals), legal, repeat(slot)))
        best = heapq.nsmallest(cfg.beam_size, chain.from_iterable(streams))
        if not best:
            break
        next_active = []
        for cost, tid, slot in best:
            score = -cost
            parent = active[slot]
            if tid == eos:
                finished.append(
                    Hypothesis(parent.tokens + (eos,), score, parent.state)
                )
            else:
                state = advance_token(parent.state, trie, tid) if constrained else None
                # inside a literal a token may leave the state, and so its
                # mask, as it was
                mask = parent.mask if state is parent.state else None
                next_active.append(
                    Hypothesis(parent.tokens + (tid,), score, state, mask)
                )
        active = next_active
        if not active:
            break
        step += 1

    pool = list(finished)
    if not constrained:
        # Unfinished hypotheses compete as-is; constrained mode drops them
        # since a truncated prefix is not a language member.
        pool.extend(active)
    if not pool:
        if step == cfg.max_tokens:
            raise NoViableHypothesisError(
                f"no hypothesis finished within max_tokens={cfg.max_tokens}", step
            )
        raise NoViableHypothesisError(
            f"no hypothesis finished: every mask was empty at step {step}", step
        )
    pool.sort(key=lambda h: (-h.logprob, h.tokens))
    return [DecodeResult(vocab.detokenize(h.tokens), h.logprob, h.tokens) for h in pool]


# ---------------------------------------------------------------------------
# Built-in scorers


_BOS = -1


class NgramScorer(Scorer):
    """Add-one-smoothed n-gram language model over token ids; train_ngram
    makes one.

    Contexts are the last order-1 ids, left-padded with a BOS marker;
    conditioning text is ignored (the model is unconditional). One table
    maps each context seen in training to the counts of its next token
    ids; a context's total is the sum of those counts.
    """

    def __init__(self, order: int, vocab_size: int, counts):
        self.order = order
        self.vocab_size = vocab_size
        self._counts = counts  # ctx tuple -> {next token id: count}

    def score(self, prefix, conditioning=""):
        counts = self._counts.get(self._context(prefix), {})
        denom = sum(counts.values()) + self.vocab_size
        scores = [math.log(1 / denom)] * self.vocab_size
        for t, c in counts.items():
            scores[t] = math.log((c + 1) / denom)
        return scores

    def _context(self, prefix):
        k = self.order - 1
        if k == 0:
            return ()
        padded = (_BOS,) * k + tuple(prefix)
        return padded[len(padded) - k :]


def train_ngram(corpus, order: int, vocab_size: int) -> NgramScorer:
    """Fit an add-one n-gram scorer on token-id sequences (eos included),
    counting each context's next ids once per occurrence.

    Every id must lie in [0, vocab_size); others raise ValueError.
    """
    if not 1 <= order <= 5:
        raise ValueError("order must be in [1, 5]")
    if not corpus:
        raise ValueError("empty training corpus")
    k = order - 1
    counts: dict = {}
    for seq in corpus:
        padded = (_BOS,) * k + tuple(seq)
        for i in range(k, len(padded)):
            tok = padded[i]
            if not 0 <= tok < vocab_size:
                raise ValueError(f"corpus id {tok} outside [0, {vocab_size})")
            bucket = counts.setdefault(padded[i - k : i], {})
            bucket[tok] = bucket.get(tok, 0) + 1
    return NgramScorer(order, vocab_size, counts)


class HttpScorer(Scorer):
    """Scorer backed by a JSON-over-HTTP service.

    Request: one POST of {"conditioning": str, "prefix": [ids]} as
    application/json; response: HTTP 200 and {"scores": [vocab-size
    numbers]}. The URL must be http or https; other schemes are refused
    before anything is opened, and redirects are not followed. A malformed
    URL, a transport failure or timeout, any status other than 200 and any
    other response body raise ScorerError; they are never silently turned
    into masks.
    """

    def __init__(self, url: str, timeout: float = 10.0):
        # deferred: urllib.request costs every importer of gramdec 6 MB
        import urllib.parse
        import urllib.request

        try:
            scheme = urllib.parse.urlsplit(url).scheme
        except ValueError as exc:
            raise ScorerError(f"scorer request failed: {exc}") from None
        if scheme not in ("http", "https"):
            raise ScorerError(f"scorer URL must be http or https: {url!r}")
        self.url = url
        self.timeout = timeout
        # no redirect or error handler: every reply meets the status check
        self._opener = urllib.request.OpenerDirector()
        for handler in (
            urllib.request.ProxyHandler(),
            urllib.request.HTTPHandler(),
            urllib.request.HTTPSHandler(),
        ):
            self._opener.add_handler(handler)

    def score(self, prefix, conditioning=""):
        import http.client
        import urllib.request

        data = json.dumps({"conditioning": conditioning, "prefix": list(prefix)}).encode()
        try:
            request = urllib.request.Request(
                self.url, data, {"Content-Type": "application/json"}
            )
            with self._opener.open(request, timeout=self.timeout) as resp:
                if resp.status != 200:
                    raise ScorerError(f"scorer returned HTTP {resp.status}")
                payload = resp.read()
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise ScorerError(f"scorer request failed: {exc}") from None
        try:
            body = json.loads(payload)
        except (ValueError, RecursionError) as exc:
            raise ScorerError(f"bad scorer response: {exc}") from None
        scores = body.get("scores") if isinstance(body, dict) else None
        if not isinstance(scores, list) or not all(
            type(s) in (int, float) for s in scores
        ):
            raise ScorerError(
                'bad scorer response: not a JSON object whose "scores" is a list of numbers'
            )
        return scores
