import gc
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramdec.errors import PromptError
from gramdec.prompting import (
    HEADER,
    MODE_LAST_AGENT,
    MODE_LAST_USER_AND_AGENT,
    MODE_NONE,
    MODE_SQL_ALL_INTERACTIONS,
    MODE_SQL_LAST_INTERACTION,
    MODE_SQL_NONE,
    ContextMode,
    PromptExample,
    bm25_rank,
    bm25_scores,
    build_prompt,
    render_input,
    whitespace_tokens,
)
from gramdec.splits import DatasetExample
from gramdec.sql import DbColumn, DbSchema, DbTable

POOL = [
    "book a meeting with alice",
    "cancel the meeting",
    "what is the weather",
    "book a flight to boston",
    "set a timer",
]

# Okapi BM25, k1=1.2, b=0.75, for the query "book a meeting" against POOL,
# worked out by hand from idf = ln((N - df + .5)/(df + .5)) and
# tf_term = f (k1+1) / (f + k1 (1 - b + b dl/avgdl)), avgdl = 4:
#   doc 0: dl 5, hits book(df2) a(df3) meeting(df2)
#   doc 1: dl 3, hit meeting; doc 4: dl 3, hit a
#   docs 2 and 3 land on 0 exactly: idf(book) = -idf(a) = ln 1.4 and the
#   tf terms coincide (doc 2 has no hits at all)
FROZEN = [
    0.3052531631202757,
    0.3748045167426169,
    0.0,
    0.0,
    -0.3748045167426169,
]


class TestBm25:
    def test_frozen_values(self):
        scores = bm25_scores("book a meeting", POOL)
        assert len(scores) == 5
        for got, want in zip(scores, FROZEN):
            assert got == pytest.approx(want, abs=1e-9)

    def test_rank_ties_keep_pool_order(self):
        assert bm25_rank("book a meeting", POOL) == [1, 0, 2, 3, 4]

    def test_b_zero_ignores_length(self):
        # with b = 0 only term frequency matters, so equal-hit docs tie
        scores = bm25_scores("meeting", POOL, b=0)
        assert scores[0] == pytest.approx(scores[1], abs=1e-12)

    def test_case_insensitive(self):
        assert bm25_scores("BOOK A MEETING", POOL) == bm25_scores(
            "book a meeting", POOL
        )

    def test_no_hits_scores_zero(self):
        assert bm25_scores("zzz", POOL) == [0.0] * 5

    def test_empty_pool(self):
        assert bm25_scores("x", []) == []

    def test_self_retrieval(self):
        # a document is always among the top matches for itself
        for i, doc in enumerate(POOL):
            assert bm25_rank(doc, POOL)[0] == i


def reference_bm25_scores(query, pool, k1=1.2, b=0.75):
    """BM25 as it was before the pool index: every query re-tokenizes the
    pool and recounts document frequencies."""
    docs = [doc.lower().split() for doc in pool]
    n = len(docs)
    if n == 0:
        return []
    avgdl = sum(len(d) for d in docs) / n
    dfs = {}
    for d in docs:
        for t in set(d):
            dfs[t] = dfs.get(t, 0) + 1
    scores = []
    q_terms = query.lower().split()
    for d in docs:
        tf = {}
        for t in d:
            tf[t] = tf.get(t, 0) + 1
        dl = len(d)
        s = 0.0
        for t in q_terms:
            f = tf.get(t, 0)
            if f == 0:
                continue
            df = dfs[t]
            idf = math.log((n - df + 0.5) / (df + 0.5))
            norm = 1 - b + b * (dl / avgdl) if avgdl else 1.0
            s += idf * f * (k1 + 1) / (f + k1 * norm)
        scores.append(s)
    return scores


# few distinct words, so queries repeat terms and documents share them
_WORDS = st.sampled_from(["book", "a", "meeting", "Meeting", "the", "x", "é"])
_DOCS = st.lists(_WORDS, max_size=6).map(" ".join)  # "" is an empty document


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.lists(_DOCS, max_size=8),
    st.lists(_DOCS, min_size=1, max_size=4),
    st.integers(0, 7),
    _DOCS,
    st.sampled_from([(1.2, 0.75), (1.5, 0.0), (0.9, 1.0)]),
)
def test_bm25_matches_reference_bit_for_bit(pool, queries, changed, replacement, params):
    k1, b = params

    def check():
        for query in queries:
            want = reference_bm25_scores(query, pool, k1, b)
            got = bm25_scores(query, pool, k1=k1, b=b)
            assert [s.hex() for s in got] == [s.hex() for s in want], (query, pool)

    check()
    # the same list, mutated between calls, is scored against its new contents
    if pool:
        pool[changed % len(pool)] = replacement
    else:
        pool.append(replacement)
    check()


# a few distinct documents, empty ones among them, drawn with repeats, so
# that equal scores are common
_TIED_POOLS = st.lists(_DOCS, min_size=1, max_size=3).flatmap(
    lambda docs: st.lists(st.sampled_from(docs + [""]), max_size=12)
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    _TIED_POOLS,
    st.lists(st.one_of(_DOCS, st.just("zzz nothing")), min_size=1, max_size=3),
)
def test_bm25_rank_breaks_ties_by_pool_order(pool, queries):
    for query in queries:
        s = reference_bm25_scores(query, pool)
        want = sorted(range(len(pool)), key=lambda i: (-s[i], i))
        assert bm25_rank(query, pool) == want, (query, pool)


SCHEMA = DbSchema([DbTable("head", [DbColumn("born_state"), DbColumn("age")])])


def example(**kw):
    base = dict(id="x", utterance="how many heads", gold="")
    base.update(kw)
    return DatasetExample(**base)


class TestRenderInput:
    def test_none(self):
        assert render_input(example(), ContextMode(MODE_NONE)) == "how many heads"

    def test_last_agent(self):
        ex = example(last_agent_utt="done")
        assert render_input(ex, ContextMode(MODE_LAST_AGENT)) == "done | how many heads"

    def test_last_user_and_agent(self):
        ex = example(last_user_utt="add it", last_agent_utt="done")
        assert (
            render_input(ex, ContextMode(MODE_LAST_USER_AND_AGENT))
            == "add it | done | how many heads"
        )

    def test_sql_none(self):
        ex = example(schema=SCHEMA)
        assert (
            render_input(ex, ContextMode(MODE_SQL_NONE))
            == "head : born_state , age , how many heads"
        )

    def test_sql_last_interaction(self):
        ex = example(schema=SCHEMA, prior_interactions=["q1", "q2"])
        assert (
            render_input(ex, ContextMode(MODE_SQL_LAST_INTERACTION))
            == "q2 | head : born_state , age , how many heads"
        )

    def test_sql_all_interactions(self):
        ex = example(schema=SCHEMA, prior_interactions=["q1", "q2"])
        assert (
            render_input(ex, ContextMode(MODE_SQL_ALL_INTERACTIONS))
            == "q1 | q2 | head : born_state , age , how many heads"
        )

    def test_sql_requires_schema(self):
        with pytest.raises(PromptError):
            render_input(example(), ContextMode(MODE_SQL_NONE))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ContextMode("nope")
        with pytest.raises(ValueError):
            ContextMode(MODE_NONE, with_values=True)


def pe(uc, p="(x)", rel=0.0):
    return PromptExample(uc=uc, p=p, relevance=rel)


class TestBuildPrompt:
    def test_layout(self):
        prompt = build_prompt([pe("hi", "(greet)", 1.0)], "bye", order="best_first")
        assert prompt.text == (
            f"{HEADER}\nHuman: hi\nComputer: (greet)\nHuman: bye\nComputer:"
        )

    def test_best_last_puts_top_example_nearest_target(self):
        exs = [pe("low", rel=0.1), pe("high", rel=0.9)]
        prompt = build_prompt(exs, "t", order="best_last")
        assert [e.uc for e in prompt.examples] == ["low", "high"]
        first = build_prompt(exs, "t", order="best_first")
        assert [e.uc for e in first.examples] == ["high", "low"]

    def test_ordering_never_changes_inclusion(self):
        rng = random.Random(2)
        exs = [pe(f"u{i}", rel=rng.random()) for i in range(30)]
        budget = 40
        sets = {
            frozenset(e.uc for e in build_prompt(exs, "t", order=o, budget=budget).examples)
            for o in ("best_first", "best_last", "random")
        }
        assert len(sets) == 1

    def test_budget_respected(self):
        exs = [pe("one two three", rel=1.0) for _ in range(50)]
        floor = whitespace_tokens(f"{HEADER}\nHuman: t\nComputer:")
        for budget in range(floor, floor + 70, 7):
            prompt = build_prompt(exs, "t", budget=budget)
            assert whitespace_tokens(prompt.text) <= budget

    def test_greedy_stops_at_first_overflow(self):
        # a later small example must not sneak past a big blocking one
        exs = [pe("aaaa bbbb cccc dddd", rel=0.9), pe("tiny", rel=0.5)]
        prompt = build_prompt(exs, "t", budget=whitespace_tokens(
            f"{HEADER}\nHuman: t\nComputer:") + 4)
        assert prompt.n_examples == 0

    def test_budget_counts_each_block_once(self):
        # blocks join with newlines, so the prompt's words are its blocks' words
        ex = pe(" a\tb \n", "\n(x  y)\n")  # "Human:", "a", "b", "Computer:", "(x", "y)"
        floor = whitespace_tokens(f"{HEADER}\nHuman: t\nComputer:")
        full = build_prompt([ex], "t", budget=floor + 6)
        assert full.n_examples == 1 and whitespace_tokens(full.text) == floor + 6
        assert build_prompt([ex], "t", budget=floor + 5).n_examples == 0

    def test_cost_grows_linearly_with_the_examples(self):
        # counting the whole prompt again for each example tried makes 8x
        # the examples cost about 64x, counting each block once about 8x
        def examples(n):
            rng = random.Random(0)
            return [pe(f"utt {i} word", f"(plan {i})", rng.random()) for i in range(n)]

        def best_of_3(exs):
            times = []
            for _ in range(3):
                t = time.perf_counter()
                prompt = build_prompt(exs, "t", budget=10**9, max_examples=len(exs))
                times.append(time.perf_counter() - t)
                assert prompt.n_examples == len(exs)
            return min(times)

        short_exs, long_exs = examples(500), examples(4000)
        gc.disable()  # one collection inside a timing would swamp it
        try:
            short, long = best_of_3(short_exs), best_of_3(long_exs)
        finally:
            gc.enable()
        assert long < 24 * short, (short, long)

    def test_max_examples_cap(self):
        exs = [pe(f"u{i}", rel=1.0 - i * 0.01) for i in range(40)]
        prompt = build_prompt(exs, "t", budget=10**6, max_examples=20)
        assert prompt.n_examples == 20
        assert build_prompt(exs, "t", budget=10**6, max_examples=0).n_examples == 0
        with pytest.raises(PromptError, match="-1"):
            build_prompt(exs, "t", budget=10**6, max_examples=-1)

    def test_random_order_deterministic_per_seed(self):
        exs = [pe(f"u{i}", rel=float(i)) for i in range(10)]
        a = build_prompt(exs, "t", order="random", budget=10**6, seed=4)
        b = build_prompt(exs, "t", order="random", budget=10**6, seed=4)
        assert a.text == b.text
        c = build_prompt(exs, "t", order="random", budget=10**6, seed=5)
        assert {e.uc for e in c.examples} == {e.uc for e in a.examples}

    def test_budget_too_small(self):
        with pytest.raises(PromptError):
            build_prompt([], "a very long target " * 50, budget=5)

    def test_unknown_order(self):
        with pytest.raises(PromptError):
            build_prompt([], "t", order="sideways")

    def test_example_validation(self):
        with pytest.raises(PromptError):
            PromptExample(uc="", p="(x)", relevance=0.0)
        with pytest.raises(PromptError):
            PromptExample(uc="u", p="(x)", relevance=math.inf)


def reference_build_prompt(examples, target, order, budget, max_examples, seed):
    """build_prompt with the examples ranked as index tuples (-relevance, i)."""
    used = whitespace_tokens(f"{HEADER}\nHuman: {target}\nComputer:")
    ranked = sorted(range(len(examples)), key=lambda i: (-examples[i].relevance, i))
    included = []
    for i in ranked[:max_examples]:
        ex = examples[i]
        used += whitespace_tokens(f"Human: {ex.uc}\nComputer: {ex.p}")
        if used > budget:
            break
        included.append(ex)
    if order == "best_last":
        included.reverse()
    elif order == "random":
        random.Random(seed).shuffle(included)
    blocks = [f"Human: {ex.uc}\nComputer: {ex.p}" for ex in included]
    return "\n".join([HEADER, *blocks, f"Human: {target}", "Computer:"]), included


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, -0.0, 1.0, 0.5, -2.0]),
            st.lists(st.sampled_from(["a", "b c", "d e f"]), max_size=3),
        ),
        max_size=12,
    ),
    st.integers(0, 40),
    st.integers(0, 12),
    st.integers(0, 3),
)
def test_build_prompt_matches_index_tuple_reference(drawn, spare, max_examples, seed):
    budget = whitespace_tokens(f"{HEADER}\nHuman: t\nComputer:") + spare
    # distinct inputs, so a reordering of tied examples shows in the text
    exs = [pe(f"u{i} " + " ".join(words), rel=rel) for i, (rel, words) in enumerate(drawn)]
    for order in ("best_first", "best_last", "random"):
        prompt = build_prompt(exs, "t", order=order, budget=budget,
                              max_examples=max_examples, seed=seed)
        text, included = reference_build_prompt(exs, "t", order, budget, max_examples, seed)
        assert prompt.text == text
        assert [id(e) for e in prompt.examples] == [id(e) for e in included]
