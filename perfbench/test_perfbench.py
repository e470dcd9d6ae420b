"""Fast checks of the benchmark's own oracles and input generators."""

import pytest

import pb_inputs
from pb_oracles import MtopChecker, StandInScorer, ngram_logprob, sqlite_error, stand_in_logprob


def test_stand_in_ranks_gold_first():
    scorer = StandInScorer(vocab_size=50, seed=3)
    gold = (7, 3, 3, 49)
    scorer.golds["r"] = gold
    for i in range(len(gold)):
        scores = scorer.score(gold[:i], "r")
        assert scores[gold[i]] == 0.0
        assert all(-11.0 < s <= -10.0 for t, s in enumerate(scores) if t != gold[i])
    off = scorer.score((8,), "r")
    assert max(off) <= -10.0
    assert scorer.calls_after_best == 0
    scorer.score(gold, "r")
    assert scorer.calls_after_best == 1


def test_stand_in_recomputation_matches_score_vectors():
    scorer = StandInScorer(vocab_size=30, seed=5)
    gold = (1, 2, 29)
    scorer.golds["r"] = gold
    for tokens in [(1, 2, 29), (1, 4, 29), (5, 6, 7, 29)]:
        want = sum(scorer.score(tokens[:i], "r")[t] for i, t in enumerate(tokens))
        assert stand_in_logprob(scorer, gold, tokens) == pytest.approx(want, abs=1e-12)
    assert stand_in_logprob(scorer, gold, gold) == 0.0


def test_ngram_recomputation_by_hand():
    # bigram, vocab 3, corpus [0 1 2]: P(0|bos) = (1+1)/(1+3), P(1|0) = 2/4.
    import math

    want = math.log(2 / 4) + math.log(2 / 4)
    assert ngram_logprob([[0, 1, 2]], 2, 3, [0, 1]) == pytest.approx(want)


@pytest.mark.parametrize(
    "gen", [pb_inputs.sql_inputs, pb_inputs.lispress_inputs, pb_inputs.mtop_inputs]
)
def test_generators_repeat_under_a_seed_and_differ_across_seeds(gen):
    assert repr(gen(7)) == repr(gen(7))
    assert repr(gen(7)) != repr(gen(8))


def test_request_make_up_is_fixed_across_seeds():
    for seed in (1, 2):
        _, _, requests = pb_inputs.sql_inputs(seed)
        assert sorted(r.template for r in requests) == sorted(pb_inputs.SQL_TEMPLATES * 3)
        _, _, vocab, progs = pb_inputs.lispress_inputs(seed)
        lengths = sorted(len(p.split('"')[1]) for p in progs)
        assert lengths == sorted(n for n, _ in pb_inputs.LISPRESS_REQUESTS)
        assert len(vocab.entries) == pb_inputs.LISPRESS_VOCAB


def test_sql_checker():
    tables = [
        pb_inputs.SqlTable("singer", [("singer_id", "int"), ("name", "text")]),
        pb_inputs.SqlTable("concert", [("concert_id", "int"), ("singer_id", "int")]),
    ]
    assert sqlite_error(tables, "SELECT name FROM singer WHERE singer_id > 3") is None
    ok = ("SELECT singer.name, count(*) FROM concert JOIN singer "
          "ON concert.singer_id = singer.singer_id GROUP BY singer.name")
    assert sqlite_error(tables, ok) is None
    assert sqlite_error(tables, "SELECT age FROM singer") is not None
    assert sqlite_error(tables, "SELECT singer_id FROM concert JOIN singer") is not None
    assert sqlite_error(tables, "SELECT name FROM singer WHERE") is not None


def test_generated_sql_runs_on_sqlite():
    schemas, _, requests = pb_inputs.sql_inputs(11)
    for req in requests:
        assert sqlite_error(schemas[req.schema], req.gold) is None, req.gold


def test_mtop_checker():
    checker = MtopChecker([
        "[IN:GET_WEATHER what is the weather [SL:LOCATION boston]]",
        "[IN:CREATE_CALL call [SL:CONTACT mom]]",
    ])
    assert checker.accepts("[IN:GET_WEATHER will it snow [SL:LOCATION new york]]")
    assert checker.accepts("[IN:CREATE_CALL call me [SL:CONTACT the team]]")
    for bad in [
        "[IN:GET_WEATHER what is the weather [SL:LOCATION boston]",  # unbalanced
        "[IN:GET_WEATHER what is the weather]",  # unseen pattern
        "[IN:CREATE_CALL call [SL:LOCATION mom]]",  # slot not seen under intent
        "[SL:CONTACT mom]",  # root is not a training root
        "[IN:CREATE_CALL call[SL:CONTACT mom]]",  # no separator before child
        "[IN:CREATE_CALL call [SL:CONTACT mom]] x",  # trailing text
        "[IN:CREATE_CALL  [SL:CONTACT mom]]",  # empty text span
    ]:
        assert not checker.accepts(bad), bad


def test_mtop_generated_golds_pass_checker():
    train, _, requests = pb_inputs.mtop_inputs(4)
    checker = MtopChecker([ex.tree for ex in train])
    assert all(checker.accepts(r.tree) for r in requests)


def test_trace_aggregate_counts_only_spans_under_roots():
    import pb_trace

    tracer = pb_trace.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x, value_of=lambda r: r)
    mid = tracer.wrap("mid", lambda: [leaf(1), leaf(0)])
    root = tracer.begin(tracer.name_id("bench.decode"))
    mid()
    tracer.finish(root)
    leaf(5)  # outside any root span
    agg = pb_trace.aggregate(tracer, roots={"bench.decode"})
    assert agg["leaf"]["calls"] == 2 and agg["leaf"]["value"] == 1
    assert agg["leaf"]["under"] == {"mid": 2}
    assert 0 <= agg["mid"]["self_ms"] <= agg["mid"]["ms"]
