import hashlib
import json
import random

import pytest

from gramdec.errors import EvaluationError, MetricNotSupportedError, SplitError
from gramdec.splits import (
    DatasetExample,
    MetricReport,
    aggregate_low,
    evaluate,
    load_dataset_jsonl,
    make_splits,
)


def synth_dataset(n_train=9000, n_dev=1200, n_test=2400, turns=3):
    """Synthetic dialogue corpus: `turns` consecutive turns per dialogue."""
    out = []
    for portion, count in (("train", n_train), ("dev", n_dev), ("test", n_test)):
        for i in range(count):
            did = f"{portion}-d{i // turns}"
            out.append(
                DatasetExample(
                    id=f"{portion}-{i}",
                    utterance=f"utt {i}",
                    gold=f"(plan {i})",
                    dialogue_id=did,
                    turn_index=i % turns,
                    portion=portion,
                )
            )
    return out


DATASET = synth_dataset()
BY_ID = {ex.id: ex for ex in DATASET}


@pytest.fixture(scope="module")
def spec():
    return make_splits(DATASET, seed=0)


class TestMakeSplits:
    def test_sizes(self, spec):
        assert len(spec.low_train) == 3
        for ids in spec.low_train:
            assert 500 <= len(ids) < 500 + 3  # whole-dialogue overshoot only
        assert 50 <= len(spec.low_dev) < 53
        assert 5000 <= len(spec.med_train) < 5003
        assert 500 <= len(spec.med_dev) < 503
        assert len(spec.high_train) == 9000
        assert 2000 <= len(spec.test_2k) < 2003
        assert 100 <= len(spec.test_100) < 103

    def test_low_train_disjoint(self, spec):
        a, b, c = (set(ids) for ids in spec.low_train)
        assert not (a & b) and not (a & c) and not (b & c)

    def test_dialogue_coherence(self, spec):
        # every dialogue is wholly inside or wholly outside each split
        for ids in [*spec.low_train, spec.med_train, spec.test_2k]:
            chosen = set(ids)
            dialogues = {BY_ID[i].dialogue_id for i in ids}
            for ex in DATASET:
                if ex.dialogue_id in dialogues:
                    assert ex.id in chosen

    def test_pools_respected(self, spec):
        for ids in spec.low_train:
            assert all(i.startswith("train-") for i in ids)
        assert all(i.startswith("dev-") for i in spec.low_dev)
        assert all(i.startswith("test-") for i in spec.test_2k)

    def test_small_test_nested_in_large(self, spec):
        assert set(spec.test_100) <= set(spec.test_2k)

    def test_deterministic_manifest(self):
        spec = make_splits(DATASET, seed=7)
        a = spec.to_manifest()
        b = make_splits(DATASET, seed=7).to_manifest()
        assert a == b
        # the manifest holds exactly the split lists and the seed
        keys = (
            "seed", "low_train", "low_dev", "med_train", "med_dev", "high_train",
            "test_2k", "test_100",
        )
        data = {k: getattr(spec, k) for k in keys}
        assert a == json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert a != make_splits(DATASET, seed=8).to_manifest()
        json.loads(a)  # manifest is valid JSON

    def test_medium_omitted_for_small_train(self):
        small = synth_dataset(n_train=2100, n_dev=300, n_test=600)
        s = make_splits(small, seed=0)
        assert s.med_train is None
        # too small for disjoint thirds as well: falls back to resampling
        assert len(s.low_train) == 3

    def test_low_train_from_a_small_pool(self):
        # 500 <= train < 1,500: each low set is sampled from the whole pool
        data = synth_dataset(n_train=800, n_dev=100, n_test=200)
        by_id = {ex.id: ex for ex in data}
        s = make_splits(data, seed=3)
        for ids in s.low_train:
            chosen = set(ids)
            assert len(chosen) == len(ids) >= 500 and chosen <= set(s.high_train)
            dialogues = {by_id[i].dialogue_id for i in ids}
            assert chosen == {ex.id for ex in data if ex.dialogue_id in dialogues}
        a, b, c = (set(ids) for ids in s.low_train)
        assert a & b and a & c and b & c  # too few examples for disjoint sets
        assert make_splits(data, seed=3).low_train == s.low_train
        assert make_splits(data, seed=4).low_train != s.low_train

    def test_no_public_test(self):
        data = synth_dataset(n_train=3000, n_dev=600, n_test=0)
        s = make_splits(data, seed=1)
        assert all(i.startswith("dev-") for i in s.test_2k)
        # carved dev comes out of train and stays disjoint from it
        assert all(i.startswith("train-") for i in s.low_dev)
        assert not set(s.low_dev) & set(s.high_train)

    def test_bad_portion(self):
        with pytest.raises(SplitError):
            make_splits([DatasetExample(id="x", utterance="", gold="", portion="eval")])

    def test_train_pool_too_small(self):
        with pytest.raises(SplitError):
            make_splits(synth_dataset(n_train=400, n_dev=100, n_test=100))

    def test_repeated_id(self):
        # one id in the train and the test pool would land in both splits
        data = [
            DatasetExample(id=f"t{i}", utterance="", gold="", portion="train") for i in range(600)
        ]
        data += [
            DatasetExample(id="dup", utterance="", gold="", portion=portion)
            for portion in ("train", "test")
        ]
        data.append(DatasetExample(id="d0", utterance="", gold="", portion="dev"))
        with pytest.raises(SplitError, match="'dup'"):
            make_splits(data, 0)


class TestLoadDataset:
    def test_basic(self):
        text = (
            '{"id": "1", "utterance": "hi", "gold": "(a)", "portion": "train"}\n'
            '{"id": "2", "utterance": "yo", "gold": "(b)", "dialogue_id": "d",'
            ' "turn_index": 1, "portion": "dev"}\n'
        )
        exs = load_dataset_jsonl(text)
        assert [e.id for e in exs] == ["1", "2"]
        assert exs[1].turn_index == 1

    def test_inline_schema(self):
        text = json.dumps(
            {
                "id": "1",
                "utterance": "u",
                "gold": "SELECT a FROM t",
                "portion": "train",
                "schema": {"tables": [{"name": "t", "columns": [{"name": "a"}]}]},
            }
        )
        ex = load_dataset_jsonl(text)[0]
        assert ex.schema.tables[0].name == "t"

    def test_schema_values_not_a_list(self):
        schema = {"tables": [{"name": "t", "columns": [{"name": "c", "values": "abc"}]}]}
        lines = [
            json.dumps({"id": "1", "utterance": "u", "gold": "g"}),
            json.dumps({"id": "2", "utterance": "u", "gold": "g", "schema": schema}),
        ]
        with pytest.raises(SplitError, match="^schema on line 2: column 'c' of table 't': values"):
            load_dataset_jsonl("\n".join(lines))

    def test_repeated_id(self):
        text = "\n".join(json.dumps({"id": "dup", "utterance": u, "gold": "g"}) for u in "ab")
        with pytest.raises(SplitError, match="'dup'"):
            load_dataset_jsonl(text)

    def test_bad_json(self):
        with pytest.raises(SplitError):
            load_dataset_jsonl("{oops")


GOLD = [
    DatasetExample(id="1", utterance="", gold="(a (b c))"),
    DatasetExample(id="2", utterance="", gold="(d)"),
    DatasetExample(id="3", utterance="", gold="(e)"),
]


class TestEvaluate:
    def test_exact(self):
        r = evaluate([("1", "(a (b c))"), ("2", "( d )")], GOLD, "exact")
        assert r.accuracy == pytest.approx(1 / 3)
        assert dict(r.correct) == {"1": True, "2": False, "3": False}

    def test_lispress_whitespace_tolerant(self):
        r = evaluate([("1", "( a ( b   c ) )"), ("2", "(d)")], GOLD, "lispress")
        assert r.accuracy == pytest.approx(2 / 3)

    def test_lispress_parse_failure_flagged(self):
        r = evaluate([("1", "(a (b c)")], GOLD, "lispress")
        assert r.parse_failures == 1
        assert r.accuracy == 0.0

    def test_lispress_gold_that_does_not_parse(self):
        # a malformed gold is a data error, not the prediction's parse failure
        gold = [DatasetExample(id="a", utterance="", gold="(f")]
        with pytest.raises(EvaluationError, match="example 'a'"):
            evaluate([("a", "(f)")], gold, "lispress")
        assert evaluate([("a", "(f)")], gold, "exact").accuracy == 0.0

    def test_missing_prediction_is_incorrect(self):
        r = evaluate([], GOLD, "exact")
        assert r.accuracy == 0.0 and r.n == 3

    def test_duplicate_prediction(self):
        with pytest.raises(EvaluationError):
            evaluate([("1", "x"), ("1", "y")], GOLD, "exact")

    def test_unknown_id(self):
        with pytest.raises(EvaluationError):
            evaluate([("9", "x")], GOLD, "exact")

    def test_repeated_gold_id(self):
        # would score one prediction twice: n=2 and accuracy 0.5
        gold = [DatasetExample(id="dup", utterance="", gold=g) for g in ("g", "h")]
        with pytest.raises(EvaluationError, match="'dup'"):
            evaluate([("dup", "g")], gold, "exact")

    def test_unsupported_metrics(self):
        for metric in ("denotation", "execution", "made_up"):
            with pytest.raises(MetricNotSupportedError):
                evaluate([], GOLD, metric)

    def test_report_json(self):
        r = evaluate([("1", "(a (b c))")], GOLD, "exact")
        data = json.loads(r.to_json())
        assert data["n"] == 3 and data["metric"] == "exact"


class TestAggregateLow:
    def test_hand_computed(self):
        mean, sd = aggregate_low([0.0, 0.5, 1.0])
        assert mean == pytest.approx(0.5)
        assert sd == pytest.approx(0.40824829046386296, abs=1e-15)

    def test_accepts_reports(self):
        reports = [
            MetricReport("exact", a, 10, []) for a in (0.2, 0.2, 0.2)
        ]
        assert aggregate_low(reports) == (pytest.approx(0.2), pytest.approx(0.0))

    def test_requires_three(self):
        with pytest.raises(EvaluationError):
            aggregate_low([0.1, 0.2])


def random_dataset(seed, n_train, n_dev, n_test):
    """Shuffled records: about a third outside any dialogue, the rest in
    dialogues drawn at random, some of them spanning portions."""
    rng = random.Random(seed)
    n_dialogues = max(1, (n_train + n_dev) // 3)
    out = []
    for portion, count in (("train", n_train), ("dev", n_dev), ("test", n_test)):
        for i in range(count):
            did = "" if rng.random() < 0.3 else f"d{rng.randrange(n_dialogues)}"
            out.append(
                DatasetExample(id=f"{portion}-{i}", utterance="", gold="", dialogue_id=did, portion=portion)
            )
    rng.shuffle(out)
    return out


# Datasets that reach each path of make_splits: (train, dev, test) sizes.
PIN_CASES = {
    "disjoint-low": (2000, 200, 300),
    "independent-low": (900, 100, 150),
    "medium": (5200, 600, 2300),
    "dev-becomes-test": (1800, 250, 0),
    "dev-becomes-test-independent": (700, 90, 0),
    "train-too-small": (400, 100, 100),
    "no-dev": (900, 0, 100),
    "no-test-or-dev": (900, 0, 0),
}
PIN_HASHES = {
    "dev-becomes-test": "3efd4542b8554df5",
    "dev-becomes-test-independent": "1cb76ff749e2bb03",
    "disjoint-low": "6a675cbaf5beb746",
    "independent-low": "a624f8f1d792ca25",
    "medium": "29f3e1927d9f3918",
    "no-dev": "9d5a5156ee528fed",
    "no-test-or-dev": "0cbbd1bc48c479fa",
    "train-too-small": "ed0f7475d83e1ccf",
}


@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_manifests_are_pinned(case):
    # manifests (or error messages) for seeds 0, 1 and 7, hashed
    digest = hashlib.sha256()
    for seed in (0, 1, 7):
        try:
            text = make_splits(random_dataset(seed, *PIN_CASES[case]), seed).to_manifest()
        except SplitError as exc:
            text = f"error: {exc}"
        digest.update(text.encode())
    assert digest.hexdigest()[:16] == PIN_HASHES[case]
