"""Deterministic benchmark split generation and metric reporting.

Splits are sampled by whole dialogues so that every turn of a dialogue
lands in exactly one split. Three low-resource train sets, one medium
train/dev pair (omitted for small datasets), a full-train high tier, and
2000/100-example test samples are emitted, all reproducible from a seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field

from .errors import (
    EvaluationError,
    MetricNotSupportedError,
    SchemaError,
    SexpError,
    SplitError,
)
from .jsonl import json_objects, json_value
from .lispress import lispress_equal, parse_sexp
from .sql import schema_from_json

LOW_TRAIN_SIZE = 500
LOW_DEV_SIZE = 50
MED_TRAIN_SIZE = 5000
MED_DEV_SIZE = 500
TEST_SIZE = 2000
SMALL_TEST_SIZE = 100


@dataclass
class DatasetExample:
    """One benchmark record; `portion` marks the source pool."""

    id: str
    utterance: str
    gold: str
    dialogue_id: str = ""
    turn_index: int = 0
    last_user_utt: str = ""
    last_agent_utt: str = ""
    prior_interactions: list = field(default_factory=list)
    schema: object = None  # DbSchema for SQL datasets
    portion: str = ""  # "train" | "dev" | "test"


_TEXT_FIELDS = (
    "utterance",
    "gold",
    "dialogue_id",
    "last_user_utt",
    "last_agent_utt",
    "portion",
)


def _check_unique_ids(examples, error):
    """Raise `error` naming the first example id that repeats."""
    seen = set()
    for ex in examples:
        if ex.id in seen:
            raise error(f"example id {ex.id!r} repeats")
        seen.add(ex.id)


def load_dataset_jsonl(text: str):
    """Parse dataset JSONL records into DatasetExamples, whose ids are
    unique."""
    out = []
    for lineno, rec in json_objects(text, SplitError):
        if "id" not in rec:
            raise SplitError(f"record on line {lineno} has no id")
        texts = {k: rec.get(k, "") for k in _TEXT_FIELDS}
        turn_index = rec.get("turn_index", 0)
        prior = rec.get("prior_interactions", [])
        if (
            not all(isinstance(v, str) for v in texts.values())
            or type(turn_index) is not int
            or not isinstance(prior, list)
            or not all(isinstance(p, str) for p in prior)
        ):
            raise SplitError(
                f"record on line {lineno} needs string {', '.join(_TEXT_FIELDS)},"
                " an integer turn_index and a list of string prior_interactions"
            )
        schema = rec.get("schema")
        if schema is not None:
            try:
                schema = schema_from_json(schema)
            except SchemaError as exc:
                raise SplitError(f"schema on line {lineno}: {exc}") from None
        out.append(
            DatasetExample(
                id=str(rec["id"]),
                turn_index=turn_index,
                prior_interactions=prior,
                schema=schema,
                **texts,
            )
        )
    _check_unique_ids(out, SplitError)
    return out


def load_predictions_jsonl(text: str):
    """(id, prediction) pairs from {"id", "prediction"} JSONL records."""
    out = []
    for lineno, rec in json_objects(text, EvaluationError):
        if "id" not in rec or not isinstance(rec.get("prediction"), str):
            raise EvaluationError(
                f"record on line {lineno} needs an id and a string prediction"
            )
        out.append((str(rec["id"]), rec["prediction"]))
    return out


@dataclass
class SplitSpec:
    """Example-id lists per split, plus the generating seed."""

    seed: int
    low_train: list  # three id lists
    low_dev: list
    med_train: list | None
    med_dev: list
    high_train: list
    test_2k: list
    test_100: list

    def to_manifest(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _dialogue_groups(examples):
    """Group ids by dialogue; non-dialogue examples are singleton groups.
    Order follows first appearance, so results depend only on input order."""
    groups = {}
    for ex in examples:
        groups.setdefault(ex.dialogue_id or f"\x00{ex.id}", []).append(ex.id)
    return list(groups.values())


def _take(groups, order, target):
    """The ids of the groups that `order` names, whole groups, until there
    are at least `target` (> 0) of them or `order` runs out. An iterator
    `order` is left at the first group not taken."""
    out = []
    for gi in order:
        out.extend(groups[gi])
        if len(out) >= target:
            break
    return out


def _sample_groups(groups, target, rng):
    """Whole dialogues until the target is met; may overshoot by part of
    the final dialogue, never by a whole extra one."""
    order = list(range(len(groups)))
    rng.shuffle(order)
    return _take(groups, order, target)


def make_splits(dataset, seed: int = 0) -> SplitSpec:
    """Carve the benchmark's split tiers out of a portioned dataset.

    When the dataset has no test portion, the dev portion becomes the test
    pool and 10% of the train pool (by whole dialogues) becomes the dev
    pool. The medium tier is omitted when train has fewer than 5000
    examples. Example ids must be unique, or one could land in two splits.
    """
    if not dataset:
        raise SplitError("empty dataset")
    _check_unique_ids(dataset, SplitError)
    pools = {"train": [], "dev": [], "test": []}
    for ex in dataset:
        if ex.portion not in pools:
            raise SplitError(
                f"example {ex.id!r} has portion {ex.portion!r}; "
                "expected train/dev/test"
            )
        pools[ex.portion].append(ex)

    if not pools["test"]:
        pools["test"] = pools["dev"]
        train_groups = _dialogue_groups(pools["train"])
        dev_target = max(1, round(0.1 * len(pools["train"])))
        dev_ids = set(_sample_groups(train_groups, dev_target, random.Random(seed)))
        pools["dev"] = [ex for ex in pools["train"] if ex.id in dev_ids]
        pools["train"] = [ex for ex in pools["train"] if ex.id not in dev_ids]
    if not pools["test"]:
        raise SplitError("no test or dev portion")
    if not pools["dev"]:
        raise SplitError("no dev portion")

    train_groups = _dialogue_groups(pools["train"])
    dev_groups = _dialogue_groups(pools["dev"])
    test_groups = _dialogue_groups(pools["test"])
    n_train = len(pools["train"])
    if n_train < LOW_TRAIN_SIZE:
        raise SplitError(
            f"train pool has {n_train} examples; need {LOW_TRAIN_SIZE} "
            "for one low-resource split"
        )

    # Three low train sets: mutually disjoint when the pool allows, for
    # cleaner variance estimates; independently sampled otherwise.
    if n_train >= 3 * LOW_TRAIN_SIZE:
        order = list(range(len(train_groups)))
        random.Random(f"{seed}:low").shuffle(order)
        rest = iter(order)
        low_train = [_take(train_groups, rest, LOW_TRAIN_SIZE) for _ in range(3)]
    else:
        low_train = [
            _sample_groups(train_groups, LOW_TRAIN_SIZE, random.Random(f"{seed}:low:{i}"))
            for i in range(3)
        ]

    low_dev = _sample_groups(dev_groups, LOW_DEV_SIZE, random.Random(f"{seed}:lowdev"))
    med_dev = _sample_groups(dev_groups, MED_DEV_SIZE, random.Random(f"{seed}:meddev"))
    med_train = None
    if n_train >= MED_TRAIN_SIZE:
        med_train = _sample_groups(
            train_groups, MED_TRAIN_SIZE, random.Random(f"{seed}:med")
        )
    high_train = [ex.id for ex in pools["train"]]

    test_2k = _sample_groups(test_groups, TEST_SIZE, random.Random(f"{seed}:test"))
    test_2k_set = set(test_2k)
    sub_groups = [
        [i for i in g if i in test_2k_set]
        for g in test_groups
        if any(i in test_2k_set for i in g)
    ]
    test_100 = _sample_groups(
        sub_groups, SMALL_TEST_SIZE, random.Random(f"{seed}:test100")
    )
    return SplitSpec(
        seed=seed,
        low_train=low_train,
        low_dev=low_dev,
        med_train=med_train,
        med_dev=med_dev,
        high_train=high_train,
        test_2k=test_2k,
        test_100=test_100,
    )


# ---------------------------------------------------------------------------
# Metrics


@dataclass
class MetricReport:
    metric: str
    accuracy: float
    n: int
    correct: list  # (example id, bool)
    parse_failures: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "metric": self.metric,
                "accuracy": self.accuracy,
                "n": self.n,
                "parse_failures": self.parse_failures,
                "correct": [[i, bool(c)] for i, c in self.correct],
            },
            indent=2,
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MetricReport":
        """Read back what `to_json` writes."""
        data = json_value(text, EvaluationError, "malformed metric report")
        try:
            report = cls(
                data["metric"],
                data["accuracy"],
                data["n"],
                [(i, c) for i, c in data["correct"]],
                data.get("parse_failures", 0),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise EvaluationError(f"malformed metric report: {exc}") from None
        acc = report.accuracy
        if type(acc) not in (int, float) or not 0 <= acc <= 1:
            raise EvaluationError(
                "malformed metric report: accuracy is not a number in [0, 1]"
            )
        return report


_UNSUPPORTED = {"denotation", "denotation_match", "execution", "test_suite_execution"}


def check_metric(metric: str) -> None:
    """Raise MetricNotSupportedError unless `evaluate` can score `metric`."""
    if metric in _UNSUPPORTED:
        raise MetricNotSupportedError(
            f"metric {metric!r} requires an executor and is not supported"
        )
    if metric not in ("exact", "lispress"):
        raise MetricNotSupportedError(f"unknown metric {metric!r}")


def check_golds(gold, metric: str):
    """Return `gold`, or raise EvaluationError naming the first example
    whose gold `metric` cannot score: for the lispress metric, a gold that
    does not parse."""
    if metric == "lispress":
        for ex in gold:
            try:
                parse_sexp(ex.gold)
            except SexpError as exc:
                raise EvaluationError(f"example {ex.id!r}: gold does not parse: {exc}") from None
    return gold


def evaluate(predictions, gold, metric: str) -> MetricReport:
    """Score predictions against gold examples.

    `predictions` is an iterable of (id, text); missing ids count as
    incorrect, and duplicate prediction or gold ids are an error. For the
    lispress metric a gold that fails to parse is an error (`check_golds`),
    and a prediction that fails to parse counts incorrect and is tallied in
    parse_failures.
    """
    check_metric(metric)
    check_golds(gold, metric)
    _check_unique_ids(gold, EvaluationError)
    pred_map = {}
    for pid, text in predictions:
        if pid in pred_map:
            raise EvaluationError(f"duplicate prediction id {pid!r}")
        pred_map[pid] = text
    gold_ids = {ex.id for ex in gold}
    unknown = set(pred_map) - gold_ids
    if unknown:
        raise EvaluationError(f"predictions for unknown ids: {sorted(unknown)}")

    correct = []
    parse_failures = 0
    for ex in gold:
        pred = pred_map.get(ex.id)
        if pred is None:
            correct.append((ex.id, False))
            continue
        if metric == "exact":
            correct.append((ex.id, pred == ex.gold))
        else:
            try:
                ok = lispress_equal(pred, ex.gold)
            except SexpError:
                parse_failures += 1
                ok = False
            correct.append((ex.id, ok))
    n = len(gold)
    acc = sum(1 for _, ok in correct if ok) / n if n else 0.0
    return MetricReport(metric, acc, n, correct, parse_failures)


def aggregate_low(reports):
    """Mean and population standard deviation over the three low splits."""
    if len(reports) != 3:
        raise EvaluationError("aggregate_low takes exactly 3 reports")
    accs = [r.accuracy if isinstance(r, MetricReport) else float(r) for r in reports]
    mean = sum(accs) / 3.0
    var = sum((a - mean) ** 2 for a in accs) / 3.0
    return mean, math.sqrt(var)
