import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramdec.cli import main

from helpers import grammar_texts

ANBN = '@start S\nS -> "a" S "b"\nS -> ""\n'

VOCAB = "\n".join(
    [
        json.dumps({"eos": 3}),
        json.dumps({"id": 0, "text": "a"}),
        json.dumps({"id": 1, "text": "b"}),
        json.dumps({"id": 2, "text": "ab"}),
        json.dumps({"id": 3, "text": ""}),
    ]
)

SIGS = "\n".join(
    [
        json.dumps({"symbol": "now", "args": [], "result": "Datetime"}),
        json.dumps({"symbol": "Yield", "args": ["Datetime"], "result": "Unit"}),
    ]
)


@pytest.fixture()
def grammar_file(tmp_path):
    p = tmp_path / "g.cfg"
    p.write_text(ANBN)
    return str(p)


@pytest.fixture()
def vocab_file(tmp_path):
    p = tmp_path / "v.jsonl"
    p.write_text(VOCAB)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestCheck:
    def test_accept(self, capsys, grammar_file):
        code, out, _ = run(capsys, "check", "--grammar", grammar_file, "--input", "aabb")
        assert code == 0 and out.strip() == "accepted"

    def test_reject_offset(self, capsys, grammar_file):
        code, out, _ = run(
            capsys, "check", "--json", "--grammar", grammar_file, "--input", "abb"
        )
        assert code == 2
        assert json.loads(out) == {"verdict": "rejected", "offset": 2}

    def test_incomplete(self, capsys, grammar_file):
        code, out, _ = run(
            capsys, "check", "--json", "--grammar", grammar_file, "--input", "aab"
        )
        assert code == 2 and json.loads(out)["verdict"] == "incomplete"

    def test_missing_grammar_file(self, capsys):
        code, _, err = run(capsys, "check", "--grammar", "/nope.cfg", "--input", "x")
        assert code == 2 and "error" in err

    def test_usage_error(self, capsys, grammar_file):
        code, _, err = run(capsys, "check", "--grammar", grammar_file)
        assert code == 1 and err


class TestAllowedChars:
    def test_initial(self, capsys, grammar_file):
        code, out, _ = run(
            capsys, "allowed-chars", "--json", "--grammar", grammar_file
        )
        assert code == 0
        data = json.loads(out)
        assert data == {"chars": ["a"], "negated_classes": [], "complete": True}

    def test_rejected_prefix(self, capsys, grammar_file):
        code, _, _ = run(
            capsys, "allowed-chars", "--grammar", grammar_file, "--prefix", "b"
        )
        assert code == 2


class TestAllowedTokens:
    def test_initial(self, capsys, grammar_file, vocab_file):
        code, out, _ = run(
            capsys,
            "allowed-tokens",
            "--json",
            "--grammar",
            grammar_file,
            "--vocab",
            vocab_file,
            "--dense",
        )
        assert code == 0
        data = json.loads(out)
        assert data["tokens"] == [0, 2, 3]
        assert data["mask"] == [True, False, True, True]

    def test_mid_string(self, capsys, grammar_file, vocab_file):
        code, out, _ = run(
            capsys,
            "allowed-tokens",
            "--json",
            "--grammar",
            grammar_file,
            "--vocab",
            vocab_file,
            "--prefix",
            "aab",
        )
        assert code == 0 and json.loads(out)["tokens"] == [1]


class TestInduceGrammar:
    def test_mtop(self, capsys, tmp_path):
        ds = tmp_path / "d.jsonl"
        ds.write_text(
            json.dumps(
                {
                    "id": "1",
                    "utterance": "u",
                    "gold": "[IN:Get_Message [SL:Sender Atlas]]",
                    "portion": "train",
                }
            )
        )
        out_path = tmp_path / "induced.cfg"
        code, _, _ = run(
            capsys,
            "induce-grammar",
            "--dataset",
            str(ds),
            "--format",
            "mtop",
            "--out",
            str(out_path),
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "check",
            "--grammar",
            str(out_path),
            "--input",
            "[IN:Get_Message [SL:Sender Grace]]",
        )
        assert code == 0 and out.strip() == "accepted"

    def test_lispress_needs_signatures(self, capsys, tmp_path):
        ds = tmp_path / "d.jsonl"
        ds.write_text(
            json.dumps(
                {"id": "1", "utterance": "u", "gold": "(now)", "portion": "train"}
            )
        )
        code, _, _ = run(
            capsys, "induce-grammar", "--dataset", str(ds), "--format", "lispress"
        )
        assert code == 1

    def test_lispress(self, capsys, tmp_path):
        ds = tmp_path / "d.jsonl"
        ds.write_text(
            json.dumps(
                {
                    "id": "1",
                    "utterance": "u",
                    "gold": "(Yield (now))",
                    "portion": "train",
                }
            )
        )
        sigs = tmp_path / "s.jsonl"
        sigs.write_text(SIGS)
        code, out, _ = run(
            capsys,
            "induce-grammar",
            "--dataset",
            str(ds),
            "--format",
            "lispress",
            "--signatures",
            str(sigs),
        )
        assert code == 0 and "@start" in out


    def test_deep_lispress(self, capsys, tmp_path):
        gold = "(a " * 4999 + "(b)" + ")" * 4999
        ds = tmp_path / "d.jsonl"
        ds.write_text(json.dumps({"id": "1", "utterance": "u", "gold": gold, "portion": "train"}))
        sigs = tmp_path / "s.jsonl"
        sigs.write_text(
            json.dumps({"symbol": "a", "args": ["Unit"], "result": "Unit"})
            + "\n"
            + json.dumps({"symbol": "b", "args": [], "result": "Unit"})
        )
        out_path = tmp_path / "induced.cfg"
        code, _, err = run(
            capsys, "induce-grammar", "--dataset", str(ds), "--format", "lispress",
            "--signatures", str(sigs), "--out", str(out_path),
        )
        assert code == 0, err
        code, out, _ = run(capsys, "check", "--grammar", str(out_path), "--input", gold)
        assert code == 0 and out.strip() == "accepted"

    def test_deep_mtop(self, capsys, tmp_path):
        gold = "[IN:A " * 6000 + "x" + "]" * 6000
        ds = tmp_path / "d.jsonl"
        ds.write_text(json.dumps({"id": "1", "utterance": "u", "gold": gold, "portion": "train"}))
        out_path = tmp_path / "induced.cfg"
        code, _, err = run(
            capsys, "induce-grammar", "--dataset", str(ds), "--format", "mtop",
            "--out", str(out_path),
        )
        assert code == 0, err
        # the induced recursion accepts any depth; a shallow member keeps the check fast
        code, out, _ = run(
            capsys, "check", "--grammar", str(out_path), "--input", "[IN:A [IN:A y z]]"
        )
        assert code == 0 and out.strip() == "accepted"


class TestSpecializeSql:
    def test_specialize_then_check(self, capsys, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text(
            json.dumps(
                {
                    "tables": [
                        {
                            "name": "head",
                            "columns": [{"name": "born_state"}, {"name": "age"}],
                        }
                    ]
                }
            )
        )
        out_path = tmp_path / "sql.cfg"
        code, _, _ = run(
            capsys, "specialize-sql", "--schema", str(schema), "--out", str(out_path)
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "check",
            "--grammar",
            str(out_path),
            "--input",
            "SELECT born_state FROM head",
        )
        assert code == 0 and out.strip() == "accepted"
        code, out, _ = run(
            capsys,
            "check",
            "--json",
            "--grammar",
            str(out_path),
            "--input",
            "SELECT salary FROM head",
        )
        assert code == 2 and json.loads(out)["offset"] == 8


class TestDecode:
    def test_ngram(self, capsys, tmp_path, grammar_file, vocab_file):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("[0, 1, 3]\n[2, 3]\n")
        code, out, _ = run(
            capsys,
            "decode",
            "--grammar",
            grammar_file,
            "--vocab",
            vocab_file,
            "--ngram-corpus",
            str(corpus),
            "--beam",
            "4",
            "--max-tokens",
            "6",
        )
        assert code == 0
        results = json.loads(out)
        assert results and all(
            set(r["text"]) <= {"a", "b"} for r in results
        )

    def test_http_needs_url(self, capsys, grammar_file, vocab_file):
        code, _, _ = run(
            capsys,
            "decode",
            "--grammar",
            grammar_file,
            "--vocab",
            vocab_file,
            "--scorer",
            "http",
        )
        assert code == 1

    def test_config_defaults(self, capsys, tmp_path, grammar_file, vocab_file):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("[0, 1, 3]\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ngram-corpus": str(corpus)}))
        code, out, _ = run(
            capsys,
            "decode",
            "--grammar",
            grammar_file,
            "--vocab",
            vocab_file,
            "--config",
            str(cfg),
        )
        assert code == 0 and json.loads(out)

    def test_unconstrained(self, capsys, tmp_path, vocab_file):
        # the corpus's one text, "ba", is outside a^n b^n
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("[1, 0, 3]\n")
        argv = ["decode", "--vocab", vocab_file, "--ngram-corpus", str(corpus), "--beam", "1"]
        code, _, err = run(capsys, *argv)  # constrained by default
        assert code == 1 and "--grammar is required" in err
        code, out, _ = run(capsys, *argv, "--unconstrained")
        assert code == 0 and [r["text"] for r in json.loads(out)] == ["ba"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constrained": False}))
        code, from_config, _ = run(capsys, *argv, "--config", str(cfg))
        assert code == 0 and from_config == out


class TestConfig:
    def test_value_for_flag_with_default(self, capsys, tmp_path, grammar_file, vocab_file):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("[0, 1, 3]\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ngram-corpus": str(corpus), "beam": 1}))
        argv = ["decode", "--grammar", grammar_file, "--vocab", vocab_file, "--config", str(cfg)]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(json.loads(out)) == 1  # greedy: one hypothesis
        code, out, _ = run(capsys, *argv, "--beam", "5")
        assert code == 0 and len(json.loads(out)) > 1

    def test_explicit_falsy_flag_wins(self, capsys, tmp_path):
        ds = write_dataset(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7}))
        code, out, _ = run(capsys, "make-splits", "--dataset", ds, "--config", str(cfg))
        assert code == 0 and json.loads(out)["seed"] == 7
        code, out, _ = run(
            capsys, "make-splits", "--dataset", ds, "--seed", "0", "--config", str(cfg)
        )
        assert code == 0 and json.loads(out)["seed"] == 0

    @pytest.mark.parametrize(
        "command,config",
        [("decode", {"constrained": "false"}), ("allowed-tokens", {"dense": 1})],
    )
    def test_flag_without_value_takes_a_boolean(
        self, capsys, tmp_path, grammar_file, vocab_file, command, config
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--grammar", grammar_file, "--vocab", vocab_file, "--config", str(cfg)]
        code, _, err = run(capsys, *argv)
        (key,) = config
        assert code == 1 and key in err


@pytest.mark.parametrize("text", ["not json", "[1]"], ids=["not-json", "not-object"])
def test_bad_config_names_the_file(capsys, tmp_path, grammar_file, text):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    code, _, err = run(capsys, "check", "--grammar", grammar_file, "--input", "ab", "--config", str(cfg))
    assert code == 2 and err.startswith(f"error: {cfg}: ")


# files for the malformed-record cases (and one good dataset beside them);
# a placeholder "{name}" in argv is the path of that file
BAD_FILES = {
    "vocab_int": '{"eos": 0}\n5\n',
    "vocab_text_int": '{"eos": 1}\n{"id": 0, "text": 5}\n{"id": 1, "text": ""}\n',
    "vocab_id_str": '{"eos": 1}\n{"id": "0", "text": "a"}\n{"id": 1, "text": ""}\n',
    "dataset_list": "[1, 2]\n",
    "dataset_schema_str": json.dumps({"id": "a", "utterance": "u", "gold": "g", "schema": "abc"}),
    "dataset_gold_int": json.dumps({"id": "a", "utterance": "u", "gold": 5}),
    "dataset_ok": json.dumps({"id": "a", "utterance": "u", "gold": "(now)"}),
    "sigs_int": "7\n",
    "sigs_args_str": json.dumps({"symbol": "now", "args": "ab", "result": "Datetime"}),
    "report_correct_int": json.dumps({"metric": "exact", "accuracy": 1.0, "n": 1, "correct": [1]}),
    "predictions_list": '["a", "(now)"]\n',
    "corpus_int": "[0, 1, 3]\n5\n",
    "corpus_id_out_of_range": "[0, 1, 3]\n[0, 9]\n",
    "corpus_blank": "\n\n",
}


@pytest.mark.parametrize(
    "argv,code",
    [
        pytest.param(["decode", "--vocab", "{v}", "--grammar", "{g}", "--beam", "0"], 1, id="beam-0"),
        pytest.param(
            ["decode", "--vocab", "{v}", "--grammar", "{g}", "--max-tokens", "0"], 1, id="max-tokens-0"
        ),
        pytest.param(
            ["decode", "--vocab", "{v}", "--grammar", "{g}", "--ngram-order", "9"], 1, id="ngram-order-9"
        ),
        pytest.param(["decode", "--vocab", "{v}", "--ngram-corpus", "{v}"], 1, id="no-grammar"),
        pytest.param(["decode", "--vocab", "{v}", "--config", "{cfg}"], 1, id="config-beam-0"),
        pytest.param(
            ["build-prompt", "--dataset", "{v}", "--target", "t", "--context-mode", "bogus"],
            1,
            id="context-mode-bogus",
        ),
        pytest.param(
            ["build-prompt", "--dataset", "{v}", "--target", "t", "--db-values"], 1, id="db-values-no-sql"
        ),
        pytest.param(["check", "--grammar", "{latin1}", "--input", "x"], 2, id="not-utf8"),
        pytest.param(["check", "--grammar", "{dir}", "--input", "x"], 2, id="directory"),
        pytest.param(["allowed-tokens", "--vocab", "{vocab_int}", "--grammar", "{g}"], 2, id="vocab-int"),
        pytest.param(
            ["allowed-tokens", "--vocab", "{vocab_text_int}", "--grammar", "{g}"], 2, id="vocab-text-int"
        ),
        pytest.param(
            ["allowed-tokens", "--vocab", "{vocab_id_str}", "--grammar", "{g}"], 2, id="vocab-id-str"
        ),
        pytest.param(["make-splits", "--dataset", "{dataset_list}"], 2, id="dataset-list"),
        pytest.param(
            ["build-prompt", "--dataset", "{dataset_schema_str}", "--target", "t", "--context-mode", "sql_none"],
            2,
            id="dataset-schema-str",
        ),
        pytest.param(
            ["induce-grammar", "--dataset", "{dataset_gold_int}", "--format", "mtop"], 2, id="dataset-gold-int"
        ),
        pytest.param(
            ["induce-grammar", "--signatures", "{sigs_int}", "--dataset", "{dataset_ok}", "--format", "lispress"],
            2,
            id="signatures-int",
        ),
        pytest.param(
            ["induce-grammar", "--signatures", "{sigs_args_str}", "--dataset", "{dataset_ok}", "--format", "lispress"],
            2,
            id="signatures-args-str",
        ),
        pytest.param(
            ["evaluate", "--aggregate", "{report_correct_int}", "{report_correct_int}", "{report_correct_int}"],
            2,
            id="report-correct-int",
        ),
        pytest.param(
            ["evaluate", "--predictions", "{predictions_list}", "--dataset", "{dataset_ok}"],
            2,
            id="predictions-list",
        ),
        pytest.param(
            ["decode", "--ngram-corpus", "{corpus_int}", "--vocab", "{v}", "--grammar", "{g}"], 2, id="corpus-int"
        ),
        pytest.param(
            ["decode", "--ngram-corpus", "{corpus_id_out_of_range}", "--vocab", "{v}", "--grammar", "{g}"],
            2,
            id="corpus-id-out-of-range",
        ),
        pytest.param(
            ["decode", "--ngram-corpus", "{corpus_blank}", "--vocab", "{v}", "--grammar", "{g}"], 2, id="corpus-blank"
        ),
    ],
)
def test_bad_input_is_a_typed_error(capsys, tmp_path, grammar_file, vocab_file, argv, code):
    paths = {
        "g": grammar_file,
        "v": vocab_file,
        "cfg": tmp_path / "cfg.json",
        "latin1": tmp_path / "latin1.cfg",
        "dir": tmp_path,
    }
    paths["cfg"].write_text(json.dumps({"beam": 0, "grammar": grammar_file}))
    paths["latin1"].write_bytes('S -> "\xe9"'.encode("latin-1"))
    for name, text in BAD_FILES.items():
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text(text)
    got, _, err = run(capsys, *[a.format(**paths) for a in argv])
    assert got == code and err.startswith("error: ")
    if code == 2:
        assert str(paths[argv[2].strip("{}")]) in err


def write_dataset(tmp_path, n_train=1600, n_dev=200, n_test=400):
    lines = []
    for portion, count in (("train", n_train), ("dev", n_dev), ("test", n_test)):
        for i in range(count):
            lines.append(
                json.dumps(
                    {
                        "id": f"{portion}-{i}",
                        "utterance": f"utt {i}",
                        "gold": f"(plan {i})",
                        "dialogue_id": f"{portion}-d{i // 2}",
                        "turn_index": i % 2,
                        "portion": portion,
                    }
                )
            )
    p = tmp_path / "dataset.jsonl"
    p.write_text("\n".join(lines))
    return str(p)


class TestMakeSplits:
    def test_deterministic_manifest(self, capsys, tmp_path):
        ds = write_dataset(tmp_path)
        code, out1, _ = run(capsys, "make-splits", "--dataset", ds, "--seed", "3")
        code2, out2, _ = run(capsys, "make-splits", "--dataset", ds, "--seed", "3")
        assert code == code2 == 0 and out1 == out2
        manifest = json.loads(out1)
        assert len(manifest["low_train"]) == 3

    def test_writes_file(self, capsys, tmp_path):
        ds = write_dataset(tmp_path)
        out_path = tmp_path / "splits.json"
        code, _, _ = run(
            capsys, "make-splits", "--dataset", ds, "--out", str(out_path)
        )
        assert code == 0 and json.loads(out_path.read_text())["seed"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["specialize-sql", "--schema", "{schema}"], id="specialize-sql"),
        pytest.param(
            ["decode", "--vocab", "{v}", "--grammar", "{g}", "--ngram-corpus", "{corpus}"], id="decode"
        ),
        pytest.param(["make-splits", "--dataset", "{portioned}"], id="make-splits"),
        pytest.param(
            ["evaluate", "--predictions", "{predictions}", "--dataset", "{dataset}"], id="evaluate"
        ),
    ],
)
def test_unwritable_out_is_a_typed_error(capsys, tmp_path, grammar_file, vocab_file, argv):
    paths = {"g": grammar_file, "v": vocab_file, "portioned": write_dataset(tmp_path)}
    for name, text in {
        "schema": json.dumps({"tables": [{"name": "t", "columns": [{"name": "c"}]}]}),
        "corpus": "[0, 1, 3]\n",
        "dataset": json.dumps({"id": "a", "utterance": "u", "gold": "(now)", "portion": "test"}),
        "predictions": json.dumps({"id": "a", "prediction": "(now)"}),
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    got, _, err = run(capsys, *[a.format(**paths) for a in argv], "--out", str(tmp_path))
    assert got == 2 and err.startswith(f"error: cannot write {tmp_path}: ")


class TestBuildPrompt:
    def test_prompt(self, capsys, tmp_path):
        ds = write_dataset(tmp_path, n_train=10, n_dev=1, n_test=1)
        code, out, _ = run(
            capsys,
            "build-prompt",
            "--dataset",
            ds,
            "--target",
            "utt 3",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["prompt"].startswith("Let's translate")
        assert data["prompt"].rstrip().endswith("Computer:")
        assert "Human: utt 3\nComputer:" in data["prompt"]


class TestEvaluate:
    def test_evaluate_and_aggregate(self, capsys, tmp_path):
        ds = tmp_path / "gold.jsonl"
        ds.write_text(
            "\n".join(
                json.dumps(
                    {"id": str(i), "utterance": "u", "gold": f"(p {i})", "portion": "test"}
                )
                for i in range(4)
            )
        )
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            "\n".join(
                json.dumps({"id": str(i), "prediction": f"( p {i} )"})
                for i in range(3)
            )
        )
        reports = []
        for k in range(3):
            rp = tmp_path / f"report{k}.json"
            code, out, _ = run(
                capsys,
                "evaluate",
                "--dataset",
                str(ds),
                "--predictions",
                str(preds),
                "--metric",
                "lispress",
                "--out",
                str(rp),
            )
            assert code == 0
            assert json.loads(out)["accuracy"] == pytest.approx(0.75)
            reports.append(str(rp))
        code, out, _ = run(capsys, "evaluate", "--aggregate", *reports)
        assert code == 0
        agg = json.loads(out)
        assert agg["mean"] == pytest.approx(0.75) and agg["stddev"] == 0.0

    def test_deep_gold(self, capsys, tmp_path):
        deep = "(a " * 5000 + ")" * 5000
        ds = tmp_path / "gold.jsonl"
        ds.write_text(json.dumps({"id": "1", "gold": deep, "portion": "test"}))
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"id": "1", "prediction": deep}))
        code, out, _ = run(
            capsys,
            "evaluate",
            "--dataset",
            str(ds),
            "--predictions",
            str(preds),
            "--metric",
            "lispress",
        )
        assert code == 0 and json.loads(out)["accuracy"] == 1.0

    def test_unsupported_metric(self, capsys, tmp_path):
        ds = tmp_path / "gold.jsonl"
        ds.write_text(json.dumps({"id": "1", "gold": "(a)", "portion": "test"}))
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"id": "1", "prediction": "(a)"}))
        code, _, err = run(
            capsys,
            "evaluate",
            "--dataset",
            str(ds),
            "--predictions",
            str(preds),
            "--metric",
            "denotation",
        )
        assert code == 2 and "error" in err

    def test_needs_inputs(self, capsys):
        code, _, _ = run(capsys, "evaluate")
        assert code == 1

    def test_json_error_channel(self, capsys):
        code, _, err = run(
            capsys, "check", "--json", "--grammar", "/nope.cfg", "--input", "x"
        )
        assert code == 2
        assert "error" in json.loads(err.strip())


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(text=grammar_texts(), word=st.text('ab"[', max_size=4))
def test_hostile_grammar_file_exits_0_or_2(tmp_path_factory, text, word):
    path = tmp_path_factory.getbasetemp() / "hostile.cfg"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", "--grammar", str(path), "--input", word])
    assert code in (0, 2)
    if err.getvalue():  # a data error, not a verdict
        assert code == 2
        assert err.getvalue().startswith(f"error: {path}: ")
    else:
        assert out.getvalue().startswith("accepted" if code == 0 else ("rejected", "incomplete"))
