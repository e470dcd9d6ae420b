import contextlib
import io
import json
import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramdec.cli import main
from gramdec.errors import GramdecError
from gramdec.grammar import Grammar, Production, Symbol, serialize_grammar
from gramdec.induction import load_signatures
from gramdec.splits import MetricReport, load_dataset_jsonl, load_predictions_jsonl
from gramdec.sql import load_schema_json
from gramdec.tokens import load_vocab_jsonl

from helpers import ScorerHandler, grammar_texts, raw_server
from helpers import https_scorer_server, scorer_server, tls_cert  # noqa: F401  (fixtures)

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
        assert code == 3
        assert json.loads(out) == {"verdict": "rejected", "offset": 2}

    def test_incomplete(self, capsys, grammar_file):
        code, out, _ = run(
            capsys, "check", "--json", "--grammar", grammar_file, "--input", "aab"
        )
        assert code == 3 and json.loads(out)["verdict"] == "incomplete"

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

    @pytest.mark.parametrize(
        "prefix,expected",
        [
            ("", {"chars": [], "negated_classes": [["a", "b"]], "complete": False}),
            ("c", {"chars": ["d"], "negated_classes": [], "complete": True}),
        ],
    )
    def test_cofinite_mask(self, capsys, tmp_path, prefix, expected):
        # "c" is both in [^ab] and a first character of "c" "d"
        p = tmp_path / "g.cfg"
        p.write_text('S -> [^ab] | "c" "d"\n')
        argv = ["allowed-chars", "--json", "--grammar", str(p), "--prefix", prefix]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out) == expected

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

    @pytest.mark.parametrize("flag,value", [("--signatures", "/nope.jsonl"), ("--root-type", "Unit")])
    def test_mtop_refuses_lispress_flags(self, capsys, tmp_path, flag, value):
        ds = tmp_path / "d.jsonl"
        ds.write_text(json.dumps({"id": "1", "utterance": "u", "gold": "[IN:A a]", "portion": "train"}))
        code, out, err = run(capsys, "induce-grammar", "--dataset", str(ds), "--format", "mtop", flag, value)
        assert code == 1 and not out and flag in err

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

    @pytest.mark.parametrize("out", [False, True])
    def test_lone_surrogate_symbol(self, capsys, tmp_path, out):
        # legal JSON, but no UTF-8 text: rejected where the file is read
        ds = tmp_path / "d.jsonl"
        ds.write_text(json.dumps({"id": "1", "utterance": "u", "gold": "(n\ud800)", "portion": "train"}))
        sigs = tmp_path / "s.jsonl"
        sigs.write_text(json.dumps({"symbol": "n\ud800", "args": [], "result": "Unit"}))
        argv = ["induce-grammar", "--dataset", str(ds), "--format", "lispress", "--signatures", str(sigs)]
        if out:
            argv += ["--out", str(tmp_path / "induced.cfg")]
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith(f"error: {sigs}: bad JSON on line 1: lone surrogate")


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
        assert code == 3 and json.loads(out)["offset"] == 8

    def test_check_a_long_string_literal(self, capsys, tmp_path):
        # each character of the literal scans in place, so 20,000 of them
        # take a few hundredths of a second (about 30 s when each character
        # completed the chain of all earlier ones)
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"tables": [{"name": "t", "columns": [{"name": "c"}]}]}))
        grammar = tmp_path / "sql.cfg"
        assert run(capsys, "specialize-sql", "--schema", str(schema), "--out", str(grammar))[0] == 0
        query = "SELECT c FROM t WHERE c = '" + "x" * 20_000 + "'"
        start = time.perf_counter()
        code, out, _ = run(capsys, "check", "--grammar", str(grammar), "--input", query)
        assert code == 0 and out.strip() == "accepted"
        assert time.perf_counter() - start < 5

    def test_custom_base_grammar(self, capsys, tmp_path):
        base = tmp_path / "base.cfg"
        base.write_text('q -> "GET " COLUMN_NAME " OF " TABLE_NAME\nTABLE_NAME -> "t"\nCOLUMN_NAME -> "c"\n')
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"tables": [{"name": "head", "columns": [{"name": "age"}]}]}))
        out_path = tmp_path / "get.cfg"
        argv = ["specialize-sql", "--grammar", str(base), "--schema", str(schema), "--out", str(out_path)]
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        for text, want in [("GET head.age OF head", 0), ("GET c OF t", 3), ("SELECT age FROM head", 3)]:
            code, _, _ = run(capsys, "check", "--grammar", str(out_path), "--input", text)
            assert code == want, text

    def test_base_grammar_error_names_the_base_file(self, capsys, tmp_path):
        base = tmp_path / "base.cfg"
        base.write_text('q -> "GET " COLUMN_NAME\nCOLUMN_NAME -> "c"\n')  # no TABLE_NAME
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"tables": [{"name": "head", "columns": [{"name": "age"}]}]}))
        code, _, err = run(capsys, "specialize-sql", "--grammar", str(base), "--schema", str(schema))
        assert code == 2 and err.startswith(f"error: {base}: ") and "TABLE_NAME" in err


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

    def test_needs_one_scorer(self, capsys, tmp_path, grammar_file, vocab_file):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("[0, 1, 3]\n")
        argv = ["decode", "--grammar", grammar_file, "--vocab", vocab_file]
        both = ["--url", "http://127.0.0.1:9/", "--ngram-corpus", str(corpus)]
        for scorer in ([], both):  # neither, or both
            code, _, err = run(capsys, *argv, *scorer)
            assert code == 1 and "--url" in err and "--ngram-corpus" in err

    def test_url(self, capsys, tmp_path, grammar_file, scorer_server):
        # the server scores a 3-token vocabulary, a little higher for "a"
        # the longer the prefix
        vocab = tmp_path / "v.jsonl"
        vocab.write_text('{"eos": 2}\n{"id": 0, "text": "a"}\n{"id": 1, "text": "b"}\n{"id": 2, "text": ""}\n')
        argv = ["decode", "--grammar", grammar_file, "--vocab", str(vocab), "--url", scorer_server]
        code, out, err = run(capsys, *argv, "--beam", "4", "--max-tokens", "4")
        assert code == 0, err
        results = json.loads(out)
        # "aabb" and its eos take 5 tokens
        assert [r["text"] for r in results] == ["", "ab"]
        assert [r["logprob"] for r in results] == pytest.approx([math.log(1 / 3), 3 * math.log(1 / 3)])
        ScorerHandler.behavior = "error"
        code, _, err = run(capsys, *argv)
        assert code == 2 and "HTTP 500" in err

    def test_url_untrusted_certificate(self, capsys, tmp_path, grammar_file, https_scorer_server):
        vocab = tmp_path / "v.jsonl"
        vocab.write_text('{"eos": 2}\n{"id": 0, "text": "a"}\n{"id": 1, "text": "b"}\n{"id": 2, "text": ""}\n')
        argv = ["decode", "--grammar", grammar_file, "--vocab", str(vocab), "--url", https_scorer_server]
        code, _, err = run(capsys, *argv)
        assert code == 2 and "CERTIFICATE_VERIFY_FAILED" in err

    def test_url_score_too_large_for_a_float(self, capsys, tmp_path, grammar_file):
        vocab = tmp_path / "v.jsonl"
        vocab.write_text('{"eos": 2}\n{"id": 0, "text": "a"}\n{"id": 1, "text": "b"}\n{"id": 2, "text": ""}\n')
        body = b'{"scores": [1' + b"0" * 400 + b", 0.0, 0.0]}"
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body
        with raw_server(reply) as url:
            argv = ["decode", "--grammar", grammar_file, "--vocab", str(vocab), "--url", url]
            code, _, err = run(capsys, *argv)
        assert code == 2 and "non-finite score for token 0" in err

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
        assert code == 1 and "--grammar --unconstrained is required" in err
        code, out, _ = run(capsys, *argv, "--unconstrained")
        assert code == 0 and [r["text"] for r in json.loads(out)] == ["ba"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"unconstrained": True}))
        code, from_config, _ = run(capsys, *argv, "--config", str(cfg))
        assert code == 0 and from_config == out
        # a grammar that would be dropped is an error
        code, _, err = run(capsys, *argv, "--unconstrained", "--grammar", "/nope.cfg")
        assert code == 1 and "--grammar: not allowed with argument --unconstrained" in err


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
        [("decode", {"unconstrained": "false"}), ("allowed-tokens", {"dense": 1})],
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

    def test_value_outside_the_choices(self, capsys, tmp_path):
        ds = write_dataset(tmp_path, n_train=3, n_dev=1, n_test=1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"order": "sideways"}))
        code, _, err = run(capsys, "build-prompt", "--dataset", ds, "--target", "t", "--config", str(cfg))
        assert code == 1 and "'sideways'" in err and "order" in err

    def test_config_supplies_required_flags(self, capsys, tmp_path, grammar_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grammar": grammar_file, "input": "ab"}))
        code, out, err = run(capsys, "check", "--config", str(cfg))
        assert code == 0 and out.strip() == "accepted", err
        code, _, _ = run(capsys, "check", "--input", "ba", "--config", str(cfg))
        assert code == 3  # the explicit flag wins

    def test_unreadable_config_with_json(self, capsys, tmp_path, grammar_file):
        missing = tmp_path / "missing.json"
        argv = ["check", "--grammar", grammar_file, "--input", "ab", "--json", "--config", str(missing)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and str(missing) in json.loads(err)["error"]

    def test_help_key_is_ignored(self, capsys, tmp_path, grammar_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"help": True}))
        code, out, _ = run(capsys, "check", "--grammar", grammar_file, "--input", "ab", "--config", str(cfg))
        assert code == 0 and out.strip() == "accepted"


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
    "dataset_gold_nope": json.dumps({"id": "ex-7", "utterance": "u", "gold": "(nope)"}),
    "dataset_gold_unbalanced": json.dumps({"id": "ex-8", "utterance": "u", "gold": "[IN:A x"}),
    "dataset_repeated_id": "\n".join(
        json.dumps({"id": "dup", "utterance": "u", "gold": "g", "portion": p}) for p in ("train", "test")
    ),
    "sigs_ok": json.dumps({"symbol": "now", "args": [], "result": "Datetime"}),
    # a literal class whose language is empty
    "sigs_empty_class": json.dumps({"literal": "T", "class": 'T -> T | "a" T'}),
    "sigs_duplicate": "\n".join(json.dumps({"symbol": "f", "args": [], "result": "U"}) for _ in range(2)),
    "schema_no_columns": json.dumps({"tables": [{"name": "t", "columns": []}]}),
    "schema_values_str": json.dumps({"tables": [{"name": "t", "columns": [{"name": "c", "values": "abc"}]}]}),
    "schema_table_str": json.dumps({"tables": ["x"]}),
    "schema_column_int": json.dumps({"tables": [{"name": "t", "columns": [5]}]}),
    "schema_column_no_name": json.dumps({"tables": [{"name": "t", "columns": [{"type": "text"}]}]}),
    "dataset_schema_values_str": json.dumps(
        {
            "id": "ex-10",
            "utterance": "u",
            "gold": "g",
            "schema": {"tables": [{"name": "t", "columns": [{"name": "c", "values": "abc"}]}]},
        }
    ),
    "predictions_unknown_id": json.dumps({"id": "zz", "prediction": "(now)"}),
    "dataset_empty_utterance": json.dumps({"id": "ex-9", "utterance": "", "gold": "g"}),
}


@pytest.mark.parametrize(
    "argv,code",
    [
        pytest.param(["decode", "--vocab", "{v}", "--grammar", "{g}", "--beam", "0"], 1, id="beam-0"),
        pytest.param(
            ["build-prompt", "--dataset", "{dataset_ok}", "--target", "t", "--max-examples", "-3"],
            1,
            id="max-examples-negative",
        ),
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
            ["induce-grammar", "--signatures", "{sigs_empty_class}", "--dataset", "{dataset_ok}", "--format", "lispress"],
            2,
            id="signatures-empty-class",
        ),
        pytest.param(
            ["induce-grammar", "--signatures", "{sigs_duplicate}", "--dataset", "{dataset_ok}", "--format", "lispress"],
            2,
            id="signatures-duplicate",
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
        # data errors met after the file loaded
        pytest.param(
            ["induce-grammar", "--dataset", "{dataset_gold_nope}", "--signatures", "{sigs_ok}", "--format", "lispress"],
            2,
            id="gold-unknown-symbol",
        ),
        pytest.param(
            ["induce-grammar", "--dataset", "{dataset_gold_unbalanced}", "--format", "mtop"], 2, id="gold-not-mtop"
        ),
        pytest.param(["specialize-sql", "--schema", "{schema_no_columns}"], 2, id="schema-no-columns"),
        pytest.param(["specialize-sql", "--schema", "{schema_values_str}"], 2, id="schema-values-str"),
        pytest.param(["specialize-sql", "--schema", "{schema_table_str}"], 2, id="schema-table-str"),
        pytest.param(["specialize-sql", "--schema", "{schema_column_int}"], 2, id="schema-column-int"),
        pytest.param(
            ["specialize-sql", "--schema", "{schema_column_no_name}"], 2, id="schema-column-no-name"
        ),
        pytest.param(
            ["build-prompt", "--dataset", "{dataset_schema_values_str}", "--target", "t",
             "--context-mode", "sql_none", "--db-values"],
            2,
            id="dataset-schema-values-str",
        ),
        pytest.param(
            ["evaluate", "--predictions", "{predictions_unknown_id}", "--dataset", "{dataset_ok}"],
            2,
            id="predictions-unknown-id",
        ),
        pytest.param(
            ["build-prompt", "--dataset", "{dataset_ok}", "--target", "t", "--context-mode", "sql_none"],
            2,
            id="dataset-no-schema",
        ),
        pytest.param(["make-splits", "--dataset", "{dataset_repeated_id}"], 2, id="dataset-repeated-id"),
        pytest.param(
            ["build-prompt", "--dataset", "{dataset_empty_utterance}", "--target", "x"],
            2,
            id="dataset-empty-utterance",
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
    if argv[2] in ("{dataset_gold_nope}", "{dataset_gold_unbalanced}", "{dataset_empty_utterance}"):
        assert "example 'ex-" in err


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

    def test_lone_surrogate_utterance(self, capsys, tmp_path):
        ds = tmp_path / "d.jsonl"
        ds.write_text(json.dumps({"id": "1", "utterance": "u \ud800", "gold": "(now)", "portion": "train"}))
        code, _, err = run(capsys, "build-prompt", "--dataset", str(ds), "--target", "u")
        assert code == 2 and err.startswith(f"error: {ds}: bad JSON on line 1: lone surrogate")


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

    @pytest.mark.parametrize("metric", ["denotation", "made_up"])
    def test_metric_error_names_no_file(self, capsys, tmp_path, metric):
        # the flag is checked before any file loads: neither file exists
        dataset, preds = tmp_path / "gold.jsonl", tmp_path / "p.jsonl"
        code, _, err = run(
            capsys,
            "evaluate",
            "--dataset",
            str(dataset),
            "--predictions",
            str(preds),
            "--metric",
            metric,
        )
        assert code == 2
        assert f"metric {metric!r}" in err and ".jsonl" not in err

    def test_gold_that_does_not_parse_names_the_dataset(self, capsys, tmp_path):
        # a malformed gold is a data error, not the prediction's parse failure
        ds = tmp_path / "gold.jsonl"
        ds.write_text(json.dumps({"id": "a", "gold": "(f", "portion": "test"}))
        preds = tmp_path / "p.jsonl"
        preds.write_text(json.dumps({"id": "a", "prediction": "(f)"}))
        code, out, err = run(
            capsys,
            "evaluate",
            "--dataset",
            str(ds),
            "--predictions",
            str(preds),
            "--metric",
            "lispress",
        )
        assert code == 2 and not out
        assert err.startswith(f"error: {ds}: example 'a': ") and str(preds) not in err

    def test_needs_inputs(self, capsys):
        code, _, _ = run(capsys, "evaluate")
        assert code == 1

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--aggregate", "{r}", "{r}", "{r}", "--predictions", "{p}", "--dataset", "{d}"], "--predictions"),
            (["--aggregate", "{r}", "{r}", "{r}", "--dataset", "{d}"], "--dataset"),
            (["--aggregate", "{r}", "{r}", "{r}", "--out", "{o}"], "--out"),
            (["--predictions", "{p}"], "--dataset"),
        ],
        ids=["aggregate-predictions", "aggregate-dataset", "aggregate-out", "predictions-alone"],
    )
    def test_refused_combinations(self, capsys, tmp_path, argv, flag):
        # every input is valid: only the combination of flags is refused
        paths = {"r": tmp_path / "r.json", "p": tmp_path / "p.jsonl", "d": tmp_path / "d.jsonl"}
        paths["r"].write_text(MetricReport("exact", 0.5, 2, []).to_json())
        paths["p"].write_text(json.dumps({"id": "a", "prediction": "(f)"}))
        paths["d"].write_text(json.dumps({"id": "a", "gold": "(f)", "portion": "test"}))
        paths["o"] = tmp_path / "out.json"
        code, out, err = run(capsys, "evaluate", *[a.format(**paths) for a in argv])
        assert code == 1 and not out and flag in err
        assert not paths["o"].exists()

    def test_json_error_channel(self, capsys):
        code, _, err = run(
            capsys, "check", "--json", "--grammar", "/nope.cfg", "--input", "x"
        )
        assert code == 2
        assert "error" in json.loads(err.strip())


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(text=grammar_texts(), word=st.text('ab"[', max_size=4))
def test_hostile_grammar_file_exits_0_2_or_3(tmp_path_factory, text, word):
    path = tmp_path_factory.getbasetemp() / "hostile.cfg"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", "--grammar", str(path), "--input", word])
    if code == 2:  # a data error, not a verdict
        assert not out.getvalue() and err.getvalue().startswith(f"error: {path}: ")
    else:
        assert not err.getvalue()
        assert out.getvalue().startswith({0: "accepted", 3: ("rejected", "incomplete")}[code])


def test_files_are_read_as_written(capsys, tmp_path):
    g = tmp_path / "cr.cfg"
    g.write_bytes(serialize_grammar(Grammar("S", [Production("S", (Symbol.t("a\rb"),))])).encode())
    assert b"a\rb" in g.read_bytes()
    code, out, _ = run(capsys, "check", "--grammar", str(g), "--input", "a\rb")
    assert code == 0 and out == "accepted\n"
    # a CRLF line end still ends a line of a grammar or a JSONL file
    crlf = {}
    for name, text in [("g.cfg", ANBN), ("v.jsonl", VOCAB)]:
        crlf[name] = tmp_path / name
        crlf[name].write_bytes(text.replace("\n", "\r\n").encode())
    argv = ["allowed-tokens", "--grammar", str(crlf["g.cfg"]), "--vocab", str(crlf["v.jsonl"])]
    code, out, _ = run(capsys, *argv, "--prefix", "a")
    assert code == 0 and json.loads(out) == {"tokens": [0, 1, 2]}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# Good inputs beside the drawn file. Under every ngram order the corpus
# ranks eos first after the empty prefix, so decode's only data errors
# are its files' own.
FIXED_FILES = {
    "g": ANBN,
    "v": VOCAB,
    "c": "[3]\n[3]\n[0, 1, 3]\n",
    "d": json.dumps({"id": "a", "utterance": "u", "gold": "(now)"}),
    "s": SIGS,
    "p": json.dumps({"id": "a", "prediction": "(now)"}),
    "sc": json.dumps({"tables": [{"name": "t", "columns": [{"name": "c"}]}]}),
    "r": json.dumps({"metric": "exact", "accuracy": 0.5, "n": 2, "correct": [["a", True], ["b", False]]}),
}
DECODE_FLAGS = {
    "--grammar": "{g}", "--vocab": "{v}", "--ngram-corpus": "{c}", "--max-tokens": "6", "--out": "{o}"
}


def decode_argv(**values):
    """decode's command line over the fixed files; a keyword replaces the
    value of its flag (dashes as underscores)."""
    flags = {**DECODE_FLAGS, **{"--" + k.replace("_", "-"): v for k, v in values.items()}}
    return ["decode", *[a for flag in flags.items() for a in flag]]


# Per file flag: the commands that read the drawn file "{f}", each path
# flag given, the keys of the file's records, and the library reader of the
# file (None where every data error of those commands comes from it).
HOSTILE_FILES = {
    "vocab": (
        [["allowed-tokens", "--grammar", "{g}", "--vocab", "{f}", "--prefix", "a"],
         [*decode_argv(vocab="{f}"), "--beam", "4"]],
        ["eos", "id", "text"],
        load_vocab_jsonl,
    ),
    "dataset": (
        [["make-splits", "--dataset", "{f}", "--out", "{o}"],
         ["build-prompt", "--dataset", "{f}", "--target", "t", "--context-mode", "sql_all_interactions",
          "--db-values"],
         ["induce-grammar", "--format", "mtop", "--dataset", "{f}", "--out", "{o}"],
         ["induce-grammar", "--format", "lispress", "--signatures", "{s}", "--dataset", "{f}", "--out", "{o}"]],
        ["id", "utterance", "gold", "schema", "turn_index", "prior_interactions", "portion"],
        load_dataset_jsonl,
    ),
    "schema": (
        [["specialize-sql", "--schema", "{f}", "--out", "{o}"]],
        ["tables", "name", "columns", "type", "values"],
        load_schema_json,
    ),
    "signatures": (
        [["induce-grammar", "--format", "lispress", "--signatures", "{f}", "--dataset", "{d}", "--out", "{o}"]],
        ["symbol", "args", "result", "literal", "class"],
        load_signatures,
    ),
    "predictions": (
        [["evaluate", "--predictions", "{f}", "--dataset", "{d}", "--out", "{o}"]],
        ["id", "prediction"],
        load_predictions_jsonl,
    ),
    "report": (
        [["evaluate", "--aggregate", "{f}", "{r}", "{r}"]],
        ["metric", "accuracy", "n", "correct", "parse_failures"],
        MetricReport.from_json,
    ),
    "ngram-corpus": (
        [[*decode_argv(ngram_corpus="{f}"), "--beam", "4"]],
        [],
        None,
    ),
}
# Per command: the keys a drawn --config may set, neither paths nor the
# scorer's (a scorer may reach the network), and the command's own flags.
CONFIG_COMMANDS = {
    "decode": (["beam", "ngram_order", "max_tokens", "unconstrained", "input"], decode_argv()),
    "evaluate": (["metric"], ["evaluate", "--predictions", "{p}", "--dataset", "{d}", "--out", "{o}"]),
    "build-prompt": (
        ["target", "context_mode", "db_values", "order", "budget", "max_examples", "seed"],
        ["build-prompt", "--dataset", "{d}", "--target", "t"],
    ),
    "allowed-tokens": (["prefix", "dense"], ["allowed-tokens", "--grammar", "{g}", "--vocab", "{v}"]),
    "check": (["input"], ["check", "--grammar", "{g}", "--input", "ab"]),
    "induce-grammar": (
        ["format", "root_type"],
        ["induce-grammar", "--format", "lispress", "--signatures", "{s}", "--dataset", "{d}", "--out", "{o}"],
    ),
    "specialize-sql": ([], ["specialize-sql", "--schema", "{sc}", "--out", "{o}"]),
}


@st.composite
def hostile_file(draw, keys):
    """Bytes of a file: garbage, or JSON values one a line, records among
    them keyed like the format's own."""
    records = JSON_VALUES
    if keys:
        records |= st.dictionaries(st.sampled_from(keys), JSON_VALUES, max_size=len(keys))
        records |= st.fixed_dictionaries({k: JSON_VALUES for k in keys})
    kind = draw(st.sampled_from(["bytes", "text", "record", "lines"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "text":
        text = draw(st.text(max_size=40))
    else:
        size = 1 if kind == "record" else draw(st.integers(0, 4))
        lines = [json.dumps(draw(records), ensure_ascii=False) for _ in range(size)]
        text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    return text.encode("utf-8", "surrogatepass")


def _rejects(reader, data: bytes) -> bool:
    try:
        reader(data.decode("utf-8"))
    except (GramdecError, UnicodeDecodeError):
        return True
    return False


def run_on_files(tmp_path, argv, drawn: bytes):
    """main on argv with its placeholders filled by files under tmp_path:
    (exit code, stderr, path of the drawn file)."""
    paths = {"o": tmp_path / "out", "f": tmp_path / "drawn"}
    paths["f"].write_bytes(drawn)
    for name, text in FIXED_FILES.items():
        paths[name] = tmp_path / f"fixed-{name}"
        paths[name].write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(**paths) for a in argv])
    return code, err.getvalue(), str(paths["f"])


def check_exit(code, err, path, reader, drawn):
    assert code in (0, 1, 2)
    if code == 0:
        return
    if err.startswith("{"):  # --json from the config
        err = "error: " + json.loads(err)["error"]
    assert err.startswith("error: ")
    if code == 2 and (reader is None or _rejects(reader, drawn)):
        assert path in err


# Files a draw rarely makes, tried first with every command of a flag:
# JSON nested deeper than the parser's recursion limit, and reports with
# accuracies outside [0, 1], which can overflow a float in the aggregate.
EXPLICIT_FILES = {
    "report": [
        json.dumps({"metric": "exact", "accuracy": acc, "n": 1, "correct": []}).encode()
        for acc in (1e200, 10**400, float("nan"), -0.5)
    ],
}


@pytest.mark.parametrize("flag", sorted(HOSTILE_FILES))
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
@example(data=None)
def test_hostile_input_file_exits_0_1_or_2(tmp_path_factory, flag, data):
    commands, keys, reader = HOSTILE_FILES[flag]
    if data is None:
        runs = [(argv, b"[" * 100_000) for argv in commands]
        runs += [(argv, f) for argv in commands for f in EXPLICIT_FILES.get(flag, [])]
    else:
        runs = [(data.draw(st.sampled_from(commands)), data.draw(hostile_file(keys)))]
    for argv, drawn in runs:
        code, err, path = run_on_files(tmp_path_factory.mktemp(flag), argv, drawn)
        assert code != 1, err  # every flag is given: no file's contents make a usage error
        check_exit(code, err, path, reader, drawn)


def _config_object(text):
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):
        value = None
    if not isinstance(value, dict):
        raise GramdecError("not a JSON object")


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(sorted(CONFIG_COMMANDS)), data=st.data())
def test_hostile_config_exits_0_1_or_2(tmp_path_factory, command, data):
    keys, argv = CONFIG_COMMANDS[command]
    keys = keys + ["json", "other"]
    drawn = data.draw(
        hostile_file(keys)
        | st.dictionaries(st.sampled_from(keys), JSON_VALUES, max_size=3).map(
            lambda d: json.dumps(d).encode()
        )
    )
    code, err, path = run_on_files(tmp_path_factory.mktemp("config"), [*argv, "--config", "{f}"], drawn)
    if command == "check" and code == 3:  # the drawn input is not a member
        assert not err
        return
    check_exit(code, err, path, _config_object, drawn)
