"""Command-line surface: thin adapters from flags and files to the library.

Exit codes: 0 success, 1 usage error, 2 data error, 3 a `check` input
outside the language. With --json, errors go to stderr as {"error": ...}.
A --config file holds a JSON object of flag values, keyed by flag name
without its dashes, for any flag of the command, required ones too. It is
read as those flags placed before the explicit ones, so explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .decoder import DecodeConfig, HttpScorer, decode, train_ngram
from .earley import check_string, init_state
from .errors import GramdecError
from .grammar import parse_grammar, serialize_grammar
from .induction import (
    induce_lispress_grammar,
    induce_mtop_grammar,
    load_signatures,
    parse_mtop,
    type_check,
)
from .jsonl import json_lines, json_value
from .lispress import parse_sexp
from .prompting import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_EXAMPLES,
    DIALOGUE_MODES,
    ORDER_BEST_LAST,
    ORDERS,
    SQL_MODES,
    ContextMode,
    PromptExample,
    bm25_scores,
    build_prompt,
    render_input,
)
from .splits import (
    MetricReport,
    aggregate_low,
    check_golds,
    check_metric,
    evaluate,
    load_dataset_jsonl,
    load_predictions_jsonl,
    make_splits,
)
from .sql import (
    check_base_grammar,
    load_base_sql_grammar,
    load_schema_json,
    specialize_sql_grammar,
)
from .tokens import allowed_tokens, build_trie, dense_mask, load_vocab_jsonl


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> str:
    """The file's text as written, without newline translation."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GramdecError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    except OSError as exc:
        raise GramdecError(f"cannot write {path}: {exc}") from None


def _load(parse, path: str):
    """parse(text of the file at path); a data error names the file, so
    parse does all the work on the file's contents that can fail."""
    text = _read(path)
    try:
        return parse(text)
    except GramdecError as exc:
        raise GramdecError(f"{path}: {exc}") from None


def _parse_grammar_file(text: str):
    """parse_grammar(text), raising EmptyLanguageError too when the grammar
    derives no string, so that `_load` names the file for that as well."""
    g = parse_grammar(text)
    init_state(g)  # compiled once: later states of g share it
    return g


def _ngram_corpus(text: str, vocab_size: int):
    """The token-id lists of an n-gram corpus, one JSON list per line."""
    corpus = []
    for lineno, seq in json_lines(text, GramdecError):
        if not isinstance(seq, list) or not all(
            type(t) is int and 0 <= t < vocab_size for t in seq
        ):
            raise GramdecError(
                f"line {lineno} is not a list of token ids in [0, {vocab_size})"
            )
        corpus.append(seq)
    if not corpus:
        raise GramdecError("no token-id lists")
    return corpus


def _for_example(ex, f, *args):
    """f(*args) for the dataset example ex; a data error names the example."""
    try:
        return f(*args)
    except GramdecError as exc:
        raise GramdecError(f"example {ex.id!r}: {exc}") from None


def _golds(text: str, parse):
    """parse(gold) of each example of a dataset file."""
    dataset = load_dataset_jsonl(text)
    if not dataset:
        raise GramdecError("empty dataset")
    return [_for_example(ex, parse, ex.gold) for ex in dataset]


def _prefix_state(args):
    """The recognizer state after --prefix under --grammar."""
    g = _load(_parse_grammar_file, args.grammar)
    state, consumed = init_state(g).advance_string(args.prefix)
    if state is None:
        raise GramdecError(f"prefix rejected at offset {consumed}")
    return state


def _print_or_write(args, text: str, **counts):
    """Print text, or write it to --out and report that with counts."""
    if not args.out:
        sys.stdout.write(text)
        return 0
    _write(args.out, text)
    notes = "".join(f" ({n} {name})" for name, n in counts.items())
    _emit(args, {"out": args.out, **counts}, f"wrote {args.out}{notes}")
    return 0


def _write_grammar(args, g):
    return _print_or_write(args, serialize_grammar(g), productions=len(g.productions))


def positive_int(text) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def non_negative_int(text) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is a negative integer")
    return value


def _emit(args, payload: dict, plain: str):
    if args.json:
        print(json.dumps(payload))
    else:
        print(plain)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_check(args):
    verdict, offset = check_string(_load(_parse_grammar_file, args.grammar), args.input)
    if verdict == "accepted":
        _emit(args, {"verdict": verdict}, verdict)
        return 0
    if verdict == "rejected":
        plain = f"rejected at offset {offset}"
    else:
        plain = f"incomplete: viable prefix but not a member (consumed {offset})"
    _emit(args, {"verdict": verdict, "offset": offset}, plain)
    return 3


def _cmd_allowed_chars(args):
    state = _prefix_state(args)
    mask = state.allowed_next_chars()
    payload = {
        "chars": sorted(mask.positive),
        "negated_classes": [] if mask.excluded is None else [sorted(mask.excluded)],
        "complete": state.is_complete(),
    }
    _emit(args, payload, json.dumps(payload))
    return 0


def _cmd_allowed_tokens(args):
    state = _prefix_state(args)
    vocab = _load(load_vocab_jsonl, args.vocab)
    ids = sorted(allowed_tokens(state, build_trie(vocab)))
    payload = {"tokens": ids}
    if args.dense:
        payload["mask"] = dense_mask(ids, vocab.size)
    _emit(args, payload, json.dumps(payload))
    return 0


def _cmd_induce_grammar(args):
    if args.format == "lispress":
        if not args.signatures:
            raise UsageError("--signatures is required for lispress induction")
        sigs = _load(load_signatures, args.signatures)
        typed = _load(
            lambda text: _golds(text, lambda gold: type_check(parse_sexp(gold), sigs)),
            args.dataset,
        )
        grammar = induce_lispress_grammar(typed, sigs, root_type=args.root_type)
    elif args.signatures is not None or args.root_type is not None:
        raise UsageError("--signatures and --root-type are for lispress induction only")
    else:
        grammar = induce_mtop_grammar(_load(lambda text: _golds(text, parse_mtop), args.dataset))
    return _write_grammar(args, grammar)


def _cmd_specialize_sql(args):
    if args.grammar:
        base = _load(lambda text: check_base_grammar(parse_grammar(text)), args.grammar)
    else:
        base = load_base_sql_grammar()
    grammar = _load(lambda text: specialize_sql_grammar(base, load_schema_json(text)), args.schema)
    return _write_grammar(args, grammar)


def _cmd_decode(args):
    vocab = _load(load_vocab_jsonl, args.vocab)
    grammar = None if args.unconstrained else _load(_parse_grammar_file, args.grammar)
    cfg = DecodeConfig(beam_size=args.beam, max_tokens=args.max_tokens)
    if args.url is not None:
        scorer = HttpScorer(args.url)
    else:
        corpus = _load(lambda text: _ngram_corpus(text, vocab.size), args.ngram_corpus)
        scorer = train_ngram(corpus, args.ngram_order, vocab.size)
    results = decode(scorer, grammar, vocab, cfg, conditioning=args.input or "")
    payload = [{"text": r.text, "logprob": r.logprob} for r in results]
    out_text = json.dumps(payload, indent=None)
    if args.out:
        _write(args.out, out_text + "\n")
    print(out_text)
    return 0


def _cmd_make_splits(args):
    spec = _load(lambda text: make_splits(load_dataset_jsonl(text), seed=args.seed), args.dataset)
    return _print_or_write(args, spec.to_manifest())


def _cmd_build_prompt(args):
    if args.db_values and args.context_mode not in SQL_MODES:
        raise UsageError("--db-values needs an SQL context mode")
    mode = ContextMode(args.context_mode, with_values=args.db_values)

    def examples_of(text):
        dataset = load_dataset_jsonl(text)
        pool = [render_input(ex, mode) for ex in dataset]
        scores = bm25_scores(args.target, pool)
        return [
            _for_example(ex, PromptExample, uc, ex.gold, score)
            for ex, uc, score in zip(dataset, pool, scores)
        ]

    prompt = build_prompt(
        _load(examples_of, args.dataset),
        args.target,
        order=args.order,
        budget=args.budget,
        max_examples=args.max_examples,
        seed=args.seed,
    )
    _emit(args, {"prompt": prompt.text, "n_examples": prompt.n_examples}, prompt.text)
    return 0


def _cmd_evaluate(args):
    if (args.predictions is None) != (args.dataset is None):
        raise UsageError("--predictions and --dataset go together")
    if args.aggregate and args.out is not None:
        raise UsageError("--out goes with --predictions, not --aggregate")
    if args.aggregate:
        reports = [_load(MetricReport.from_json, path) for path in args.aggregate]
        mean, std = aggregate_low(reports)
        print(json.dumps({"mean": mean, "stddev": std}))
        return 0
    check_metric(args.metric)  # a flag error names no file
    # a gold the metric cannot score names the dataset
    gold = _load(lambda text: check_golds(load_dataset_jsonl(text), args.metric), args.dataset)
    report = _load(
        lambda text: evaluate(load_predictions_jsonl(text), gold, args.metric), args.predictions
    )
    text = report.to_json()
    if args.out:
        _write(args.out, text)
    print(
        json.dumps(
            {
                "metric": report.metric,
                "accuracy": report.accuracy,
                "n": report.n,
                "parse_failures": report.parse_failures,
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


def _build_parser():
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(prog="gramdec", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = _common_flags()

    def command(name, func, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    p = command("check", _cmd_check, "test string membership in a grammar")
    p.add_argument("--grammar", required=True)
    p.add_argument("--input", required=True)

    p = command("allowed-chars", _cmd_allowed_chars, "legal next characters for a prefix")
    p.add_argument("--grammar", required=True)
    p.add_argument("--prefix", default="")

    p = command("allowed-tokens", _cmd_allowed_tokens, "legal next token ids for a prefix")
    p.add_argument("--grammar", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--prefix", default="")
    p.add_argument("--dense", action="store_true", help="also emit a dense mask")

    p = command("induce-grammar", _cmd_induce_grammar, "induce a CFG from training data")
    p.add_argument("--dataset", required=True)
    p.add_argument("--format", choices=["lispress", "mtop"], required=True)
    p.add_argument("--signatures", help="signature JSONL (lispress only)")
    p.add_argument("--root-type", help="override the root type (lispress only)")
    p.add_argument("--out")

    p = command("specialize-sql", _cmd_specialize_sql, "apply schema constraints to SQL grammar")
    p.add_argument("--grammar", help="base grammar (default: shipped SQL subset)")
    p.add_argument("--schema", required=True)
    p.add_argument("--out")

    p = command("decode", _cmd_decode, "constrained beam search")
    constraint = p.add_mutually_exclusive_group(required=True)
    constraint.add_argument("--grammar")
    constraint.add_argument("--unconstrained", action="store_true", help="decode without a grammar")
    p.add_argument("--vocab", required=True)
    scorer = p.add_mutually_exclusive_group(required=True)
    scorer.add_argument("--url", help="scorer endpoint: score with HttpScorer")
    scorer.add_argument("--ngram-corpus", help="JSONL of token-id lists: score with an n-gram model")
    p.add_argument("--ngram-order", type=int, choices=range(1, 6), default=2)
    p.add_argument("--beam", type=positive_int, default=5)
    p.add_argument("--max-tokens", type=positive_int, default=128)
    p.add_argument("--input", help="conditioning string")
    p.add_argument("--out")

    p = command("make-splits", _cmd_make_splits, "emit the benchmark split manifest")
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = command("build-prompt", _cmd_build_prompt, "BM25 retrieval + few-shot prompt")
    p.add_argument("--dataset", required=True, help="training pool JSONL")
    p.add_argument("--target", required=True, help="rendered target input")
    p.add_argument("--context-mode", choices=DIALOGUE_MODES + SQL_MODES, default="none")
    p.add_argument("--db-values", action="store_true")
    p.add_argument("--order", choices=ORDERS, default=ORDER_BEST_LAST)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--max-examples", type=non_negative_int, default=DEFAULT_MAX_EXAMPLES)
    p.add_argument("--seed", type=int, default=0)

    p = command("evaluate", _cmd_evaluate, "score predictions against gold")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--predictions")
    mode.add_argument(
        "--aggregate",
        nargs=3,
        metavar="REPORT",
        help="three report JSON files to aggregate instead",
    )
    p.add_argument("--dataset")
    p.add_argument("--metric", default="exact")
    p.add_argument("--out")

    return parser, sub.choices


def _common_flags():
    """The flags that every subcommand takes."""
    p = _Parser(add_help=False)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--config", help="JSON file of flag values; explicit flags win")
    return p


def _config_argv(command, text: str) -> list:
    """The command-line words that a --config file's JSON object stands
    for: a JSON boolean for a flag that takes no value, a string or number
    for a flag that takes one, and a list for a flag that takes several.
    Keys that name no flag of command are ignored, and so are config and
    help."""
    data = json_value(text, GramdecError, "bad config JSON")
    if not isinstance(data, dict):
        raise GramdecError("config file must hold a JSON object")
    actions = {a.dest: a for a in command._actions if a.dest not in ("config", "help")}
    argv = []
    for key, value in data.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            if type(value) is not bool:
                raise UsageError(f"config: {key} takes true or false, not {value!r}")
            if value:
                argv.append(flag)
        elif action.nargs is None:
            if type(value) not in (str, int, float):
                raise UsageError(f"config: {key} takes a string or a number, not {value!r}")
            argv.append(f"{flag}={value}")  # so a value that starts with "-" stays a value
        else:
            n = action.nargs
            if not (
                isinstance(value, list)
                and len(value) == n
                and all(type(v) in (str, int, float) for v in value)
            ):
                raise UsageError(f"config: {key} takes a list of {n} strings, not {value!r}")
            argv += [flag, *map(str, value)]
    return argv


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    try:
        # the common flags alone, so that a required flag may come from the config
        args, _ = _common_flags().parse_known_args(argv[1:])
        if args.config and argv[0] in commands:
            argv[1:1] = _load(lambda text: _config_argv(commands[argv[0]], text), args.config)
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        _fail(args, str(exc))
        return 1
    except GramdecError as exc:
        _fail(args, str(exc))
        return 2


def _fail(args, message: str):
    if args is not None and args.json:
        print(json.dumps({"error": message}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
