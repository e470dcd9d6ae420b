#!/usr/bin/env python3
"""Layered decode benchmark for gramdec.

Runs one workload in this interpreter, a closed loop with one client over a
fixed request list made from --seed. Each request has a forced phase (the
gold tokens fed one by one through allowed_tokens and advance_token, as an
external language model would) and a decode phase (one decode() call with
the workload's scorer). Whole rounds of the request list repeat until
--seconds have passed and at least 200 mask steps are timed. Outputs are checked against the oracles in
pb_oracles; the last line of standard output is a JSON object with the
counts of requests attempted and failed and the metrics.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from spans taken around gramdec's public functions. The result line
and the spans are also written to perfbench/out/.

Usage:
    python3 perfbench/run.py --workload sql_schema --seed 1 --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sql_schema", "lispress_literal", "mtop_prompted")

SETUP_REPS = 5  # before the first request; one more follows every request
WARMUP_REQUESTS = 2
ORACLE_STEPS = 4  # forced steps per run checked against the trial-advance oracle
MIN_MASK_SAMPLES = 200  # p95 needs at least ten samples beyond it


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)) - 1))]


class Stats:
    def __init__(self):
        self.mask_s = []
        self.request_s = []
        self.decode_s = 0.0
        self.out_tokens = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []


def run_request(w, ctx, i, stats, oracle_steps=(), tracer=None):
    # Imported per call, so that a traced run calls the wrapped functions.
    from gramdec.earley import init_state
    from gramdec.errors import GramdecError
    from gramdec.tokens import advance_token, allowed_tokens
    from pb_oracles import trial_mask

    stats.attempted += 1
    trie = ctx["trie"]
    eos = w.vocab.eos_id
    clock = time.perf_counter
    root = None
    try:
        state = init_state(w.grammar(ctx, i))
        root = tracer.begin(tracer.name_id("bench.forced")) if tracer else None
        for k, tid in enumerate(w.golds[i]):
            t0 = clock()
            mask = allowed_tokens(state, trie)
            t1 = clock()
            if tid not in mask:
                stats.errors.append(f"request {i} step {k}: gold token {tid} not in mask")
            if w.eos_only_at_end and eos in mask:
                stats.errors.append(f"request {i} step {k}: eos before the gold's end")
            if (i, k) in oracle_steps and mask != trial_mask(state, w.vocab.entries, eos):
                stats.errors.append(f"request {i} step {k}: mask differs from trial advance")
            t2 = clock()
            state = advance_token(state, trie, tid)
            stats.mask_s.append(t1 - t0 + clock() - t2)
        if eos not in allowed_tokens(state, trie):
            stats.errors.append(f"request {i}: eos not allowed at the gold's end")
        if tracer:
            tracer.finish(root)
            root = tracer.begin(tracer.name_id("bench.decode"))
        t0 = clock()
        results = w.decode(ctx, i)
        elapsed = clock() - t0
        if tracer:
            tracer.finish(root)
    except GramdecError as exc:
        if tracer and root is not None:
            tracer.finish(root)
        stats.failed += 1
        stats.errors.append(f"request {i} failed: {exc!r}")
        return
    stats.request_s.append(elapsed)
    stats.decode_s += elapsed
    stats.out_tokens += len(results[0].tokens)
    stats.errors.extend(f"request {i}: {e}" for e in w.check_decode(ctx, i, results))


@contextlib.contextmanager
def collector_off():
    """Collect, then keep the cyclic collector off, so that timings leave
    out its pauses, as timeit's do."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def work_s(stats):
    """Timed request work so far: mask steps plus decode calls."""
    return sum(stats.mask_s) + stats.decode_s


def run_round(w, ctx, stats, oracle_steps=(), tracer=None, setup_s=None):
    """One pass over the request list. With `setup_s`, a timed set-up
    follows each request, so set-up samples span the run as requests do."""
    for i in range(len(w.requests)):
        run_request(w, ctx, i, stats, oracle_steps, tracer)
        if setup_s is not None:
            timed_setup(w, setup_s)


def timed_setup(w, times):
    t0 = time.perf_counter()
    ctx = w.setup()
    times.append(time.perf_counter() - t0)
    return ctx


def oracle_sample(w, seed):
    steps = [(i, k) for i, g in enumerate(w.golds) for k in range(len(g))]
    return set(random.Random(seed).sample(steps, ORACLE_STEPS))


def end_to_end(w, args):
    setup_times = []
    for _ in range(SETUP_REPS):
        ctx = timed_setup(w, setup_times)
    warm = Stats()
    for i in range(WARMUP_REQUESTS):
        run_request(w, ctx, i, warm)
    stats = Stats()
    stats.errors = warm.errors
    oracle_steps = oracle_sample(w, args.seed)
    start = time.perf_counter()
    rounds = 0
    while (rounds == 0 or time.perf_counter() - start < args.seconds
           or len(stats.mask_s) < MIN_MASK_SAMPLES):
        with collector_off():
            run_round(w, ctx, stats, oracle_steps if rounds == 0 else (), setup_s=setup_times)
        rounds += 1
    ms = 1e3
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "requests_per_s": (len(stats.request_s) / stats.decode_s, "1/s"),
        "request_p50_ms": (statistics.median(stats.request_s) * ms, "ms"),
        "ms_per_token": (stats.decode_s * ms / stats.out_tokens, "ms"),
        "mask_p50_ms": (statistics.median(stats.mask_s) * ms, "ms"),
        "mask_p95_ms": (percentile(stats.mask_s, 95) * ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"# {rounds} rounds of {len(w.requests)} requests, {len(stats.mask_s)} mask steps, "
          f"{len(setup_times)} set-ups")
    return stats, metrics


def per_layer(w, args):
    from pb_trace import Tracer, aggregate, instrument, uninstrument

    tracer = Tracer()
    w.setup()  # untraced, so that the traced set-up is not the first
    undo = instrument(tracer)
    root = tracer.begin(tracer.name_id("bench.setup"))
    ctx = w.setup()
    tracer.finish(root)
    uninstrument(undo)
    setup = aggregate(tracer, roots={"bench.setup"})

    warm = Stats()
    for i in range(WARMUP_REQUESTS):
        run_request(w, ctx, i, warm)
    stats = Stats()
    stats.errors = warm.errors
    with collector_off():
        run_round(w, ctx, stats, oracle_sample(w, args.seed))
    plain_s = work_s(stats)

    undo = instrument(tracer)
    scorer = w.scorer
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        lo = len(tracer.name)
        after_best = scorer.calls_after_best if scorer else 0
        tokens = stats.out_tokens
        before = work_s(stats)
        with collector_off():
            run_round(w, ctx, stats, tracer=tracer)
        agg = aggregate(tracer, lo, roots={"bench.forced", "bench.decode"})
        agg["work_s"] = work_s(stats) - before
        agg["after_best"] = (scorer.calls_after_best if scorer else 0) - after_best
        agg["tokens"] = stats.out_tokens - tokens
        rounds.append(agg)
        if len(rounds) > 1:
            tracer.truncate(lo)  # keep set-up and the first traced round
    uninstrument(undo)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace_{w.name}_seed{args.seed}.csv.gz")

    counts = [{k: v["calls"] for k, v in r.items() if isinstance(v, dict)} for r in rounds]
    if any(c != counts[0] for c in counts):
        stats.errors.append("span counts differ between identical rounds")

    def calls(name, r=rounds[0]):
        return r.get(name, {}).get("calls", 0)

    def mean(name, field):
        return statistics.fmean(r.get(name, {}).get(field, 0.0) for r in rounds)

    def under(name, parent):
        return rounds[0].get(name, {}).get("under", {}).get(parent, 0)

    def setup_ms(name):
        return setup.get(name, {}).get("ms", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    r0 = rounds[0]
    adv = r0.get("earley.advance_char", {})
    masks = r0.get("tokens.allowed_tokens", {})
    decode_scorer_calls = under("decoder.scorer", "decoder.decode")
    metrics = {
        "earley.advance_char.calls": (calls("earley.advance_char"), "count"),
        "earley.advance_char.ms": (mean("earley.advance_char", "ms"), "ms"),
        "earley.advance_char.live_ratio": (ratio(adv.get("value", 0), adv.get("calls", 0)), "ratio"),
        "earley.init_state.calls": (calls("earley.init_state"), "count"),
        "earley.compile.calls": (calls("earley.compile"), "count"),
        "earley.compile.ms": (mean("earley.compile", "ms"), "ms"),
        "grammar.reduce.calls": (calls("grammar.reduce"), "count"),
        "grammar.reduce.ms": (mean("grammar.reduce", "ms"), "ms"),
        "tokens.allowed_tokens.calls": (calls("tokens.allowed_tokens"), "count"),
        "tokens.allowed_tokens.ms": (mean("tokens.allowed_tokens", "ms"), "ms"),
        "tokens.allowed_tokens.self_ms": (mean("tokens.allowed_tokens", "self_ms"), "ms"),
        "tokens.edges_per_mask": (
            ratio(under("earley.advance_char", "tokens.allowed_tokens"), masks.get("calls", 0)), "count"),
        "tokens.mask_size_mean": (ratio(masks.get("value", 0), masks.get("calls", 0)), "tokens"),
        "tokens.advance_token.ms": (mean("tokens.advance_token", "ms"), "ms"),
        "tokens.build_trie.ms": (setup_ms("tokens.build_trie"), "ms"),
        "decoder.decode.self_ms": (mean("decoder.decode", "self_ms"), "ms"),
        "decoder.scorer.calls": (decode_scorer_calls, "count"),
        "decoder.scorer.ms": (mean("decoder.scorer", "ms"), "ms"),
        "decoder.hyps_per_token": (ratio(decode_scorer_calls, r0["tokens"]), "ratio"),
        "decoder.calls_after_best": (r0["after_best"], "count"),
        "decoder.train_ngram.ms": (mean("decoder.train_ngram", "ms"), "ms"),
        "induction.type_check.ms": (setup_ms("induction.type_check"), "ms"),
        "induction.induce.ms": (setup_ms("induction.induce"), "ms"),
        "sql.specialize.ms": (setup_ms("sql.specialize"), "ms"),
        "prompting.bm25_rank.calls": (calls("prompting.bm25_rank"), "count"),
        "prompting.bm25_rank.ms": (mean("prompting.bm25_rank", "ms"), "ms"),
        "trace.overhead_pct": (
            (statistics.fmean(r["work_s"] for r in rounds) / plain_s - 1) * 100, "%"),
    }
    print(f"# {len(rounds)} traced rounds of {len(w.requests)} requests; spans in {OUT}")
    return stats, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0, help="input seed")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measure whole rounds until this many seconds have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run instead of end-to-end ones")
    args = ap.parse_args(argv)

    if not (SRC / "gramdec" / "__init__.py").is_file():
        print(f"error: gramdec sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gramdec.engine

    from pb_workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed)
    errors = w.check_inputs()
    print(f"# {w.name} seed {args.seed}: kernel {gramdec.engine.kernel.__file__}")
    stats, metrics = (per_layer if args.trace else end_to_end)(w, args)
    errors += stats.errors
    for e in errors[:20]:
        print(f"# CHECK FAILED: {e}")
    result = {
        "correct": not errors,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{w.name}_seed{args.seed}_trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
