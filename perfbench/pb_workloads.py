"""The three workloads: inputs, the program's set-up, and per-request work.

Each workload object holds its generated inputs and gold token ids.
`setup()` is the program's work before the first request and returns the
prepared context. `grammar` and `decode` give the run loop what it needs for
the forced and decode phases of one request, and `check_decode` compares a
decode with the oracles in pb_oracles.
"""

from __future__ import annotations

from gramdec.decoder import DecodeConfig, decode, train_ngram
from gramdec.induction import (
    SignatureTable,
    induce_lispress_grammar,
    induce_mtop_grammar,
    parse_mtop,
    type_check,
)
from gramdec.lispress import parse_sexp
from gramdec.prompting import bm25_rank
from gramdec.sql import DbColumn, DbSchema, DbTable, load_base_sql_grammar, specialize_sql_grammar
from gramdec.tokens import Vocabulary, build_trie

import pb_inputs
from pb_oracles import MtopChecker, StandInScorer, ngram_logprob, sqlite_error, stand_in_logprob

TOLERANCE = 1e-9


class Workload:
    name = ""
    beam = 1
    max_tokens = 0
    # Bracketed languages: no proper prefix of a gold output is complete,
    # so eos must be missing from every mask before the gold's end.
    eos_only_at_end = True
    scorer = None  # the stand-in, on the workloads that decode with it

    def __init__(self, vocab: pb_inputs.VocabSpec, requests):
        self.vocab = Vocabulary(vocab.entries, vocab.eos_id)
        self.requests = requests
        self.golds = [tuple(vocab.tokenize(self.gold_text(r))) for r in requests]
        self.config = DecodeConfig(beam_size=self.beam, max_tokens=self.max_tokens)
        longest = max(len(g) for g in self.golds)
        if longest >= self.max_tokens:
            raise ValueError(f"{self.name}: gold of {longest} tokens exceeds max_tokens")

    def gold_text(self, req) -> str:
        return req

    def check_inputs(self):
        """Errors found in the generated inputs themselves."""
        return []

    def setup(self):
        raise NotImplementedError

    def grammar(self, ctx, i):
        return ctx["grammar"]

    def decode(self, ctx, i):
        raise NotImplementedError

    def check_decode(self, ctx, i, results):
        """Error messages for one decode; empty when it is correct."""
        raise NotImplementedError



class StandInWorkload(Workload):
    """Decodes with the stand-in scorer, so the best decode is the gold."""

    def __init__(self, seed: int, vocab, requests):
        super().__init__(vocab, requests)
        self.scorer = StandInScorer(self.vocab.size, seed)

    def decode(self, ctx, i):
        self.scorer.golds[str(i)] = self.golds[i] + (self.vocab.eos_id,)
        return decode(self.scorer, self.grammar(ctx, i), self.vocab, self.config,
                      conditioning=str(i), trie=ctx["trie"])

    def check_decode(self, ctx, i, results):
        errors = []
        gold = self.golds[i] + (self.vocab.eos_id,)
        if results[0].text != self.gold_text(self.requests[i]):
            errors.append(f"best decode {results[0].text!r} is not the gold")
        for r in results:
            want = stand_in_logprob(self.scorer, gold, r.tokens)
            if abs(r.logprob - want) > TOLERANCE:
                errors.append(f"log-score {r.logprob} != recomputed {want}")
        return errors


class SqlSchema(StandInWorkload):
    name = "sql_schema"
    beam = pb_inputs.SQL_BEAM
    max_tokens = pb_inputs.SQL_MAX_TOKENS
    eos_only_at_end = False

    def __init__(self, seed: int):
        self.schemas, vocab, requests = pb_inputs.sql_inputs(seed)
        self.db_schemas = [
            DbSchema([DbTable(t.name, [DbColumn(c) for c, _ in t.columns]) for t in tables])
            for tables in self.schemas
        ]
        super().__init__(seed, vocab, requests)

    def gold_text(self, req):
        return req.gold

    def check_inputs(self):
        errors = []
        for req in self.requests:
            err = sqlite_error(self.schemas[req.schema], req.gold)
            if err:
                errors.append(f"SQLite rejects {req.gold!r}: {err}")
        return errors

    def setup(self):
        base = load_base_sql_grammar()
        grammars = [specialize_sql_grammar(base, s) for s in self.db_schemas]
        return {"grammars": grammars, "trie": build_trie(self.vocab)}

    def grammar(self, ctx, i):
        return ctx["grammars"][self.requests[i].schema]


class LispressLiteral(StandInWorkload):
    name = "lispress_literal"
    beam = 1
    max_tokens = pb_inputs.LISPRESS_MAX_TOKENS

    def __init__(self, seed: int):
        self.records, self.train, vocab, requests = pb_inputs.lispress_inputs(seed)
        super().__init__(seed, vocab, requests)

    def setup(self):
        sigs = SignatureTable()
        for rec in self.records:
            if "symbol" in rec:
                sigs.add_signature(rec["symbol"], rec["args"], rec["result"])
            else:
                sigs.add_literal(rec["literal"], rec["class"])
        typed = [type_check(parse_sexp(p), sigs) for p in self.train]
        grammar = induce_lispress_grammar(typed, sigs)
        return {"grammar": grammar, "trie": build_trie(self.vocab)}


class MtopPrompted(Workload):
    name = "mtop_prompted"
    beam = 1
    max_tokens = pb_inputs.MTOP_MAX_TOKENS

    def __init__(self, seed: int):
        self.train, vocab, requests = pb_inputs.mtop_inputs(seed)
        super().__init__(vocab, requests)
        self.pool = [ex.utterance for ex in self.train]
        eos = vocab.eos_id
        self.train_tokens = [vocab.tokenize(ex.tree) + [eos] for ex in self.train]
        self.checker = MtopChecker([ex.tree for ex in self.train])
        self.retrieved = {}

    def gold_text(self, req):
        return req.tree

    def check_inputs(self):
        return [f"checker rejects gold {r.tree!r}" for r in self.requests
                if not self.checker.accepts(r.tree)]

    def setup(self):
        trees = [parse_mtop(ex.tree) for ex in self.train]
        return {"grammar": induce_mtop_grammar(trees), "trie": build_trie(self.vocab)}

    def decode(self, ctx, i):
        ranked = bm25_rank(self.requests[i].utterance, self.pool)
        corpus = [self.train_tokens[j] for j in ranked[: pb_inputs.MTOP_RETRIEVED]]
        self.retrieved[i] = corpus
        scorer = train_ngram(corpus, pb_inputs.MTOP_ORDER, vocab_size=self.vocab.size)
        return decode(scorer, ctx["grammar"], self.vocab, self.config,
                      conditioning=self.requests[i].utterance, trie=ctx["trie"])

    def check_decode(self, ctx, i, results):
        errors = []
        for r in results:
            if not self.checker.accepts(r.text):
                errors.append(f"checker rejects output {r.text!r}")
            want = ngram_logprob(self.retrieved[i], pb_inputs.MTOP_ORDER, self.vocab.size, r.tokens)
            if abs(r.logprob - want) > TOLERANCE:
                errors.append(f"log-score {r.logprob} != recomputed {want}")
        return errors


WORKLOADS = {w.name: w for w in (SqlSchema, LispressLiteral, MtopPrompted)}
