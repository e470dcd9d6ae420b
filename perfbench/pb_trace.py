"""In-memory span tracing around the calls into gramdec's layers.

`instrument` wraps the public functions each gramdec module exposes (and
the benchmark's stand-in scorer) from outside the library: every module
that holds a reference to a wrapped function gets the traced version, and
`uninstrument` puts the originals back. A span has a name, start, end,
parent and one integer value (mask size for `tokens.allowed_tokens`, 1 for
a live `earley.advance_char`). Spans are kept in flat arrays and written
out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# (module, attribute, span name, value of the result)
TARGETS = (
    ("gramdec.earley", "PrefixState.advance_char", "earley.advance_char", lambda r: r is not None),
    ("gramdec.earley", "init_state", "earley.init_state", None),
    ("gramdec.earley", "CompiledGrammar.__init__", "earley.compile", None),
    ("gramdec.grammar", "reduce", "grammar.reduce", None),
    ("gramdec.tokens", "allowed_tokens", "tokens.allowed_tokens", len),
    ("gramdec.tokens", "advance_token", "tokens.advance_token", None),
    ("gramdec.tokens", "build_trie", "tokens.build_trie", None),
    ("gramdec.decoder", "decode", "decoder.decode", None),
    ("gramdec.decoder", "NgramScorer.score", "decoder.scorer", None),
    ("pb_oracles", "StandInScorer.score", "decoder.scorer", None),
    ("gramdec.decoder", "train_ngram", "decoder.train_ngram", None),
    ("gramdec.induction", "type_check", "induction.type_check", None),
    ("gramdec.induction", "induce_lispress_grammar", "induction.induce", None),
    ("gramdec.induction", "induce_mtop_grammar", "induction.induce", None),
    ("gramdec.sql", "specialize_sql_grammar", "sql.specialize", None),
    ("gramdec.prompting", "bm25_rank", "prompting.bm25_rank", None),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self._stack = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int, value: int = 0):
        self.end[i] = time.perf_counter()
        self.value[i] = value
        self._stack.pop()

    def wrap(self, name: str, fn, value_of=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if stack and self.name[stack[-1]] == nid:
                return fn(*args, **kwargs)  # a recursive call stays in its span
            i = self.begin(nid)
            value = 0
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = int(value_of(result))
                return result
            finally:
                self.finish(i, value)

        return traced

    def truncate(self, n: int):
        """Drop every span from index n on."""
        for arr in (self.name, self.parent, self.start, self.end, self.value):
            del arr[n:]

    def write(self, path):
        """Gzipped CSV, one line per span; times in microseconds from the
        first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("id,name,parent,start_us,end_us,value\n")
            for i in range(len(self.name)):
                f.write(
                    f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                    f"{(self.start[i] - t0) * 1e6:.1f},{(self.end[i] - t0) * 1e6:.1f},"
                    f"{self.value[i]}\n"
                )


def instrument(tracer: Tracer):
    """Install traced wrappers; returns the list of undo steps."""
    undo = []
    holders = [m for n, m in list(sys.modules.items())
               if n.startswith(("gramdec", "pb_")) and m is not None]
    for module_name, attr, span, value_of in TARGETS:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(span, original, value_of))
            undo.append((cls, meth, original))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(span, original, value_of)
        for holder in holders:
            for key, val in list(vars(holder).items()):
                if val is original:
                    setattr(holder, key, wrapped)
                    undo.append((holder, key, original))
    return undo


def uninstrument(undo):
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def aggregate(tracer: Tracer, lo: int = 0, roots=()) -> dict:
    """Per span name over the spans from index lo on that descend from a
    root span named in `roots`: calls, total ms, self ms (total minus the
    time of child spans), sum of values, and for each parent name the number
    of calls made under it."""
    names, parent, start, end, value = tracer.names, tracer.parent, tracer.start, tracer.end, tracer.value
    hi = len(tracer.name)
    root_ids = {tracer.name_id(r) for r in roots}
    keep = bytearray(hi - lo)  # indexed by span - lo, like child_time
    child_time = array("d", bytes(8 * (hi - lo)))
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            keep[i - lo] = keep[p - lo]
            child_time[p - lo] += end[i] - start[i]
        else:
            keep[i - lo] = p < 0 and tracer.name[i] in root_ids
    out = {}
    for i in range(lo, hi):
        if not keep[i - lo]:
            continue
        rec = out.get(names[tracer.name[i]])
        if rec is None:
            rec = out[names[tracer.name[i]]] = {
                "calls": 0, "ms": 0.0, "self_ms": 0.0, "value": 0, "under": {}}
        dur = end[i] - start[i]
        rec["calls"] += 1
        rec["ms"] += dur * 1e3
        rec["self_ms"] += (dur - child_time[i - lo]) * 1e3
        rec["value"] += value[i]
        p = parent[i]
        if p >= 0:
            pname = names[tracer.name[p]]
            rec["under"][pname] = rec["under"].get(pname, 0) + 1
    return out
