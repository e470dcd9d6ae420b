"""Seeded input generators for the three decode workloads.

Every generator takes a seed and returns plain data; nothing here calls
into gramdec. The make-up of each request list is fixed (the same query
templates, literal lengths and intents under every seed) and the seed only
picks the contents, so that figures from different seeds measure the same
mix of work. No value depends on Python's per-process string hash.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PRINTABLE = [chr(c) for c in range(32, 127)]


def greedy_tokenize(text: str, token_ids: dict, max_len: int) -> list:
    """Longest-match tokenization against a {string: id} table.

    Every single printable character is in each workload's vocabulary, so
    this never gets stuck.
    """
    out = []
    i = 0
    while i < len(text):
        for j in range(min(len(text), i + max_len), i, -1):
            tid = token_ids.get(text[i:j])
            if tid is not None:
                out.append(tid)
                i = j
                break
        else:
            raise ValueError(f"no token covers {text[i]!r}")
    return out


@dataclass
class VocabSpec:
    """Token strings with eos as the empty string, plus a lookup table."""

    entries: list
    eos_id: int

    def __post_init__(self):
        self.ids = {t: i for i, t in enumerate(self.entries) if i != self.eos_id}
        self.max_len = max(len(t) for t in self.entries)

    def tokenize(self, text: str) -> list:
        return greedy_tokenize(text, self.ids, self.max_len)


def _dedupe(tokens):
    seen = set()
    out = []
    for t in tokens:
        if t and t not in seen:
            seen.add(t)
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# sql_schema: Spider-style schemas and gold queries

SQL_SCHEMAS = 24
SQL_REQUESTS = 24
SQL_BEAM = 4
SQL_MAX_TOKENS = 31

_TABLES = [
    "singer", "concert", "stadium", "student", "course", "teacher", "airport",
    "flight", "employee", "department", "museum", "visitor", "car", "maker",
    "country", "city", "book", "author", "club", "member", "ship", "captain",
    "film", "actor", "school", "player", "team", "league", "hotel", "guest",
    "album", "track", "store", "product", "customer", "invoice", "doctor",
    "patient", "river", "mountain",
]
_NUM_COLS = [
    "age", "year", "price", "capacity", "rating", "salary", "budget",
    "height", "weight", "score", "population", "duration",
]
_TEXT_COLS = ["title", "city", "venue", "genre", "status", "email", "color"]
_SQL_KEYWORDS = [
    "SELECT", "FROM", "WHERE", "GROUP BY", "HAVING", "ORDER BY", "LIMIT",
    "JOIN", "ON", "AND", "OR", "NOT", "LIKE", "IN", "AS", "DESC", "ASC",
    "DISTINCT", "BETWEEN", "IS", "NULL", "UNION", "EXCEPT", "EXISTS",
    "count", "sum", "avg", "min", "max",
]
_SQL_PUNCT = [", ", " = ", " > ", " < ", " >= ", " <= ", " != ", "(*)", " (", "'%", "%'"]


@dataclass
class SqlTable:
    name: str
    columns: list  # (name, "int" | "text")


@dataclass
class SqlRequest:
    schema: int
    template: str
    gold: str


def sql_schemas(rng: random.Random):
    """Schemas of three (even index) or four (odd index) tables; table i>0
    has a foreign key `<table i-1>_id` so that every schema holds a join
    chain."""
    schemas = []
    for k in range(SQL_SCHEMAS):
        names = rng.sample(_TABLES, 3 + k % 2)
        tables = []
        for i, name in enumerate(names):
            cols = [(f"{name}_id", "int"), ("name", "text")]
            cols += [(c, "int") for c in rng.sample(_NUM_COLS, 2)]
            cols.append((rng.choice(_TEXT_COLS), "text"))
            if i:
                cols.append((f"{names[i - 1]}_id", "int"))
            tables.append(SqlTable(name, cols))
        schemas.append(tables)
    return schemas


def _cols(table, kind):
    return [c for c, k in table.columns if k == kind and c != "name" and not c.endswith("_id")]


def _sql_query(template: str, tables, rng: random.Random) -> str:
    i = rng.randrange(1, len(tables))
    t, p = tables[i], tables[i - 1]
    tn, pn = t.name, p.name
    num = rng.choice(_cols(t, "int"))
    txt = rng.choice(_cols(t, "text"))
    pnum = rng.choice(_cols(p, "int"))
    ptxt = rng.choice(_cols(p, "text"))
    n = rng.randint(1, 99)
    s = "".join(rng.choice("abcdefghijklmnoprstuvw") for _ in range(3))
    if template == "filter_order":
        return (
            f"SELECT DISTINCT {txt}, {num} FROM {tn} WHERE {num} > {n} AND {txt} = '{s}' "
            f"ORDER BY {num} DESC LIMIT {rng.randint(10, 99)}"
        )
    if template == "join":
        return (
            f"SELECT {tn}.name, {pn}.{ptxt} FROM {tn} JOIN {pn} "
            f"ON {tn}.{pn}_id = {pn}.{pn}_id WHERE {pn}.{pnum} >= {n}"
        )
    if template == "group_having":
        return (
            f"SELECT {txt}, count(*), max({num}) FROM {tn} WHERE {txt} != '{s}' "
            f"GROUP BY {txt} HAVING count(*) > {rng.randint(1, 9)}"
        )
    if template == "nested_in":
        return (
            f"SELECT name, {num} FROM {tn} WHERE {num} > {rng.randint(10, 99)} AND {pn}_id IN "
            f"(SELECT {pn}_id FROM {pn} WHERE {pnum} < {n}) ORDER BY {num} DESC"
        )
    if template == "like":
        return (
            f"SELECT name, {num}, {txt} FROM {tn} WHERE name LIKE '%{s}%' "
            f"AND {num} > {n} ORDER BY {txt} ASC LIMIT {rng.randint(1, 9)}"
        )
    if template == "scalar_subquery":
        return (
            f"SELECT name, {txt} FROM {tn} WHERE {num} > "
            f"(SELECT avg({num}) FROM {tn} WHERE {txt} != '{s}')"
        )
    if template == "join_group":
        return (
            f"SELECT {pn}.name, count(*) FROM {tn} JOIN {pn} "
            f"ON {tn}.{pn}_id = {pn}.{pn}_id GROUP BY {pn}.name "
            f"HAVING count(*) >= {n}"
        )
    if template == "between_like":
        a = rng.randint(1, 50)
        return (
            f"SELECT DISTINCT {txt} FROM {tn} WHERE {num} BETWEEN {a} AND "
            f"{a + rng.randint(1, 49)} AND {txt} NOT LIKE '{s}%' ORDER BY {txt} DESC"
        )
    raise ValueError(template)


SQL_TEMPLATES = (
    "filter_order", "join", "group_having", "nested_in",
    "like", "scalar_subquery", "join_group", "between_like",
)


def sql_vocab() -> VocabSpec:
    """Word-level: SQL keywords and every identifier a schema may use, each
    bare and with a leading space, a few punctuation runs, and every
    printable character. The same under every seed."""
    words = _SQL_KEYWORDS + _TABLES + [t + "_id" for t in _TABLES] + ["name"]
    words += _NUM_COLS + _TEXT_COLS
    tokens = _dedupe([w for word in words for w in (word, " " + word)] + _SQL_PUNCT + PRINTABLE)
    return VocabSpec(tokens + [""], eos_id=len(tokens))


def sql_inputs(seed: int):
    """(schemas, vocab, requests): three requests per template, seeded order."""
    rng = random.Random(seed)
    schemas = sql_schemas(rng)
    templates = list(SQL_TEMPLATES) * (SQL_REQUESTS // len(SQL_TEMPLATES))
    rng.shuffle(templates)
    requests = []
    for template in templates:
        k = rng.randrange(len(schemas))
        requests.append(SqlRequest(k, template, _sql_query(template, schemas[k], rng)))
    return schemas, sql_vocab(), requests


# ---------------------------------------------------------------------------
# lispress_literal: SMCalFlow-style typed programs

LISPRESS_TRAIN = 120
LISPRESS_VOCAB = 2000
LISPRESS_MAX_TOKENS = 96
# One request per (subject length, extra constraints): a fixed make-up with
# a long tail, so the per-character growth of the chart inside a literal
# shows. Subjects are four-letter words joined by spaces, so a subject of
# 5k - 1 characters is exactly k tokens under every seed. The middle shape
# comes three times, so the median request is one of three of equal cost.
LISPRESS_REQUESTS = (
    (4, ("duration",)),
    (9, ("duration",)),
    (14, ("start",)),
    (14, ("start",)),
    (14, ("start",)),
    (19, ("start",)),
    (24, ("duration", "start")),
)

LISPRESS_SIGNATURES = (
    ("Yield", ("Event",), "Unit"),
    ("CreateEvent", ("Spec",), "Event"),
    ("FindEvent", ("Spec",), "Event"),
    ("&", ("Spec", "Spec"), "Spec"),
    ("Event.subject_?", ("StrC",), "Spec"),
    ("Event.location_?", ("StrC",), "Spec"),
    ("Event.attendees_?", ("PersonC",), "Spec"),
    ("Event.start_?", ("DateC",), "Spec"),
    ("Event.duration_?", ("Number",), "Spec"),
    ("?=", ("String",), "StrC"),
    ("?~=", ("String",), "StrC"),
    ("PersonName.apply", ("String",), "PersonC"),
    ("DateAtTime", ("Date", "Number"), "DateC"),
    ("Tomorrow", (), "Date"),
    ("Today", (), "Date"),
    ("NextWeek", (), "Date"),
)
# Literal classes in the textual grammar format; the string class is
# right-recursive, as induced literal classes are.
LISPRESS_LITERALS = (
    ("String", 'String -> "\\"" C "\\""\nC -> [^"] | [^"] C'),
    ("Number", 'Number -> D "L"\nD -> [0-9] | [0-9] D'),
)

_SYLLABLES = [
    "ka", "ro", "me", "ti", "su", "lan", "bor", "ex", "qui", "ven", "do", "ra",
    "pel", "mon", "st", "th", "ch", "ou", "ie", "ar", "ne", "lo", "vi", "sa",
]
_WORDS = [
    "lunch", "team", "sync", "review", "budget", "planning", "coffee", "with",
    "bob", "alice", "design", "weekly", "standup", "offsite", "demo", "retro",
    "dinner", "call", "interview", "project", "launch", "party", "doctor",
    "gym", "yoga", "client", "meeting", "board", "hiring", "report", "quarter",
    "room", "office", "cafe", "park", "hall", "north", "lab", "garden", "west",
]
_SUBJECT_WORDS = [
    "team", "sync", "demo", "call", "yoga", "park", "hall", "room", "west",
    "east", "plan", "book", "chat", "date", "game", "gala", "tour", "talk",
    "food", "walk", "wine", "jazz", "golf", "swim",
]
_PEOPLE = ["dave", "erin", "ivan", "judy", "paul", "nora", "omar", "lena", "kurt", "maya"]


def lispress_signature_records():
    """Signature table records in the JSONL shape gramdec loads."""
    recs = [{"symbol": s, "args": list(a), "result": r} for s, a, r in LISPRESS_SIGNATURES]
    recs += [{"literal": t, "class": c} for t, c in LISPRESS_LITERALS]
    return recs


def _q(text: str) -> str:
    return '"' + text + '"'


def _subject(rng: random.Random, length: int) -> str:
    return " ".join(rng.choice(_SUBJECT_WORDS) for _ in range((length + 1) // 5))


def _lispress_spec(rng: random.Random, subject_len: int, extras) -> str:
    parts = [f"(Event.subject_? ({rng.choice(('?=', '?~='))} {_q(_subject(rng, subject_len))}))"]
    for kind in extras:
        if kind == "location":
            parts.append(f"(Event.location_? (?= {_q(_subject(rng, 9))}))")
        elif kind == "attendees":
            parts.append(f"(Event.attendees_? (PersonName.apply {_q(rng.choice(_PEOPLE))}))")
        elif kind == "start":
            day = rng.choice(("Tomorrow", "Today", "NextWeek"))
            parts.append(f"(Event.start_? (DateAtTime ({day}) {rng.randint(10, 18)}L))")
        else:
            parts.append(f"(Event.duration_? {rng.randint(15, 90)}L)")
    spec = parts[-1]
    for part in reversed(parts[:-1]):
        spec = f"(& {part} {spec})"
    return spec


def lispress_program(rng: random.Random, subject_len: int, extras) -> str:
    verb = rng.choice(("CreateEvent", "FindEvent"))
    return f"(Yield ({verb} {_lispress_spec(rng, subject_len, extras)}))"


def lispress_vocab(rng: random.Random) -> VocabSpec:
    """BPE-like: printable characters, operator heads, words and capitalized
    words with and without a leading space, then seeded syllable merges."""
    tokens = list(PRINTABLE)
    for sym, _, _ in LISPRESS_SIGNATURES:
        tokens += [f"({sym}", f" ({sym}", f"({sym})", f" ({sym})"]
    tokens += ["))", ")))", "))))", ' "', '")', "L)", "L))"]
    for w in _WORDS + _SUBJECT_WORDS + _PEOPLE:
        tokens += [w, " " + w, w.capitalize(), " " + w.capitalize()]
    tokens = _dedupe(tokens)
    seen = set(tokens)
    while len(tokens) < LISPRESS_VOCAB - 1:
        w = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        for t in (w, " " + w):
            if t not in seen and len(tokens) < LISPRESS_VOCAB - 1:
                seen.add(t)
                tokens.append(t)
    return VocabSpec(tokens + [""], eos_id=len(tokens))


def lispress_inputs(seed: int):
    """(signature records, training programs, vocab, gold programs).

    Training programs cover every operator, so each gold program is in the
    induced grammar's language."""
    rng = random.Random(seed)
    kinds = ("location", "attendees", "start", "duration")
    # Fixed shapes: subject of 1 to 6 words, the first i % 5 of a rotation
    # of the extra kinds.
    train = [
        lispress_program(rng, 5 * (1 + i % 6) - 1, (kinds[i % 4:] + kinds[:i % 4])[: i % 5])
        for i in range(LISPRESS_TRAIN)
    ]
    vocab = lispress_vocab(rng)
    shapes = list(LISPRESS_REQUESTS)
    rng.shuffle(shapes)
    requests = [lispress_program(rng, n, extras) for n, extras in shapes]
    return lispress_signature_records(), train, vocab, requests


# ---------------------------------------------------------------------------
# mtop_prompted: TOP-style intent/slot trees

MTOP_TRAIN = 240
MTOP_REQUESTS = 36
MTOP_RETRIEVED = 8
MTOP_ORDER = 4
MTOP_MAX_TOKENS = 64

_SLOT_VALUES = {  # every value of a slot has the same number of words
    "LOCATION": ["new york", "the office", "san diego", "hong kong", "las vegas", "my home"],
    "DATE_TIME": ["at noon", "on friday", "next week", "this evening", "at midnight", "on monday"],
    "TODO": ["buy some milk", "call the bank", "water the plants", "pay the rent", "book the flights"],
    "CONTACT": ["my mom", "my boss", "the team", "aunt alice", "uncle dave"],
    "MESSAGE": ["running late today", "see you soon", "call me back", "on my way"],
    "MUSIC_GENRE": ["smooth jazz", "classic rock", "lo fi", "hip hop", "deep house"],
    "MUSIC_ARTIST": ["miles davis", "daft punk", "pink floyd", "the beatles"],
    "DESTINATION": ["the airport", "main street", "the gym", "city hall"],
    "METHOD": ["by car", "on foot", "by bus", "by train"],
}
# (intent, parts): a part is plain words or a ("SLOT",) filled from
# _SLOT_VALUES. Trees are flat, as gramdec's parse_mtop rejects an intent
# inside a slot.
_MTOP_TEMPLATES = (
    ("GET_WEATHER", ["what is the weather", ("LOCATION",), ("DATE_TIME",)]),
    ("GET_WEATHER", ["will it rain", ("DATE_TIME",)]),
    ("SET_ALARM", ["set an alarm", ("DATE_TIME",)]),
    ("CREATE_REMINDER", ["remind me to", ("TODO",), ("DATE_TIME",)]),
    ("SEND_MESSAGE", ["text", ("CONTACT",), "that", ("MESSAGE",)]),
    ("SEND_MESSAGE", ["tell", ("CONTACT",), ("MESSAGE",)]),
    ("PLAY_MUSIC", ["play some", ("MUSIC_GENRE",)]),
    ("PLAY_MUSIC", ["play", ("MUSIC_ARTIST",), "songs"]),
    ("GET_DIRECTIONS", ["how do i get to", ("DESTINATION",), ("METHOD",)]),
    ("CREATE_CALL", ["call", ("CONTACT",)]),
    ("GET_EVENT", ["what is on my calendar", ("DATE_TIME",)]),
    ("CREATE_EVENT", ["schedule lunch with", ("CONTACT",), ("DATE_TIME",)]),
)
_MTOP_FILLER = ["please", "hey", "can you", "now", "quickly"]


@dataclass
class MtopExample:
    utterance: str
    tree: str


def _mtop_render(rng: random.Random, intent: str, parts) -> tuple:
    """(bracketed tree, utterance words) for one template."""
    children = []
    words = []
    for part in parts:
        if isinstance(part, str):
            children.append(part)
            words.append(part)
        else:
            value = rng.choice(_SLOT_VALUES[part[0]])
            children.append(f"[SL:{part[0]} {value}]")
            words.append(value)
    return f"[IN:{intent} " + " ".join(children) + "]", " ".join(words)


def mtop_example(rng: random.Random, template) -> MtopExample:
    tree, words = _mtop_render(rng, *template)
    if rng.random() < 0.5:
        words = rng.choice(_MTOP_FILLER) + " " + words
    return MtopExample(words, tree)


def mtop_vocab() -> VocabSpec:
    """eos first and the closing bracket next: with ties broken by token id,
    a scorer that has no evidence prefers to finish the output."""
    labels = []
    for intent, parts in _MTOP_TEMPLATES:
        labels.append(f"[IN:{intent}")
        for part in parts:
            if not isinstance(part, str):
                labels += [f"[SL:{part[0]}", f" [SL:{part[0]}"]
    words = []
    for _, parts in _MTOP_TEMPLATES:
        words += [w for part in parts if isinstance(part, str) for w in part.split()]
    for values in _SLOT_VALUES.values():
        words += [w for v in values for w in v.split()]
    tokens = _dedupe(["]", " "] + labels + [" " + w for w in words] + words + PRINTABLE)
    return VocabSpec([""] + tokens, eos_id=0)


def mtop_inputs(seed: int):
    """(training examples, vocab, requests). Training holds every template
    twenty times and the requests three times."""
    rng = random.Random(seed)
    train = [mtop_example(rng, t) for t in _MTOP_TEMPLATES * (MTOP_TRAIN // len(_MTOP_TEMPLATES))]
    rng.shuffle(train)
    requests = [mtop_example(rng, t) for t in _MTOP_TEMPLATES * (MTOP_REQUESTS // len(_MTOP_TEMPLATES))]
    rng.shuffle(requests)
    return train, mtop_vocab(), requests
