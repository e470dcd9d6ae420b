"""Chart engine for character-incremental Earley recognition.

This module is the hot kernel and the only one that knows the table format
and the column layout: `compile_tables` builds the tables, `initial_state`
and `advance` build columns, and the recognizer's state is a column. The
characters a column scans are one `CharMask`, which
`PrefixState.allowed_next_chars` builds and `classify`'s walks filter trie
children with.

Data layout
-----------
A grammar is compiled by `compile_tables` into a `Tables`. Its
nonterminals are numbered in grammar order, and one more, accept, takes
the next free id: its one production `accept -> start` augments the
grammar, as in textbook Earley and LR parsing, and is laid out last, so
its end slot is `len(syms) - 1`.

    syms        : list[sym | None] every production laid out in grammar
                                   order, one slot per rhs symbol and then
                                   a None end slot; sym is an int
                                   nonterminal id, or a scan (chars,
                                   negated, 1) that scans exactly one
                                   character c when (c in chars) !=
                                   negated. A terminal "abc" is one scan
                                   per character and the epsilon terminal
                                   takes no slot, so `S -> ""` is a single
                                   None
    scans       : list[scan | None] the scan read at each position: syms[pos]
                                   at a scan slot, (chars, negated, 0) at a
                                   loop slot (below), None elsewhere
    lhs_at      : list[int]        lhs nonterminal id of the production
                                   that owns each position
    starts      : list[list[int]]  first position of each production, per
                                   nonterminal id
    uses        : list[list[int]]  per nonterminal id, the position after
                                   each slot of `syms` that holds it
    nullable    : list[bool]       per nonterminal id
    start       : int              accept's id
    predictions : dict             the grammar's prediction sets (below),
                                   filled on first use: a nonterminal id
                                   keys the set of that one nonterminal, a
                                   frozenset of ids the set of several

A position numbers one dotted rule: the dot sits before `syms[pos]`, and
moving it over that symbol is `pos + 1`; scanning a character there moves
it to `pos + step`, step being the scan's last field. An item is a tuple
(pos, origin), origin being the earlier column the item started in.

A nonterminal A is loop-shaped when it has exactly
two productions, `A -> C A` for one scan pair C (a class or a
one-character terminal) and either `A -> ""` or `A -> C`: the literals of
the shipped grammars (SQL strings, identifiers and digits, Lispress
strings and numbers, MTOP text) all have one of these shapes. Laid out
as productions, each character of such a literal would predict a new A
and complete a chain as long as the literal. Instead, A's own
productions are not laid out, so starts[A] is empty, and each use of A is
one loop slot, after a scan slot of C for `A -> C`. A loop slot holds A's
id in `syms` and C's pair with step 0 in `scans`, so its scan leaves the
dot where it is: the slot stands for any run of C. nullable[A] is True,
so the dot also skips the slot in zero span as it moves over any nullable
nonterminal, in `_predict` and `_close`, and chained where loop slots
follow each other. Nothing completes A, so what waits on A is never read.
A loop-shaped start is one such use, in `accept -> start`, so a grammar
that is a single literal scans in place as well.
Two items can scan to one at a loop slot, the slot's own item and one at
a scan slot before it with the same characters (such as the plain C of
`A -> C`), so `_close` drops a repeated scanned item.

A column is the closed items after one character prefix: a `PrefixState`,
which is also the recognizer's state after that prefix. Besides its
grammar's `tables` it holds:

    items : list[(pos, origin)]  its own items, the scanned ones and those
                                 completed from them; origin is always an
                                 older column
    waits : dict[int, list]      nonterminal id -> the own items whose dot
                                 is before it, moved over it as (pos + 1,
                                 origin); its keys are what it predicts
    pred  : Predictions          the items it predicted, which started in
                                 the column itself

The predicted items depend only on which nonterminals the own items
predict, so a grammar closes each such set once and its columns share the
result. A Predictions holds only positions, each of them standing for the
item (pos, the column that holds the set):

    scan_at   : tuple[int]               the predicted items whose dot is
                                         before a scan or a loop slot, read
                                         from `scans` when the next
                                         character is scanned
    waits     : dict[int, tuple[int]]    nonterminal id -> the positions
                                         after it, one per predicted item
                                         whose dot is before it

Columns that predict nothing share one empty set and one empty waits. An
end slot's item (pos, origin) completes with what origin's two waits hold
for `lhs_at[pos]`.

The empty prefix's column is built as every other one is: by closing
its one seed item, accept's first position, whose origin is the root, an
item-less stand-in that nothing waits in. Nothing uses accept, so every
item of accept's production has the root as its origin, and a prefix is
a member of the language exactly when its column owns the item at
accept's end slot.

A column refers only to older columns through its own items' origins,
never to itself (but for `classify`'s universal stand-in, below, while
the call lasts), and neither the tables nor any Predictions refers to a
column: earlier columns stay reachable through origins and are freed by
reference counting once nothing points at them. Columns are frozen once
closed, so forked prefixes are branch-safe by construction, and advancing
builds one new item list without copying any.

A closed column is a function of its tables and its items, so `advance`
returns the column itself when the new items equal its own. Inside a
literal, where each character scans the item at a loop slot to itself and
closes to the same items, a character therefore keeps one state object
and costs the same at any depth of the literal.

`advance` scans a string's characters in turn and builds a column only
where it completes, predicts or ends the string. A column whose items all
sit at scan slots is bare: no item is at an end slot or before a
nonterminal, so it completes, waits on and predicts nothing, and is closed
as it stands. Only a column's predictions start items in it, and a bare
one has none, so no later item has it as origin: it stays an item list
until the next character scans it. Bare columns are the inside of a
multi-character terminal, such as `SELECT` or `[IN:GET_WEATHER`, so a
token builds a column per completion or prediction it passes and one at
its end, not one per character.

Token splits
------------
`classify` splits a token trie against one scan position p without the
chart of any state; the token layer caches its result per (grammar, trie,
p). The context p's production started in is unknown, so it is a stand-in
origin column with no items, and the walk starts from a column holding the
one item (p, stand-in). Each trie edge is one `advance` of the column at
its parent node, taken only for a character in that column's CharMask, and
only towards a node with children, since an edge that scans reaches a
non-empty column. A token is accepted if advancing over all its characters
leaves a non-empty column: wherever an item (p, origin) is on a frontier,
the state's chart holds that column's items with origin for the stand-in.
An end slot whose origin is the stand-in completes p's production into
the stand-in, which has no items to complete; what may follow depends on
the chart, so the walk escapes there.

What may follow is judged against a universal stand-in, whose waits map
every nonterminal A to the item (q + 1, universal) for every q with
syms[q] == A: a completion into it continues into every use of A, and
through the uses at the ends of productions into every use of their
lhs, at any depth. Every chart's continuation of p's production is
therefore among the universal one's, so a token that dies there dies in
every chart. Walking from (p, universal) would repeat the plain walk up
to each escape, and a column is the union of what its items derive, so
the walk restarts at each node where the plain walk escaped instead:
from the column of the items (q + 1, universal) for the uses of
lhs_at[p], over the characters below that node. The column after a given
suffix is the same below every such node, so each is advanced once per
call. A token that is not accepted is context-dependent if one of these
walks survives its characters, and rejected at p otherwise, so pruning
moves tokens from dependent to rejected and never into accepted. The
universal column is the one column that refers to itself: it is built per
call and its waits are emptied before `classify` returns.

The walks are as deep as the longest token and the chart dedups their
items, so left recursion and long literals need no bound. The stand-ins
own no item, as the root does, and nothing asks whether a column of a
walk is complete.
"""

from ..grammar import CHARCLASS, NONTERMINAL, TERMINAL, Symbol, nullable_set


class CharMask:
    """Set of legal next characters: `positive` when `excluded` is None,
    else the cofinite set of every character outside `excluded`.

    A cofinite mask is normalised once, to no positive characters and
    `excluded - positive`, so equal masks have equal fields.
    """

    __slots__ = ("positive", "excluded")

    def __init__(self, positive, excluded=None):
        positive = frozenset(positive)  # no copy of a frozenset
        if excluded is None:
            self.positive, self.excluded = positive, None
        else:
            self.positive, self.excluded = frozenset(), frozenset(excluded) - positive

    def __contains__(self, c) -> bool:
        if self.excluded is None:
            return c in self.positive
        return c not in self.excluded

    @property
    def is_finite(self) -> bool:
        return self.excluded is None

    def as_set(self) -> frozenset:
        if not self.is_finite:
            raise ValueError("character mask is cofinite, not enumerable")
        return self.positive

    def __iter__(self):
        return iter(sorted(self.as_set()))

    def __eq__(self, other):
        if isinstance(other, CharMask):
            return self.positive == other.positive and self.excluded == other.excluded
        if isinstance(other, (set, frozenset)):
            return self.is_finite and self.positive == frozenset(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.positive, self.excluded))

    def __repr__(self):
        if self.is_finite:
            return f"CharMask({sorted(self.positive)!r})"
        return f"CharMask([], excluded={sorted(self.excluded)!r})"


class Predictions:
    """The closed predicted items of a set of nonterminals (see Data
    layout)."""

    __slots__ = ("scan_at", "waits")

    def __init__(self, scan_at, waits):
        self.scan_at = scan_at
        self.waits = waits


NO_PREDICTIONS = Predictions((), {})
NO_WAITS = {}  # the waits of every column with no item waiting; never mutated


class Tables:
    """A compiled grammar (see Data layout). Weakly referable, so a cache
    can key on a grammar's tables and go with them."""

    __slots__ = (
        "syms", "scans", "lhs_at", "starts", "uses", "nullable", "start", "predictions",
        "__weakref__",
    )

    def __init__(self, syms, scans, lhs_at, starts, uses, nullable, start):
        self.syms = syms
        self.scans = scans
        self.lhs_at = lhs_at
        self.starts = starts
        self.uses = uses
        self.nullable = nullable
        self.start = start
        self.predictions = {}


def _pair(sym):
    """The (chars, negated) pair that a class or a one-character terminal
    scans, or None for any other symbol."""
    if sym.kind == CHARCLASS:
        return sym.chars, sym.negated
    if sym.kind == TERMINAL and len(sym.text) == 1:
        return frozenset(sym.text), False
    return None


def _loops(grammar):
    """The loop-shaped nonterminals (see Data layout): name -> (the pair C
    of `A -> C A`, whether the other production is `A -> C`)."""
    rhss = {}
    for p in grammar.productions:
        rhss.setdefault(p.lhs, []).append(p.rhs)
    loops = {}
    for name, two in rhss.items():
        if len(two) != 2:
            continue
        for loop, other in (two, two[::-1]):
            if len(loop) != 2 or loop[1] != Symbol.nt(name) or len(other) != 1:
                continue
            pair = _pair(loop[0])
            if pair is not None and other[0] == Symbol.t(""):
                loops[name] = pair, False
            elif pair is not None and _pair(other[0]) == pair:
                loops[name] = pair, True
    return loops


def compile_tables(grammar) -> Tables:
    """The tables of a grammar, with nonterminals numbered in
    `grammar.nonterminals` order and the accept production `accept ->
    start` laid out last, its lhs the next free id."""
    names = grammar.nonterminals
    nt_ids = {name: i for i, name in enumerate(names)}
    accept = len(names)
    loops = _loops(grammar)
    rules = [(nt_ids[p.lhs], p.rhs) for p in grammar.productions if p.lhs not in loops]
    rules.append((accept, (Symbol.nt(grammar.start),)))
    syms = []
    scans = []
    lhs_at = []
    starts = [[] for _ in range(accept + 1)]
    uses = [[] for _ in range(accept + 1)]
    interned = {}  # one tuple per distinct scan: compiled tables are cached
    for lhs, rhs in rules:  # a loop's own productions are never reached
        starts[lhs].append(len(syms))
        for sym in rhs:
            if sym.kind == NONTERMINAL:
                loop, once = loops.get(sym.name, (None, False))
                pairs = [loop] if once else []
            elif sym.kind == TERMINAL:
                pairs = [(frozenset(c), False) for c in sym.text]
            else:
                pairs = [(sym.chars, sym.negated)]
            for chars, negated in pairs:
                scan = (chars, negated, 1)
                syms.append(interned.setdefault(scan, scan))
                scans.append(syms[-1])
            if sym.kind == NONTERMINAL:
                if loop is None:
                    scans.append(None)
                else:  # a loop slot: its scan leaves the dot where it is
                    scan = (*loop, 0)
                    scans.append(interned.setdefault(scan, scan))
                syms.append(nt_ids[sym.name])
                uses[syms[-1]].append(len(syms))
        syms.append(None)
        scans.append(None)
        lhs_at.extend([lhs] * (len(syms) - len(lhs_at)))
    nullable_names = nullable_set(grammar)
    # a loop slot stands for any run of its C, so it is skipped as a
    # nullable nonterminal is
    nullable = [name in nullable_names or name in loops for name in names]
    nullable.append(grammar.start in nullable_names)  # accept's
    return Tables(syms, scans, lhs_at, starts, uses, nullable, accept)


def _predict(tables, key):
    """The Predictions of the nonterminals `key` names, closed under
    predict and the nullable advance, and cached in the tables."""
    syms, scans, starts, nullable = tables.syms, tables.scans, tables.starts, tables.nullable
    predicted = {key} if type(key) is int else set(key)
    positions = []
    for nt in predicted:
        positions.extend(starts[nt])
    seen = set(positions)
    scan_at = []
    waits = {}
    for pos in positions:  # grows as the closure adds positions
        sym = syms[pos]
        if scans[pos] is not None:
            scan_at.append(pos)
        if type(sym) is int:  # a nonterminal, or a loop slot's
            waits.setdefault(sym, []).append(pos + 1)
            if sym not in predicted:
                predicted.add(sym)
                for p in starts[sym]:
                    if p not in seen:
                        seen.add(p)
                        positions.append(p)
            # Zero-span completions: the predicted nonterminal derives ""
            # here, so the dot moves over it at once.
            if nullable[sym] and pos + 1 not in seen:
                seen.add(pos + 1)
                positions.append(pos + 1)
    pred = Predictions(
        tuple(scan_at), {nt: tuple(after) for nt, after in waits.items()}
    )
    tables.predictions[key] = pred
    return pred


def _close(tables, items):
    """Close a new column's own items under complete and the nullable
    advance, extending the list in place; returns the column's waits and
    Predictions."""
    syms, lhs_at, nullable = tables.syms, tables.lhs_at, tables.nullable
    seen = set(items)
    if len(seen) < len(items):
        # Two scanned items met at a loop slot: the slot's own item and
        # one at a scan slot before it with the same characters.
        items[:] = dict.fromkeys(items)
    waits = {}
    for pos, origin in items:  # grows as the closure adds items
        sym = syms[pos]
        if sym is None:
            lhs = lhs_at[pos]
            for new in origin.waits.get(lhs, ()):
                if new not in seen:
                    seen.add(new)
                    items.append(new)
            pred_waits = origin.pred.waits
            if pred_waits:  # most columns predict nothing: skip the lookup
                for p2 in pred_waits.get(lhs, ()):
                    new = (p2, origin)
                    if new not in seen:
                        seen.add(new)
                        items.append(new)
        elif type(sym) is int:
            new = (pos + 1, origin)
            waits.setdefault(sym, []).append(new)
            if nullable[sym] and new not in seen:
                seen.add(new)
                items.append(new)
    if not waits:
        return NO_WAITS, NO_PREDICTIONS
    key = next(iter(waits)) if len(waits) == 1 else frozenset(waits)
    pred = tables.predictions.get(key)
    if pred is None:
        pred = _predict(tables, key)
    return waits, pred


class PrefixState:
    """Earley recognizer state after consuming a character prefix: the
    frontier column of the chart (see Data layout). States are values:
    advancing returns a new state, or the state itself when the character
    leaves its items as they were (inside a literal), and never mutates
    one, so beam-search branches can fork freely. States are weakly
    referable."""

    __slots__ = ("tables", "items", "waits", "pred", "__weakref__")

    def __init__(self, tables, items, waits=NO_WAITS, pred=NO_PREDICTIONS):
        self.tables = tables
        self.items = items
        self.waits = waits
        self.pred = pred

    def advance_char(self, c: str) -> "PrefixState | None":
        """New state after one character, or None if the prefix dies."""
        if len(c) != 1:
            raise ValueError("advance_char takes exactly one character")
        return advance(self, c)[0]

    def advance_string(self, s: str) -> "tuple[PrefixState | None, int]":
        """Advance over each character; returns (state or None, chars consumed)."""
        return advance(self, s)

    def allowed_next_chars(self) -> CharMask:
        """Legal next characters, read off the frontier's scans: the
        characters of the positive ones and every character outside some
        negated one."""
        scans = self.tables.scans
        positive, negated = [], []
        for pos, _ in self.items:
            scan = scans[pos]
            if scan is not None:
                (negated if scan[1] else positive).append(scan[0])
        for pos in self.pred.scan_at:
            chars, neg, _ = scans[pos]
            (negated if neg else positive).append(chars)
        excluded = frozenset.intersection(*negated) if negated else None
        return CharMask(frozenset().union(*positive), excluded)

    def is_complete(self) -> bool:
        """Whether the consumed prefix is a full member of the language:
        whether the column owns an item at the accept production's end."""
        end = len(self.tables.syms) - 1
        for pos, _ in self.items:
            if pos == end:
                return True
        return False


def initial_state(tables) -> PrefixState:
    """The empty prefix's column: the closure of the accept production's
    first item, whose origin is the item-less root stand-in."""
    items = [(tables.starts[tables.start][0], PrefixState(tables, []))]
    return PrefixState(tables, items, *_close(tables, items))


def advance(column, text):
    """Scan the characters of `text` in turn; returns (the column after
    them, or None once a character dies, the characters consumed). The
    column returned is `column` itself when its new items equal its own.

    Only a column that completes, predicts or ends `text` is built: a
    bare one, whose items all sit at scan slots, stays an item list
    between characters, since it is never an origin (see Data layout).
    The items of `column` are never mutated; the new items point at
    `column` and earlier columns through their origins.
    """
    tables = column.tables
    syms, scans = tables.syms, tables.scans
    items, scan_at = column.items, column.pred.scan_at
    n = left = len(text)
    for ch in text:
        left -= 1
        new = []
        # Distinct frontier items scan to distinct items, but at a loop slot.
        for pos, origin in items:
            scan = scans[pos]
            if scan is not None and (ch in scan[0]) != scan[1]:
                new.append((pos + scan[2], origin))
        for pos in scan_at:
            chars, negated, step = scans[pos]
            if (ch in chars) != negated:
                new.append((pos + step, column))
        if not new:
            return None, n - left - 1
        for pos, _ in new:
            if type(syms[pos]) is not tuple:  # it completes or predicts
                break
        else:  # a bare column: closed as it stands, and never an origin
            if left:
                items, scan_at = new, ()
                continue
            # not `column`'s items: each moved on from them or started in it
            return PrefixState(tables, new), n
        waits, pred = _close(tables, new)
        if new != column.items:  # a column is a function of its items
            column = PrefixState(tables, new, waits, pred)
        items, scan_at = new, pred.scan_at
    return column, n


def scan_positions(column):
    """The distinct positions of the column's items whose dot is before a
    scan or a loop slot: the positions its next character is scanned at."""
    scans = column.tables.scans
    out = {pos for pos, _ in column.items if scans[pos] is not None}
    scan_at = column.pred.scan_at
    if scan_at:
        out.update(scan_at)
    return out


def _scanned(node, mask):
    """The (character, child) pairs of a trie node whose character is in
    the CharMask `mask`."""
    children = node.children
    if mask.excluded is None:
        scanned = children.keys() & mask.positive
    else:
        scanned = children.keys() - mask.excluded
    return [(ch, children[ch]) for ch in scanned]


def classify(tables, pos, root):
    """Split a token trie against scan position `pos` (see Token splits):
    returns (accepted, dependent), two frozensets of token ids.

    `root` is the trie's root node; a node has `children`, a dict from
    character to node, and `token_ids`, the ids spelled by its path.
    """
    context = PrefixState(tables, [])
    escape = (tables.syms.index(None, pos), context)  # completes into the stand-in
    accepted = set()
    escapes = []  # the nodes with children where the walk escaped
    walk = [(root, PrefixState(tables, [(pos, context)]))]
    while walk:
        node, column = walk.pop()
        for ch, child in _scanned(node, column.allowed_next_chars()):
            accepted.update(child.token_ids)
            if child.children:
                advanced = advance(column, ch)[0]
                if escape in advanced.items:
                    escapes.append(child)
                walk.append((child, advanced))
    after = tables.uses[tables.lhs_at[pos]]
    if not escapes or not after:  # no escape, or nothing may follow p's lhs
        return frozenset(accepted), frozenset()
    universal = PrefixState(tables, [])
    universal.waits = {
        nt: [(q, universal) for q in positions] for nt, positions in enumerate(tables.uses)
    }
    try:
        items = [(q, universal) for q in after]
        survivors = _survivors(escapes, PrefixState(tables, items, *_close(tables, items)))
    finally:
        universal.waits = NO_WAITS  # it referred to itself
    return frozenset(accepted), frozenset(survivors - accepted)


def _survivors(escapes, column):
    """The ids of the tokens spelled below the trie nodes `escapes` whose
    characters after such a node advance `column` to the end."""
    survivors = set()
    # The column after a suffix is the same below every escape node.
    reached = {"": (column, column.allowed_next_chars())}
    for node in escapes:
        walk = [(node, "")]
        while walk:
            node, suffix = walk.pop()
            column, mask = reached[suffix]
            for ch, child in _scanned(node, mask):
                survivors.update(child.token_ids)
                if child.children:
                    longer = suffix + ch
                    if longer not in reached:
                        advanced = advance(column, ch)[0]
                        reached[longer] = advanced, advanced.allowed_next_chars()
                    walk.append((child, longer))
    return survivors
