"""Chart engine for character-incremental Earley recognition.

This module is the hot kernel and the only one that knows the table format:
`compile_tables` builds it and the column functions read it.

Data layout
-----------
A grammar is compiled by `compile_tables` into a tables tuple:

    (syms, lhs_at, starts, nullable, start)

    syms     : list[sym | None]    every production laid out in grammar
                                   order, one slot per rhs symbol and then
                                   a None end slot; sym is an int
                                   nonterminal id, or a (chars, negated)
                                   pair that scans exactly one character c
                                   when (c in chars) != negated. A terminal
                                   "abc" is one pair per character and the
                                   epsilon terminal takes no slot, so
                                   `S -> ""` is a single None
    lhs_at   : list[int]           lhs nonterminal id of the production
                                   that owns each position
    starts   : list[list[int]]     first position of each production, per
                                   nonterminal id
    nullable : list[bool]          per nonterminal id
    start    : int                 start nonterminal id

A position numbers one dotted rule: the dot sits before `syms[pos]`, and
moving it over that symbol is `pos + 1`. A column is any object with an
`items` attribute, the closed items after one character prefix; the
recognizer's prefix states are its columns. The column functions read
columns and return new item lists for the caller to wrap. An item is a
tuple (pos, origin): origin is the earlier column the item started in, or
None when it started in the column that holds it. So a column refers only
to older columns, never to itself: earlier columns stay reachable through
origins and are freed by reference counting once nothing points at them.
Item lists are frozen once closed, so forked prefixes are branch-safe by
construction, and advancing builds one new item list without copying any.

Token splits
------------
`classify` splits a token trie against one scan position p without the
chart of any state; the token layer caches its result per (grammar, trie,
p). The context p's production started in is unknown, so it is a stand-in
origin column with no items, and the walk starts from a column holding the
one item (p, stand-in). Each trie edge is one `advance` of the column at
its parent node. A token is accepted if advancing over all its characters
leaves a non-empty column: wherever an item (p, origin) is on a frontier,
the state's chart holds that column's items with origin for the stand-in.
An end slot whose origin is the stand-in completes p's production into
the stand-in, which has no items to complete; what may follow depends on
the chart, so the walk escapes there. A token that is not accepted is
context-dependent if its walk escaped on the way, and rejected at p
otherwise. The walk is as deep as the longest token and the chart dedups
its items, so left recursion and long literals need no bound.
"""

from ..grammar import NONTERMINAL, TERMINAL, nullable_set


def compile_tables(grammar):
    """The tables tuple of a grammar, with nonterminals numbered in
    `grammar.nonterminals` order."""
    names = grammar.nonterminals
    nt_ids = {name: i for i, name in enumerate(names)}
    syms = []
    lhs_at = []
    starts = [[] for _ in names]
    pairs = {}  # one tuple per distinct scan pair: compiled tables are cached
    for p in grammar.productions:
        lhs = nt_ids[p.lhs]
        starts[lhs].append(len(syms))
        for sym in p.rhs:
            if sym.kind == NONTERMINAL:
                syms.append(nt_ids[sym.name])
                continue
            if sym.kind == TERMINAL:
                scans = [(frozenset(c), False) for c in sym.text]
            else:
                scans = [(sym.chars, sym.negated)]
            syms.extend(pairs.setdefault(s, s) for s in scans)
        syms.append(None)
        lhs_at.extend([lhs] * (len(syms) - len(lhs_at)))
    nullable_names = nullable_set(grammar)
    nullable = [name in nullable_names for name in names]
    return (syms, lhs_at, starts, nullable, nt_ids[grammar.start])


def _close(tables, items):
    """Close a new column's item list under predict and complete
    (nullable-aware); returns the list, extended in place."""
    syms, lhs_at, starts, nullable, _ = tables
    seen = set(items)
    i = 0
    while i < len(items):
        pos, origin = items[i]
        i += 1
        sym = syms[pos]
        if sym is None:
            # Zero-span completions are covered by the nullable prediction
            # fix below; firing them here would miss late-added parents.
            if origin is None:
                continue
            lhs = lhs_at[pos]
            for p2, o2 in origin.items:
                if syms[p2] == lhs:
                    new = (p2 + 1, o2 or origin)
                    if new not in seen:
                        seen.add(new)
                        items.append(new)
        elif type(sym) is int:
            for p in starts[sym]:
                new = (p, None)
                if new not in seen:
                    seen.add(new)
                    items.append(new)
            if nullable[sym]:
                new = (pos + 1, origin)
                if new not in seen:
                    seen.add(new)
                    items.append(new)
    return items


def initial_items(tables):
    """Items of the empty prefix: predicted closure of the start productions."""
    starts, start = tables[2], tables[4]
    return _close(tables, [(p, None) for p in starts[start]])


def advance(tables, column, ch):
    """Scan one character; returns the closed items of the column after
    it, or None on reject.

    The items of `column` are never mutated. The new items point at
    `column` and earlier columns through their origins, so the caller's
    object for the new column must not be `column` itself.
    """
    syms = tables[0]
    items = []
    for pos, origin in column.items:
        sym = syms[pos]
        if type(sym) is tuple and (ch in sym[0]) != sym[1]:
            # Distinct frontier items scan to distinct items.
            items.append((pos + 1, origin or column))
    if not items:
        return None
    return _close(tables, items)


def accepted(tables, initial, column):
    """Whether the prefix that ends at `column` is a full member of the
    language whose empty-prefix column is `initial`."""
    syms, lhs_at, _, _, start = tables
    for pos, origin in column.items:
        if syms[pos] is None and lhs_at[pos] == start:
            if (origin or column) is initial:
                return True
    return False


def next_chars(tables, column):
    """Legal next characters, read off the frontier's scan symbols.

    Returns (positive, negated_classes): a set of explicitly allowed
    characters plus the excluded-char sets of any negated classes at the
    dot (each of which allows every character outside it).
    """
    syms = tables[0]
    positive = set()
    negated = []
    for pos, _ in column.items:
        sym = syms[pos]
        if type(sym) is tuple:
            if sym[1]:
                negated.append(sym[0])
            else:
                positive.update(sym[0])
    return positive, negated


def scan_positions(tables, column):
    """The distinct positions of the column's items whose dot is before a
    scan pair: the positions its next character is scanned at."""
    syms = tables[0]
    return {pos for pos, _ in column.items if type(syms[pos]) is tuple}


class _Column:
    """A column that is not a recognizer state: classify's stand-in
    origin and the columns of its walk."""

    __slots__ = ("items",)

    def __init__(self, items):
        self.items = items


def classify(tables, pos, root):
    """Split a token trie against scan position `pos` (see Token splits):
    returns (accepted, dependent), two frozensets of token ids.

    `root` is the trie's root node; a node has `children`, a dict from
    character to node, and `token_ids`, the ids spelled by its path.
    """
    syms = tables[0]
    context = _Column([])
    accepted = set()
    dependent = set()
    walk = [(root, _Column([(pos, context)]), False)]
    while walk:
        node, column, below_escape = walk.pop()
        for ch, child in node.children.items():
            items = advance(tables, column, ch)
            if items is None:
                continue
            accepted.update(child.token_ids)
            if not child.children:
                continue
            escaped = not below_escape and any(
                origin is context and syms[p] is None for p, origin in items
            )
            if escaped:
                subtree = [child]
                while subtree:
                    n = subtree.pop()
                    dependent.update(n.token_ids)
                    subtree.extend(n.children.values())
            walk.append((child, _Column(items), below_escape or escaped))
    return frozenset(accepted), frozenset(dependent - accepted)
