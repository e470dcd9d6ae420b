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
`classify` splits a token trie against one scan position p without a
chart; the token layer caches its result per (grammar, trie, p). It walks
the trie following `syms` from p: a nonterminal pushes its return position
on a local stack and predicts the nonterminal's productions, and a None
end slot pops that stack. A None slot with the stack empty means p's own
production has ended; the walk escapes there, since what may follow
depends on the chart. A token is accepted if some local path scans all its
characters: wherever an item (p, origin) is on a frontier, the chart has
that path too. A token that is not accepted is context-dependent if its
path escaped on the way, and rejected at p otherwise. Two bounds keep the
walk finite, a stack-depth cap and a guard against re-predicting a
nonterminal that waits on the stack with nothing scanned since; each
counts as an escape, so a bound only ever makes tokens context-dependent,
never accepts or rejects them.
"""

from ..grammar import NONTERMINAL, TERMINAL, nullable_set

# classify's stack-depth cap, one of its two bounds.
MAX_DEPTH = 64


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


def classify(tables, pos, root):
    """Split a token trie against scan position `pos` (see Token splits):
    returns (accepted, dependent), two frozensets of token ids.

    `root` is the trie's root node; a node has `children`, a dict from
    character to node, and `token_ids`, the ids spelled by its path.
    """
    syms, starts = tables[0], tables[2]
    # Local return stacks are interned frames: frame f > 0 returns to
    # ret[f] and then continues with frame up[f]; frame 0 is the empty
    # stack.
    ret, up, depth = [None], [0], [0]
    frame_of = {}

    def close(moved):
        """The frames of each scan position reachable from the configs
        (position, frame) in `moved` without scanning, and whether an
        escape or a bound was met."""
        out = {}
        escaped = False
        seen = set(moved)
        # `fresh` names the nonterminals whose frames were pushed since the
        # last scan, innermost last.
        todo = [(p, f, ()) for p, f in moved]
        while todo:
            p, f, fresh = todo.pop()
            sym = syms[p]
            if type(sym) is tuple:
                out.setdefault(p, []).append(f)
                continue
            if sym is None:
                if not f:
                    escaped = True
                    continue
                nxt = [(ret[f], up[f], fresh[:-1])]
            elif sym in fresh or depth[f] == MAX_DEPTH:
                escaped = True
                continue
            else:
                g = frame_of.get((p + 1, f))
                if g is None:
                    g = frame_of[p + 1, f] = len(ret)
                    ret.append(p + 1)
                    up.append(f)
                    depth.append(depth[f] + 1)
                fresh += (sym,)
                nxt = [(s, g, fresh) for s in starts[sym]]
            for item in nxt:
                if item[:2] not in seen:
                    seen.add(item[:2])
                    todo.append(item)
        return out, escaped

    accepted = set()
    dependent = set()
    walk = [(root, {pos: [0]}, False)]
    while walk:
        node, configs, below_escape = walk.pop()
        children = node.children
        moves = {}  # character -> configs that scan it
        for p, frames in configs.items():
            chars, negated = syms[p]
            if negated or len(chars) > len(children):
                scanned = [ch for ch in children if (ch in chars) != negated]
            else:
                scanned = [ch for ch in chars if ch in children]
            for ch in scanned:
                moves.setdefault(ch, []).extend([(p + 1, f) for f in frames])
        for ch, moved in moves.items():
            child = children[ch]
            accepted.update(child.token_ids)
            if not child.children:
                continue
            configs_after, escaped = close(moved)
            if escaped and not below_escape:
                subtree = [child]
                while subtree:
                    n = subtree.pop()
                    dependent.update(n.token_ids)
                    subtree.extend(n.children.values())
            if configs_after:
                walk.append((child, configs_after, below_escape or escaped))
    return frozenset(accepted), frozenset(dependent - accepted)
