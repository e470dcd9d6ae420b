"""Chart engine for character-incremental Earley recognition.

This module is the hot kernel and the only one that knows the integer-coded
table format: `compile_tables` builds it and the chart functions read it.

Data layout
-----------
A grammar is compiled by `compile_tables` into a tables tuple:

    (prods_lhs, prods_rhs, by_lhs, nullable, start)

    prods_lhs : list[int]            lhs nonterminal id per production
    prods_rhs : list[list[sym]]      sym is (0, nt_id) for a nonterminal,
                                     (1, text) for a nonempty terminal, or
                                     (2, negated, frozenset) for a charclass;
                                     epsilon productions have an empty rhs
    by_lhs    : list[list[int]]      production indices per nonterminal id
    nullable  : list[bool]           per nonterminal id
    start     : int                  start nonterminal id

An item is a tuple (prod, dot, origin, toff) where toff counts characters
already matched inside the terminal at the dot. A column is a pair
(items_list, items_set); a chart is a list of columns, one per consumed
character plus column zero. Columns are frozen once built: advancing shares
the earlier columns and appends a fresh one, which makes forked states
branch-safe by construction.
"""

from ..grammar import CHARCLASS, NONTERMINAL, TERMINAL, nullable_set


def compile_tables(grammar):
    """The tables tuple of a grammar, with nonterminals numbered in
    `grammar.nonterminals` order."""
    names = grammar.nonterminals
    nt_ids = {name: i for i, name in enumerate(names)}
    prods_lhs = []
    prods_rhs = []
    by_lhs = [[] for _ in names]
    for p in grammar.productions:
        rhs = []
        for sym in p.rhs:
            if sym.kind == NONTERMINAL:
                rhs.append((0, nt_ids[sym.name]))
            elif sym.kind == TERMINAL:
                if sym.text:
                    rhs.append((1, sym.text))
                # "" is epsilon: encoded as an empty rhs
            elif sym.kind == CHARCLASS:
                rhs.append((2, sym.negated, sym.chars))
        by_lhs[nt_ids[p.lhs]].append(len(prods_lhs))
        prods_lhs.append(nt_ids[p.lhs])
        prods_rhs.append(rhs)
    nullable_names = nullable_set(grammar)
    nullable = [name in nullable_names for name in names]
    return (prods_lhs, prods_rhs, by_lhs, nullable, nt_ids[grammar.start])


def _close(tables, columns, col_index):
    """Close the newest column under predict and complete (nullable-aware)."""
    prods_lhs = tables[0]
    prods_rhs = tables[1]
    by_lhs = tables[2]
    nullable = tables[3]
    items, seen = columns[col_index]
    i = 0
    while i < len(items):
        item = items[i]
        i += 1
        if item[3]:
            continue  # mid-terminal items only participate in scanning
        prod = item[0]
        dot = item[1]
        origin = item[2]
        rhs = prods_rhs[prod]
        if dot == len(rhs):
            # Zero-span completions are covered by the nullable prediction
            # fix below; firing them here would miss late-added parents.
            if origin == col_index:
                continue
            lhs = prods_lhs[prod]
            for parent in columns[origin][0]:
                if parent[3]:
                    continue
                rhs2 = prods_rhs[parent[0]]
                d2 = parent[1]
                if d2 < len(rhs2):
                    sym = rhs2[d2]
                    if sym[0] == 0 and sym[1] == lhs:
                        new = (parent[0], d2 + 1, parent[2], 0)
                        if new not in seen:
                            seen.add(new)
                            items.append(new)
        else:
            sym = rhs[dot]
            if sym[0] == 0:
                n = sym[1]
                for p in by_lhs[n]:
                    new = (p, 0, col_index, 0)
                    if new not in seen:
                        seen.add(new)
                        items.append(new)
                if nullable[n]:
                    new = (prod, dot + 1, origin, 0)
                    if new not in seen:
                        seen.add(new)
                        items.append(new)


def initial_chart(tables):
    """Column zero: predicted closure of the start productions."""
    items = []
    seen = set()
    for p in tables[2][tables[4]]:
        item = (p, 0, 0, 0)
        seen.add(item)
        items.append(item)
    columns = [(items, seen)]
    _close(tables, columns, 0)
    return columns


def advance(tables, columns, ch):
    """Scan one character; returns the extended chart or None on reject.

    The input chart is never mutated: the result shares all existing
    columns and appends one new closed column.
    """
    prods_rhs = tables[1]
    frontier = columns[len(columns) - 1][0]
    items = []
    seen = set()
    for item in frontier:
        prod = item[0]
        dot = item[1]
        rhs = prods_rhs[prod]
        if dot >= len(rhs):
            continue
        sym = rhs[dot]
        kind = sym[0]
        if kind == 1:
            text = sym[1]
            toff = item[3]
            if text[toff] == ch:
                if toff + 1 == len(text):
                    new = (prod, dot + 1, item[2], 0)
                else:
                    new = (prod, dot, item[2], toff + 1)
                if new not in seen:
                    seen.add(new)
                    items.append(new)
        elif kind == 2:
            if (ch in sym[2]) != sym[1]:
                new = (prod, dot + 1, item[2], 0)
                if new not in seen:
                    seen.add(new)
                    items.append(new)
    if not items:
        return None
    new_columns = list(columns)
    new_columns.append((items, seen))
    _close(tables, new_columns, len(new_columns) - 1)
    return new_columns


def accepted(tables, columns):
    """Whether the consumed prefix is a full member of the language."""
    prods_lhs = tables[0]
    prods_rhs = tables[1]
    start = tables[4]
    for item in columns[len(columns) - 1][0]:
        if (
            item[3] == 0
            and item[2] == 0
            and prods_lhs[item[0]] == start
            and item[1] == len(prods_rhs[item[0]])
        ):
            return True
    return False


def next_chars(tables, columns):
    """Legal next characters, read off the frontier's dotted terminals.

    Returns (positive, negated_classes): a set of explicitly allowed
    characters plus the excluded-char sets of any negated classes at the
    dot (each of which allows every character outside it).
    """
    prods_rhs = tables[1]
    positive = set()
    negated = []
    for item in columns[len(columns) - 1][0]:
        rhs = prods_rhs[item[0]]
        dot = item[1]
        if dot >= len(rhs):
            continue
        sym = rhs[dot]
        kind = sym[0]
        if kind == 1:
            positive.add(sym[1][item[3]])
        elif kind == 2:
            if sym[1]:
                negated.append(sym[2])
            else:
                positive.update(sym[2])
    return positive, negated
