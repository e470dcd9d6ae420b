"""Chart engine for character-incremental Earley recognition.

This module is the hot kernel and the only one that knows the table format:
`compile_tables` builds it and the chart functions read it.

Data layout
-----------
A grammar is compiled by `compile_tables` into a tables tuple:

    (prods_lhs, prods_rhs, by_lhs, nullable, start)

    prods_lhs : list[int]            lhs nonterminal id per production
    prods_rhs : list[tuple[sym]]     sym is an int nonterminal id, or a
                                     (chars, negated) pair that scans exactly
                                     one character c when
                                     (c in chars) != negated; a terminal
                                     "abc" is one pair per character, so
                                     epsilon productions have an empty rhs
    by_lhs    : list[list[int]]      production indices per nonterminal id
    nullable  : list[bool]           per nonterminal id
    start     : int                  start nonterminal id

An item is a tuple (prod, dot, origin). A column is a pair
(items_list, items_set); a chart is a list of columns, one per consumed
character plus column zero. Columns are frozen once built: advancing shares
the earlier columns and appends a fresh one, which makes forked states
branch-safe by construction.
"""

from ..grammar import NONTERMINAL, TERMINAL, nullable_set


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
                rhs.append(nt_ids[sym.name])
            elif sym.kind == TERMINAL:
                rhs.extend((frozenset(c), False) for c in sym.text)
            else:
                rhs.append((sym.chars, sym.negated))
        by_lhs[nt_ids[p.lhs]].append(len(prods_lhs))
        prods_lhs.append(nt_ids[p.lhs])
        prods_rhs.append(tuple(rhs))
    nullable_names = nullable_set(grammar)
    nullable = [name in nullable_names for name in names]
    return (prods_lhs, prods_rhs, by_lhs, nullable, nt_ids[grammar.start])


def _close(tables, columns, col_index):
    """Close the newest column under predict and complete (nullable-aware)."""
    prods_lhs, prods_rhs, by_lhs, nullable, _ = tables
    items, seen = columns[col_index]
    i = 0
    while i < len(items):
        prod, dot, origin = items[i]
        i += 1
        rhs = prods_rhs[prod]
        if dot == len(rhs):
            # Zero-span completions are covered by the nullable prediction
            # fix below; firing them here would miss late-added parents.
            if origin == col_index:
                continue
            lhs = prods_lhs[prod]
            for p2, d2, o2 in columns[origin][0]:
                rhs2 = prods_rhs[p2]
                if d2 < len(rhs2) and rhs2[d2] == lhs:
                    new = (p2, d2 + 1, o2)
                    if new not in seen:
                        seen.add(new)
                        items.append(new)
        else:
            n = rhs[dot]
            if type(n) is int:
                for p in by_lhs[n]:
                    new = (p, 0, col_index)
                    if new not in seen:
                        seen.add(new)
                        items.append(new)
                if nullable[n]:
                    new = (prod, dot + 1, origin)
                    if new not in seen:
                        seen.add(new)
                        items.append(new)


def initial_chart(tables):
    """Column zero: predicted closure of the start productions."""
    _, _, by_lhs, _, start = tables
    items = [(p, 0, 0) for p in by_lhs[start]]
    columns = [(items, set(items))]
    _close(tables, columns, 0)
    return columns


def advance(tables, columns, ch):
    """Scan one character; returns the extended chart or None on reject.

    The input chart is never mutated: the result shares all existing
    columns and appends one new closed column.
    """
    prods_rhs = tables[1]
    items = []
    for prod, dot, origin in columns[len(columns) - 1][0]:
        rhs = prods_rhs[prod]
        if dot < len(rhs):
            sym = rhs[dot]
            if type(sym) is not int and (ch in sym[0]) != sym[1]:
                # Distinct frontier items scan to distinct items.
                items.append((prod, dot + 1, origin))
    if not items:
        return None
    new_columns = list(columns)
    new_columns.append((items, set(items)))
    _close(tables, new_columns, len(new_columns) - 1)
    return new_columns


def accepted(tables, columns):
    """Whether the consumed prefix is a full member of the language."""
    prods_lhs, prods_rhs, _, _, start = tables
    for prod, dot, origin in columns[len(columns) - 1][0]:
        if origin == 0 and prods_lhs[prod] == start and dot == len(prods_rhs[prod]):
            return True
    return False


def next_chars(tables, columns):
    """Legal next characters, read off the frontier's scan symbols.

    Returns (positive, negated_classes): a set of explicitly allowed
    characters plus the excluded-char sets of any negated classes at the
    dot (each of which allows every character outside it).
    """
    prods_rhs = tables[1]
    positive = set()
    negated = []
    for prod, dot, _ in columns[len(columns) - 1][0]:
        rhs = prods_rhs[prod]
        if dot < len(rhs):
            sym = rhs[dot]
            if type(sym) is not int:
                if sym[1]:
                    negated.append(sym[0])
                else:
                    positive.update(sym[0])
    return positive, negated
