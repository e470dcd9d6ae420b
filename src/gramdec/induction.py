"""Grammar induction from training programs.

Two procedures share one idea: a nonterminal per type, a production per
observed operator application. For s-expression programs the types come
from a declared signature table; for bracketed intent/slot trees a simple
type system is induced from the labels themselves (intents, slots, and an
open-class TEXT nonterminal for raw token spans).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .earley import check_string, init_state
from .errors import GramdecError, InductionError, MtopParseError, TypeCheckError
from .grammar import NONTERMINAL, Grammar, Production, Symbol, parse_grammar, reduce
from .jsonl import json_objects


@dataclass
class SignatureTable:
    """Operator signatures plus charclass-based literal grammars per type."""

    signatures: dict = field(default_factory=dict)  # symbol -> (args, result)
    literals: dict = field(default_factory=dict)  # type -> snippet Grammar

    def add_signature(self, symbol, args, result):
        if symbol in self.signatures:
            raise InductionError(f"duplicate signature for {symbol!r}")
        self.signatures[symbol] = (tuple(args), result)

    def add_literal(self, type_name, snippet):
        if type_name in self.literals:
            raise InductionError(f"duplicate literal class for {type_name!r}")
        # The snippet's first rule must define the type's own nonterminal.
        g = parse_grammar(snippet)
        if g.start != type_name:
            raise InductionError(
                f"literal snippet for {type_name!r} starts at {g.start!r}"
            )
        # compiled now: an empty class fails here, and type_check reuses it
        init_state(g)
        self.literals[type_name] = g


def load_signatures(text: str) -> SignatureTable:
    """Parse the JSONL sidecar: {"symbol","args","result"} and
    {"literal","class"} records."""
    table = SignatureTable()
    for lineno, rec in json_objects(text, InductionError):
        if "symbol" in rec:
            symbol, args, result = rec["symbol"], rec.get("args"), rec.get("result")
            if not isinstance(args, list) or not _strings(symbol, result, *args):
                raise InductionError(
                    f"signature on line {lineno} needs a string symbol and"
                    " result and a list of string args"
                )
            try:
                table.add_signature(symbol, args, result)
            except InductionError as exc:
                raise InductionError(f"signature on line {lineno}: {exc}") from None
        elif "literal" in rec:
            type_name, snippet = rec["literal"], rec.get("class")
            if not _strings(type_name, snippet):
                raise InductionError(
                    f"literal on line {lineno} needs a string literal and class"
                )
            try:
                table.add_literal(type_name, snippet)
            except GramdecError as exc:
                raise InductionError(f"literal on line {lineno}: {exc}") from None
        else:
            raise InductionError(f"unrecognized record on line {lineno}")
    return table


def _strings(*values) -> bool:
    return all(isinstance(v, str) for v in values)


@dataclass
class TypedExpression:
    node: object  # a parse_sexp tree: an atom (str) or a list of trees
    type: str
    children: list


def _check_literal(atom: str, type_name: str, sigs: SignatureTable):
    if type_name not in sigs.literals:
        raise TypeCheckError(
            f"atom {atom!r} where non-literal type {type_name!r} expected"
        )
    if check_string(sigs.literals[type_name], atom)[0] != "accepted":
        raise TypeCheckError(f"ill-typed literal {atom!r} for type {type_name!r}")


def type_check(program, sigs: SignatureTable):
    """Annotate every node of an s-expression program with its type.

    The root's type is its operator's result, so a bare literal at the
    root is an error. Nodes are checked in preorder from an explicit
    stack, so deep programs stay off the Python call stack.
    """
    if isinstance(program, str):
        raise TypeCheckError(f"bare literal {program!r} at program root")
    root = TypedExpression(program, None, [])
    stack = [root]
    while stack:
        tx = stack.pop()  # its type is the expected one (None at the root) until checked
        node = tx.node
        if isinstance(node, str):
            _check_literal(node, tx.type, sigs)
            continue
        if not node or not isinstance(node[0], str):
            raise TypeCheckError("application must start with an operator symbol")
        symbol = node[0]
        if symbol not in sigs.signatures:
            raise TypeCheckError(f"unknown symbol {symbol!r}")
        args, result = sigs.signatures[symbol]
        actual = node[1:]
        if len(actual) != len(args):
            raise TypeCheckError(
                f"{symbol!r} expects {len(args)} arguments, got {len(actual)}"
            )
        if tx.type is not None and result != tx.type:
            raise TypeCheckError(
                f"{symbol!r} yields {result!r} where {tx.type!r} expected"
            )
        tx.type = result
        tx.children = [TypedExpression(c, t, []) for c, t in zip(actual, args)]
        stack.extend(reversed(tx.children))
    return root


_NT_SAFE = re.compile(r"[^A-Za-z0-9_]")


def _fresh_name(key, text: str, taken: dict, used: set) -> str:
    """The nonterminal of `key`: a type, or a (type, class nonterminal)
    pair naming a nonterminal of that type's literal class, whose start
    symbol is the type's own nonterminal. The first key to ask gets `text`
    made identifier-safe, and a later key whose name is in `used` gets a
    numeric suffix, so no two keys share a nonterminal. `taken` maps each
    key to its name and `used` holds the names handed out."""
    if type(key) is tuple and key[0] == key[1]:
        key = key[0]
    if key in taken:
        return taken[key]
    base = _NT_SAFE.sub("_", text)
    if not base or base[0].isdigit():
        base = "T_" + base
    name = base
    k = 2
    while name in used:
        name = f"{base}_{k}"
        k += 1
    taken[key] = name
    used.add(name)
    return name


def induce_lispress_grammar(
    programs, sigs: SignatureTable, root_type: str | None = None
) -> Grammar:
    """Type-driven CFG over typed programs: a nonterminal per observed type,
    a production per observed (operator, argument types, result type).

    Literal-typed leaves expand through the type's declared literal grammar
    snippet, so unseen literal values stay generable. Each type's
    nonterminal is named after it, and each other nonterminal of a literal
    class after its name in the snippet, with a numeric suffix where the
    name is already another's.
    """
    if not programs:
        raise InductionError("no programs to induce from")
    taken, used = {}, set()
    rules = {}  # (lhs, rhs) -> None: the rules in first-seen order, once
    roots = {}
    literal_types = {}
    for root in programs:
        roots[root.type] = None
        stack = [root]  # preorder, off the Python call stack
        while stack:
            tx = stack.pop()
            if isinstance(tx.node, str):
                literal_types[tx.type] = None
                continue
            symbol = tx.node[0]
            lhs = _fresh_name(tx.type, tx.type, taken, used)
            rhs = []
            if not tx.children:
                rhs.append(Symbol.t(f"({symbol})"))
            else:
                rhs.append(Symbol.t(f"({symbol} "))
                for i, child in enumerate(tx.children):
                    if i:
                        rhs.append(Symbol.t(" "))
                    rhs.append(Symbol.nt(_fresh_name(child.type, child.type, taken, used)))
                rhs.append(Symbol.t(")"))
            rules[lhs, tuple(rhs)] = None
            stack.extend(reversed(tx.children))
    if root_type is None:
        if len(roots) != 1:
            raise InductionError(
                f"programs have conflicting root types {list(roots)}; pass root_type"
            )
        [root_type] = roots

    for type_name in literal_types:
        if type_name not in sigs.literals:
            raise InductionError(f"no literal class declared for {type_name!r}")
        for p in sigs.literals[type_name].productions:
            lhs = _fresh_name((type_name, p.lhs), p.lhs, taken, used)
            rhs = tuple(
                Symbol.nt(_fresh_name((type_name, s.name), s.name, taken, used))
                if s.kind == NONTERMINAL
                else s
                for s in p.rhs
            )
            rules[lhs, rhs] = None

    start = _fresh_name(root_type, root_type, taken, used)
    productions = [Production(lhs, rhs) for lhs, rhs in rules]
    if not any(p.lhs == start for p in productions):
        raise InductionError(f"root type {root_type!r} never produced")
    return reduce(Grammar(start, productions))


# ---------------------------------------------------------------------------
# MTOP-style bracketed intent/slot trees


@dataclass
class MtopTree:
    label: str
    children: list  # MtopTree or raw token-span str

    def render(self) -> str:
        parts = []
        stack = [self]  # None closes a node
        while stack:
            node = stack.pop()
            if node is None:
                parts.append("]")
            elif isinstance(node, MtopTree):
                parts.append(f" [{node.label}" if parts else f"[{node.label}")
                stack.append(None)
                stack.extend(reversed(node.children))
            else:
                parts.append(" " + node)
        return "".join(parts)


_MTOP_BRACKET = re.compile(r"[\[\]]")
_MTOP_LABEL = re.compile(r"(IN|SL):[A-Za-z0-9_]+")


def parse_mtop(text: str) -> MtopTree:
    """Parse a bracketed representation like
    [IN:Get_Message [SL:Type_Content video] [SL:Sender Atlas]].

    Open nodes live on an explicit stack, so deep nesting stays off the
    Python call stack.
    """
    if not text.strip().startswith("["):
        raise MtopParseError("input does not start with '['")
    pos = text.index("[")
    open_nodes = []
    while True:
        bracket = _MTOP_BRACKET.search(text, pos)
        if bracket is None:
            raise MtopParseError("unbalanced brackets: missing ']'")
        span = text[pos : bracket.start()].strip()
        if span:
            open_nodes[-1].children.append(span)
        pos = bracket.end()
        if bracket.group() == "[":
            label = _MTOP_LABEL.match(text, pos)
            if not label:
                raise MtopParseError(f"label without IN:/SL: prefix at offset {pos}")
            open_nodes.append(MtopTree(label.group(), []))
            pos = label.end()
            continue
        tree = open_nodes.pop()
        if not open_nodes:
            break
        open_nodes[-1].children.append(tree)
    if text[pos:].strip():
        raise MtopParseError("trailing garbage after tree")
    if not tree.label.startswith("IN:"):
        raise MtopParseError(f"root label {tree.label!r} is not an intent")
    return tree


_MTOP_START = "MTOP_START"
_MTOP_TEXT = "TEXT"


def induce_mtop_grammar(trees) -> Grammar:
    """CFG over intent/slot trees: INTENT_x / SLOT_y nonterminals, one
    production per observed (parent label, child pattern), and an open-class
    TEXT nonterminal for raw token spans."""
    if not trees:
        raise InductionError("no trees to induce from")

    def label_nt(label: str) -> str:
        prefix = "INTENT_" if label.startswith("IN:") else "SLOT_"
        return prefix + label.split(":", 1)[1]

    start_alts = dict.fromkeys(label_nt(t.label) for t in trees)
    # (lhs, rhs) -> None: the rules in first-seen order, once
    rules = {(_MTOP_START, (Symbol.nt(nt),)): None for nt in start_alts}
    for tree in trees:
        stack = [tree]  # preorder, off the Python call stack
        while stack:
            node = stack.pop()
            rhs = [Symbol.t(f"[{node.label}")]
            for child in node.children:
                rhs.append(Symbol.t(" "))
                if isinstance(child, MtopTree):
                    rhs.append(Symbol.nt(label_nt(child.label)))
                else:
                    rhs.append(Symbol.nt(_MTOP_TEXT))
            rhs.append(Symbol.t("]"))
            rules[label_nt(node.label), tuple(rhs)] = None
            stack.extend(
                c for c in reversed(node.children) if isinstance(c, MtopTree)
            )
    # reduce drops TEXT when no tree holds a raw token span
    text_char = Symbol.cc("[]", negated=True)
    rules[_MTOP_TEXT, (text_char,)] = None
    rules[_MTOP_TEXT, (text_char, Symbol.nt(_MTOP_TEXT))] = None
    prods = [Production(lhs, rhs) for lhs, rhs in rules]
    return reduce(Grammar(_MTOP_START, prods))
