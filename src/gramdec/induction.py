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

from .earley import init_state
from .errors import InductionError, MtopParseError, TypeCheckError
from .grammar import Grammar, Production, Symbol, parse_grammar, reduce
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
            table.add_signature(symbol, args, result)
        elif "literal" in rec:
            type_name, snippet = rec["literal"], rec.get("class")
            if not _strings(type_name, snippet):
                raise InductionError(
                    f"literal on line {lineno} needs a string literal and class"
                )
            table.add_literal(type_name, snippet)
        else:
            raise InductionError(f"unrecognized record on line {lineno}")
    return table


def _strings(*values) -> bool:
    return all(isinstance(v, str) for v in values)


@dataclass
class TypedExpression:
    node: object  # SexpNode
    type: str
    children: list


def _check_literal(atom: str, type_name: str, sigs: SignatureTable):
    if type_name not in sigs.literals:
        raise TypeCheckError(
            f"atom {atom!r} where non-literal type {type_name!r} expected"
        )
    state, _ = init_state(sigs.literals[type_name]).advance_string(atom)
    if state is None or not state.is_complete():
        raise TypeCheckError(f"ill-typed literal {atom!r} for type {type_name!r}")


def type_check(program, sigs: SignatureTable, expected=None):
    """Annotate every node of an s-expression program with its type.

    Nodes are checked in preorder from an explicit stack, so deep programs
    stay off the Python call stack.
    """
    if isinstance(program, str) and expected is None:
        raise TypeCheckError(f"bare literal {program!r} at program root")
    root = TypedExpression(program, expected, [])
    stack = [root]
    while stack:
        tx = stack.pop()  # its type is the expected one until checked
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


def _type_nt(type_name: str, taken: dict) -> str:
    """Stable identifier-safe nonterminal name for a type."""
    if type_name in taken:
        return taken[type_name]
    base = _NT_SAFE.sub("_", type_name)
    if not base or base[0].isdigit():
        base = "T_" + base
    name = base
    k = 2
    while name in taken.values():
        name = f"{base}_{k}"
        k += 1
    taken[type_name] = name
    return name


def induce_lispress_grammar(
    programs, sigs: SignatureTable, root_type: str | None = None
) -> Grammar:
    """Type-driven CFG over typed programs: a nonterminal per observed type,
    a production per observed (operator, argument types, result type).

    Literal-typed leaves expand through the type's declared literal grammar
    snippet, so unseen literal values stay generable.
    """
    if not programs:
        raise InductionError("no programs to induce from")
    nt_names: dict = {}
    productions = []
    seen = set()
    literal_types = []

    def add(prod):
        key = (prod.lhs, prod.rhs)
        if key not in seen:
            seen.add(key)
            productions.append(prod)

    roots = []
    for root in programs:
        if root.type not in roots:
            roots.append(root.type)
        stack = [root]  # preorder, off the Python call stack
        while stack:
            tx = stack.pop()
            if isinstance(tx.node, str):
                if tx.type not in literal_types:
                    literal_types.append(tx.type)
                continue
            symbol = tx.node[0]
            lhs = _type_nt(tx.type, nt_names)
            rhs = []
            if not tx.children:
                rhs.append(Symbol.t(f"({symbol})"))
            else:
                rhs.append(Symbol.t(f"({symbol} "))
                for i, child in enumerate(tx.children):
                    if i:
                        rhs.append(Symbol.t(" "))
                    rhs.append(Symbol.nt(_type_nt(child.type, nt_names)))
                rhs.append(Symbol.t(")"))
            add(Production(lhs, tuple(rhs)))
            stack.extend(reversed(tx.children))
    if root_type is None:
        if len(roots) != 1:
            raise InductionError(
                f"programs have conflicting root types {roots}; pass root_type"
            )
        root_type = roots[0]

    # Splice in literal grammars; their first rule's lhs is the type name
    # itself, which we alias to the type's nonterminal.
    for type_name in literal_types:
        if type_name not in sigs.literals:
            raise InductionError(f"no literal class declared for {type_name!r}")
        snippet = sigs.literals[type_name]
        lhs_alias = {type_name: _type_nt(type_name, nt_names)}
        for p in snippet.productions:
            lhs = lhs_alias.get(p.lhs, p.lhs)
            rhs = tuple(
                Symbol.nt(lhs_alias.get(s.name, s.name))
                if s.kind == "nonterminal"
                else s
                for s in p.rhs
            )
            add(Production(lhs, rhs))

    start = _type_nt(root_type, nt_names)
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

    productions = []
    seen = set()
    uses_text = False

    def add(lhs, rhs):
        key = (lhs, tuple(rhs))
        if key not in seen:
            seen.add(key)
            productions.append(Production(lhs, tuple(rhs)))

    def label_nt(label: str) -> str:
        prefix = "INTENT_" if label.startswith("IN:") else "SLOT_"
        return prefix + label.split(":", 1)[1]

    start_alts = []
    for tree in trees:
        nt = label_nt(tree.label)
        if nt not in start_alts:
            start_alts.append(nt)
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
                    uses_text = True
            rhs.append(Symbol.t("]"))
            add(label_nt(node.label), rhs)
            stack.extend(
                c for c in reversed(node.children) if isinstance(c, MtopTree)
            )

    prods = [Production(_MTOP_START, (Symbol.nt(nt),)) for nt in start_alts]
    prods.extend(productions)
    if uses_text:
        prods.append(
            Production(
                _MTOP_TEXT,
                (Symbol.cc("[]", negated=True),),
            )
        )
        prods.append(
            Production(
                _MTOP_TEXT,
                (Symbol.cc("[]", negated=True), Symbol.nt(_MTOP_TEXT)),
            )
        )
    return reduce(Grammar(_MTOP_START, prods))
