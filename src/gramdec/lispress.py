"""S-expression parsing, canonical serialization, and tree-match metric.

Atoms are either bare symbols (any run of characters outside whitespace,
parentheses and double quotes) or quoted strings honoring \\" and \\\\;
quoted atoms keep their quotes so canonical form round-trips exactly.
Equality is structural only: no symbol aliasing, no literal normalization.
"""

from __future__ import annotations

import re

from .errors import SexpError

# One token after any blanks: a parenthesis or bare symbol, or a quoted
# string whose body runs to its closing quote or to the end of the text and
# may end in a lone backslash. Blanks that end the text match with no token,
# so every match starts where the last one ended.
_TOKEN = re.compile(r'[ \t\n\r]*(?:([()]|[^ \t\n\r()"]+)|"((?:[^"\\]|\\.?)*)("?)|\Z)', re.S)
_ESCAPE = re.compile(r"\\(.?)", re.S)


def _tokenize(text: str):
    """The tokens of text; a bad escape is reported before a missing
    closing quote."""
    tokens = []
    for m in _TOKEN.finditer(text):
        bare, body, end = m.groups()
        if bare:
            tokens.append(bare)
        elif body is not None:
            if "\\" in body:
                for e in _ESCAPE.finditer(text, m.start(2), m.end(2)):
                    if e[1] not in ('"', "\\"):  # a lone trailing backslash has ""
                        raise SexpError(f"bad escape at offset {e.start()}")
            if not end:
                raise SexpError(f"unterminated string starting at offset {m.start(2) - 1}")
            tokens.append(f'"{body}"')
    return tokens


def _parse(tokens):
    """The one s-expression that a token list spells; an explicit stack of
    open lists keeps deep nesting off the Python call stack."""
    if not tokens:
        raise SexpError("empty input")
    stack = []
    for pos, tok in enumerate(tokens):
        if tok == "(":
            stack.append([])
            continue
        if tok == ")":
            if not stack:
                raise SexpError("unbalanced parentheses: unexpected ')'")
            node = stack.pop()
        else:
            node = tok
        if stack:
            stack[-1].append(node)
        elif pos + 1 != len(tokens):
            raise SexpError(f"trailing garbage after expression: {tokens[pos + 1]!r}")
        else:
            return node
    raise SexpError("unbalanced parentheses: missing ')'")


def parse_sexp(text: str):
    """Parse one s-expression; trailing garbage is an error."""
    return _parse(_tokenize(text))


def canonical(n) -> str:
    """Whitespace-normalized form: single spaces, tight parentheses."""
    parts = []
    stack = [n]  # None closes a list; deep trees stay off the call stack
    spaced = False  # whether the next atom or list follows a sibling
    while stack:
        node = stack.pop()
        if node is None:
            parts.append(")")
        elif isinstance(node, str):
            if not node:
                raise SexpError("empty atom")
            parts.append(" " + node if spaced else node)
        else:
            parts.append(" (" if spaced else "(")
            stack.append(None)
            stack.extend(reversed(node))
        spaced = not isinstance(node, list)
    return "".join(parts)


def lispress_equal(a: str, b: str) -> bool:
    """Whether two program strings parse to structurally equal trees.

    Raises SexpError if either side fails to parse; the evaluation layer
    catches that and counts the prediction as a flagged parse failure.
    Two well-formed s-expressions are structurally equal exactly when
    their token lists are equal.
    """
    tokens_a, tokens_b = _tokenize(a), _tokenize(b)
    _parse(tokens_a)
    _parse(tokens_b)
    return tokens_a == tokens_b
