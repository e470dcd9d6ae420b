"""JSON Lines input, shared by the toolkit's record formats."""

from __future__ import annotations

import json
import re

# the escape of a surrogate code point: only text holding one is searched
# for a lone surrogate, which is legal JSON but no Unicode text
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


def json_value(text: str, error, what: str):
    """The JSON value of text; raises `error` as "what: reason" when text is
    not JSON, nests deeper than the parser's recursion limit or escapes a
    lone surrogate, which no UTF-8 output can hold."""
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{what}: {exc}") from None
    if _SURROGATE_ESCAPE.search(text):
        stack = [value]
        while stack:  # no recursion: the value may nest to the parser's limit
            v = stack.pop()
            if isinstance(v, list):
                stack += v
            elif isinstance(v, dict):
                stack += v
                stack += v.values()
            elif isinstance(v, str) and (m := _SURROGATE.search(v)):
                raise error(f"{what}: lone surrogate {ascii(m.group())}")
    return value


def json_lines(text: str, error):
    """(line number, value) for each non-blank line of JSONL text.

    Lines end at "\n" only: JSON text may hold other line separators, such
    as U+2028, unescaped. Raises `error` naming the line when a line is not
    JSON.
    """
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line:
            yield lineno, json_value(line, error, f"bad JSON on line {lineno}")


def json_objects(text: str, error):
    """(line number, record) for each non-blank line of JSONL text, as
    `json_lines` reads it; raises `error` naming the line when a line is
    not a JSON object."""
    for lineno, rec in json_lines(text, error):
        if not isinstance(rec, dict):
            raise error(f"line {lineno} is not a JSON object")
        yield lineno, rec
