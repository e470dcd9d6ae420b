"""JSON Lines input, shared by the toolkit's record formats."""

from __future__ import annotations

import json


def json_value(text: str, error, what: str):
    """The JSON value of text; raises `error` as "what: reason" when text is
    not JSON or nests deeper than the parser's recursion limit."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{what}: {exc}") from None


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
