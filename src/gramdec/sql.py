"""Per-example schema specialization of the shipped SQL-subset grammar.

Specialization is vocabulary-only: the TABLE_NAME and COLUMN_NAME
placeholder nonterminals are rewritten to one terminal per schema
identifier (plus qualified table.column forms), so only schema-consistent
names are generable. There is no guard tying a column to the FROM clause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from .errors import EmptyLanguageError, SchemaError
from .grammar import Grammar, Production, Symbol, parse_grammar, reduce
from .jsonl import json_value

TABLE_NT = "TABLE_NAME"
COLUMN_NT = "COLUMN_NAME"


@dataclass
class DbColumn:
    name: str
    type: str = "text"
    values: list = field(default_factory=list)


@dataclass
class DbTable:
    name: str
    columns: list


@dataclass
class DbSchema:
    tables: list

    def __post_init__(self):
        for t in self.tables:
            if not t.name or not isinstance(t.name, str):
                raise SchemaError("table name must be a non-empty string")
            cols = [c.name for c in t.columns]
            if any(not c or not isinstance(c, str) for c in cols):
                raise SchemaError(
                    f"column names in table {t.name!r} must be non-empty strings"
                )
            if len(set(cols)) != len(cols):
                raise SchemaError(f"duplicate column names in table {t.name!r}")
        names = [t.name for t in self.tables]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate table names")


def load_schema_json(text: str) -> DbSchema:
    """Schema wire format:
    {"tables":[{"name":..., "columns":[{"name":...,"type":...,"values":[...]}]}]}
    """
    return schema_from_json(json_value(text, SchemaError, "bad schema JSON"))


def schema_from_json(data) -> DbSchema:
    """The DbSchema of an already parsed schema record. tables, each table
    and each column must be JSON objects; a table's and a column's name
    must be present and a string, tables and columns lists, and a
    column's type (if given) a string and its values (if given) a list.
    An error names the table and the column, each by index until its name
    is read, and the field."""
    if not isinstance(data, dict):
        raise SchemaError("schema is not a JSON object")
    tables = []
    for i, t in enumerate(_field(data, "tables", list, "schema")):
        where = f"table {i}"
        if not isinstance(t, dict):
            raise SchemaError(f"{where} is not a JSON object")
        name = _field(t, "name", str, where)
        where = f"table {name!r}"
        columns = []
        for j, c in enumerate(_field(t, "columns", list, where)):
            cwhere = f"column {j} of {where}"
            if not isinstance(c, dict):
                raise SchemaError(f"{cwhere} is not a JSON object")
            cname = _field(c, "name", str, cwhere)
            cwhere = f"column {cname!r} of {where}"
            columns.append(
                DbColumn(
                    cname,
                    _field(c, "type", str, cwhere, "text"),
                    _field(c, "values", list, cwhere, []),
                )
            )
        tables.append(DbTable(name, columns))
    return DbSchema(tables)


_KIND = {list: "a list", str: "a string"}


def _field(record, key, kind, where, default=None):
    """record[key], which must be a `kind`; `default` when the key is
    absent, which is an error when there is no default."""
    if key not in record:
        if default is None:
            raise SchemaError(f"{where}: {key} is missing")
        return default
    value = record[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: {key} is not {_KIND[kind]}")
    return value


def load_base_sql_grammar() -> Grammar:
    """The shipped SQL-subset grammar with placeholder name nonterminals."""
    text = (
        resources.files("gramdec").joinpath("data/sql_subset.cfg").read_text("utf-8")
    )
    return parse_grammar(text)


def check_base_grammar(base: Grammar) -> Grammar:
    """base, which must define the name placeholders to be specialized."""
    nts = {p.lhs for p in base.productions}
    for required in (TABLE_NT, COLUMN_NT):
        if required not in nts:
            raise SchemaError(
                f"base grammar lacks designated nonterminal {required}"
            )
    return base


def specialize_sql_grammar(base: Grammar, schema: DbSchema) -> Grammar:
    """Replace the name placeholders with the schema's identifiers; reduced."""
    check_base_grammar(base)
    if not schema.tables or all(not t.columns for t in schema.tables):
        raise EmptyLanguageError("schema has no tables/columns to specialize with")

    names = dict.fromkeys((TABLE_NT, t.name) for t in schema.tables)
    for t in schema.tables:
        for c in t.columns:
            names[COLUMN_NT, c.name] = None
            names[COLUMN_NT, f"{t.name}.{c.name}"] = None
    productions = [p for p in base.productions if p.lhs not in (TABLE_NT, COLUMN_NT)]
    productions.extend(Production(lhs, (Symbol.t(text),)) for lhs, text in names)
    return reduce(Grammar(base.start, productions))


def render_schema(schema: DbSchema, with_values: bool = False) -> str:
    """Deterministic one-line rendering for model inputs:
    ``table : col1 , col2`` per table, tables joined by `` | ``;
    with_values appends up to 3 sample values per column in parentheses."""
    parts = []
    for t in schema.tables:
        cols = []
        for c in t.columns:
            if with_values and c.values:
                samples = ", ".join(str(v) for v in c.values[:3])
                cols.append(f"{c.name} ({samples})")
            else:
                cols.append(c.name)
        parts.append(f"{t.name} : " + " , ".join(cols))
    return " | ".join(parts)
