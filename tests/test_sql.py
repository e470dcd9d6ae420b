import json

import pytest

from gramdec.earley import check_string, init_state
from gramdec.errors import EmptyLanguageError, SchemaError
from gramdec.sql import (
    COLUMN_NT,
    TABLE_NT,
    DbColumn,
    DbSchema,
    DbTable,
    load_base_sql_grammar,
    load_schema_json,
    render_schema,
    specialize_sql_grammar,
)

HEAD = DbSchema([DbTable("head", [DbColumn("born_state"), DbColumn("age")])])

PAYROLL = DbSchema(
    [
        DbTable("emp", [DbColumn("name"), DbColumn("salary"), DbColumn("dept")]),
        DbTable("dept", [DbColumn("id"), DbColumn("label", values=["HR", "R&D"])]),
    ]
)


@pytest.fixture(scope="module")
def base():
    return load_base_sql_grammar()


class TestSchema:
    def test_duplicate_tables(self):
        with pytest.raises(SchemaError):
            DbSchema([DbTable("t", []), DbTable("t", [])])

    def test_duplicate_columns(self):
        with pytest.raises(SchemaError):
            DbSchema([DbTable("t", [DbColumn("a"), DbColumn("a")])])

    def test_json_round(self):
        s = load_schema_json(
            '{"tables": [{"name": "head", "columns":'
            ' [{"name": "born_state"}, {"name": "age", "type": "number"}]}]}'
        )
        assert s.tables[0].columns[1].type == "number"

    def test_bad_json(self):
        with pytest.raises(SchemaError):
            load_schema_json("{nope")
        with pytest.raises(SchemaError):
            load_schema_json('{"tables": [{"name": "t"}]}')

    @pytest.mark.parametrize(
        "tables,message",
        [
            pytest.param("abc", "schema: tables is not a list", id="tables-str"),
            pytest.param({"t": {}}, "schema: tables is not a list", id="tables-object"),
            pytest.param(
                [{"name": "t", "columns": "ab"}], "table 't': columns is not a list", id="columns-str"
            ),
            pytest.param(
                [{"name": "t", "columns": {"a": {}}}], "table 't': columns is not a list", id="columns-object"
            ),
            pytest.param(
                [{"name": "t", "columns": [{"name": "c", "values": "abc"}]}],
                "column 'c' of table 't': values is not a list",
                id="values-str",
            ),
            pytest.param(
                [{"name": "t", "columns": [{"name": "c", "values": {"a": 1}}]}],
                "column 'c' of table 't': values is not a list",
                id="values-object",
            ),
            pytest.param(
                [{"name": "t", "columns": [{"name": "c", "values": None}]}],
                "column 'c' of table 't': values is not a list",
                id="values-null",
            ),
            pytest.param(
                [{"name": "t", "columns": [{"name": "c", "type": ["text"]}]}],
                "column 'c' of table 't': type is not a string",
                id="type-list",
            ),
            pytest.param(["x"], "table 0 is not a JSON object", id="table-str"),
            pytest.param(
                [{"name": "t", "columns": []}, None], "table 1 is not a JSON object", id="table-null"
            ),
            pytest.param(
                [{"name": "t", "columns": [5]}], "column 0 of table 't' is not a JSON object", id="column-int"
            ),
            pytest.param(
                [{"name": "t", "columns": [{"name": "c"}, ["d"]]}],
                "column 1 of table 't' is not a JSON object",
                id="column-list",
            ),
            pytest.param([{"columns": []}], "table 0: name is missing", id="table-no-name"),
            pytest.param([{"name": 5, "columns": []}], "table 0: name is not a string", id="table-name-int"),
            pytest.param(
                [{"name": "t", "columns": [{"type": "text"}]}],
                "column 0 of table 't': name is missing",
                id="column-no-name",
            ),
            pytest.param(
                [{"name": "t", "columns": [{"name": "c"}, {"name": None}]}],
                "column 1 of table 't': name is not a string",
                id="column-name-null",
            ),
            pytest.param([{"name": "t"}], "table 't': columns is missing", id="no-columns"),
        ],
    )
    def test_field_of_the_wrong_kind_is_named(self, tables, message):
        with pytest.raises(SchemaError) as info:
            load_schema_json(json.dumps({"tables": tables}))
        assert str(info.value) == message

    @pytest.mark.parametrize("record", [{}, {"table": []}])
    def test_missing_tables_is_named(self, record):
        with pytest.raises(SchemaError, match="^schema: tables is missing$"):
            load_schema_json(json.dumps(record))

    def test_values_are_kept_as_given(self):
        s = load_schema_json(
            '{"tables": [{"name": "t", "columns":'
            ' [{"name": "c", "type": "number", "values": [1, "a", 2.5]}]}]}'
        )
        assert s.tables[0].columns[0].values == [1, "a", 2.5]


class TestBaseGrammar:
    def test_has_placeholders(self, base):
        lhss = {p.lhs for p in base.productions}
        assert TABLE_NT in lhss and COLUMN_NT in lhss

    def test_placeholders_fall_back_to_generic_identifiers(self, base):
        # the unspecialized grammar admits any identifier as a name
        assert check_string(base, "SELECT foo FROM bar")[0] == "accepted"
        assert init_state(base) is not None


class TestSpecialize:
    def test_accepts_schema_query(self, base):
        g = specialize_sql_grammar(base, HEAD)
        q = "SELECT born_state FROM head GROUP BY born_state HAVING count(*) >= 3"
        assert check_string(g, q)[0] == "accepted"

    def test_rejects_out_of_schema_column_at_first_bad_char(self, base):
        g = specialize_sql_grammar(base, HEAD)
        verdict, offset = check_string(g, "SELECT salary FROM head")
        assert verdict == "rejected"
        # "SELECT s" still opens sum(...), the next char kills it
        assert offset == 8

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT name, salary FROM emp",
            "SELECT DISTINCT dept FROM emp WHERE salary > 100",
            "SELECT emp.name FROM emp JOIN dept ON emp.dept = dept.id",
            "SELECT count(*) FROM emp WHERE name LIKE 'A%'",
            "SELECT name FROM emp WHERE salary BETWEEN 10 AND 20",
            "SELECT name FROM emp WHERE dept IN (SELECT id FROM dept)",
            "SELECT name FROM emp ORDER BY salary DESC LIMIT 5",
            "SELECT name FROM emp UNION SELECT label FROM dept",
            "SELECT avg(salary) FROM emp GROUP BY dept HAVING avg(salary) >= 3",
            "SELECT name FROM emp WHERE dept IS NOT NULL",
        ],
    )
    def test_subset_coverage(self, base, query):
        g = specialize_sql_grammar(base, PAYROLL)
        assert check_string(g, query)[0] == "accepted"

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT wages FROM emp",  # unknown column
            "SELECT name FROM staff",  # unknown table
            "SELECT name FROM emp WHERE",  # incomplete clause is not a member
            "select name from emp",  # keywords are uppercase in this subset
        ],
    )
    def test_rejections(self, base, query):
        g = specialize_sql_grammar(base, PAYROLL)
        assert check_string(g, query)[0] != "accepted"

    def test_qualified_names_only_for_declared_pairs(self, base):
        g = specialize_sql_grammar(base, PAYROLL)
        assert check_string(g, "SELECT dept.id FROM dept")[0] == "accepted"

    def test_empty_schema(self, base):
        with pytest.raises(EmptyLanguageError):
            specialize_sql_grammar(base, DbSchema([]))

    def test_missing_placeholder(self):
        from gramdec.grammar import parse_grammar

        g = parse_grammar('S -> "SELECT"')
        with pytest.raises(SchemaError):
            specialize_sql_grammar(g, HEAD)

    def test_deterministic(self, base):
        from gramdec.grammar import serialize_grammar

        a = serialize_grammar(specialize_sql_grammar(base, PAYROLL))
        b = serialize_grammar(specialize_sql_grammar(base, PAYROLL))
        assert a == b


class TestRenderSchema:
    def test_plain(self):
        assert (
            render_schema(HEAD) == "head : born_state , age"
        )

    def test_two_tables(self):
        assert render_schema(PAYROLL) == (
            "emp : name , salary , dept | dept : id , label"
        )

    def test_with_values(self):
        s = DbSchema([DbTable("t", [DbColumn("c", values=[1, 2, 3, 4])])])
        assert render_schema(s, with_values=True) == "t : c (1, 2, 3)"
