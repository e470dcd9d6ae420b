import gc
import json
import random
import time

import pytest

from gramdec.earley import check_string
from gramdec.engine import kernel
from gramdec.errors import EmptyLanguageError, InductionError, MtopParseError, TypeCheckError
from gramdec.grammar import enumerate_language, serialize_grammar
from gramdec.induction import (
    MtopTree,
    SignatureTable,
    induce_lispress_grammar,
    induce_mtop_grammar,
    load_signatures,
    parse_mtop,
    type_check,
)
from gramdec.lispress import parse_sexp

PLAN = (
    '(Yield (Event.start (FindNumNextEvent (Event.subject_? (?~= "staff meeting"))'
    " 2L)))"
)

SIGS_JSONL = """
{"symbol": "Yield", "args": ["Datetime"], "result": "Unit"}
{"symbol": "Event.start", "args": ["Event"], "result": "Datetime"}
{"symbol": "FindNumNextEvent", "args": ["Constraint", "Long"], "result": "Event"}
{"symbol": "Event.subject_?", "args": ["StrConstraint"], "result": "Constraint"}
{"symbol": "?~=", "args": ["String"], "result": "StrConstraint"}
{"symbol": "now", "args": [], "result": "Datetime"}
{"literal": "String", "class": "String -> \\"\\\\\\"\\" CHARS \\"\\\\\\"\\"\\nCHARS -> [^\\"] | [^\\"] CHARS"}
{"literal": "Long", "class": "Long -> DIGITS \\"L\\"\\nDIGITS -> [0-9] | [0-9] DIGITS"}
"""


@pytest.fixture(scope="module")
def sigs():
    return load_signatures(SIGS_JSONL)


class TestSignatures:
    def test_load(self, sigs):
        assert sigs.signatures["FindNumNextEvent"] == (("Constraint", "Long"), "Event")
        assert "String" in sigs.literals

    def test_duplicate_symbol(self):
        t = SignatureTable()
        t.add_signature("f", ["A"], "B")
        with pytest.raises(InductionError):
            t.add_signature("f", [], "B")

    def test_literal_snippet_must_define_its_type(self):
        t = SignatureTable()
        with pytest.raises(InductionError):
            t.add_literal("Long", 'Digits -> [0-9]')

    def test_empty_literal_class_names_its_line(self):
        # compiled when added, so the signatures name it, not a dataset
        # example that type-checks against it
        with pytest.raises(EmptyLanguageError):
            SignatureTable().add_literal("T", 'T -> T | "a" T')
        text = "\n".join(
            json.dumps(r)
            for r in [
                {"symbol": "f", "args": ["T"], "result": "U"},
                {"literal": "T", "class": 'T -> T | "a" T'},
            ]
        )
        with pytest.raises(InductionError, match="literal on line 2: start symbol 'T'"):
            load_signatures(text)

    def test_duplicate_signature_names_its_line(self):
        text = "\n".join(
            json.dumps({"symbol": "f", "args": [], "result": "U"}) for _ in range(2)
        )
        with pytest.raises(InductionError, match="signature on line 2: duplicate signature for 'f'"):
            load_signatures(text)

    def test_bad_jsonl(self):
        with pytest.raises(InductionError):
            load_signatures('{"nope": 1}')
        with pytest.raises(InductionError):
            load_signatures("not json")


class TestTypeCheck:
    def test_plan_checks(self, sigs):
        tx = type_check(parse_sexp(PLAN), sigs)
        assert tx.type == "Unit"
        assert tx.children[0].type == "Datetime"
        assert tx.children[0].children[0].type == "Event"

    def test_literal_leaves(self, sigs):
        tx = type_check(parse_sexp(PLAN), sigs)
        event = tx.children[0].children[0]
        assert event.children[0].children[0].children[0].node == '"staff meeting"'
        assert event.children[1].type == "Long"

    def test_zero_arg_operator(self, sigs):
        assert type_check(parse_sexp("(now)"), sigs).type == "Datetime"

    def test_unknown_symbol(self, sigs):
        with pytest.raises(TypeCheckError):
            type_check(parse_sexp("(Frobnicate 2L)"), sigs)

    def test_arity_mismatch(self, sigs):
        with pytest.raises(TypeCheckError):
            type_check(parse_sexp("(Yield (now) (now))"), sigs)

    def test_result_type_mismatch(self, sigs):
        # Yield wants a Datetime argument, (?~= "x") is a StrConstraint
        with pytest.raises(TypeCheckError):
            type_check(parse_sexp('(Yield (?~= "x"))'), sigs)

    def test_ill_formed_literal(self, sigs):
        with pytest.raises(TypeCheckError):
            type_check(parse_sexp("(Yield (Event.start (FindNumNextEvent (Event.subject_? (?~= \"x\")) 2X)))"), sigs)

    def test_bare_root_literal(self, sigs):
        with pytest.raises(TypeCheckError):
            type_check(parse_sexp("2L"), sigs)

    def test_literal_grammars_compile_once_per_table(self, monkeypatch):
        compiled = []
        compile_tables = kernel.compile_tables

        def counting(grammar):
            compiled.append(grammar.start)
            return compile_tables(grammar)

        monkeypatch.setattr(kernel, "compile_tables", counting)
        # snippets that no other test builds, since the compile cache is
        # shared by the whole process
        sigs_text = SIGS_JSONL.replace("DIGITS", "NUMERAL").replace("CHARS", "RUN")
        programs = [PLAN, PLAN.replace("2L", "17L"), PLAN.replace("staff", "team")]
        table = load_signatures(sigs_text)
        for p in programs:
            type_check(parse_sexp(p), table)
        assert sorted(compiled) == ["Long", "String"]
        # an equal table reuses the compiled literal grammars of a live one
        type_check(parse_sexp(PLAN), load_signatures(sigs_text))
        assert sorted(compiled) == ["Long", "String"]

    def test_deep_program(self):
        table = SignatureTable()
        table.add_signature("a", ["Unit"], "Unit")
        table.add_signature("b", [], "Unit")
        tree = parse_sexp("(a " * 4999 + "(b)" + ")" * 4999)
        typed = type_check(tree, table)
        assert typed.type == "Unit" and typed.children[0].children[0].type == "Unit"
        g = induce_lispress_grammar([typed], table)
        assert check_string(g, "(a (a (b)))")[0] == "accepted"


class TestInduceLispress:
    def test_closure(self, sigs):
        programs = [PLAN, "(Yield (now))"]
        typed = [type_check(parse_sexp(p), sigs) for p in programs]
        g = induce_lispress_grammar(typed, sigs)
        for p in programs:
            assert check_string(g, p)[0] == "accepted"

    def test_recombination_and_unseen_literals(self, sigs):
        typed = [type_check(parse_sexp(PLAN), sigs)]
        g = induce_lispress_grammar(typed, sigs)
        variants = [
            PLAN.replace('"staff meeting"', '"lunch with Ada"'),
            PLAN.replace("2L", "314L"),
        ]
        for v in variants:
            assert check_string(g, v)[0] == "accepted"

    def test_rejects_off_grammar(self, sigs):
        typed = [type_check(parse_sexp(PLAN), sigs)]
        g = induce_lispress_grammar(typed, sigs)
        bad = [
            "(Yield (now))",  # operator never observed
            PLAN.replace("2L", "2"),  # literal outside its class
            PLAN[:-1],  # truncated
        ]
        for b in bad:
            assert check_string(g, b)[0] != "accepted"

    def test_monotone_under_more_programs(self, sigs):
        small = [type_check(parse_sexp(PLAN), sigs)]
        big = small + [type_check(parse_sexp("(Yield (now))"), sigs)]
        g_small = induce_lispress_grammar(small, sigs)
        g_big = induce_lispress_grammar(big, sigs)
        assert check_string(g_small, PLAN)[0] == "accepted"
        assert check_string(g_big, PLAN)[0] == "accepted"
        assert check_string(g_big, "(Yield (now))")[0] == "accepted"

    def test_deterministic(self, sigs):
        typed = [type_check(parse_sexp(PLAN), sigs)]
        a = serialize_grammar(induce_lispress_grammar(typed, sigs))
        b = serialize_grammar(induce_lispress_grammar(typed, sigs))
        assert a == b

    def test_conflicting_roots_need_explicit_type(self, sigs):
        typed = [
            type_check(parse_sexp("(Yield (now))"), sigs),
            type_check(parse_sexp("(now)"), sigs),
        ]
        with pytest.raises(InductionError):
            induce_lispress_grammar(typed, sigs)
        g = induce_lispress_grammar(typed, sigs, root_type="Datetime")
        assert check_string(g, "(now)")[0] == "accepted"

    def test_empty_input(self, sigs):
        with pytest.raises(InductionError):
            induce_lispress_grammar([], sigs)


MTOP = "[IN:Get_Message [SL:Type_Content video] [SL:Sender Atlas]]"


class TestParseMtop:
    def test_basic(self):
        t = parse_mtop(MTOP)
        assert t.label == "IN:Get_Message"
        assert [c.label for c in t.children] == ["SL:Type_Content", "SL:Sender"]
        assert t.children[1].children == ["Atlas"]

    def test_render_round_trips(self):
        assert parse_mtop(MTOP).render() == MTOP

    def test_multiword_span(self):
        t = parse_mtop("[IN:CREATE_TIMER [SL:DATE_TIME in 5 minutes]]")
        assert t.children[0].children == ["in 5 minutes"]

    def test_root_must_be_intent(self):
        with pytest.raises(MtopParseError):
            parse_mtop("[SL:Sender Atlas]")

    def test_slot_may_hold_intent(self):
        text = "[IN:A [SL:B [IN:C x]]]"
        tree = parse_mtop(text)
        assert tree.render() == text
        assert check_string(induce_mtop_grammar([tree]), text)[0] == "accepted"

    @pytest.mark.parametrize("depth", [3000, 6000])
    def test_deep_nesting_round_trips(self, depth):
        text = "[IN:A [SL:B " * (depth // 2) + "x" + "]" * (depth // 2 * 2)
        tree = parse_mtop(text)
        assert tree.render() == text
        g = induce_mtop_grammar([tree])
        assert check_string(g, "[IN:A [SL:B [IN:A [SL:B y]]]]")[0] == "accepted"

    def test_unbalanced(self):
        with pytest.raises(MtopParseError):
            parse_mtop("[IN:A [SL:B x]")

    def test_trailing_garbage(self):
        with pytest.raises(MtopParseError):
            parse_mtop("[IN:A x] y")

    def test_bad_label(self):
        with pytest.raises(MtopParseError):
            parse_mtop("[FOO:A x]")


class TestInduceMtop:
    def test_closure_and_text_recombination(self):
        g = induce_mtop_grammar([parse_mtop(MTOP)])
        assert check_string(g, MTOP)[0] == "accepted"
        swapped = "[IN:Get_Message [SL:Type_Content photo album] [SL:Sender Grace]]"
        assert check_string(g, swapped)[0] == "accepted"

    def test_rejects_unobserved_pattern(self):
        g = induce_mtop_grammar([parse_mtop(MTOP)])
        # sender-only messages were never observed as a child pattern
        assert check_string(g, "[IN:Get_Message [SL:Sender Atlas]]")[0] != "accepted"
        assert check_string(g, "[IN:OTHER x]")[0] != "accepted"

    def test_multiple_roots(self):
        trees = [parse_mtop(MTOP), parse_mtop("[IN:CREATE_TIMER [SL:DATE_TIME now]]")]
        g = induce_mtop_grammar(trees)
        for t in trees:
            assert check_string(g, t.render())[0] == "accepted"

    def test_deterministic(self):
        trees = [parse_mtop(MTOP)]
        assert serialize_grammar(induce_mtop_grammar(trees)) == serialize_grammar(
            induce_mtop_grammar(trees)
        )

    def test_empty_input(self):
        with pytest.raises(InductionError):
            induce_mtop_grammar([])

    def test_render_used_for_membership(self):
        tree = MtopTree("IN:A", [MtopTree("SL:B", ["hi there"])])
        assert tree.render() == "[IN:A [SL:B hi there]]"


def _table(*records):
    return load_signatures("\n".join(json.dumps(r) for r in records))


def _accepts(g, text):
    return check_string(g, text)[0] == "accepted"


# Names that random tables draw both their types and their literal classes'
# nonterminals from, so a class's nonterminal often shares a type's name or
# another class's.
NAMES = ["A", "B", "C"]


def _random_table(rng):
    """A signature table over the types NAMES, with literal classes over
    "xy0" for one or two of them, whose other nonterminals are also drawn
    from NAMES."""
    records = []
    for t in rng.sample(NAMES, rng.randint(1, 2)):
        nts = [t] + rng.sample([n for n in NAMES if n != t], rng.randint(0, 2))
        # each one productive, and reachable from the class's start
        rules = {f'{nt} -> "{rng.choice("xy0")}"' for nt in nts}
        rules.update(f'{a} -> "{rng.choice("xy0")}" {b}' for a, b in zip(nts, nts[1:]))
        for _ in range(rng.randint(1, 3)):
            items = [
                rng.choice(nts) if rng.random() < 0.4 else f'"{rng.choice("xy0")}"'
                for _ in range(rng.randint(1, 2))
            ]
            rules.add(f"{rng.choice(nts)} -> {' '.join(items)}")
        first = sorted(r for r in rules if r.startswith(f"{t} "))[0]
        rest = sorted(rules - {first})
        records.append({"literal": t, "class": "\n".join([first, *rest])})
    literal_types = {r["literal"] for r in records}
    for i, t in enumerate(NAMES):
        for j in range(2):  # j == 0 is nullary: a leaf for a type without a class
            args = [] if j == 0 else rng.choices(NAMES, k=rng.randint(1, 2))
            if j == 0 and t in literal_types and rng.random() < 0.5:
                continue
            records.append({"symbol": f"f{i}{j}", "args": args, "result": t})
    return _table(*records)


def _random_program(rng, table, words, t, depth=0):
    """A well-typed program of type t as a nested list, literals as str."""
    ops = [
        s
        for s, (args, result) in table.signatures.items()
        if result == t and (depth < 3 or not args)
    ]
    if t in words and (not ops or depth and rng.random() < 0.5):
        return rng.choice(words[t])
    symbol = rng.choice(ops)
    args = table.signatures[symbol][0]
    return [symbol] + [_random_program(rng, table, words, a, depth + 1) for a in args]


def _render(node):
    if isinstance(node, str):
        return node
    return "(" + " ".join(_render(c) for c in node) + ")"


def _arguments(tx, path=()):
    """(path, type, node) of every argument in a typed program."""
    for i, child in enumerate(tx.children, start=1):
        yield path + (i,), child.type, child.node
        yield from _arguments(child, path + (i,))


def _replaced(node, path, new):
    if not path:
        return new
    copy = list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], new)
    return copy


class TestNameCollisions:
    def test_naming_cost_grows_linearly_with_the_types(self):
        # each new type's name is tested against those handed out: a scan
        # of them makes 8x the types cost about 64x, a set about 8x
        def programs(n):
            table = SignatureTable()
            for i in range(n):
                table.add_signature(f"f{i}", [], f"T{i}")
            return [type_check(parse_sexp(f"(f{i})"), table) for i in range(n)], table

        def best_of_3(typed, table):
            times = []
            for _ in range(3):
                t = time.perf_counter()
                induce_lispress_grammar(typed, table, root_type="T0")
                times.append(time.perf_counter() - t)
            return min(times)

        short_args, long_args = programs(1000), programs(8000)
        gc.disable()  # one collection inside a timing would swamp it
        try:
            short, long = best_of_3(*short_args), best_of_3(*long_args)
        finally:
            gc.enable()
        assert long < 24 * short, (short, long)

    def test_classes_with_one_helper_name(self):
        sigs = _table(
            {"symbol": "f", "args": ["Long", "Hex"], "result": "R"},
            {"literal": "Long", "class": 'Long -> DIGITS "L"\nDIGITS -> [0-9] | [0-9] DIGITS'},
            {"literal": "Hex", "class": 'Hex -> "0x" DIGITS\nDIGITS -> [0-9a-f] | [0-9a-f] DIGITS'},
        )
        g = induce_lispress_grammar([type_check(parse_sexp("(f 1L 0x1)"), sigs)], sigs)
        assert _accepts(g, "(f 12L 0xff)")
        with pytest.raises(TypeCheckError):
            type_check(parse_sexp("(f ffL 0x1)"), sigs)
        assert not _accepts(g, "(f ffL 0x1)")

    def test_class_helper_named_like_a_type(self):
        sigs = _table(
            {"symbol": "f", "args": ["Number", "digits"], "result": "R"},
            {"symbol": "g", "args": [], "result": "digits"},
            {"literal": "Number", "class": "Number -> digits\ndigits -> [0-9] | [0-9] digits"},
        )
        g = induce_lispress_grammar([type_check(parse_sexp("(f 1 (g))"), sigs)], sigs)
        assert _accepts(g, "(f 12 (g))")
        for text in ["(f 1 5)", "(f (g) (g))"]:
            with pytest.raises(TypeCheckError):
                type_check(parse_sexp(text), sigs)
            assert not _accepts(g, text)

    def test_grammar_accepts_what_type_check_accepts(self):
        # Each program is copied with one argument swapped for another
        # program's argument or for a literal of any class. The grammar
        # holds only what the programs show, so a literal goes only where a
        # literal of that type was seen, or where its type has no class.
        for seed in range(300):
            rng = random.Random(seed)
            table = _random_table(rng)
            words = {
                t: sorted(enumerate_language(g, 3)) for t, g in table.literals.items()
            }
            programs = [_random_program(rng, table, words, "A") for _ in range(3)]
            typed = [type_check(parse_sexp(_render(p)), table) for p in programs]
            g = induce_lispress_grammar(typed, table)
            args = [a for tx in typed for a in _arguments(tx)]
            seen_literal = {t for _, t, node in args if isinstance(node, str)}
            swaps = [node for _, _, node in args] + [rng.choice(w) for w in words.values()]
            texts = [_render(p) for p in programs]
            for p, tx in zip(programs, typed):
                for path, t, _ in _arguments(tx):
                    new = rng.choice(swaps)
                    if isinstance(new, str) and t in table.literals and t not in seen_literal:
                        continue
                    texts.append(_render(_replaced(p, path, new)))
            for text in texts:
                try:
                    type_check(parse_sexp(text), table)
                    well_typed = True
                except TypeCheckError:
                    well_typed = False
                assert _accepts(g, text) == well_typed, (seed, text)
