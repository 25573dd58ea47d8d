import pytest

from kdgraph.facts import (
    Fact,
    FactSyntaxError,
    KnowledgeStore,
    Provenance,
    dump,
    dumps,
    merge_stores,
    parse_fact_file,
)

from .conftest import TRANSLATION_SNIPPET


class TestParsing:
    def test_single_fact(self):
        store = parse_fact_file("has(mrna4642, instance_of, mrna).")
        assert len(store) == 1
        assert ("mrna4642", "instance_of", "mrna") in store

    def test_empty_input(self):
        assert len(parse_fact_file("")) == 0

    def test_comments_and_whitespace_ignored(self):
        text = "% leading comment\n  has(a, b, c). % trailing\n\n\thas(d, e, f).\n"
        store = parse_fact_file(text)
        assert store.triples() == {("a", "b", "c"), ("d", "e", "f")}

    def test_statement_spanning_lines(self):
        store = parse_fact_file("has(a,\n  b,\n  c)\n.")
        assert ("a", "b", "c") in store

    def test_arity_two_is_a_syntax_error(self):
        with pytest.raises(FactSyntaxError) as excinfo:
            parse_fact_file("has(a, b).")
        assert excinfo.value.line == 1

    def test_missing_dot(self):
        with pytest.raises(FactSyntaxError):
            parse_fact_file("has(a, b, c)")

    def test_bad_identifier(self):
        with pytest.raises(FactSyntaxError):
            parse_fact_file("has(A, b, c).")

    def test_error_position_on_later_line(self):
        with pytest.raises(FactSyntaxError) as excinfo:
            parse_fact_file("has(a, b, c).\nhas(x, , z).")
        assert excinfo.value.line == 2

    def test_line_numbers_recorded(self):
        store = parse_fact_file("% intro\nhas(a, b, c).", filename="kb.facts")
        fact = store.facts()[0]
        assert fact.provenance.kind == "asserted"
        assert fact.provenance.file == "kb.facts"
        assert fact.provenance.line == 2

    def test_translation_snippet(self):
        store = parse_fact_file(TRANSLATION_SNIPPET)
        assert len(store) == 4
        assert ("euka_transl4191", "base", "mrna4642") in store


# (input, message, line, column) for malformed fact files.
SYNTAX_ERRORS = [
    ("hax(a, b, c).", "expected 'has', found 'x'", 1, 3),
    ("has(a, b, c)", "expected '.', found end of input", 1, 13),
    ("has(a, b, c)\n", "expected '.', found end of input", 2, 1),
    ("has(a, B, c).", "expected identifier, found 'B'", 1, 8),
    ("% note\nhas(a, b c).", "expected ',', found 'c'", 2, 10),
    ("has(a, b, c). % note\n).", "expected 'has', found ')'", 2, 1),
    # A comment runs to the end of its line, whatever it contains.
    ("has(a, b, c).\nhas(a, b%s, c).", "expected ',', found end of input", 2, 16),
    ("has(a, b, c).\r\nhas(d, e f).\r\n", "expected ',', found 'f'", 2, 10),
    ("has(a, b, c).\r\nhas(d, e, f)\r\n", "expected '.', found end of input", 3, 1),
    ("\thas(a,\x0bb,\x0cc)\xa0.\n\t x", "expected 'has', found 'x'", 2, 3),
    ("\thas(a,\x0bb,\x0cc)\xa0.\u2003x", "expected 'has', found 'x'", 1, 17),
    ("has(a, b, c). has(d, e, f) has(g, h, i).", "expected '.', found 'h'", 1, 28),
    ("has (a , b , c ) .has(a-b, c, d).", "expected ',', found '-'", 1, 24),
    ("has(a, b, c).\nh", "expected 'has', found end of input", 2, 2),
    ("has(a, b, c).\n  h", "expected 'has', found end of input", 2, 4),
    ("has(a, b).", "expected ',', found ')'", 1, 9),
    ("has(a, b, c).\nhas(x, , z).", "expected identifier, found ','", 2, 8),
]


class TestSyntaxErrorPositions:
    @pytest.mark.parametrize("text, message, line, column", SYNTAX_ERRORS)
    def test_message_line_and_column(self, text, message, line, column):
        with pytest.raises(FactSyntaxError) as excinfo:
            parse_fact_file(text)
        error = excinfo.value
        assert (str(error), error.line, error.column) == (
            f"line {line}, column {column}: {message}",
            line,
            column,
        )

    def test_provenance_line_after_blank_lines_and_comments(self):
        text = (
            "\n\n% one\n\thas(a, b, c). % two\n\n"
            "% has(x, y, z).\r\n  has(d,\n e, f). has(g, h, i).\n\n\nhas(j, k, l)."
        )
        store = parse_fact_file(text)
        assert [(f.triple, f.provenance.line) for f in store.facts()] == [
            (("a", "b", "c"), 4),
            (("d", "e", "f"), 7),
            (("g", "h", "i"), 8),
            (("j", "k", "l"), 11),
        ]


class TestStore:
    def test_duplicates_collapse(self):
        store = parse_fact_file("has(a, b, c).\nhas(a, b, c).")
        assert len(store) == 1

    def test_first_provenance_wins(self):
        store = KnowledgeStore()
        store.add(Fact("a", "b", "c", Provenance.asserted("f", 1)))
        store.add(Fact("a", "b", "c", Provenance.derived("e2")))
        assert store.facts()[0].provenance.kind == "asserted"

    def test_add_derived_is_idempotent(self):
        store = KnowledgeStore()
        assert store.add_derived("a", "b", "c", "e2")
        assert not store.add_derived("a", "b", "c", "e5")
        assert len(store) == 1

    def test_add_derived_keeps_asserted(self):
        store = parse_fact_file("has(a, b, c).")
        assert not store.add_derived("a", "b", "c", "e2")
        assert store.facts()[0].provenance.kind == "asserted"

    def test_two_distinct_derived_facts_grow_by_two(self):
        store = KnowledgeStore()
        store.add_derived("a", "b", "c", "r1")
        store.add_derived("a", "b", "d", "r1")
        assert len(store) == 2

    def test_invalid_identifier_rejected(self):
        with pytest.raises(ValueError):
            Fact("Upper", "slot", "value")
        with pytest.raises(ValueError):
            Fact("", "slot", "value")
        with pytest.raises(ValueError):
            Fact("a-b", "slot", "value")


class TestQuery:
    def test_bound_subject_slot(self):
        store = parse_fact_file(TRANSLATION_SNIPPET)
        facts = store.query(subject="euka_transl4191", slot="base")
        assert [f.triple for f in facts] == [("euka_transl4191", "base", "mrna4642")]

    def test_bound_slot_value(self):
        store = parse_fact_file(TRANSLATION_SNIPPET)
        facts = store.query(slot="instance_of", value="mrna")
        assert [f.triple for f in facts] == [("mrna4642", "instance_of", "mrna")]

    def test_wildcard_on_empty_store(self):
        assert KnowledgeStore().query() == []

    def test_lexicographic_order(self):
        store = parse_fact_file("has(b, s, v).\nhas(a, t, v).\nhas(a, s, v).")
        assert [f.triple for f in store.query()] == [
            ("a", "s", "v"),
            ("a", "t", "v"),
            ("b", "s", "v"),
        ]

    def test_query_completeness(self):
        store = parse_fact_file(TRANSLATION_SNIPPET)
        for fact in store.facts():
            hits = store.query(fact.subject, fact.slot, fact.value)
            assert fact in hits


class TestSerialization:
    def test_round_trip(self, eukaryote_store):
        text = eukaryote_store.to_fact_text()
        assert parse_fact_file(text).triples() == eukaryote_store.triples()

    def test_round_trip_with_derived_comments(self):
        store = KnowledgeStore()
        store.add_derived("a", "next_event", "b", "e2")
        assert parse_fact_file(store.to_fact_text()).triples() == store.triples()

    def test_json_shape(self):
        import json

        store = parse_fact_file("has(a, b, c).", filename="x")
        rows = json.loads(dumps(store.json_payload()))
        assert rows == [
            {
                "subject": "a",
                "slot": "b",
                "value": "c",
                "provenance": {"kind": "asserted", "file": "x", "line": 1},
            }
        ]

    def test_streamed_json_is_the_whole_text(self):
        import io
        import json

        # Thousands of rows: the text spans several writes.
        payload = {"rows": [{"b": i, "a": [str(i), None]} for i in range(5000)]}
        out = io.StringIO()
        dump(payload, out)
        assert out.getvalue() == dumps(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_merge(self):
        left = parse_fact_file("has(a, b, c).")
        right = parse_fact_file("has(a, b, c).\nhas(d, e, f).")
        assert merge_stores(left, right).triples() == right.triples()
