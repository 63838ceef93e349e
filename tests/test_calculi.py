"""Tests for the Tuple and Domain Relational Calculi."""

from __future__ import annotations

import pytest

from repro.drc import (
    DRCError,
    DRCQuery,
    atom_for,
    check_arities,
    evaluate_drc,
    evaluate_drc_boolean,
    format_drc_query,
    head_is_covered,
    parse_drc,
    positional_attribute,
)
from repro.drc.parser import parse_drc_formula
from repro.logic import (
    And,
    Atom,
    AttrRef,
    Compare,
    Const as LConst,
    Exists,
    Iff,
    Not,
    Truth,
    Var,
    all_variables,
    free_variables,
    rename_variables,
)
from repro.translate.sql_to_trc import sql_to_trc
from repro.trc import (
    HeadItem,
    TRCError,
    TRCQuery,
    check_safety,
    evaluate_trc,
    evaluate_trc_boolean,
    format_trc_query,
    is_safe,
    parse_trc,
    parse_trc_formula,
    variable_ranges,
)


def names(relation) -> set:
    return {row[0] for row in relation.distinct_rows()}


class TestTRCParsing:
    def test_parse_and_format_round_trip(self, schema, canonical_query):
        for query in (parse_trc(canonical_query.trc),
                      sql_to_trc(canonical_query.sql, schema)):
            for unicode in (False, True):
                text = format_trc_query(query, unicode=unicode)
                again = parse_trc(text)
                assert again == query
                assert format_trc_query(again, unicode=unicode) == text

    def test_unicode_connectives(self):
        query = parse_trc("{ s.sname | Sailors(s) ∧ ¬(∃r (Reserves(r) ∧ r.sid = s.sid)) }")
        assert isinstance(query.body, And)

    def test_alias_in_head(self):
        query = parse_trc("{ s.sname as who | Sailors(s) }")
        assert query.head[0].alias == "who"
        assert query.head[0].output_name(0) == "who"

    def test_parse_errors(self):
        for bad in [
            "{ s.sname | Sailors(s) ",          # unterminated
            "{ s | Sailors(s) }",                # bare variable as head term
            "{ s.sname | Sailors(s) and }",      # dangling and
            "{ s.sname | s.sid 102 }",           # missing operator
        ]:
            with pytest.raises(TRCError):
                parse_trc(bad)

    def test_structure_helpers(self):
        body = parse_trc_formula(
            "Sailors(s) and exists r (Reserves(r) and r.sid = s.sid)")
        assert [v.name for v in free_variables(body)] == ["s"]
        assert variable_ranges(body) == {"s": "Sailors", "r": "Reserves"}

    def test_conflicting_ranges_rejected(self):
        body = parse_trc_formula("Sailors(s) and Boats(s)")
        with pytest.raises(TRCError):
            variable_ranges(body)


class TestTRCEvaluation:
    def test_canonical_queries(self, db, canonical_query):
        result = evaluate_trc(canonical_query.trc, db)
        assert names(result) == set(canonical_query.expected_names)

    def test_canonical_queries_empty_db(self, empty_db, canonical_query):
        assert evaluate_trc(canonical_query.trc, empty_db).is_empty()

    def test_boolean_queries(self, db):
        assert evaluate_trc_boolean("exists b (Boats(b) and b.color = 'red')", db)
        assert not evaluate_trc_boolean("exists b (Boats(b) and b.color = 'purple')", db)
        assert evaluate_trc_boolean(
            "forall b (Boats(b) -> exists r (Reserves(r) and r.bid = b.bid))", db)

    def test_boolean_requires_sentence(self, db):
        with pytest.raises(TRCError):
            evaluate_trc_boolean("Sailors(s) and s.rating > 5", db)

    def test_unsafe_head_variable_rejected(self, db):
        query = TRCQuery((HeadItem(AttrRef(Var("t"), "sid")),),
                         Not(Atom("Sailors", (Var("t"),))))
        with pytest.raises(TRCError):
            evaluate_trc(query, db)

    def test_output_columns_and_constants(self, db):
        result = evaluate_trc("{ s.sname, s.rating | Sailors(s) and s.sid = 22 }", db)
        assert result.attribute_names == ("sname", "rating")
        assert result.rows() == [("Dustin", 7)]

    def test_implication_universal(self, db):
        result = evaluate_trc(
            "{ s.sname | Sailors(s) and forall r (Reserves(r) -> r.sid <> s.sid) }", db)
        assert names(result) == {"Brutus", "Andy", "Rusty", "Zorba", "Art", "Bob"}


class TestTRCSafety:
    def test_canonical_queries_are_safe(self, canonical_query):
        assert is_safe(parse_trc(canonical_query.trc))

    def test_unsafe_negated_head(self):
        query = parse_trc("{ s.sname | not Sailors(s) }")
        report = check_safety(query)
        assert not report.safe
        assert report.violations

    def test_unguarded_existential(self):
        query = TRCQuery(
            (HeadItem(AttrRef(Var("s"), "sname")),),
            And((Atom("Sailors", (Var("s"),)),
                 Exists((Var("r"),),
                        Compare(AttrRef(Var("r"), "sid"), "=", AttrRef(Var("s"), "sid"))))),
        )
        assert not check_safety(query).safe

    def test_universal_with_implication_guard_is_safe(self):
        query = parse_trc(
            "{ s.sname | Sailors(s) and forall b (Boats(b) -> exists r "
            "(Reserves(r) and r.sid = s.sid and r.bid = b.bid)) }")
        assert is_safe(query)


class TestOneFormulaIR:
    """TRC and DRC bodies are formulas of the same logic classes; TRC adds
    only the attribute-reference term."""

    def test_both_calculi_parse_to_the_logic_classes(self):
        trc = parse_trc_formula(
            "forall b (Boats(b) -> exists r (Reserves(r) and not r.sid = 22)) or true")
        drc = parse_drc_formula(
            "forall b, n, c (Boats(b, n, c) -> exists s, d (Reserves(s, b, d) "
            "and not s = 22)) or true")
        kinds = [type(node) for node in trc.walk()]
        assert kinds == [type(node) for node in drc.walk()]
        assert {kind.__module__ for kind in kinds} == {"repro.logic.formula"}

    def test_free_variables_see_inside_attribute_references(self):
        body = parse_trc_formula("Sailors(s) and s.rating > t.rating")
        assert [v.name for v in free_variables(body)] == ["s", "t"]
        assert [v.name for v in all_variables(body)] == ["s", "t"]

    def test_rename_reaches_attribute_references_and_quantifiers(self):
        body = parse_trc_formula(
            "Sailors(s) and exists r (Reserves(r) and r.sid = s.sid)")
        assert rename_variables(body, {"s": "t", "r": "q"}) == parse_trc_formula(
            "Sailors(t) and exists q (Reserves(q) and q.sid = t.sid)")


#: Bodies built from the logic classes that TRC does not have: a
#: biconditional, and an atom over more than one term.
NOT_TRC = {
    "iff": And((Atom("Sailors", (Var("s"),)),
                Iff(Compare(AttrRef(Var("s"), "rating"), ">", LConst(7)), Truth()))),
    "wide-atom": And((Atom("Sailors", (Var("s"),)),
                      Atom("Reserves", (Var("s"), Var("b"))))),
}


@pytest.fixture(params=sorted(NOT_TRC))
def not_trc(request) -> TRCQuery:
    return TRCQuery((HeadItem(AttrRef(Var("s"), "sname")),), NOT_TRC[request.param])


class TestTRCStaysTRC:
    def test_formatter_rejects(self, not_trc):
        with pytest.raises(TRCError):
            format_trc_query(not_trc)

    def test_evaluator_rejects(self, db, not_trc):
        with pytest.raises(TRCError):
            evaluate_trc(not_trc, db)

    def test_safety_check_rejects(self, not_trc):
        with pytest.raises(TRCError):
            check_safety(not_trc)


class TestDRC:
    def test_canonical_queries(self, db, canonical_query):
        result = evaluate_drc(canonical_query.drc, db)
        assert names(result) == set(canonical_query.expected_names)

    def test_canonical_queries_empty_db(self, empty_db, canonical_query):
        assert evaluate_drc(canonical_query.drc, empty_db).is_empty()

    def test_parse_and_format_round_trip(self, db, canonical_query):
        query = parse_drc(canonical_query.drc)
        again = parse_drc(format_drc_query(query))
        assert names(evaluate_drc(again, db)) == set(canonical_query.expected_names)

    def test_anonymous_variables(self, db):
        result = evaluate_drc("{ n | exists s, r, a (Sailors(s, n, r, a) and Reserves(s, _, _)) }", db)
        assert names(result) == {"Dustin", "Lubber", "Horatio"}

    def test_boolean_statements(self, db):
        assert evaluate_drc_boolean("exists b, n (Boats(b, n, 'red'))", db)
        assert not evaluate_drc_boolean("forall b, n, c (Boats(b, n, c) -> c = 'red')", db)
        assert evaluate_drc_boolean(
            "forall s, b, d (Reserves(s, b, d) -> exists n, r, a (Sailors(s, n, r, a)))", db)

    def test_boolean_requires_sentence(self, db):
        with pytest.raises(DRCError):
            evaluate_drc_boolean("Boats(b, n, 'red')", db)

    def test_head_must_be_free(self, db):
        query = DRCQuery((Var("z"),), Exists((Var("z"),),
                                             Atom("Boats", (Var("z"), Var("n"), Var("c")))))
        with pytest.raises(DRCError):
            evaluate_drc(query, db)

    def test_unknown_relation_is_reported(self, schema):
        query = parse_drc("{ x | Pirates(x) }")
        assert check_arities(query, schema) == ["unknown relation 'Pirates'"]

    def test_arity_mismatch_is_reported(self, schema):
        query = parse_drc("{ x | Boats(x) }")
        problems = check_arities(query, schema)
        assert len(problems) == 1 and "arity" in problems[0]

    def test_helpers(self, schema):
        assert positional_attribute(schema, "Boats", 2) == "color"
        with pytest.raises(DRCError):
            positional_attribute(schema, "Boats", 9)
        atom = atom_for(schema, "Boats", {"color": LConst("red")})
        assert atom.terms[2] == LConst("red")
        assert head_is_covered(parse_drc("{ x | exists n (Boats(x, n, 'red')) }"))
        assert not head_is_covered(parse_drc("{ y | exists x, n (Boats(x, n, 'red')) }"))

    def test_comparisons_and_disjunction(self, db):
        result = evaluate_drc(
            "{ n | exists s, r, a (Sailors(s, n, r, a) and (r = 10 or a > 60.0)) }", db)
        assert names(result) == {"Rusty", "Zorba", "Bob"}
