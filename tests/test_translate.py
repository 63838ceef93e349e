"""Tests for the cross-language translators and the equivalence harness."""

from __future__ import annotations

import pytest

from repro.datalog import evaluate_datalog
from repro.core.render_text import render_text
from repro.diagrams.peirce_beta import beta_diagram_for_query, beta_graph_of
from repro.drc import evaluate_drc, format_drc_query
from repro.queries import CANONICAL_QUERIES, Q2_RED_BOAT, Q4_ALL_RED
from repro.ra import evaluate as evaluate_ra, parse_ra, to_text
from repro.sql import evaluate_sql, parse_sql
from repro.translate import (
    EquivalenceError,
    RATranslationError,
    TRCToDRCError,
    UnsupportedSQL,
    UnsupportedSQLForRA,
    agreement_matrix,
    answer_set,
    check_equivalence,
    datalog_to_ra,
    ra_to_datalog,
    sql_to_ra,
    sql_to_trc,
    standard_database_battery,
    trc_to_drc,
)
from repro.trc import evaluate_trc, format_trc_query, is_safe, parse_trc


def names(relation) -> set:
    return {row[0] for row in relation.distinct_rows()}


class TestSQLToTRC:
    def test_canonical_sql_translates_and_agrees(self, db, schema, canonical_query):
        trc = sql_to_trc(canonical_query.sql, schema)
        assert is_safe(trc)
        assert names(evaluate_trc(trc, db)) == set(canonical_query.expected_names)

    def test_correlated_exists(self, db, schema):
        sql = ("SELECT S.sname FROM Sailors S WHERE EXISTS "
               "(SELECT R.sid FROM Reserves R WHERE R.sid = S.sid AND R.bid = 103)")
        trc = sql_to_trc(sql, schema)
        assert names(evaluate_trc(trc, db)) == {"Dustin", "Lubber", "Horatio"}
        assert "exists" in format_trc_query(trc)

    def test_all_quantifier_becomes_double_negation(self, db, schema):
        sql = "SELECT S.sname FROM Sailors S WHERE S.rating >= ALL (SELECT S2.rating FROM Sailors S2)"
        trc = sql_to_trc(sql, schema)
        assert "not" in format_trc_query(trc)
        assert names(evaluate_trc(trc, db)) == {"Rusty", "Zorba"}

    def test_explicit_join_syntax(self, db, schema):
        sql = ("SELECT S.sname FROM Sailors S JOIN Reserves R ON S.sid = R.sid "
               "WHERE R.bid = 102")
        trc = sql_to_trc(sql, schema)
        assert names(evaluate_trc(trc, db)) == {"Dustin", "Lubber", "Horatio"}

    @pytest.mark.parametrize("sql", [
        "SELECT S.sname FROM Sailors S WHERE FALSE",
        "SELECT S.sname FROM Sailors S, Reserves R WHERE S.sid = R.sid AND FALSE",
    ])
    def test_false_where_clause_is_kept(self, db, schema, sql):
        trc = sql_to_trc(sql, schema)
        assert "false" in format_trc_query(trc)
        assert evaluate_trc(trc, db).is_empty()
        assert evaluate_sql(sql, db).is_empty()

    def test_union_requires_same_head_relation(self, schema):
        with pytest.raises(UnsupportedSQL):
            sql_to_trc("SELECT sname FROM Sailors UNION SELECT bname FROM Boats", schema)

    def test_union_on_same_relation_supported(self, db, schema):
        sql = ("SELECT S.sname FROM Sailors S WHERE S.rating = 10 UNION "
               "SELECT S2.sname FROM Sailors S2 WHERE S2.age > 60.0")
        trc = sql_to_trc(sql, schema)
        assert names(evaluate_trc(trc, db)) == {"Rusty", "Zorba", "Bob"}

    def test_unsupported_constructs(self, schema):
        for sql in [
            "SELECT COUNT(*) FROM Sailors",
            "SELECT rating FROM Sailors GROUP BY rating",
            "SELECT * FROM Sailors",
            "SELECT sname FROM Sailors S LEFT OUTER JOIN Reserves R ON S.sid = R.sid",
            "SELECT T.sname FROM (SELECT sname FROM Sailors) T",
        ]:
            with pytest.raises(UnsupportedSQL):
                sql_to_trc(sql, schema)

    def test_unknown_alias_or_column(self, schema):
        with pytest.raises(UnsupportedSQL):
            sql_to_trc("SELECT X.sname FROM Sailors S", schema)
        with pytest.raises(UnsupportedSQL):
            sql_to_trc("SELECT S.shoesize FROM Sailors S", schema)


class TestTRCToDRC:
    def test_canonical_queries_round(self, db, schema, canonical_query):
        trc = parse_trc(canonical_query.trc)
        drc = trc_to_drc(trc, schema)
        assert names(evaluate_drc(drc, db)) == set(canonical_query.expected_names)

    def test_variables_are_expanded_positionally(self, schema):
        trc = parse_trc("{ s.sname | Sailors(s) and s.rating > 7 }")
        drc = trc_to_drc(trc, schema)
        text = format_drc_query(drc)
        assert "Sailors(s_sid, s_sname, s_rating, s_age)" in text
        assert "s_rating > 7" in text

    def test_head_variables_stay_free(self, schema):
        trc = parse_trc("{ s.sname, s.age | Sailors(s) }")
        drc = trc_to_drc(trc, schema)
        assert [v.name for v in drc.head_variables()] == ["s_sname", "s_age"]

    @pytest.mark.parametrize("text,renamed", [
        ("{ s.sname | Sailors(s) and exists r (Reserves(r) and r.sid = s.sid) "
         "and exists r (Boats(r) and r.color = 'red') }",
         "{ s.sname | Sailors(s) and exists r (Reserves(r) and r.sid = s.sid) "
         "and exists b (Boats(b) and b.color = 'red') }"),
        ("{ s.sname | Sailors(s) and exists s (Reserves(s) and s.bid = 101) }",
         "{ s.sname | Sailors(s) and exists r (Reserves(r) and r.bid = 101) }"),
    ])
    def test_ranges_are_scoped(self, db, schema, text, renamed):
        drc = trc_to_drc(parse_trc(text), schema)
        assert evaluate_drc(drc, db).bag_equal(evaluate_trc(renamed, db))
        # No two atoms share a variable, so no line of identity joins two spots.
        assert all(len(line.hooks) == 1 for line in beta_graph_of(drc.body).lines)
        assert "Reserves" in render_text(beta_diagram_for_query(text, schema))

    def test_one_scope_one_range(self, schema):
        with pytest.raises(TRCToDRCError):
            trc_to_drc(parse_trc("{ s.sname | Sailors(s) and Boats(s) }"), schema)


class TestSQLToRA:
    def test_flat_queries(self, db, schema):
        for query in (CANONICAL_QUERIES[0], CANONICAL_QUERIES[1], CANONICAL_QUERIES[4]):
            ra = sql_to_ra(query.sql, schema)
            assert names(evaluate_ra(ra, db)) == set(query.expected_names)

    def test_uncorrelated_in_becomes_semijoin(self, db, schema):
        sql = "SELECT S.sname FROM Sailors S WHERE S.sid IN (SELECT R.sid FROM Reserves R WHERE R.bid = 102)"
        ra = sql_to_ra(sql, schema)
        assert "semijoin" in to_text(ra)
        assert names(evaluate_ra(ra, db)) == {"Dustin", "Lubber", "Horatio"}

    def test_not_in_becomes_antijoin(self, db, schema):
        sql = "SELECT S.sname FROM Sailors S WHERE S.sid NOT IN (SELECT R.sid FROM Reserves R)"
        ra = sql_to_ra(sql, schema)
        assert "antijoin" in to_text(ra)
        assert names(evaluate_ra(ra, db)) == {"Brutus", "Andy", "Rusty", "Zorba", "Art", "Bob"}

    def test_correlated_subquery_rejected(self, schema):
        with pytest.raises(UnsupportedSQLForRA):
            sql_to_ra(Q4_ALL_RED.sql, schema)

    def test_aggregates_rejected(self, schema):
        with pytest.raises(UnsupportedSQLForRA):
            sql_to_ra("SELECT COUNT(*) FROM Sailors", schema)

    def test_set_operations(self, db, schema):
        sql = ("SELECT bid FROM Boats WHERE color = 'red' "
               "UNION SELECT bid FROM Boats WHERE bid = 101")
        assert set(evaluate_ra(sql_to_ra(sql, schema), db).rows()) == {(101,), (102,), (104,)}


class TestRADatalog:
    def test_ra_to_datalog_for_canonical_queries(self, db, schema, canonical_query):
        ra = parse_ra(canonical_query.ra)
        program = ra_to_datalog(ra, schema)
        result = evaluate_datalog(program, db)
        assert names(result) == set(canonical_query.expected_names)

    def test_division_uses_double_negation(self, schema):
        ra = parse_ra(Q4_ALL_RED.ra)
        program = ra_to_datalog(ra, schema)
        negated = [lit for rule in program for lit in rule.negative_literals()]
        assert len(negated) >= 2  # the two-negation division pattern

    def test_datalog_to_ra_round_trip(self, db, schema, canonical_query):
        program = ra_to_datalog(parse_ra(canonical_query.ra), schema)
        back = datalog_to_ra(program, schema)
        assert names(evaluate_ra(back, db)) == set(canonical_query.expected_names)

    def test_datalog_to_ra_direct_programs(self, db, schema, canonical_query):
        from repro.datalog import parse_datalog

        program = parse_datalog(canonical_query.datalog)
        back = datalog_to_ra(program, schema)
        assert names(evaluate_ra(back, db)) == set(canonical_query.expected_names)

    def test_recursive_program_rejected(self, schema):
        from repro.datalog import parse_datalog

        program = parse_datalog("path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z).")
        with pytest.raises(RATranslationError):
            datalog_to_ra(program, schema)


class TestEquivalenceHarness:
    def test_answer_relation_dispatch(self, db, schema):
        query = Q2_RED_BOAT
        answers = {
            "sql": answer_set(query.sql, db),
            "sql_ast": answer_set(parse_sql(query.sql), db),
            "ra_text": answer_set(query.ra, db),
            "ra_ast": answer_set(parse_ra(query.ra), db),
            "trc": answer_set(query.trc, db),
            "drc": answer_set(query.drc, db),
            "datalog": answer_set(query.datalog, db),
            "relation": answer_set(evaluate_sql(query.sql, db), db),
        }
        assert len(set(answers.values())) == 1

    def test_answer_relation_unknown_type(self, db):
        with pytest.raises(EquivalenceError):
            answer_set(3.14, db)

    def test_check_equivalence_canonical(self, canonical_query):
        result = check_equivalence(list(canonical_query.languages().values()),
                                   standard_database_battery(extra_random=2, rows=6))
        assert result.equivalent
        assert result.databases_checked >= 3

    def test_check_equivalence_detects_difference(self, db):
        result = check_equivalence([
            "SELECT sname FROM Sailors WHERE rating > 7",
            "SELECT sname FROM Sailors WHERE rating >= 7",
        ])
        assert not result.equivalent
        assert result.counterexample is not None
        assert result.details

    def test_agreement_matrix_is_symmetric(self):
        matrix = agreement_matrix(
            {"SQL": Q2_RED_BOAT.sql, "RA": Q2_RED_BOAT.ra, "TRC": Q2_RED_BOAT.trc},
            standard_database_battery(extra_random=1, rows=5),
        )
        assert matrix[("SQL", "RA")] and matrix[("RA", "SQL")]
        assert all(matrix[(a, a)] for a in ("SQL", "RA", "TRC"))

    def test_battery_contains_edge_cases(self):
        battery = standard_database_battery(extra_random=1)
        assert battery[1].total_rows() == 0
        assert battery[0].total_rows() == 24
