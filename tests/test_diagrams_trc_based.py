"""Tests for the TRC-based diagram builders: QueryVis and Relational Diagrams."""

from __future__ import annotations

import pytest

from repro.core.patterns import to_trc
from repro.diagrams import build_diagram
from repro.diagrams.common import CannotRepresent, build_query_graph
from repro.diagrams.queryvis import can_represent as queryvis_can, queryvis_diagram
from repro.diagrams.relational_diagrams import (
    can_represent as relational_can,
    relational_diagram,
)
from repro.queries import (
    Q1_BASIC_JOIN,
    Q3_RED_NOT_GREEN,
    Q4_ALL_RED,
    Q5_RED_OR_GREEN,
)
from repro.trc import parse_trc


class TestQueryGraphExtraction:
    def test_tables_scopes_and_joins(self, schema):
        graph = build_query_graph(to_trc(Q4_ALL_RED.sql, schema))
        assert set(graph.tables) == {"s", "b", "r"}
        assert graph.tables["s"].scope == 0
        assert graph.scopes[graph.tables["b"].scope].negated
        assert graph.scopes[graph.tables["r"].scope].depth == 2
        assert len(graph.joins) == 2
        assert graph.head == [("s", "sname")]

    def test_local_predicates_inlined(self, schema):
        graph = build_query_graph(to_trc(Q1_BASIC_JOIN.sql, schema))
        reserves = graph.tables["r"]
        assert any(p.startswith("bid = 102") for p in reserves.local_predicates)

    def test_local_disjunction_folds_into_one_box(self, schema):
        graph = build_query_graph(to_trc(Q5_RED_OR_GREEN.sql, schema))
        boats = graph.tables["b"]
        assert any(" OR " in p for p in boats.local_predicates)

    def test_cross_variable_disjunction_raises(self, schema):
        trc = parse_trc(
            "{ s.sname | Sailors(s) and exists r (Reserves(r) and "
            "(r.sid = s.sid or s.rating > 7)) }")
        with pytest.raises(CannotRepresent):
            build_query_graph(trc)

    @pytest.mark.parametrize("branch", [
        "not (s.age > 30)",
        "exists r (Reserves(r) and r.bid = 102)",
    ])
    def test_disjunction_branch_beyond_one_comparison_raises(self, branch):
        trc = parse_trc(f"{{ s.sname | Sailors(s) and ({branch} or s.rating = 7) }}")
        with pytest.raises(CannotRepresent):
            build_query_graph(trc)

    def test_flipped_comparison_inside_disjunction_reads_attribute_first(self, schema):
        graph = build_query_graph(to_trc(
            "SELECT S.sname FROM Sailors S WHERE 30 < S.age OR S.rating = 7", schema))
        assert graph.tables["s"].local_predicates == ["age > 30 OR rating = 7"]

    @pytest.mark.parametrize("query", [
        "SELECT S.sname FROM Sailors S WHERE NOT (S.age > 30)",
        "{ s.sname | Sailors(s) and exists r (Reserves(r) and not (r.sid = s.sid)) }",
    ])
    def test_comparison_outside_its_tables_scope_is_not_drawn(self, schema, query):
        assert not queryvis_can(query, schema)
        assert not relational_can(query, schema)

    def test_disallow_local_disjunction_flag(self, schema):
        with pytest.raises(CannotRepresent):
            build_query_graph(to_trc(Q5_RED_OR_GREEN.sql, schema),
                              allow_local_disjunction=False)


class TestQueryVis:
    def test_structure_for_division_query(self, schema):
        diagram = queryvis_diagram(Q4_ALL_RED.sql, schema)
        counts = diagram.element_counts()
        assert counts["table_nodes"] == 3
        assert counts["max_nesting_depth"] == 3      # select box + two NOT EXISTS boxes
        reading_order = [e for e in diagram.edges if e.kind == "reading-order"]
        joins = [e for e in diagram.edges if e.kind == "join"]
        assert len(reading_order) == 2
        assert len(joins) == 2
        assert diagram.validate() == []

    def test_group_labels_mark_negation(self, schema):
        diagram = queryvis_diagram(Q3_RED_NOT_GREEN.sql, schema)
        labels = [g.label for g in diagram.groups.values()]
        assert any(label == "NOT EXISTS" for label in labels)
        assert any(label.startswith("SELECT") for label in labels)

    def test_output_attribute_is_marked(self, schema):
        diagram = queryvis_diagram(Q1_BASIC_JOIN.sql, schema)
        sailor_rows = [n.rows for n in diagram.nodes.values() if "Sailors" in n.label][0]
        assert any(row.startswith("→ sname") for row in sailor_rows)

    def test_join_edges_attach_to_rows(self, schema):
        diagram = queryvis_diagram(Q1_BASIC_JOIN.sql, schema)
        join = [e for e in diagram.edges if e.kind == "join"][0]
        assert join.source_port is not None and join.target_port is not None

    def test_trc_input_accepted(self, schema):
        diagram = queryvis_diagram(Q4_ALL_RED.trc, schema)
        assert diagram.element_counts()["table_nodes"] == 3

    def test_can_represent(self, schema):
        assert queryvis_can(Q4_ALL_RED.sql, schema)
        assert queryvis_can(Q5_RED_OR_GREEN.sql, schema)  # local disjunction is fine
        assert not queryvis_can("SELECT COUNT(*) FROM Sailors", schema)


class TestRelationalDiagrams:
    def test_negation_boxes_instead_of_arrows(self, schema):
        diagram = relational_diagram(Q4_ALL_RED.sql, schema)
        counts = diagram.element_counts()
        assert counts["negation_groups"] == 2
        assert all(e.kind != "reading-order" for e in diagram.edges)
        assert counts["directed_edges"] == 0

    def test_union_of_diagrams_for_disjunction(self, schema):
        diagram = relational_diagram(
            "SELECT S.sname FROM Sailors S, Reserves R, Boats B "
            "WHERE S.sid = R.sid AND R.bid = B.bid AND (B.color = 'red' OR B.color = 'green')",
            schema)
        assert diagram.formalism == "relational_diagrams"
        # two branches, three tables each
        assert diagram.element_counts()["table_nodes"] == 6
        wrappers = [g for g in diagram.groups.values() if g.parent is None]
        assert len(wrappers) == 2

    def test_union_sql_also_splits(self, schema):
        diagram = relational_diagram(Q5_RED_OR_GREEN.sql.replace(
            "(B.color = 'red' OR B.color = 'green')", "B.color = 'red'"), schema)
        assert diagram.element_counts()["table_nodes"] == 3

    def test_same_pattern_same_size(self, schema):
        not_in = ("SELECT S.sname FROM Sailors S WHERE S.sid NOT IN "
                  "(SELECT R.sid FROM Reserves R WHERE R.bid = 103)")
        not_exists = ("SELECT S.sname FROM Sailors S WHERE NOT EXISTS "
                      "(SELECT R.sid FROM Reserves R WHERE R.sid = S.sid AND R.bid = 103)")
        a = relational_diagram(not_in, schema)
        b = relational_diagram(not_exists, schema)
        assert a.element_counts() == b.element_counts()

    def test_can_represent(self, schema):
        assert relational_can(Q5_RED_OR_GREEN.sql, schema)
        assert relational_can(Q4_ALL_RED.sql, schema)
        assert not relational_can("SELECT rating, COUNT(*) FROM Sailors GROUP BY rating", schema)

    def test_dispatcher_equivalence(self, schema):
        via_dispatcher = build_diagram("relational_diagrams", Q4_ALL_RED.sql, schema)
        direct = relational_diagram(Q4_ALL_RED.sql, schema)
        assert via_dispatcher.element_counts() == direct.element_counts()
