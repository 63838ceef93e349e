"""Tests for the database-community formalisms: QBE, DFQL, SQLVis, Visual SQL,
conceptual graphs, and string diagrams."""

from __future__ import annotations

import re

import pytest

from repro.datalog import evaluate_datalog
from repro.diagrams import available_builders, build_diagram
from repro.diagrams.common import CannotRepresent
from repro.diagrams.conceptual import conceptual_graph_diagram
from repro.diagrams.dfql import dfql_diagram, dfql_from_ra
from repro.diagrams.qbe import (
    qbe_diagram,
    qbe_division_steps,
    qbe_from_query,
)
from repro.diagrams.sqlvis import sqlvis_diagram
from repro.diagrams.string_diagrams import string_diagram_for_query
from repro.diagrams.visual_sql import visual_sql_diagram
from repro.queries import (
    CANONICAL_QUERIES,
    Q1_BASIC_JOIN,
    Q2_RED_BOAT,
    Q3_RED_NOT_GREEN,
    Q4_ALL_RED,
    Q5_RED_OR_GREEN,
)
from repro.ra import parse_ra


class TestQBE:
    def test_skeleton_tables_share_example_elements(self, schema):
        qbe = qbe_from_query(Q1_BASIC_JOIN.sql, schema)
        assert len(qbe.tables) == 2
        sailors = next(t for t in qbe.tables if t.relation == "Sailors")
        reserves = next(t for t in qbe.tables if t.relation == "Reserves")
        assert sailors.entries["sid"] == reserves.entries["sid"]
        assert sailors.entries["sname"].startswith("P.")
        assert reserves.entries["bid"] == "102"

    def test_negated_row_for_simple_negation(self, schema):
        qbe = qbe_from_query(Q3_RED_NOT_GREEN.sql, schema)
        assert any(t.negated for t in qbe.tables)

    def test_division_needs_two_screens(self, schema):
        with pytest.raises(CannotRepresent):
            qbe_from_query(Q4_ALL_RED.sql, schema)
        steps = qbe_division_steps(schema)
        assert len(steps) == 2
        assert steps[0].result_name == "BadSid"
        assert any(t.negated for t in steps[0].tables)
        assert any(t.relation == "BadSid" and t.negated for t in steps[1].tables)

    def test_division_steps_mirror_datalog_pattern(self, db, schema):
        """The two QBE steps compute the same answer as the Datalog division program."""
        result = evaluate_datalog(Q4_ALL_RED.datalog, db)
        assert {row[0] for row in result.rows()} == {"Dustin", "Lubber"}
        steps = qbe_division_steps(schema)
        # step1 tables = dividend + divisor + negated dividend; step2 = dividend + temp.
        assert len(steps[0].tables) == 3 and len(steps[1].tables) == 2

    def test_diagram_rendering(self, schema):
        diagram = qbe_diagram(Q2_RED_BOAT.sql, schema)
        labels = [n.label for n in diagram.nodes.values()]
        assert "Sailors" in labels and "Boats" in labels
        ascii_art = diagram.to_ascii()
        assert "P._SNAME" in ascii_art or "P." in ascii_art

    def test_division_step_diagrams_render(self, schema):
        for step in qbe_division_steps(schema):
            rendered = step.to_diagram(schema)
            assert rendered.nodes


    @pytest.mark.parametrize("spelling", ["sql", "trc"])
    def test_disjunction_condition_uses_one_element(self, schema, spelling):
        qbe = qbe_from_query(getattr(Q5_RED_OR_GREEN, spelling), schema)
        element = next(t for t in qbe.tables if t.relation == "Boats").entries["color"]
        assert qbe.conditions == [f"{element} = 'red' OR {element} = 'green'"]

    def test_disjunction_on_one_attribute_uses_one_element(self, schema):
        qbe = qbe_from_query(
            "SELECT S.sname FROM Sailors S WHERE S.age > 60 OR S.age < 20", schema)
        element = qbe.tables[0].entries["age"]
        assert qbe.conditions == [f"{element} > 60 OR {element} < 20"]

    def test_join_elements_unify_across_subqueries(self, schema):
        qbe = qbe_from_query(Q3_RED_NOT_GREEN.trc, schema)
        sids = [t.entries["sid"].removeprefix("P.") for t in qbe.tables
                if t.relation != "Boats"]
        assert len(sids) == 3 and len(set(sids)) == 1

    def test_attribute_equality_shares_an_element(self, schema):
        qbe = qbe_from_query("SELECT S.sname FROM Sailors S WHERE S.rating = S.age", schema)
        entries = qbe.tables[0].entries
        assert entries["rating"] == entries["age"]
        assert entries["rating"].startswith("_")

    def test_sql_and_trc_spellings_give_one_screen(self, schema, canonical_query):
        def screen(text: str) -> str | None:
            try:
                qbe = qbe_from_query(text, schema)
            except CannotRepresent:
                return None
            rendered = repr(([(t.relation, t.negated, t.row_text(schema)) for t in qbe.tables],
                             qbe.conditions))
            names: dict[str, str] = {}
            return re.sub(r"_[A-Z]+\d*",
                          lambda m: names.setdefault(m.group(), f"_E{len(names)}"),
                          rendered)

        assert screen(canonical_query.sql) == screen(canonical_query.trc)


class TestDFQL:
    def test_operator_tree_from_ra(self, schema):
        from repro.queries import Q4_ALL_RED_DIVISION_RA

        diagram = dfql_from_ra(parse_ra(Q4_ALL_RED_DIVISION_RA))
        labels = [n.label for n in diagram.nodes.values()]
        assert any(label.startswith("π") for label in labels)
        assert any(label == "÷" for label in labels)
        assert all(e.directed for e in diagram.edges)
        assert all(e.kind == "dataflow" for e in diagram.edges)

    def test_edges_flow_towards_display(self, schema):
        diagram = dfql_from_ra(parse_ra(Q1_BASIC_JOIN.ra))
        sinks = [n.id for n in diagram.nodes.values() if n.kind == "sink"]
        assert len(sinks) == 1
        assert any(e.target == sinks[0] for e in diagram.edges)

    def test_accepts_sql_and_ra_text(self, schema):
        via_sql = dfql_diagram(Q2_RED_BOAT.sql, schema)
        via_ra = dfql_diagram(Q2_RED_BOAT.ra, schema)
        assert via_sql.nodes and via_ra.nodes

    def test_node_count_tracks_operator_count(self, schema):
        expr = parse_ra(Q2_RED_BOAT.ra)
        diagram = dfql_from_ra(expr)
        assert len(diagram.nodes) == expr.operator_count() + 1  # + display node


class TestSyntaxOrientedFormalisms:
    def test_sqlvis_nested_blocks_follow_syntax(self, schema):
        not_in = ("SELECT S.sname FROM Sailors S WHERE S.sid NOT IN "
                  "(SELECT R.sid FROM Reserves R WHERE R.bid = 103)")
        not_exists = ("SELECT S.sname FROM Sailors S WHERE NOT EXISTS "
                      "(SELECT R.sid FROM Reserves R WHERE R.sid = S.sid AND R.bid = 103)")
        a = sqlvis_diagram(not_in, schema)
        b = sqlvis_diagram(not_exists, schema)
        labels_a = {g.label for g in a.groups.values()}
        labels_b = {g.label for g in b.groups.values()}
        assert any("NOT IN" in label for label in labels_a)
        assert any("NOT EXISTS" in label for label in labels_b)
        # Syntax-directed: the two spellings do NOT give the same structure.
        assert a.element_counts() != b.element_counts()

    def test_sqlvis_keeps_a_not_around_a_subquery(self, schema):
        subquery = "S.sid IN (SELECT R.sid FROM Reserves R)"
        plain = sqlvis_diagram(f"SELECT S.sname FROM Sailors S WHERE {subquery}",
                               schema)
        negated = sqlvis_diagram(
            f"SELECT S.sname FROM Sailors S WHERE NOT ({subquery})", schema)
        assert {g.label for g in negated.groups.values()} - \
            {g.label for g in plain.groups.values()} == {
                "NOT (S.sid IN): SELECT R.sid"}

    def test_sqlvis_join_edges_within_block(self, schema):
        diagram = sqlvis_diagram(Q2_RED_BOAT.sql, schema)
        assert any(e.kind == "join" for e in diagram.edges)
        assert diagram.element_counts()["table_nodes"] == 3

    def test_sqlvis_handles_groupby_and_setops(self, schema):
        diagram = sqlvis_diagram(
            "SELECT color, COUNT(*) AS n FROM Boats GROUP BY color HAVING COUNT(*) > 1 "
            "UNION SELECT sname, 1 FROM Sailors", schema)
        assert any("UNION" in g.label for g in diagram.groups.values())

    def test_visual_sql_clause_tree(self, schema):
        diagram = visual_sql_diagram(Q4_ALL_RED.sql, schema)
        labels = [n.label for n in diagram.nodes.values()]
        assert "SELECT DISTINCT" in labels
        assert labels.count("NOT EXISTS") == 2
        assert all(e.directed for e in diagram.edges)

    def test_visual_sql_mirrors_syntax_size(self, schema):
        short = visual_sql_diagram("SELECT sname FROM Sailors", schema)
        long = visual_sql_diagram(
            "SELECT sname FROM Sailors WHERE rating > 7 ORDER BY sname LIMIT 5", schema)
        assert len(long.nodes) > len(short.nodes)


class TestConceptualAndStringDiagrams:
    def test_conceptual_graph_bipartite_structure(self, schema):
        diagram = conceptual_graph_diagram(Q2_RED_BOAT.sql, schema)
        concepts = [n for n in diagram.nodes.values() if n.kind == "concept"]
        relations = [n for n in diagram.nodes.values() if n.kind == "relation"]
        assert len(concepts) == 3
        assert len(relations) == 2
        for edge in diagram.edges:
            kinds = {diagram.nodes[edge.source].kind, diagram.nodes[edge.target].kind}
            assert kinds == {"concept", "relation"}

    def test_conceptual_graph_negative_context(self, schema):
        diagram = conceptual_graph_diagram(Q4_ALL_RED.sql, schema)
        assert diagram.element_counts()["negation_groups"] == 2

    def test_string_diagram_free_vs_bound_wires(self, schema):
        diagram = string_diagram_for_query(Q2_RED_BOAT.sql, schema)
        ports = [n for n in diagram.nodes.values() if n.kind == "port"]
        dots = [n for n in diagram.nodes.values() if n.kind == "bound-wire"]
        assert len(ports) == 1          # the output attribute wire
        assert len(dots) >= 5           # the existential wires end in dots
        assert all(n.shape == "point" for n in dots)

    def test_string_diagram_negation_shading(self, schema):
        diagram = string_diagram_for_query(Q4_ALL_RED.sql, schema)
        shaded = [g for g in diagram.groups.values() if g.style == "shaded"]
        assert len(shaded) == 2


class TestDispatcher:
    def test_available_builders(self):
        keys = available_builders()
        assert {"queryvis", "relational_diagrams", "qbe", "dfql", "peirce_beta"} <= set(keys)

    def test_unknown_formalism(self, schema):
        with pytest.raises(CannotRepresent):
            build_diagram("crayon", Q1_BASIC_JOIN.sql, schema)

    @pytest.mark.parametrize("key", ["queryvis", "relational_diagrams", "peirce_beta",
                                     "string_diagrams", "conceptual", "sqlvis",
                                     "visual_sql"])
    def test_all_builders_handle_all_canonical_queries(self, schema, key):
        for query in CANONICAL_QUERIES:
            diagram = build_diagram(key, query.sql, schema)
            assert diagram.nodes
            assert diagram.validate() == []

    def test_expected_capability_gaps(self, schema):
        with pytest.raises(Exception):
            build_diagram("qbe", Q4_ALL_RED.sql, schema)       # needs two screens
        with pytest.raises(Exception):
            build_diagram("dfql", Q4_ALL_RED.sql, schema)      # correlated SQL → RA unsupported
        # but the RA spelling of Q4 works fine for DFQL:
        assert build_diagram("dfql", Q4_ALL_RED.ra, schema).nodes
