"""Tests for the core framework: diagram model, layout, renderers, metrics,
patterns, registry, principles, and the Fig. 1/2 pipeline."""

from __future__ import annotations

import pytest

from repro.core import (
    Diagram,
    DiagramEdge,
    DiagramError,
    DiagramGroup,
    DiagramNode,
    PRINCIPLES,
    QueryVisualizationPipeline,
    compute_layout,
    coverage_matrix,
    explain_sql,
    formalism,
    implemented_formalisms,
    isomorphic,
    measure,
    merge_side_by_side,
    normalize_trc,
    pattern_of,
    principles_table,
    same_pattern,
    score_formalism,
    size_table,
    visualize_sql,
)
from repro.core.metrics import compare
from repro.core.registry import FEATURES, REGISTRY
from repro.diagrams import CannotRepresent, build_diagram
from repro.queries import CANONICAL_QUERIES, Q4_ALL_RED, Q5_RED_OR_GREEN
from repro.translate import answer_set, sql_to_trc
from repro.trc import parse_trc


def small_diagram() -> Diagram:
    d = Diagram("demo", formalism="test")
    outer = d.add_group(DiagramGroup("outer", "SELECT"))
    inner = d.add_group(DiagramGroup("inner", "NOT", "outer", "negation"))
    d.add_node(DiagramNode("a", "table", "Sailors s", ("sid", "sname"), "outer"))
    d.add_node(DiagramNode("b", "table", "Reserves r", ("sid", "bid"), "inner"))
    d.add_edge(DiagramEdge("a", "b", source_port="sid", target_port="sid", kind="join"))
    return d


class TestDiagramModel:
    def test_structure_and_counts(self):
        d = small_diagram()
        counts = d.element_counts()
        assert counts["nodes"] == 2
        assert counts["attribute_rows"] == 4
        assert counts["edges"] == 1
        assert counts["groups"] == 2
        assert counts["negation_groups"] == 1
        assert counts["max_nesting_depth"] == 2
        assert d.total_ink() == 2 + 4 + 1 + 2
        assert d.validate() == []

    def test_group_nesting_queries(self):
        d = small_diagram()
        assert d.group_depth("inner") == 1
        assert d.ancestors_of_node("b") == ["inner", "outer"]
        nodes, groups = d.children_of("outer")
        assert [n.id for n in nodes] == ["a"]
        assert [g.id for g in groups] == ["inner"]

    def test_duplicate_and_dangling_are_rejected(self):
        d = small_diagram()
        with pytest.raises(DiagramError):
            d.add_node(DiagramNode("a", "table", "again"))
        with pytest.raises(DiagramError):
            d.add_edge(DiagramEdge("a", "zzz"))
        with pytest.raises(DiagramError):
            d.add_node(DiagramNode("c", group="nope"))

    def test_validate_detects_bad_ports(self):
        d = small_diagram()
        d.edges.append(DiagramEdge("a", "b", source_port="missing"))
        assert any("unknown row" in problem for problem in d.validate())

    def test_fresh_ids_unique(self):
        d = small_diagram()
        ids = {d.fresh_id() for _ in range(50)}
        assert len(ids) == 50

    def test_merge_side_by_side(self):
        combined = merge_side_by_side([small_diagram(), small_diagram()], labels=["L", "R"])
        assert len(combined.nodes) == 4
        assert len(combined.groups) == 6  # 2 wrappers + 2x2 original groups
        assert combined.validate() == []


class TestLayoutAndRenderers:
    def test_layout_containment(self):
        d = small_diagram()
        layout = compute_layout(d)
        outer = layout.group_boxes["outer"]
        inner = layout.group_boxes["inner"]
        node_b = layout.node_boxes["b"]
        assert inner.x >= outer.x and inner.bottom <= outer.bottom + 1e-6
        assert node_b.x >= inner.x and node_b.right <= inner.right + 1e-6
        assert layout.width > 0 and layout.height > 0

    def test_svg_output_is_wellformed_enough(self):
        svg = small_diagram().to_svg()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") >= 4  # background + 2 groups + nodes
        assert "Sailors s" in svg

    def test_dot_output_contains_clusters_and_ports(self):
        dot = small_diagram().to_dot()
        assert dot.startswith("digraph")
        assert "cluster_outer" in dot and "cluster_inner" in dot
        assert '"a":r0 -> "b":r0' in dot

    def test_ascii_output_mentions_everything(self):
        text = small_diagram().to_ascii()
        assert "Sailors s" in text and "Reserves r" in text
        assert "NOT" in text
        assert "connections:" in text

    def test_renderers_work_for_all_canonical_queries(self, schema, canonical_query):
        diagram = visualize_sql(canonical_query.sql, formalism="relational_diagrams")
        assert diagram.to_svg()
        assert diagram.to_dot()
        assert diagram.to_ascii()


class TestMetrics:
    def test_measure_and_table(self, schema):
        d_queryvis = visualize_sql(Q4_ALL_RED.sql, formalism="queryvis")
        d_relational = visualize_sql(Q4_ALL_RED.sql, formalism="relational_diagrams")
        metrics = compare({"queryvis": d_queryvis, "relational_diagrams": d_relational})
        assert metrics["queryvis"].line_roles["flow"] >= 1      # reading-order arrows
        assert metrics["relational_diagrams"].line_roles["flow"] == 0
        assert metrics["queryvis"].distinct_line_roles >= 2
        table = size_table(metrics)
        assert "queryvis" in table and "ink" in table

    def test_measure_counts_match_element_counts(self):
        d = small_diagram()
        assert measure(d).counts == d.element_counts()


#: Query pairs that differ only in where a comparison or a disjunction is
#: written, and so in their answers on the tutorial instance.
SCOPE_PAIRS = {
    "disjunction-placement": (
        "SELECT S.sname FROM Sailors S WHERE (S.rating = 10 OR S.age > 30) AND S.sid = 3",
        "SELECT S.sname FROM Sailors S WHERE S.rating = 10 AND (S.age > 30 OR S.sid = 3)"),
    "negated-comparison": (
        "SELECT S.sname FROM Sailors S WHERE NOT (S.age > 30)",
        "SELECT S.sname FROM Sailors S WHERE S.age > 30"),
    "sibling-scope": tuple(
        "SELECT S.sname FROM Sailors S WHERE NOT EXISTS (SELECT R.sid FROM Reserves R "
        f"WHERE R.sid = S.sid AND R.bid = 101{first}) AND NOT EXISTS (SELECT B.bid "
        f"FROM Boats B WHERE B.color = 'blue' AND B.bid = 104{second})"
        for first, second in ((" AND S.rating > 7", ""), ("", " AND S.rating > 7"))),
}


class TestPatterns:
    def test_normalize_flattens_exists(self):
        trc = parse_trc("{ s.sname | Sailors(s) and exists r (Reserves(r) and exists b (Boats(b))) }")
        normalized = normalize_trc(trc.body)
        pattern = pattern_of(parse_trc(
            "{ s.sname | Sailors(s) and exists r, b (Reserves(r) and Boats(b)) }"))
        assert isomorphic(pattern_of(type(trc)(trc.head, normalized)), pattern)

    def test_not_in_vs_not_exists_share_a_pattern(self, schema):
        not_in = ("SELECT S.sname FROM Sailors S WHERE S.sid NOT IN "
                  "(SELECT R.sid FROM Reserves R WHERE R.bid = 103)")
        not_exists = ("SELECT S.sname FROM Sailors S WHERE NOT EXISTS "
                      "(SELECT * FROM Reserves R WHERE R.sid = S.sid AND R.bid = 103)")
        # NOT EXISTS (SELECT *) is not translatable (SELECT *), so spell the column:
        not_exists = not_exists.replace("SELECT *", "SELECT R.sid")
        assert same_pattern(not_in, not_exists, schema)

    def test_alias_and_order_invariance(self, schema):
        a = "SELECT X.sname FROM Sailors X, Reserves Y WHERE X.sid = Y.sid AND Y.bid = 102"
        b = "SELECT S.sname FROM Sailors S, Reserves R WHERE R.bid = 102 AND S.sid = R.sid"
        assert same_pattern(a, b, schema)

    def test_different_constants_or_structure_differ(self, schema):
        a = "SELECT S.sname FROM Sailors S, Reserves R WHERE S.sid = R.sid AND R.bid = 102"
        b = "SELECT S.sname FROM Sailors S, Reserves R WHERE S.sid = R.sid AND R.bid = 103"
        c = "SELECT S.sname FROM Sailors S, Reserves R WHERE S.sid = R.sid"
        assert not same_pattern(a, b, schema)
        assert not same_pattern(a, c, schema)

    def test_negation_depth_matters(self, schema):
        positive = ("SELECT S.sname FROM Sailors S WHERE S.sid IN "
                    "(SELECT R.sid FROM Reserves R)")
        negative = ("SELECT S.sname FROM Sailors S WHERE S.sid NOT IN "
                    "(SELECT R.sid FROM Reserves R)")
        assert not same_pattern(positive, negative, schema)

    @pytest.mark.parametrize("pair", sorted(SCOPE_PAIRS))
    def test_where_a_comparison_is_written_is_part_of_the_pattern(self, db, schema, pair):
        a, b = SCOPE_PAIRS[pair]
        assert answer_set(a, db) != answer_set(b, db)
        assert not same_pattern(a, b, schema)

    def test_a_false_condition_is_part_of_the_pattern(self, db, schema):
        """FALSE empties its scope, so it is recorded there: a query whose
        WHERE is FALSE shares neither the pattern nor the QueryVis diagram
        of the same query without it (QueryVis has no element for FALSE)."""
        always_false = "SELECT S.sname FROM Sailors S WHERE FALSE"
        unfiltered = "SELECT S.sname FROM Sailors S"
        assert len(answer_set(always_false, db)) == 0
        assert len(answer_set(unfiltered, db)) > 0
        assert not same_pattern(always_false, unfiltered, schema)
        with pytest.raises(CannotRepresent):
            build_diagram("queryvis", always_false, schema)
        build_diagram("queryvis", unfiltered, schema)
        inner_false = ("SELECT S.sname FROM Sailors S WHERE S.sid NOT IN "
                       "(SELECT R.sid FROM Reserves R WHERE FALSE)")
        inner_open = ("SELECT S.sname FROM Sailors S WHERE S.sid NOT IN "
                      "(SELECT R.sid FROM Reserves R)")
        assert answer_set(inner_false, db) != answer_set(inner_open, db)
        assert not same_pattern(inner_false, inner_open, schema)

    def test_a_truth_that_changes_nothing_is_not_recorded(self):
        plain = pattern_of(parse_trc("{ s.sname | Sailors(s) }"))
        for body in ("Sailors(s) and true", "Sailors(s) and not false"):
            assert isomorphic(pattern_of(parse_trc(f"{{ s.sname | {body} }}")),
                              plain)
        assert isomorphic(
            pattern_of(parse_trc("{ s.sname | Sailors(s) and not true }")),
            pattern_of(parse_trc("{ s.sname | Sailors(s) and false }")))

    def test_round_trip_sees_where_a_disjunction_is_written(self, db):
        a, b = SCOPE_PAIRS["disjunction-placement"]
        assert not QueryVisualizationPipeline(db).round_trip_consistent(a, b)

    def test_pattern_size_and_disjunction_flag(self, schema):
        pattern = pattern_of(sql_to_trc(Q5_RED_OR_GREEN.sql, schema))
        assert pattern.has_disjunction
        size = pattern.size()
        assert size["variables"] == 3
        pattern4 = pattern_of(sql_to_trc(Q4_ALL_RED.sql, schema))
        assert pattern4.size()["max_negation_depth"] == 2
        assert pattern4.size()["negation_scopes"] == 2

    def test_isomorphism_is_reflexive_and_symmetric(self, schema, canonical_query):
        pattern = pattern_of(sql_to_trc(canonical_query.sql, schema))
        assert isomorphic(pattern, pattern)


class TestRegistryAndPrinciples:
    def test_registry_contents(self):
        assert len(REGISTRY) >= 18
        families = {info.family for info in REGISTRY}
        assert families == {"early", "modern"}
        assert formalism("queryvis").based_on == "TRC"
        with pytest.raises(KeyError):
            formalism("doodle")
        assert len(implemented_formalisms()) >= 12

    def test_capability_vectors_cover_all_features(self):
        for info in REGISTRY:
            assert set(info.supports) == set(FEATURES)

    def test_coverage_matrix_shape(self):
        matrix = coverage_matrix()
        assert set(matrix) == {info.key for info in REGISTRY}
        # Every formalism answers for every canonical query.
        for row in matrix.values():
            assert set(row) == {q.id for q in CANONICAL_QUERIES}
        # The tutorial's headline: disjunction (Q5) is the hardest case.
        q5_count = sum(1 for row in matrix.values() if row["Q5"])
        q1_count = sum(1 for row in matrix.values() if row["Q1"])
        assert q5_count < q1_count
        assert not matrix["queryvis"]["Q5"]
        assert matrix["peirce_beta"]["Q5"]
        assert not matrix["query_builders"]["Q4"]

    def test_principles_definitions(self):
        assert len(PRINCIPLES) == 4
        assert {p.key for p in PRINCIPLES} == {
            "correspondence", "invariance", "completeness", "economy"}

    def test_score_trc_vs_syntax_formalisms(self):
        queryvis = score_formalism("queryvis")
        sqlvis = score_formalism("sqlvis")
        assert queryvis.scores["invariance"] is True
        assert queryvis.scores["correspondence"] is True
        assert sqlvis.scores["invariance"] is False
        assert sqlvis.scores["correspondence"] is False
        assert queryvis.satisfied_count() >= 3

    def test_what_was_not_measured_scores_none(self):
        dfql = score_formalism("dfql")          # draws a plan, not a pattern
        assert dfql.scores["invariance"] is None
        assert dfql.scores["correspondence"] is None
        assert dfql.scores["economy"] is True
        euler = score_formalism("euler")        # takes no SQL to measure
        assert euler.scores["economy"] is None

    def test_principles_table_runs_for_selected_formalisms(self):
        table = principles_table(["queryvis", "relational_diagrams", "dfql"])
        assert set(table) == {"queryvis", "relational_diagrams", "dfql"}
        assert table["relational_diagrams"].scores["economy"] is True


class TestPipeline:
    def test_visualize_and_explain(self, db):
        diagram = visualize_sql(Q4_ALL_RED.sql, db)
        assert diagram.formalism == "queryvis"
        explanation = explain_sql(Q4_ALL_RED.sql, db)
        assert "universal quantification" in explanation

    def test_full_pipeline_result(self, db, canonical_query):
        pipeline = QueryVisualizationPipeline(db)
        result = pipeline.run(canonical_query.sql)
        assert {row[0] for row in result.answers.distinct_rows()} == set(
            canonical_query.expected_names)
        assert result.trc is not None
        assert result.pattern is not None
        assert "TRC" in result.languages
        assert set(result.timings) >= {"parse", "translate", "diagram", "evaluate"}
        summary = result.summary()
        assert "Answers" in summary and "SQL:" in summary

    def test_pipeline_handles_untranslatable_sql(self, db):
        pipeline = QueryVisualizationPipeline(db, formalism="sqlvis")
        result = pipeline.run("SELECT B.color, COUNT(*) AS n FROM Boats B GROUP BY B.color")
        assert result.trc is None
        assert result.warnings
        assert result.answers is not None

    def test_round_trip_consistency_check(self, db):
        pipeline = QueryVisualizationPipeline(db)
        a = "SELECT S.sname FROM Sailors S, Reserves R WHERE S.sid = R.sid AND R.bid = 102"
        b = "SELECT X.sname FROM Sailors X, Reserves Y WHERE Y.bid = 102 AND X.sid = Y.sid"
        c = "SELECT S.sname FROM Sailors S, Reserves R WHERE S.sid = R.sid AND R.bid = 104"
        assert pipeline.round_trip_consistent(a, b)
        assert not pipeline.round_trip_consistent(a, c)

    def test_pipeline_other_formalisms(self, db):
        for key in ("relational_diagrams", "peirce_beta", "visual_sql"):
            result = QueryVisualizationPipeline(db, formalism=key).run(
                CANONICAL_QUERIES[0].sql, evaluate=False)
            assert result.diagram.nodes
