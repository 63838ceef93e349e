"""Tests for Relational Algebra: AST, schema inference, parsing, evaluation."""

from __future__ import annotations

import pytest

from repro.engine import execute_plan, lower
from repro.expr import Col, Comparison, Const, FuncCall, Star
from repro.ra import (
    AntiJoin,
    Difference,
    Distinct,
    Division,
    GroupBy,
    Intersection,
    NaturalJoin,
    Product,
    Projection,
    RAError,
    RelationRef,
    Rename,
    Selection,
    SemiJoin,
    ThetaJoin,
    Union,
    cardinality,
    evaluate,
    operator_label,
    output_schema,
    parse_ra,
    resolve_attribute,
    to_text,
    to_tree,
)


def names(relation) -> set:
    return {row[0] for row in relation.distinct_rows()}


class TestSchemaInference:
    def test_relation_ref_schema(self, schema):
        assert output_schema(RelationRef("Sailors"), schema).attribute_names == (
            "sid", "sname", "rating", "age")

    def test_projection_schema(self, schema):
        expr = Projection(RelationRef("Sailors"), ("sname", "sid"))
        assert output_schema(expr, schema).attribute_names == ("sname", "sid")

    def test_projection_unknown_column(self, schema):
        with pytest.raises(RAError):
            output_schema(Projection(RelationRef("Sailors"), ("color",)), schema)

    def test_product_prefixes_clashes(self, schema):
        expr = Product(RelationRef("Sailors"), RelationRef("Reserves"))
        out = output_schema(expr, schema).attribute_names
        assert "Sailors.sid" in out and "Reserves.sid" in out and "bid" in out

    def test_natural_join_merges_shared(self, schema):
        expr = NaturalJoin(RelationRef("Sailors"), RelationRef("Reserves"))
        out = output_schema(expr, schema).attribute_names
        assert out.count("sid") == 1
        assert "bid" in out

    def test_division_schema(self, schema):
        expr = Division(Projection(RelationRef("Reserves"), ("sid", "bid")),
                        Projection(RelationRef("Boats"), ("bid",)))
        assert output_schema(expr, schema).attribute_names == ("sid",)

    def test_division_requires_subset(self, schema):
        with pytest.raises(RAError):
            output_schema(Division(RelationRef("Boats"), RelationRef("Sailors")), schema)

    def test_union_compatibility_enforced(self, schema):
        with pytest.raises(RAError):
            output_schema(Union(RelationRef("Sailors"), RelationRef("Boats")), schema)

    def test_groupby_schema(self, schema):
        expr = GroupBy(RelationRef("Sailors"), ("rating",),
                       ((FuncCall("count", (Star(),)), "n"),
                        (FuncCall("avg", (Col("age"),)), "avg_age")))
        out = output_schema(expr, schema)
        assert out.attribute_names == ("rating", "n", "avg_age")
        assert str(out.dtype_of("n")) == "int"
        assert str(out.dtype_of("avg_age")) == "float"

    def test_rename_schema(self, schema):
        expr = Rename(RelationRef("Sailors"), "S", (("sid", "id"),))
        out = output_schema(expr, schema)
        assert out.name == "S"
        assert "id" in out.attribute_names

    def test_resolve_attribute_rules(self, schema):
        product = output_schema(Product(RelationRef("Sailors"), RelationRef("Reserves")), schema)
        assert resolve_attribute(product, "sid", "Sailors") == "Sailors.sid"
        assert resolve_attribute(product, "sname") == "sname"
        assert resolve_attribute(product, "sname", "Sailors") == "sname"
        with pytest.raises(RAError):
            resolve_attribute(product, "sid")  # ambiguous
        with pytest.raises(RAError):
            resolve_attribute(product, "color")


class TestEvaluation:
    def test_selection_and_projection(self, db):
        expr = Projection(Selection(RelationRef("Boats"),
                                    Comparison(Col("color"), "=", Const("red"))), ("bid",))
        assert set(evaluate(expr, db).rows()) == {(102,), (104,)}

    def test_set_semantics_dedupes(self, db):
        expr = Projection(RelationRef("Sailors"), ("sname",))
        assert len(evaluate(expr, db)) == 9  # two Horatios collapse
        assert len(evaluate(expr, db, bag=True)) == 10

    def test_product_and_theta_join_agree(self, db):
        cond = Comparison(Col("sid", "Sailors"), "=", Col("sid", "Reserves"))
        via_product = Selection(Product(RelationRef("Sailors"), RelationRef("Reserves")), cond)
        via_join = ThetaJoin(RelationRef("Sailors"), RelationRef("Reserves"), cond)
        assert evaluate(via_product, db).set_equal(evaluate(via_join, db))
        assert cardinality(via_join, db) == 10

    def test_natural_join_chain(self, db):
        expr = Projection(
            Selection(
                NaturalJoin(NaturalJoin(RelationRef("Sailors"), RelationRef("Reserves")),
                            RelationRef("Boats")),
                Comparison(Col("color"), "=", Const("red"))),
            ("sname",))
        assert names(evaluate(expr, db)) == {"Dustin", "Lubber", "Horatio"}

    def test_natural_join_without_shared_attributes_is_product(self, db):
        expr = NaturalJoin(Projection(RelationRef("Sailors"), ("sname",)),
                           Projection(RelationRef("Boats"), ("color",)))
        assert len(evaluate(expr, db)) == 9 * 3  # distinct names x distinct colors

    def test_union_intersection_difference(self, db):
        red = Projection(Selection(RelationRef("Boats"),
                                   Comparison(Col("color"), "=", Const("red"))), ("bid",))
        some = Projection(Selection(RelationRef("Boats"),
                                    Comparison(Col("bid"), "<=", Const(102))), ("bid",))
        assert set(evaluate(Union(red, some), db).rows()) == {(101,), (102,), (104,)}
        assert set(evaluate(Intersection(red, some), db).rows()) == {(102,)}
        assert set(evaluate(Difference(red, some), db).rows()) == {(104,)}

    def test_division_is_universal_quantification(self, db):
        expr = Division(Projection(RelationRef("Reserves"), ("sid", "bid")),
                        Projection(Selection(RelationRef("Boats"),
                                             Comparison(Col("color"), "=", Const("red"))),
                                   ("bid",)))
        assert set(evaluate(expr, db).rows()) == {(22,), (31,)}

    def test_division_by_empty_divisor_returns_all(self, db, empty_db):
        expr = Division(Projection(RelationRef("Reserves"), ("sid", "bid")),
                        Projection(Selection(RelationRef("Boats"),
                                             Comparison(Col("color"), "=", Const("purple"))),
                                   ("bid",)))
        result = evaluate(expr, db)
        assert set(result.rows()) == {(sid,) for sid in {22, 31, 64, 74}}

    def test_semi_and_anti_join(self, db):
        semi = SemiJoin(RelationRef("Sailors"), RelationRef("Reserves"))
        anti = AntiJoin(RelationRef("Sailors"), RelationRef("Reserves"))
        semi_names = names(Projection(semi, ("sname",)) and evaluate(Projection(semi, ("sname",)), db))
        anti_names = names(evaluate(Projection(anti, ("sname",)), db))
        assert semi_names == {"Dustin", "Lubber", "Horatio"}
        assert "Brutus" in anti_names and semi_names.isdisjoint({"Brutus"})
        assert len(evaluate(semi, db)) + len(evaluate(anti, db)) == 10

    def test_semi_join_with_condition(self, db):
        cond = Comparison(Col("sid", "Sailors"), "=", Col("sid", "Reserves"))
        semi = SemiJoin(RelationRef("Sailors"), RelationRef("Reserves"), cond)
        assert len(evaluate(semi, db)) == 4

    def test_groupby_evaluation(self, db):
        expr = GroupBy(RelationRef("Boats"), ("color",),
                       ((FuncCall("count", (Star(),)), "n"),))
        assert set(evaluate(expr, db).rows()) == {("blue", 1), ("red", 2), ("green", 1)}

    def test_groupby_on_empty_input_without_groups(self, empty_db):
        expr = GroupBy(RelationRef("Sailors"), (),
                       ((FuncCall("count", (Star(),)), "n"),
                        (FuncCall("sum", (Col("age"),)), "total")))
        assert evaluate(expr, empty_db).rows() == [(0, None)]

    def test_distinct_and_rename_evaluation(self, db):
        expr = Distinct(Projection(RelationRef("Reserves"), ("sid",)))
        assert len(evaluate(expr, db)) == 4
        renamed = Rename(RelationRef("Sailors"), "S", (("sid", "id"),))
        assert evaluate(renamed, db).schema.attribute_names[0] == "id"

    def test_empty_database_everything_empty(self, empty_db):
        expr = parse_ra("project[sname](Sailors njoin Reserves)")
        assert evaluate(expr, empty_db).is_empty()


class TestParserAndPrinter:
    def test_parse_canonical_forms(self, db, canonical_query):
        expr = parse_ra(canonical_query.ra)
        result = evaluate(expr, db)
        assert names(result) == set(canonical_query.expected_names)

    def test_parse_greek_letters(self, db):
        expr = parse_ra("π[sname](σ[rating >= 9](Sailors))")
        assert names(evaluate(expr, db)) == {"Rusty", "Zorba", "Horatio"}

    def test_parse_rename_and_groupby(self, db):
        expr = parse_ra("groupby[color; count(*) -> n](Boats)")
        assert set(evaluate(expr, db).rows()) == {("blue", 1), ("red", 2), ("green", 1)}
        expr = parse_ra("rename[S, sid -> id](Sailors)")
        assert evaluate(expr, db).schema.name == "S"

    def test_parse_set_operators_and_division(self, db):
        expr = parse_ra("project[bid](select[color='red'](Boats)) union project[bid](select[color='green'](Boats))")
        assert len(evaluate(expr, db)) == 3
        expr = parse_ra("project[sid, bid](Reserves) divide project[bid](Boats)")
        assert evaluate(expr, db).rows() == [(22,)]

    def test_parse_errors(self):
        with pytest.raises(RAError):
            parse_ra("project[](Sailors)")
        with pytest.raises(RAError):
            parse_ra("select[x=1](Sailors) extra")
        with pytest.raises(RAError):
            parse_ra("project[sname](Sailors")

    def test_malformed_condition_is_an_ra_error(self):
        with pytest.raises(RAError):
            parse_ra("project[sname](select[<rating > 7](Sailors))")

    @pytest.mark.parametrize("color", ["a]b", "a[b"])
    def test_brackets_step_over_quoted_strings(self, db, color):
        text = f"select[color = '{color}'](Boats)"
        expr = parse_ra(text)
        assert expr == Selection(RelationRef("Boats"),
                                 Comparison(Col("color"), "=", Const(color)))
        db.add_row("Boats", (999, "Oddity", color))
        answer = execute_plan(lower(text, db.schema, "ra"), db)
        assert answer.set_equal(evaluate(expr, db))
        assert answer.rows() == [(999, "Oddity", color)]

    def test_text_round_trip(self, db, canonical_query):
        expr = parse_ra(canonical_query.ra)
        text = to_text(expr)
        again = parse_ra(text)
        assert evaluate(expr, db).set_equal(evaluate(again, db))

    def test_tree_and_labels(self):
        expr = parse_ra("project[sname](select[rating > 7](Sailors))")
        tree = to_tree(expr)
        assert tree.splitlines()[0].startswith("π")
        assert "Sailors" in tree
        assert operator_label(RelationRef("Boats")) == "Boats"
