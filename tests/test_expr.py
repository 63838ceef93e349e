"""Tests for the shared expression language (AST, evaluation, parsing, formatting)."""

from __future__ import annotations

import pytest

from repro.expr import (
    And,
    Between,
    BinOp,
    BoolConst,
    Col,
    Comparison,
    Const,
    Exists,
    Expr,
    ExprError,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    NameResolutionError,
    Neg,
    Not,
    Or,
    QuantifiedComparison,
    ScalarSubquery,
    Scope,
    Star,
    compute_aggregate,
    conjunction,
    conjuncts,
    contains_aggregate,
    contains_subquery,
    disjunction,
    disjuncts,
    eval_expr,
    eval_predicate,
    format_expr,
    map_children,
    map_columns,
    rename_qualifiers,
)
from repro.expr.parser import parse_expression


def scope(**values) -> Scope:
    return Scope.from_mapping(values, alias="t")


class TestAst:
    def test_comparison_normalises_operator(self):
        assert Comparison(Col("a"), "!=", Const(1)).op == "<>"
        assert Comparison(Col("a"), "==", Const(1)).op == "="

    def test_comparison_rejects_bad_operator(self):
        with pytest.raises(ExprError):
            Comparison(Col("a"), "~", Const(1))

    def test_comparison_flip_and_negate(self):
        cmp = Comparison(Col("a"), "<", Col("b"))
        assert cmp.flipped() == Comparison(Col("b"), ">", Col("a"))
        assert cmp.negated() == Comparison(Col("a"), ">=", Col("b"))

    def test_quantified_comparison_normalises(self):
        q = QuantifiedComparison(Col("a"), "=", "SOME", query=None)
        assert q.quantifier == "any"

    def test_conjunction_flattens(self):
        expr = conjunction([Comparison(Col("a"), "=", Const(1)),
                            And((Comparison(Col("b"), "=", Const(2)),))])
        assert isinstance(expr, And)
        assert len(expr.operands) == 2
        assert conjunction([]) == BoolConst(True)
        assert conjunction([Col("a")]) == Col("a")

    def test_disjunction_flattens(self):
        expr = disjunction([Or((Col("a"), Col("b"))), Col("c")])
        assert isinstance(expr, Or)
        assert len(expr.operands) == 3
        assert disjunction([]) == BoolConst(False)

    def test_conjuncts_and_disjuncts(self):
        expr = And((Col("a"), And((Col("b"), Col("c")))))
        assert [c for c in conjuncts(expr)] == [Col("a"), Col("b"), Col("c")]
        assert disjuncts(Or((Col("a"), Col("b")))) == [Col("a"), Col("b")]

    def test_columns_and_walk(self):
        expr = Comparison(BinOp("+", Col("a", "t"), Const(1)), "<", Col("b"))
        names = {c.qualified() for c in expr.columns()}
        assert names == {"t.a", "b"}

    def test_contains_aggregate_and_subquery(self):
        assert contains_aggregate(Comparison(FuncCall("count", (Star(),)), ">", Const(1)))
        assert not contains_aggregate(Col("a"))
        assert contains_subquery(Exists(query=object()))
        assert not contains_subquery(Col("a"))

    def test_map_columns_and_rename_qualifiers(self):
        expr = And((Comparison(Col("a", "S"), "=", Col("b", "R")), IsNull(Col("c", "S"))))
        renamed = rename_qualifiers(expr, {"S": "X"})
        qualifiers = {c.qualifier for c in renamed.columns()}
        assert qualifiers == {"X", "R"}
        upper = map_columns(expr, lambda c: Col(c.name.upper(), c.qualifier))
        assert {c.name for c in upper.columns()} == {"A", "B", "C"}

    def test_map_children_rebuilds_every_node_class_over_its_children(self):
        from repro.engine.plan import PositionCol

        def concrete(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from concrete(sub)

        a, b, c = Col("a"), Const(2), Col("c", "t")
        query = object()
        samples = {
            Const: Const(1, slot=0), BoolConst: BoolConst(False), Col: a,
            Star: Star("t"), ScalarSubquery: ScalarSubquery(query),
            Exists: Exists(query, negated=True),
            BinOp: BinOp("*", a, b), Neg: Neg(a),
            FuncCall: FuncCall("sum", (a, b), distinct=True),
            Comparison: Comparison(a, "<=", b), And: And((a, b, c)),
            Or: Or((c, a)), Not: Not(a), IsNull: IsNull(a, negated=True),
            InList: InList(a, (b, c), negated=True),
            Between: Between(a, b, c, negated=True),
            Like: Like(a, "x%", negated=True),
            InSubquery: InSubquery(a, query, negated=True),
            QuantifiedComparison: QuantifiedComparison(a, ">=", "all", query),
        }
        classes = set(concrete(Expr))
        assert classes - set(samples) == {PositionCol}, "add a sample"
        for cls, node in samples.items():
            seen: list[Expr] = []
            rebuilt = map_children(node, lambda child: seen.append(child) or child)
            assert type(rebuilt) is cls and rebuilt == node
            assert seen == list(node.children())
        with pytest.raises(ExprError):
            map_children(PositionCol(0), lambda child: child)

    def test_map_columns_refuses_a_position(self):
        from repro.engine.plan import PositionCol

        conjunct = And((Comparison(Col("a"), "=", Const(1)),
                        Comparison(PositionCol(0), "=", Const(2))))
        with pytest.raises(ExprError):
            map_columns(conjunct, lambda col: col)

    def test_is_predicate(self):
        assert Comparison(Col("a"), "=", Const(1)).is_predicate()
        assert not Col("a").is_predicate()
        assert Not(BoolConst(True)).is_predicate()


class TestEvaluation:
    def test_scalar_arithmetic(self):
        expr = BinOp("+", BinOp("*", Col("a"), Const(2)), Const(1))
        assert eval_expr(expr, scope(a=3)) == 7
        assert eval_expr(Neg(Col("a")), scope(a=3)) == -3

    def test_arithmetic_with_null_is_null(self):
        assert eval_expr(BinOp("+", Col("a"), Const(1)), scope(a=None)) is None

    def test_division_by_zero(self):
        with pytest.raises(ExprError):
            eval_expr(BinOp("/", Const(1), Const(0)), scope())

    def test_three_valued_comparison(self):
        assert eval_expr(Comparison(Col("a"), "<", Const(5)), scope(a=3)) is True
        assert eval_expr(Comparison(Col("a"), "<", Const(5)), scope(a=None)) is None

    def test_mixed_type_comparison_is_error(self):
        with pytest.raises(ExprError):
            eval_expr(Comparison(Col("a"), "=", Const("x")), scope(a=3))

    def test_kleene_and_or_not(self):
        unknown = Comparison(Col("n"), "=", Const(1))
        false = BoolConst(False)
        true = BoolConst(True)
        s = scope(n=None)
        assert eval_expr(And((unknown, false)), s) is False
        assert eval_expr(And((unknown, true)), s) is None
        assert eval_expr(Or((unknown, true)), s) is True
        assert eval_expr(Or((unknown, false)), s) is None
        assert eval_expr(Not(unknown), s) is None

    def test_eval_predicate_treats_unknown_as_false(self):
        assert eval_predicate(Comparison(Col("n"), "=", Const(1)), scope(n=None)) is False

    def test_is_null(self):
        assert eval_expr(IsNull(Col("a")), scope(a=None)) is True
        assert eval_expr(IsNull(Col("a"), negated=True), scope(a=None)) is False

    def test_in_list_with_null_semantics(self):
        expr = InList(Col("a"), (Const(1), Const(None)))
        assert eval_expr(expr, scope(a=1)) is True
        assert eval_expr(expr, scope(a=2)) is None  # unknown because of the NULL
        expr_no_null = InList(Col("a"), (Const(1), Const(2)))
        assert eval_expr(expr_no_null, scope(a=3)) is False
        negated = InList(Col("a"), (Const(1),), negated=True)
        assert eval_expr(negated, scope(a=2)) is True

    def test_between_and_like(self):
        assert eval_expr(Between(Col("a"), Const(1), Const(5)), scope(a=3)) is True
        assert eval_expr(Between(Col("a"), Const(1), Const(5), negated=True), scope(a=7)) is True
        assert eval_expr(Like(Col("s"), "D%"), scope(s="Dustin")) is True
        assert eval_expr(Like(Col("s"), "_ustin"), scope(s="Dustin")) is True
        assert eval_expr(Like(Col("s"), "D%", negated=True), scope(s="Rusty")) is True
        assert eval_expr(Like(Col("s"), "D%"), scope(s=None)) is None

    def test_scalar_functions(self):
        assert eval_expr(FuncCall("abs", (Const(-3),)), scope()) == 3
        assert eval_expr(FuncCall("upper", (Col("s"),)), scope(s="abc")) == "ABC"
        assert eval_expr(FuncCall("coalesce", (Const(None), Const(5))), scope()) == 5
        assert eval_expr(FuncCall("length", (Const("abc"),)), scope()) == 3

    def test_unknown_function_raises(self):
        with pytest.raises(ExprError):
            eval_expr(FuncCall("sqrt", (Const(4),)), scope())

    def test_aggregate_outside_group_raises(self):
        with pytest.raises(ExprError):
            eval_expr(FuncCall("count", (Star(),)), scope())

    def test_subquery_predicates_require_callback(self):
        with pytest.raises(ExprError):
            eval_expr(Exists(query=object()), scope())

    def test_subquery_predicates_with_callback(self):
        rows = [(1,), (2,), (None,)]
        def subquery_eval(_query, _scope):
            return rows
        assert eval_expr(Exists(query="q"), scope(), subquery_eval) is True
        assert eval_expr(InSubquery(Col("a"), query="q"), scope(a=2), subquery_eval) is True
        assert eval_expr(InSubquery(Col("a"), query="q"), scope(a=9), subquery_eval) is None
        all_cmp = QuantifiedComparison(Col("a"), ">=", "all", query="q")
        assert eval_expr(all_cmp, scope(a=5), lambda q, s: [(1,), (2,)]) is True
        any_cmp = QuantifiedComparison(Col("a"), "=", "any", query="q")
        assert eval_expr(any_cmp, scope(a=2), lambda q, s: [(1,), (2,)]) is True

    def test_scope_resolution_and_ambiguity(self):
        s = Scope()
        s.bind("S", ("sid", "sname"), (1, "Dustin"))
        s.bind("R", ("sid", "bid"), (1, 102))
        assert s.lookup("sname") == "Dustin"
        assert s.lookup("sid", "R") == 1
        with pytest.raises(NameResolutionError):
            s.lookup("sid")
        with pytest.raises(NameResolutionError):
            s.lookup("missing")

    def test_scope_outer_chain(self):
        outer = Scope().bind("S", ("sid",), (7,))
        inner = Scope(outer).bind("R", ("bid",), (102,))
        assert inner.lookup("sid") == 7
        assert inner.lookup("bid") == 102

    def test_compute_aggregates(self):
        scopes = [scope(a=1), scope(a=2), scope(a=None), scope(a=2)]
        assert compute_aggregate(FuncCall("count", (Star(),)), scopes) == 4
        assert compute_aggregate(FuncCall("count", (Col("a"),)), scopes) == 3
        assert compute_aggregate(FuncCall("sum", (Col("a"),)), scopes) == 5
        assert compute_aggregate(FuncCall("avg", (Col("a"),)), scopes) == pytest.approx(5 / 3)
        assert compute_aggregate(FuncCall("min", (Col("a"),)), scopes) == 1
        assert compute_aggregate(FuncCall("max", (Col("a"),)), scopes) == 2
        assert compute_aggregate(FuncCall("count", (Col("a"),), distinct=True), scopes) == 2

    def test_aggregate_over_empty_group(self):
        assert compute_aggregate(FuncCall("count", (Star(),)), []) == 0
        assert compute_aggregate(FuncCall("sum", (Col("a"),)), []) is None


class TestParserAndFormatter:
    def test_parse_simple_comparison(self):
        expr = parse_expression("color = 'red'")
        assert expr == Comparison(Col("color"), "=", Const("red"))

    def test_parse_precedence(self):
        expr = parse_expression("a = 1 or b = 2 and c = 3")
        assert isinstance(expr, Or)
        assert isinstance(expr.operands[1], And)

    def test_parse_arithmetic_precedence(self):
        expr = parse_expression("a + 2 * 3 < 10")
        assert isinstance(expr, Comparison)
        assert isinstance(expr.left, BinOp) and expr.left.op == "+"

    def test_parse_qualified_and_functions(self):
        expr = parse_expression("S.age >= 30 and lower(S.sname) = 'bob'")
        assert isinstance(expr, And)
        assert Col("age", "S") in list(expr.operands[0].children())

    def test_parse_not_in_between_like(self):
        assert isinstance(parse_expression("a not in (1, 2)"), InList)
        assert parse_expression("a not in (1, 2)").negated
        assert isinstance(parse_expression("a between 1 and 2"), Between)
        assert isinstance(parse_expression("s like 'a%'"), Like)
        assert isinstance(parse_expression("x is not null"), IsNull)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ExprError):
            parse_expression("a = ")
        with pytest.raises(ExprError):
            parse_expression("a = 1 extra")
        with pytest.raises(ExprError):
            parse_expression("#!?")

    def test_parse_eval_round_trip(self, db):
        expr = parse_expression("rating >= 7 and age < 50.0")
        sailors = db.relation("Sailors")
        kept = [row for row in sailors.to_dicts()
                if eval_predicate(expr, Scope.from_mapping(row))]
        assert {row["sname"] for row in kept} == {"Dustin", "Andy", "Rusty", "Horatio", "Zorba"}

    def test_format_round_trips_through_parser(self):
        texts = [
            "a = 1 AND b <> 2",
            "color = 'red' OR color = 'green'",
            "NOT (a < 5)",
            "age BETWEEN 20 AND 30",
            "sname LIKE 'D%'",
            "x IS NULL",
            "a IN (1, 2, 3)",
        ]
        for text in texts:
            parsed = parse_expression(text)
            again = parse_expression(format_expr(parsed))
            assert parsed == again

    def test_format_subquery_nodes(self):
        class FakeQuery:
            def to_sql(self):
                return "SELECT 1"

        assert format_expr(Exists(query=FakeQuery(), negated=True)) == "NOT EXISTS (SELECT 1)"
        text = format_expr(QuantifiedComparison(Col("a"), ">", "all", FakeQuery()))
        assert text == "a > ALL (SELECT 1)"
