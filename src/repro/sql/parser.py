"""Recursive-descent SQL parser over the shared front end (:mod:`repro.syntax`).

Grammar sketch (loosest to tightest binding)::

    query        := select_core ((UNION|INTERSECT|EXCEPT) [ALL] select_core)*
                    [ORDER BY order_list] [LIMIT n]
    select_core  := SELECT [DISTINCT] select_list FROM from_list
                    [WHERE expr] [GROUP BY expr_list] [HAVING expr]
    from_list    := from_item (',' from_item)*
    from_item    := table [alias] | '(' query ')' alias | from_item join_clause

``expr`` is the expression grammar of :mod:`repro.expr.parser`, extended
here with its subquery forms: ``[NOT] EXISTS (query)``, ``IN (query)``,
``op ANY/ALL/SOME (query)`` and the scalar ``(query)``.
"""

from __future__ import annotations

from repro.expr.ast import (
    Exists,
    Expr,
    InSubquery,
    QuantifiedComparison,
    ScalarSubquery,
)
from repro.expr.parser import ExpressionParser
from repro.sql.ast import (
    DerivedTable,
    FromItem,
    Join,
    OrderItem,
    Query,
    SelectItem,
    SelectQuery,
    SetOpQuery,
    TableRef,
)
from repro.sql.lexer import LEXER


class _Parser(ExpressionParser):
    lexer = LEXER

    # -- queries -------------------------------------------------------------
    def parse_query(self) -> Query:
        query = self.parse_set_expression()
        order_by: tuple[OrderItem, ...] = ()
        limit: int | None = None
        if self.accept("order"):
            self.expect("by")
            order_by = tuple(self.comma_list(self.parse_order_item))
        if self.accept("limit"):
            limit = int(self.take("number").text)
        if order_by or limit is not None:
            if isinstance(query, SelectQuery):
                query = SelectQuery(
                    query.select_items, query.distinct, query.from_items, query.where,
                    query.group_by, query.having, order_by or query.order_by,
                    limit if limit is not None else query.limit,
                    query.select_star, query.star_qualifiers,
                )
            else:
                query = SetOpQuery(query.op, query.left, query.right, query.all,
                                   order_by, limit)
        return query

    def parse_set_expression(self) -> Query:
        left = self.parse_select_core()
        while (op := self.accept("union", "intersect", "except")) is not None:
            all_flag = bool(self.accept("all"))
            left = SetOpQuery(op.text, left, self.parse_select_core(), all_flag)
        return left

    def parse_select_core(self) -> Query:
        if self.accept("("):
            inner = self.parse_set_expression()
            self.expect(")")
            return inner
        self.expect("select")
        distinct = bool(self.accept("distinct"))
        self.accept("all")

        select_items: list[SelectItem] = []
        select_star = False
        star_qualifiers: list[str] = []
        while True:
            if self.accept("*"):
                select_star = True
            elif (self.peek().kind == "name" and self.at(".", ahead=1)
                  and self.at("*", ahead=2)):
                star_qualifiers.append(self.advance().text)
                self.pos += 2
            else:
                expr = self.parse_expression()
                alias = None
                if self.accept("as"):
                    alias = self._name()
                elif self.peek().kind == "name":
                    alias = self.advance().text
                select_items.append(SelectItem(expr, alias))
            if not self.accept(","):
                break

        from_items: list[FromItem] = []
        if self.accept("from"):
            from_items = self.comma_list(self.parse_from_item)

        where = None
        if self.accept("where"):
            where = self.parse_expression()

        group_by: list[Expr] = []
        if self.accept("group"):
            self.expect("by")
            group_by = self.comma_list(self.parse_expression)

        having = None
        if self.accept("having"):
            having = self.parse_expression()

        return SelectQuery(
            tuple(select_items), distinct, tuple(from_items), where,
            tuple(group_by), having, (), None, select_star, tuple(star_qualifiers),
        )

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expression()
        direction = self.accept("asc", "desc")
        return OrderItem(expr, direction is None or direction.text == "asc")

    # -- FROM clause -----------------------------------------------------
    def parse_from_item(self) -> FromItem:
        item = self.parse_table_primary()
        while True:
            natural = bool(self.accept("natural"))
            token = self.peek()
            if token.is_keyword("join", "inner", "left", "right", "full", "cross"):
                kind = "inner"
                if token.is_keyword("inner", "left", "right", "full", "cross"):
                    kind = token.text
                    self.advance()
                    self.accept("outer")
                self.expect("join")
                right = self.parse_table_primary()
                condition = None
                using: tuple[str, ...] = ()
                if not natural and kind != "cross":
                    if self.accept("on"):
                        condition = self.parse_expression()
                    elif self.accept("using"):
                        self.expect("(")
                        using = tuple(self.comma_list(self._name))
                        self.expect(")")
                item = Join(item, right, kind, condition, natural, using)
            elif natural:
                raise self.fail("expected JOIN after NATURAL")
            else:
                return item

    def parse_table_primary(self) -> FromItem:
        if self.accept("("):
            query = self.parse_set_expression()
            self.expect(")")
            self.accept("as")
            alias = self._name()
            return DerivedTable(query, alias)
        name = self._name()
        alias = None
        if self.accept("as"):
            alias = self._name()
        elif self.peek().kind == "name":
            alias = self.advance().text
        return TableRef(name, alias)

    def _name(self) -> str:
        return self.take("name").text

    # -- subquery forms of the shared expression grammar --------------------
    def parse_not(self) -> Expr:
        # NOT EXISTS is a single predicate, not a negated EXISTS, so that
        # syntax-oriented visualizations can label it faithfully.
        negated = self.at("not") and self.at("exists", ahead=1)
        if negated:
            self.advance()
        if self.accept("exists"):
            return Exists(self._subquery(), negated)
        return super().parse_not()

    def parse_comparison(self, left: Expr, op: str) -> Expr:
        quantifier = self.accept("all", "any", "some")
        if quantifier is not None:
            return QuantifiedComparison(left, op, quantifier.text, self._subquery())
        return super().parse_comparison(left, op)

    def parse_in(self, left: Expr, negated: bool) -> Expr:
        if self.at("select", "("):
            query = self.parse_set_expression()
            self.expect(")")
            return InSubquery(left, query, negated)
        return super().parse_in(left, negated)

    def parse_parenthesized(self) -> Expr:
        if self.at("select"):
            query = self.parse_set_expression()
            self.expect(")")
            return ScalarSubquery(query)
        return super().parse_parenthesized()

    def _subquery(self) -> Query:
        self.expect("(")
        query = self.parse_set_expression()
        self.expect(")")
        return query


def parse_sql(sql: str) -> Query:
    """Parse a SQL query string into an AST."""
    parser = _Parser(sql)
    query = parser.parse_query()
    parser.accept(";")
    return parser.finish(query)


def parse_sql_expression(text: str) -> Expr:
    """Parse a standalone SQL expression (used by tests and condition boxes)."""
    parser = _Parser(text)
    return parser.finish(parser.parse_expression())
