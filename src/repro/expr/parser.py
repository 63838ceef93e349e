"""The scalar/boolean expression grammar SQL and Relational Algebra share.

:class:`ExpressionParser` is a :class:`repro.syntax.Cursor` with SQL-ish
operator precedence over literals, columns, calls (aggregates included:
``count(*)``, ``sum(DISTINCT x)``), arithmetic, comparisons, ``IS [NOT]
NULL``, ``[NOT] IN (...)``, ``BETWEEN`` and ``LIKE``.  The RA parser
(``select[color = 'red' and rating >= 7](...)``) runs it inside its
brackets; the SQL parser subclasses it and overrides only the subquery
forms (:meth:`parse_not`, :meth:`parse_comparison`, :meth:`parse_in`,
:meth:`parse_parenthesized`).  On its own, :func:`parse_expression` parses
the subquery-free fragment.
"""

from __future__ import annotations

from repro.expr.ast import (
    And,
    Between,
    BinOp,
    BoolConst,
    Col,
    Comparison,
    Const,
    Expr,
    ExprError,
    FuncCall,
    InList,
    IsNull,
    Like,
    Neg,
    Not,
    Or,
    Star,
)
from repro.syntax import COMPARISONS, NAME, NUMBER, STRING, Cursor, Lexer, number

#: The words the expression grammar reserves; a language using it reserves
#: at least these.
KEYWORDS = frozenset(
    "and or not in is null between like true false distinct".split())

LEXER = Lexer(
    [("ws", r"\s+"),
     ("number", NUMBER),
     ("string", STRING),
     ("op", r"<>|!=|<=|>=|=|<|>|\(|\)|,|\.|\+|-|\*|/|%"),
     ("name", NAME)],
    keywords=KEYWORDS, error=ExprError)


class ExpressionParser(Cursor):
    """``or`` > ``and`` > ``not`` > predicate > ``+ -`` > ``* / %`` > unary."""

    lexer = LEXER

    def parse_expression(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        parts = [self.parse_and()]
        while self.accept("or"):
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> Expr:
        parts = [self.parse_not()]
        while self.accept("and"):
            parts.append(self.parse_not())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_not(self) -> Expr:
        if self.accept("not"):
            return Not(self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> Expr:
        left = self.parse_additive()
        op = self.accept(*COMPARISONS)
        if op is not None:
            return self.parse_comparison(left, op.text)
        if self.accept("is"):
            negated = bool(self.accept("not"))
            self.expect("null")
            return IsNull(left, negated)
        negated = self.at("not") and self.at("in", "between", "like", ahead=1)
        if negated:
            self.advance()
        if self.accept("in"):
            self.expect("(")
            return self.parse_in(left, negated)
        if self.accept("between"):
            low = self.parse_additive()
            self.expect("and")
            return Between(left, low, self.parse_additive(), negated)
        if self.accept("like"):
            return Like(left, self.take("string").text, negated)
        return left

    def parse_comparison(self, left: Expr, op: str) -> Expr:
        """The rest of ``left op ...``."""
        return Comparison(left, op, self.parse_additive())

    def parse_in(self, left: Expr, negated: bool) -> Expr:
        """The rest of ``left [NOT] IN ( ...``."""
        items = self.comma_list(self.parse_additive)
        self.expect(")")
        return InList(left, tuple(items), negated)

    def parse_additive(self) -> Expr:
        expr = self.parse_multiplicative()
        while (op := self.accept("+", "-")) is not None:
            expr = BinOp(op.text, expr, self.parse_multiplicative())
        return expr

    def parse_multiplicative(self) -> Expr:
        expr = self.parse_unary()
        while (op := self.accept("*", "/", "%")) is not None:
            expr = BinOp(op.text, expr, self.parse_unary())
        return expr

    def parse_unary(self) -> Expr:
        sign = self.accept("-", "+")
        if sign is None:
            return self.parse_primary()
        operand = self.parse_unary()
        return Neg(operand) if sign.text == "-" else operand

    def parse_primary(self) -> Expr:
        token = self.peek()
        if token.kind == "name":
            self.advance()
            after = self.accept("(", ".")
            if after is None:
                return Col(token.text)
            if after.text == "(":
                return self.parse_call(token.text)
            return Col(self.take("name").text, token.text)
        if self.accept("("):
            return self.parse_parenthesized()
        if token.kind == "number":
            value: Expr = Const(number(token.text))
        elif token.kind == "string":
            value = Const(token.text)
        elif token.is_keyword("null"):
            value = Const(None)
        elif token.is_keyword("true", "false"):
            value = BoolConst(token.text == "true")
        else:
            raise self.fail("expected an expression")
        self.advance()
        return value

    def parse_call(self, name: str) -> FuncCall:
        """The rest of ``name ( [DISTINCT] (* | expr, ...) )``."""
        distinct = bool(self.accept("distinct"))
        if self.accept("*"):
            args: tuple[Expr, ...] = (Star(),)
        else:
            args = tuple(self.comma_list(self.parse_expression, ")"))
        self.expect(")")
        return FuncCall(name, args, distinct)

    def parse_parenthesized(self) -> Expr:
        """The rest of ``( expr )``."""
        expr = self.parse_expression()
        self.expect(")")
        return expr


def parse_expression(text: str) -> Expr:
    """Parse ``text`` into an expression AST (no subqueries supported)."""
    parser = ExpressionParser(text)
    return parser.finish(parser.parse_expression())
