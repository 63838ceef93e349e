"""A text syntax for Relational Algebra expressions.

The parser accepts both ASCII operator names and the conventional Greek
letters, so that textbook-style expressions can be written directly::

    pi[sname](sigma[color = 'red'](Boats njoin Reserves njoin Sailors))
    project[sid, bid](Reserves) / project[bid](select[color='red'](Boats))
    (A union B) except C

Grammar (precedence from loosest to tightest)::

    expr     := setexpr
    setexpr  := joinexpr ((UNION | INTERSECT | EXCEPT | DIVIDE) joinexpr)*
    joinexpr := unary ((NJOIN | JOIN[cond?] | TIMES | SEMIJOIN[cond?] | ANTIJOIN[cond?]) unary)*
    unary    := OPNAME ['[' args ']'] '(' expr ')'  |  NAME  |  '(' expr ')'
    args     := column, ...                              (project)
              | cond                                     (select)
              | (NAME | column -> NAME), ...             (rename)
              | [column, ... ;] call [-> NAME], ...      (groupby)

``cond`` and ``call`` are the shared expression grammar of
:mod:`repro.expr.parser`, lexed by :mod:`repro.syntax` along with the rest of
the text, so a quoted ``]`` inside a bracket is just part of a string and a
malformed condition is an :class:`~repro.ra.ast.RAError`.

Operator names: ``project``/``pi``/``π``, ``select``/``sigma``/``σ``,
``rename``/``rho``/``ρ``, ``distinct``/``delta``, ``gamma``/``groupby``.
"""

from __future__ import annotations

import re

from repro.expr.ast import FuncCall
from repro.expr.parser import KEYWORDS, ExpressionParser
from repro.ra.ast import (
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
    RAExpr,
    RelationRef,
    Rename,
    Selection,
    SemiJoin,
    ThetaJoin,
    Union,
)
from repro.syntax import NAME, NUMBER, STRING, Lexer

LEXER = Lexer(
    [("ws", r"\s+"),
     ("number", NUMBER),
     ("string", STRING),
     ("op", r"->|<>|!=|<=|>=|=|<|>|\(|\)|\[|\]|,|;|\.|\*|\+|-|/|%"
            r"|π|σ|ρ|δ|γ|÷|⨝|⋈|×|∪|∩|−|⋉|▷"),
     ("name", NAME)],
    keywords=KEYWORDS, error=RAError)

#: Unary operator spelling -> the parser method that reads the rest.
_UNARY_OPS = {
    "project": "_project", "pi": "_project", "π": "_project",
    "select": "_select", "sigma": "_select", "σ": "_select",
    "rename": "_rename", "rho": "_rename", "ρ": "_rename",
    "distinct": "_distinct", "delta": "_distinct", "δ": "_distinct",
    "groupby": "_groupby", "gamma": "_groupby", "γ": "_groupby",
}

_SET_OPS = {
    "union": Union, "∪": Union,
    "intersect": Intersection, "∩": Intersection,
    "except": Difference, "minus": Difference, "−": Difference,
    "divide": Division, "/": Division, "÷": Division,
}

#: Join operators; ``join`` / ``⨝`` without a condition is the natural join.
_JOIN_OPS = {
    "njoin": NaturalJoin, "join": ThetaJoin, "⨝": ThetaJoin, "⋈": ThetaJoin,
    "times": Product, "×": Product, "*": Product, "product": Product,
    "semijoin": SemiJoin, "⋉": SemiJoin, "antijoin": AntiJoin, "▷": AntiJoin,
}


class _RAParser(ExpressionParser):
    lexer = LEXER

    def _operator(self) -> str:
        """The next token as an operator-table key: operator words are
        case-insensitive, and a string literal is never an operator."""
        token = self.peek()
        return "" if token.kind == "string" else token.text.lower()

    def parse_relation(self) -> RAExpr:
        expr = self._join()
        while (build := _SET_OPS.get(self._operator())) is not None:
            self.advance()
            expr = build(expr, self._join())
        return expr

    def _join(self) -> RAExpr:
        expr = self._operand()
        while (build := _JOIN_OPS.get(self._operator())) is not None:
            self.advance()
            condition = None
            if build not in (NaturalJoin, Product) and self.accept("["):
                condition = self.parse_expression()
                self.expect("]")
            right = self._operand()
            if condition is None:
                expr = (NaturalJoin if build is ThetaJoin else build)(expr, right)
            else:
                expr = build(expr, right, condition)
        return expr

    def _operand(self) -> RAExpr:
        key = self._operator()
        if key == "(":
            return self._input()
        method = _UNARY_OPS.get(key)
        if method is None:
            return RelationRef(self.take("name").text)
        self.advance()
        return getattr(self, method)()

    def _input(self) -> RAExpr:
        self.expect("(")
        expr = self.parse_relation()
        self.expect(")")
        return expr

    def _column(self) -> str:
        name = self.take("name").text
        return f"{name}.{self.take('name').text}" if self.accept(".") else name

    def _project(self) -> Projection:
        self.expect("[")
        columns = self.comma_list(self._column)
        self.expect("]")
        return Projection(self._input(), tuple(columns))

    def _select(self) -> Selection:
        self.expect("[")
        condition = self.parse_expression()
        self.expect("]")
        return Selection(self._input(), condition)

    def _distinct(self) -> Distinct:
        return Distinct(self._input())

    def _rename(self) -> Rename:
        new_name, renames = None, []
        if self.accept("["):
            for old, new in self.comma_list(self._rename_item, "]"):
                if new is None:
                    new_name = old
                else:
                    renames.append((old, new))
            self.expect("]")
        return Rename(self._input(), new_name, tuple(renames))

    def _rename_item(self) -> tuple[str, str | None]:
        old = self._column()
        return old, self._column() if self.accept("->") else None

    def _groupby(self) -> GroupBy:
        groups: list[str] = []
        aggregates: list[tuple[FuncCall, str]] = []
        if self.accept("["):
            start = self.pos
            groups = self.comma_list(self._column, ";")
            if not self.accept(";"):
                self.pos, groups = start, []
            aggregates = self.comma_list(self._aggregate, "]")
            self.expect("]")
        return GroupBy(self._input(), tuple(groups), tuple(aggregates))

    def _aggregate(self) -> tuple[FuncCall, str]:
        """``name(...) [-> alias]``; the alias defaults to the call's text
        with each run of non-word characters made one ``_``."""
        start = self.peek()
        if not (start.kind == "name" and self.at("(", ahead=1)):
            raise self.fail("expected an aggregate call")
        self.pos += 2
        call = self.parse_call(start.text)
        if self.accept("->"):
            return call, self._column()
        text = self.text[start.position:self.peek().position]
        return call, re.sub(r"\W+", "_", text.lower()).strip("_")


def parse_ra(text: str) -> RAExpr:
    """Parse an RA expression from text."""
    parser = _RAParser(text)
    return parser.finish(parser.parse_relation())
