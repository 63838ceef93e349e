"""Parser for Datalog programs.

Syntax::

    red_boat(B) :- boats(B, N, 'red').
    ans(N) :- sailors(S, N, R, A), reserves(S, 102, D).
    non_all_red(S) :- sailors(S, N, R, A), red_boat(B), not reserved(S, B).
    big(S) :- sailors(S, N, R, A), A > 40.0.

Variables are capitalised or start with ``_``; constants are numbers,
quoted strings, or lower-case identifiers (treated as string constants, as
in classical Datalog).  Negation is written ``not p(...)`` or ``\\+ p(...)``.

Tokens come from the shared :class:`repro.syntax.Lexer` with two Datalog
extras: a number may carry a ``-`` sign and a string may be double-quoted.
Neither is a shared literal to the plan-cache scanner of
:mod:`repro.engine.bind`: a text with a signed number is a refused shape,
and a double-quoted string stays part of the shape.
"""

from __future__ import annotations

from repro.datalog.ast import (
    BodyItem,
    BuiltinComparison,
    DatalogError,
    Literal,
    Program,
    Rule,
)
from repro.logic.terms import Const, Term, Var
from repro.syntax import COMPARISONS, NAME, NUMBER, QUOTED, STRING, Cursor, Lexer, number

LEXER = Lexer(
    [("ws", r"\s+|%[^\n]*|\#[^\n]*"),
     ("op", r":-|<-|\\\+|<>|!=|<=|>=|==|=|<|>|\(|\)|,|\."),
     ("number", rf"-?(?:{NUMBER})"),
     ("string", rf"{STRING}|{QUOTED}"),
     ("name", NAME)],
    error=DatalogError)


def _is_variable_name(name: str) -> bool:
    return name[0].isupper() or name[0] == "_"


class _DatalogParser(Cursor):
    lexer = LEXER

    def parse_program(self) -> Program:
        rules = []
        while self.peek().kind != "eof":
            rules.append(self.parse_rule())
        return Program(tuple(rules))

    def parse_rule(self) -> Rule:
        head = self.parse_literal()
        body = self.comma_list(self.parse_body_item) if self.accept(":-", "<-") else []
        self.expect(".")
        return Rule(head, tuple(body))

    def parse_body_item(self) -> BodyItem:
        token = self.peek()
        if (token.kind, token.text) in (("name", "not"), ("op", "\\+")):
            self.advance()
            literal = self.parse_literal()
            return Literal(literal.predicate, literal.terms, negated=True)
        # Lookahead: NAME '(' is a literal; otherwise it is a comparison.
        if token.kind == "name" and self.at("(", ahead=1) \
                and not _is_variable_name(token.text):
            return self.parse_literal()
        left = self.parse_term()
        op = self.accept(*COMPARISONS, "==")
        if op is None:
            raise self.fail("expected a literal or comparison")
        return BuiltinComparison(left, op.text, self.parse_term())

    def parse_literal(self) -> Literal:
        name = self.take("name").text
        terms: list[Term] = []
        if self.accept("("):
            terms = self.comma_list(self.parse_term, ")")
            self.expect(")")
        return Literal(name, tuple(terms))

    def parse_term(self) -> Term:
        token = self.peek()
        if token.kind == "number":
            term: Term = Const(number(token.text))
        elif token.kind == "string":
            term = Const(token.text)
        elif token.kind == "name":
            term = Var(token.text) if _is_variable_name(token.text) else Const(token.text)
        else:
            raise self.fail("expected a term")
        self.advance()
        return term


def parse_datalog(text: str) -> Program:
    """Parse a Datalog program (a sequence of rules and facts)."""
    return _DatalogParser(text).parse_program()


def parse_rule(text: str) -> Rule:
    """Parse a single Datalog rule."""
    parser = _DatalogParser(text)
    return parser.finish(parser.parse_rule())
