"""The shared front end of the five textual query languages.

SQL, Relational Algebra, TRC, DRC and Datalog spell their literals,
comparisons and logical connectives alike, so they are lexed and walked by
one set of parts:

* :class:`Token` — one lexical token with its source position.
* :class:`Lexer` — built from a language's token rules, keyword set, symbol
  aliases (``∃`` → ``exists``, ``→`` → ``implies``, ``⟨`` → ``<``) and error
  class.  :data:`NUMBER` and :data:`STRING` are the literal syntax every
  language shares, and the one :mod:`repro.engine.bind` scans for.
* :class:`Cursor` — ``peek`` / ``advance`` / ``accept`` / ``expect`` over a
  token list; every parser of the package is a subclass, and its errors are
  the language's own class in one form: ``expected X, found 'Y' (at
  position N)``.
* :class:`CalculusParser` — the connective grammar of TRC and DRC, which
  build the same logic formulas and differ only in their atoms and terms.

The scalar-expression grammar that SQL and RA share lives with its AST in
:mod:`repro.expr.parser`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.logic.formula import (
    And,
    Compare,
    Exists,
    ForAll,
    Formula,
    Implies,
    Not,
    Or,
    Truth,
)
from repro.logic.terms import Const, Term, Var

#: Unsigned number literal: ``10`` or ``10.5`` (``10.`` is ``10`` and ``.``).
NUMBER = r"\d+\.\d+|\d+"
#: Single-quoted string literal, ``''`` for a quote inside.
STRING = r"'(?:[^']|'')*'"
#: Double-quoted text, ``""`` for a quote inside (SQL identifiers, Datalog
#: strings).
QUOTED = r'"(?:[^"]|"")*"'
#: Identifier.
NAME = r"[A-Za-z_][A-Za-z_0-9]*"

#: Comparison operators, ``!=`` spelling ``<>``.
COMPARISONS = ("=", "<>", "!=", "<", "<=", ">", ">=")

#: Unicode spellings of the calculus connectives and head brackets.
CALCULUS_ALIASES = {"∃": "exists", "∀": "forall", "∧": "and", "∨": "or",
                    "¬": "not", "->": "implies", "→": "implies",
                    "⇒": "implies", "⟨": "<", "⟩": ">"}


@dataclass(slots=True)
class Token:
    """One lexical token: kind ``keyword`` / ``name`` / ``number`` /
    ``string`` / ``op`` / ``eof``, its text (a string's unquoted value, a
    keyword lower-cased) and its source position."""

    kind: str
    text: str
    position: int = 0

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "keyword" and self.text in names


def number(text: str) -> int | float:
    """The value of a :data:`NUMBER` token."""
    return float(text) if "." in text else int(text)


class Lexer:
    """A language's tokenizer.

    ``rules`` are ``(kind, pattern)`` pairs tried in order; kind ``ws`` is
    skipped, ``string`` and ``quoted_name`` tokens are unquoted (the latter
    becoming a ``name``), a ``name`` in ``keywords`` (any case) becomes that
    keyword, and an ``op`` in ``aliases`` is replaced by its canonical text —
    a keyword if it is one, an ``op`` otherwise.
    """

    def __init__(self, rules: Sequence[tuple[str, str]], *,
                 error: type[Exception], keywords: frozenset[str] = frozenset(),
                 aliases: dict[str, str] | None = None) -> None:
        self.regex = re.compile("|".join(f"(?P<{kind}>{pattern})"
                                         for kind, pattern in rules))
        self.error = error
        self.keywords = keywords
        self.aliases = aliases or {}

    def tokenize(self, text: str) -> list[Token]:
        """The tokens of ``text``, ending in one ``eof``; raises ``error``
        on a character no rule matches."""
        tokens: list[Token] = []
        keywords, aliases = self.keywords, self.aliases
        pos = 0
        for found in self.regex.finditer(text):
            start, end = found.span()
            if start != pos:
                break
            pos = end
            kind = found.lastgroup
            if kind == "ws":
                continue
            value = found.group()
            if kind == "name":
                if value.lower() in keywords:
                    kind, value = "keyword", value.lower()
            elif kind == "op":
                if value in aliases:
                    value = aliases[value]
                    kind = "keyword" if value in keywords else "op"
            elif kind == "string":
                value = value[1:-1].replace(value[0] * 2, value[0])
            elif kind == "quoted_name":
                kind, value = "name", value[1:-1].replace('""', '"')
            tokens.append(Token(kind, value, start))
        if pos != len(text):
            raise self.error(f"unexpected character {text[pos]!r} at position {pos}")
        tokens.append(Token("eof", "", pos))
        return tokens


class Cursor:
    """A position in the tokens of one text.

    A parser subclasses this and names its :class:`Lexer` as ``lexer``;
    ``accept`` / ``expect`` / ``at`` match the fixed vocabulary (``op`` and
    ``keyword`` tokens) by text, ``take`` any token by kind.
    """

    lexer: Lexer

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = self.lexer.tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def at(self, *texts: str, ahead: int = 0) -> bool:
        token = self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]
        return token.text in texts and token.kind in ("op", "keyword")

    def accept(self, *texts: str) -> Token | None:
        token = self.tokens[self.pos]
        if token.text in texts and token.kind in ("op", "keyword"):
            self.pos += 1
            return token
        return None

    def expect(self, *texts: str) -> Token:
        token = self.accept(*texts)
        if token is None:
            raise self.fail("expected " + " or ".join(map(repr, texts)))
        return token

    def take(self, kind: str) -> Token:
        """The next token, which must be of ``kind``."""
        if self.tokens[self.pos].kind != kind:
            raise self.fail(f"expected a {kind}")
        return self.advance()

    def comma_list(self, parse: Callable[[], Any], *closers: str) -> list[Any]:
        """``parse`` once and again after each ``,`` — or nothing when the
        next token is one of ``closers``."""
        if closers and self.at(*closers):
            return []
        items = [parse()]
        while self.accept(","):
            items.append(parse())
        return items

    def finish(self, result: Any) -> Any:
        """``result``, provided the whole text was consumed."""
        if self.tokens[self.pos].kind != "eof":
            raise self.fail("unexpected trailing input")
        return result

    def fail(self, message: str) -> Exception:
        token = self.peek()
        found = token.text or "end of input"
        return self.lexer.error(f"{message}, found {found!r} (at position {token.position})")


class CalculusParser(Cursor):
    """The connective grammar of the relational calculi::

        formula := or (implies formula)?
        or      := and (or and)*
        and     := unary (and unary)*
        unary   := not unary
                 | (exists | forall) NAME (',' NAME)* ('(' formula ')' | ':' unary)
                 | '(' formula ')' | NAME '(' atom | true | false
                 | term op term

    Both calculi parse to the same :mod:`repro.logic.formula` nodes; a
    subclass supplies only ``relation_atom`` (the rest of an atom after its
    ``NAME (``) and ``variable_term`` (a term that starts with a name).
    """

    def relation_atom(self, name: str) -> Formula:
        raise NotImplementedError

    def variable_term(self, name: str) -> Term:
        raise NotImplementedError

    def parse_formula(self) -> Formula:
        left = self.parse_or()
        if self.accept("implies"):
            return Implies(left, self.parse_formula())
        return left

    def parse_or(self) -> Formula:
        parts = [self.parse_and()]
        while self.accept("or"):
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> Formula:
        parts = [self.parse_unary()]
        while self.accept("and"):
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self) -> Formula:
        if self.accept("not"):
            return Not(self.parse_unary())
        quantifier = self.accept("exists", "forall")
        if quantifier is not None:
            variables = self.comma_list(lambda: Var(self.take("name").text))
            if self.accept(":"):
                body = self.parse_unary()
            else:
                self.expect("(")
                body = self.parse_formula()
                self.expect(")")
            build = Exists if quantifier.text == "exists" else ForAll
            return build(tuple(variables), body)
        if self.accept("("):
            inner = self.parse_formula()
            self.expect(")")
            return inner
        token = self.peek()
        if token.kind == "name" and self.at("(", ahead=1):
            self.pos += 2
            return self.relation_atom(token.text)
        if token.is_keyword("true", "false") and not self.at(*COMPARISONS, ahead=1):
            self.advance()
            return Truth(token.text == "true")
        left = self.parse_term()
        op = self.accept(*COMPARISONS)
        if op is None:
            raise self.fail("expected a comparison operator")
        return Compare(left, op.text, self.parse_term())

    def parse_term(self) -> Term:
        token = self.peek()
        if token.kind == "name":
            self.advance()
            return self.variable_term(token.text)
        if token.kind == "number":
            value: Any = number(token.text)
        elif token.kind == "string":
            value = token.text
        elif token.is_keyword("true", "false"):
            value = token.text == "true"
        else:
            raise self.fail("expected a term")
        self.advance()
        return Const(value)
