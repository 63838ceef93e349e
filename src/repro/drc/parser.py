"""Parser for textual DRC queries.

Example::

    { n | exists s, r, a (Sailors(s, n, r, a) and
          exists b, d (Reserves(s, b, d) and b = 102)) }

Anonymous positions may be written ``_``; each underscore becomes a fresh
variable that is existentially quantified immediately around its atom.
Unicode connectives (∃ ∀ ∧ ∨ ¬ →) are accepted, as are angle brackets around
the head: ``{ <x, y> | ... }``.  The connectives, quantifiers and
comparisons are the calculus grammar of :class:`repro.syntax.CalculusParser`,
shared with TRC; this module adds the head, the ``Name(term, ...)`` atom and
variables as terms.
"""

from __future__ import annotations

import itertools

from repro.drc.ast import DRCError, DRCQuery
from repro.logic.formula import Atom, Exists, Formula
from repro.logic.terms import Term, Var
from repro.syntax import CALCULUS_ALIASES, NUMBER, STRING, CalculusParser, Lexer

LEXER = Lexer(
    [("ws", r"\s+"),
     ("number", NUMBER),
     ("string", STRING),
     ("op", r"->|<>|!=|<=|>=|=|<|>|\(|\)|\{|\}|\||,|:|_|→|⇒|∃|∀|∧|∨|¬|⟨|⟩"),
     ("name", r"[A-Za-z][A-Za-z_0-9]*")],
    keywords=frozenset("and or not exists forall implies true false".split()),
    aliases=CALCULUS_ALIASES, error=DRCError)


class _DRCParser(CalculusParser):
    lexer = LEXER

    def __init__(self, text: str) -> None:
        super().__init__(text)
        self._anon_counter = itertools.count(1)

    def parse_query(self) -> DRCQuery:
        self.expect("{")
        angled = bool(self.accept("<"))
        head = self.comma_list(self.parse_term)
        if angled:
            self.expect(">")
        self.expect("|")
        body = self.parse_formula()
        self.expect("}")
        return self.finish(DRCQuery(tuple(head), body))

    def relation_atom(self, name: str) -> Formula:
        anonymous: list[Var] = []

        def term() -> Term:
            if self.accept("_"):
                anonymous.append(Var(f"_anon{next(self._anon_counter)}"))
                return anonymous[-1]
            return self.parse_term()

        terms = self.comma_list(term, ")")
        self.expect(")")
        atom: Formula = Atom(name, tuple(terms))
        return Exists(tuple(anonymous), atom) if anonymous else atom

    def variable_term(self, name: str) -> Var:
        return Var(name)


def parse_drc(text: str) -> DRCQuery:
    """Parse a DRC query of the form ``{ head | formula }``."""
    return _DRCParser(text).parse_query()


def parse_drc_formula(text: str) -> Formula:
    """Parse a bare DRC formula (for Boolean queries / logical statements)."""
    parser = _DRCParser(text)
    return parser.finish(parser.parse_formula())
