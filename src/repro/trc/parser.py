"""Parser for the textual TRC syntax used in the tutorial.

The connectives, quantifiers and comparisons are the calculus grammar of
:class:`repro.syntax.CalculusParser`, shared with DRC and building the same
logic formulas; this module adds the ``{ head | formula }`` frame, the
``Name(var)`` atom and ``var.attr`` terms.

Example queries (ASCII and Unicode forms are both accepted)::

    { s.sname | Sailors(s) and exists r (Reserves(r) and r.sid = s.sid and r.bid = 102) }
    { s.sname | Sailors(s) ∧ ∀b (Boats(b) ∧ b.color = 'red' →
                 ∃r (Reserves(r) ∧ r.sid = s.sid ∧ r.bid = b.bid)) }

Grammar::

    query    := '{' head '|' formula '}'
    head     := headitem (',' headitem)*
    headitem := var '.' attr ['as' name] | constant
    atom     := NAME '(' var ')'
    term     := var '.' attr | constant
"""

from __future__ import annotations

from repro.logic.formula import Atom, Formula
from repro.logic.terms import AttrRef, Var
from repro.syntax import CALCULUS_ALIASES, NAME, NUMBER, STRING, CalculusParser, Lexer
from repro.trc.ast import HeadItem, TRCError, TRCQuery

LEXER = Lexer(
    [("ws", r"\s+"),
     ("number", NUMBER),
     ("string", STRING),
     ("op", r"->|<>|!=|<=|>=|=|<|>|\(|\)|\{|\}|\||,|\.|:|→|⇒|∃|∀|∧|∨|¬|⟨|⟩"),
     ("name", NAME)],
    keywords=frozenset("and or not exists forall implies as in true false".split()),
    aliases=CALCULUS_ALIASES, error=TRCError)


class _TRCParser(CalculusParser):
    lexer = LEXER

    def parse_query(self) -> TRCQuery:
        self.expect("{")
        head = self.comma_list(self.parse_head_item)
        self.expect("|")
        body = self.parse_formula()
        self.expect("}")
        return self.finish(TRCQuery(tuple(head), body))

    def parse_head_item(self) -> HeadItem:
        term = self.parse_term()
        return HeadItem(term, self.take("name").text if self.accept("as") else None)

    def relation_atom(self, name: str) -> Atom:
        var = Var(self.take("name").text)
        self.expect(")")
        return Atom(name, (var,))

    def variable_term(self, name: str) -> AttrRef:
        if not self.accept("."):
            raise self.fail(f"bare variable {name!r} cannot be used as a term; "
                            "use var.attribute")
        return AttrRef(Var(name), self.take("name").text)


def parse_trc(text: str) -> TRCQuery:
    """Parse a TRC query of the form ``{ head | formula }``."""
    return _TRCParser(text).parse_query()


def parse_trc_formula(text: str) -> Formula:
    """Parse a bare TRC formula (no head); used for Boolean queries."""
    parser = _TRCParser(text)
    return parser.finish(parser.parse_formula())
