"""Formatting of DRC queries and formulas.

:func:`format_drc_formula` prints any :mod:`repro.logic.formula` formula in
the calculus syntax both parsers read; TRC's formatter prints its bodies
with it too (an attribute reference prints as ``s.attr``).
"""

from __future__ import annotations

from repro.drc.ast import DRCError, DRCQuery
from repro.logic.formula import (
    And,
    Atom,
    Compare,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Truth,
)
from repro.logic.terms import AttrRef, Const, Term, Var

_UNICODE = {"and": " ∧ ", "or": " ∨ ", "not": "¬", "exists": "∃", "forall": "∀",
            "implies": " → ", "iff": " ↔ "}
_ASCII = {"and": " and ", "or": " or ", "not": "not ", "exists": "exists ",
          "forall": "forall ", "implies": " -> ", "iff": " <-> "}


def format_term(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, AttrRef):
        return f"{term.var.name}.{term.attr}"
    if isinstance(term, Const):
        if isinstance(term.value, str):
            escaped = term.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(term.value, bool):
            return "true" if term.value else "false"
        return str(term.value)
    raise DRCError(f"not a term: {term!r}")


def format_drc_formula(formula: Formula, *, unicode: bool = False) -> str:
    symbols = _UNICODE if unicode else _ASCII

    def go(node: Formula, parent: int = 0) -> str:
        if isinstance(node, Truth):
            return "true" if node.value else "false"
        if isinstance(node, Atom):
            inner = ", ".join(format_term(t) for t in node.terms)
            return f"{node.predicate}({inner})"
        if isinstance(node, Compare):
            return f"{format_term(node.left)} {node.op} {format_term(node.right)}"
        if isinstance(node, And):
            text = symbols["and"].join(go(o, 20) for o in node.operands)
            return f"({text})" if parent > 20 else text
        if isinstance(node, Or):
            text = symbols["or"].join(go(o, 10) for o in node.operands)
            return f"({text})" if parent > 10 else text
        if isinstance(node, Not):
            return f"{symbols['not']}({go(node.operand)})"
        if isinstance(node, Implies):
            text = f"{go(node.antecedent, 5)}{symbols['implies']}{go(node.consequent, 5)}"
            return f"({text})" if parent > 5 else text
        if isinstance(node, Iff):
            text = f"{go(node.left, 5)}{symbols['iff']}{go(node.right, 5)}"
            return f"({text})" if parent > 5 else text
        if isinstance(node, (Exists, ForAll)):
            keyword = symbols["exists" if isinstance(node, Exists) else "forall"]
            names = ", ".join(v.name for v in node.variables)
            return f"{keyword}{names} ({go(node.body)})"
        raise DRCError(f"format: unhandled node {type(node).__name__}")

    return go(formula)


def format_drc_query(query: DRCQuery, *, unicode: bool = False) -> str:
    head = ", ".join(format_term(t) for t in query.head)
    body = format_drc_formula(query.body, unicode=unicode)
    return f"{{ {head} | {body} }}"
