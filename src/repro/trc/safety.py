"""Safety (range restriction) analysis for TRC queries.

Unrestricted relational calculus can express *unsafe* queries whose answers
depend on the (infinite) underlying domain rather than on the database, e.g.
``{ t | ¬Sailors(t) }``.  The tutorial's Part 3 reviews the safety conditions
that make RC equivalent to RA; this module implements a conservative,
syntactic check in that spirit:

* every head variable must be bound by a positive relation atom;
* every quantified variable must be *guarded*: an existential variable needs
  a positive relation atom conjoined within its scope, a universal variable
  needs its body to be an implication (or disjunction with a negated atom)
  whose antecedent contains the guarding relation atom;
* a variable may range over only one relation.

The check is sound but not complete: it may reject exotic but safe queries.
Every query produced by our SQL→TRC translator passes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.logic.formula import (
    And,
    Atom,
    Exists,
    ForAll,
    Formula,
    Implies,
    Not,
    Or,
    free_variables,
)
from repro.logic.terms import Var
from repro.trc.ast import TRCError, TRCQuery, atom_variable, check_trc, variable_ranges


@dataclass
class SafetyReport:
    """Outcome of the safety analysis."""

    safe: bool
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.safe


def _positive_atoms_for(var: Var, formula: Formula) -> bool:
    """True iff ``formula`` contains a guarding relation atom for ``var``.

    A guard is a relation atom on ``var`` reachable through conjunctions,
    through the antecedent of an implication, or through the body of a
    nested quantifier over *other* variables.
    """
    if isinstance(formula, Atom):
        return atom_variable(formula).name == var.name
    if isinstance(formula, And):
        return any(_positive_atoms_for(var, o) for o in formula.operands)
    if isinstance(formula, Implies):
        return _positive_atoms_for(var, formula.antecedent)
    if isinstance(formula, Or):
        return all(_positive_atoms_for(var, o) for o in formula.operands)
    if isinstance(formula, (Exists, ForAll)):
        if any(v.name == var.name for v in formula.variables):
            return False
        return _positive_atoms_for(var, formula.body)
    return False


def has_positive_guard(var: Var, formula: Formula) -> bool:
    """Public wrapper: is ``var`` guarded by a positive relation atom in ``formula``?"""
    return _positive_atoms_for(var, formula)


def _universal_guard(var: Var, body: Formula) -> bool:
    """Guards for ∀x: body must restrict x, typically R(x) → φ or ¬R(x) ∨ φ."""
    if isinstance(body, Implies):
        return _positive_atoms_for(var, body.antecedent)
    if isinstance(body, Or):
        for operand in body.operands:
            if isinstance(operand, Not) and _positive_atoms_for(var, operand.operand):
                return True
        return False
    if isinstance(body, Not):
        return _positive_atoms_for(var, body.operand)
    return False


def check_safety(query: TRCQuery) -> SafetyReport:
    """Run the syntactic safety analysis on a TRC query; a body outside TRC
    raises :class:`TRCError`."""
    check_trc(query.body)
    violations: list[str] = []

    try:
        ranges = variable_ranges(query.body)
    except TRCError as exc:
        return SafetyReport(False, [str(exc)])

    free_names = {v.name for v in free_variables(query.body)}
    for var in query.head_variables():
        if var.name not in free_names:
            violations.append(f"head variable {var.name} is not free in the body")
        if var.name not in ranges:
            violations.append(f"head variable {var.name} has no relation atom (unsafe)")
        elif not _positive_atoms_for(var, query.body):
            violations.append(
                f"head variable {var.name} is not guarded by a positive relation atom"
            )

    def visit(formula: Formula) -> None:
        if isinstance(formula, Exists):
            for var in formula.variables:
                if not _positive_atoms_for(var, formula.body):
                    violations.append(
                        f"existential variable {var.name} is not guarded inside its scope"
                    )
            visit(formula.body)
        elif isinstance(formula, ForAll):
            for var in formula.variables:
                if not (_universal_guard(var, formula.body)
                        or _positive_atoms_for(var, formula.body)):
                    violations.append(
                        f"universal variable {var.name} is not guarded inside its scope"
                    )
            visit(formula.body)
        else:
            for child in formula.children():
                visit(child)

    visit(query.body)
    return SafetyReport(not violations, violations)


def is_safe(query: TRCQuery) -> bool:
    """Convenience wrapper around :func:`check_safety`."""
    return check_safety(query).safe
