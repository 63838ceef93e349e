"""Finite-model (active domain) semantics for first-order formulas.

A :class:`Structure` is a finite interpretation: a domain of values plus one
finite relation per predicate name.  Quantifiers range over the domain, which
for database use is the *active domain* — exactly the semantics that make
safe relational calculus equivalent to relational algebra.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.data.database import Database
from repro.logic.formula import (
    And,
    Atom,
    Compare,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    LogicError,
    Not,
    Or,
    Truth,
    free_variables,
)
from repro.logic.terms import Const, Term, Var, compare


class Structure:
    """A finite first-order structure (model)."""

    def __init__(
        self,
        domain: Iterable[Any],
        relations: Mapping[str, Iterable[tuple]] | None = None,
    ) -> None:
        self.domain: list[Any] = list(dict.fromkeys(domain))
        self.relations: dict[str, set[tuple]] = {}
        for name, rows in (relations or {}).items():
            self.relations[name.lower()] = {tuple(row) for row in rows}

    @classmethod
    def from_database(cls, db: Database) -> "Structure":
        """Interpret a database instance as a first-order structure."""
        relations = {rel.schema.name: rel.distinct_rows() for rel in db}
        return cls(sorted(db.active_domain(), key=lambda v: (str(type(v)), str(v))), relations)

    def relation(self, name: str) -> set[tuple]:
        return self.relations.get(name.lower(), set())

    def has_fact(self, name: str, row: tuple) -> bool:
        return tuple(row) in self.relation(name)

    def __repr__(self) -> str:
        rels = ", ".join(f"{k}:{len(v)}" for k, v in self.relations.items())
        return f"Structure(|domain|={len(self.domain)}, {rels})"


def _term_value(term: Term, assignment: Mapping[str, Any]) -> Any:
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        if term.name not in assignment:
            raise LogicError(f"unbound variable {term.name}")
        return assignment[term.name]
    raise LogicError(f"not a term: {term!r}")  # pragma: no cover


def evaluate(
    formula: Formula,
    structure: Structure,
    assignment: Mapping[str, Any] | None = None,
) -> bool:
    """Evaluate ``formula`` in ``structure`` under ``assignment``.

    All free variables must be bound by ``assignment``.  Quantifiers range
    over the structure's domain.
    """
    env = dict(assignment or {})
    missing = [v.name for v in free_variables(formula) if v.name not in env]
    if missing:
        raise LogicError(f"unbound free variables: {', '.join(missing)}")
    return _eval(formula, structure, env)


def _eval(formula: Formula, structure: Structure, env: dict[str, Any]) -> bool:
    if isinstance(formula, Truth):
        return formula.value
    if isinstance(formula, Atom):
        row = tuple(_term_value(t, env) for t in formula.terms)
        return structure.has_fact(formula.predicate, row)
    if isinstance(formula, Compare):
        return compare(
            _term_value(formula.left, env), formula.op, _term_value(formula.right, env)
        )
    if isinstance(formula, And):
        return all(_eval(o, structure, env) for o in formula.operands)
    if isinstance(formula, Or):
        return any(_eval(o, structure, env) for o in formula.operands)
    if isinstance(formula, Not):
        return not _eval(formula.operand, structure, env)
    if isinstance(formula, Implies):
        return (not _eval(formula.antecedent, structure, env)) or _eval(
            formula.consequent, structure, env
        )
    if isinstance(formula, Iff):
        return _eval(formula.left, structure, env) == _eval(formula.right, structure, env)
    if isinstance(formula, Exists):
        return _eval_quantifier(formula.variables, formula.body, structure, env, any_of=True)
    if isinstance(formula, ForAll):
        return _eval_quantifier(formula.variables, formula.body, structure, env, any_of=False)
    raise LogicError(f"evaluate: unhandled node {type(formula).__name__}")


def _eval_quantifier(
    variables: tuple[Var, ...],
    body: Formula,
    structure: Structure,
    env: dict[str, Any],
    *,
    any_of: bool,
) -> bool:
    """Evaluate ∃/∀ over the domain, one variable at a time."""
    if not variables:
        return _eval(body, structure, env)
    head, *rest = variables
    # Save any outer binding of the same name so that shadowing quantifiers
    # (∃x inside ∀x) restore it instead of clobbering it.
    shadowed = head.name in env
    saved = env.get(head.name)

    def restore() -> None:
        if shadowed:
            env[head.name] = saved
        else:
            env.pop(head.name, None)

    for value in structure.domain:
        env[head.name] = value
        result = _eval_quantifier(tuple(rest), body, structure, env, any_of=any_of)
        if any_of and result:
            restore()
            return True
        if not any_of and not result:
            restore()
            return False
    restore()
    return not any_of


def satisfying_assignments(
    formula: Formula,
    structure: Structure,
    variables: list[Var] | None = None,
) -> list[dict[str, Any]]:
    """All assignments of the free variables that satisfy the formula.

    This is the *query semantics* of a relational calculus formula: the answer
    relation is the set of satisfying assignments of its free variables,
    restricted to the active domain.
    """
    free = variables if variables is not None else free_variables(formula)
    results: list[dict[str, Any]] = []

    def extend(index: int, env: dict[str, Any]) -> None:
        if index == len(free):
            if _eval(formula, structure, dict(env)):
                results.append(dict(env))
            return
        var = free[index]
        for value in structure.domain:
            env[var.name] = value
            extend(index + 1, env)
        env.pop(var.name, None)

    extend(0, {})
    return results
