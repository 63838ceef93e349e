"""Evaluation of safe TRC queries over a database.

Semantics: every tuple variable ranges over the tuples of exactly one
relation, determined by its relation atom (``Sailors(s)`` means "s ranges
over Sailors").  Quantifiers enumerate the rows of the quantified variable's
relation; the head enumerates the rows of the free variables' relations.
This is the classical *safe* evaluation and is what makes TRC equivalent to
RA — unrestricted TRC can express unsafe queries such as ``{ t | ¬R(t) }``,
which :mod:`repro.trc.safety` rejects.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Mapping

from repro.data.database import Database
from repro.data.relation import Relation, dedupe_rows, result_relation
from repro.logic.formula import (
    And,
    Atom,
    Compare,
    Exists,
    ForAll,
    Formula,
    Implies,
    Not,
    Or,
    Truth,
    free_variables,
)
from repro.logic.terms import AttrRef, Const, Term, Var, compare
from repro.trc.ast import TRCError, TRCQuery, atom_variable, check_trc, variable_ranges

#: An environment maps tuple-variable names to (relation name, row dict).
Env = dict[str, tuple[str, dict[str, Any]]]


def _term_value(term: Term, env: Env) -> Any:
    if isinstance(term, Const):
        return term.value
    if isinstance(term, AttrRef):
        if term.var.name not in env:
            raise TRCError(f"unbound tuple variable {term.var.name!r}")
        _rel, row = env[term.var.name]
        key = term.attr.lower()
        for name, value in row.items():
            if name.lower() == key:
                return value
        # The variable is bound to a tuple of a relation that lacks this
        # attribute.  In a range-restricted formula this can only happen in a
        # branch that is already falsified by the relation atom, so the value
        # is irrelevant; returning a sentinel keeps comparisons False.
        return _UNDEFINED
    raise TRCError(f"not a TRC term: {term!r}")


class _Undefined:
    """Sentinel for attribute lookups on mistyped tuples; never equal to anything."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<undefined>"


_UNDEFINED = _Undefined()


def _rows_of(db: Database, relation: str) -> list[dict[str, Any]]:
    rel = db.relation(relation)
    names = rel.attribute_names
    return [dict(zip(names, row)) for row in rel.distinct_rows()]


def eval_formula(formula: Formula, db: Database, env: Env,
                 ranges: Mapping[str, str]) -> bool:
    """Evaluate a TRC formula under ``env``; quantified variables use ``ranges``."""
    if isinstance(formula, Truth):
        return formula.value
    if isinstance(formula, Atom):
        var = atom_variable(formula)
        binding = env.get(var.name)
        if binding is None:
            raise TRCError(f"unbound tuple variable {var.name!r}")
        bound_relation, _row = binding
        return bound_relation.lower() == formula.predicate.lower()
    if isinstance(formula, Compare):
        left = _term_value(formula.left, env)
        right = _term_value(formula.right, env)
        if left is _UNDEFINED or right is _UNDEFINED:
            return False
        return compare(left, formula.op, right)
    if isinstance(formula, And):
        return all(eval_formula(o, db, env, ranges) for o in formula.operands)
    if isinstance(formula, Or):
        return any(eval_formula(o, db, env, ranges) for o in formula.operands)
    if isinstance(formula, Not):
        return not eval_formula(formula.operand, db, env, ranges)
    if isinstance(formula, Implies):
        return (not eval_formula(formula.antecedent, db, env, ranges)) or eval_formula(
            formula.consequent, db, env, ranges
        )
    if isinstance(formula, (Exists, ForAll)):
        return _eval_quantifier(formula, db, env, ranges)
    raise TRCError(f"eval_formula: unhandled node {type(formula).__name__}")


def _candidate_bindings(var: Var, db: Database,
                        ranges: Mapping[str, str]) -> list[tuple[str, dict[str, Any]]]:
    relation = ranges.get(var.name)
    if relation is not None:
        return [(relation, row) for row in _rows_of(db, relation)]
    # No relation atom constrains this variable anywhere: it ranges over the
    # tuples of every relation (the "tuple-active domain").
    out: list[tuple[str, dict[str, Any]]] = []
    for rel in db:
        out.extend((rel.schema.name, row) for row in _rows_of(db, rel.schema.name))
    return out


def _eval_quantifier(formula: Exists | ForAll, db: Database, env: Env,
                     ranges: Mapping[str, str]) -> bool:
    is_exists = isinstance(formula, Exists)
    variables = list(formula.variables)

    def recurse(index: int) -> bool:
        if index == len(variables):
            return eval_formula(formula.body, db, env, ranges)
        var = variables[index]
        for binding in _candidate_bindings(var, db, ranges):
            env[var.name] = binding
            result = recurse(index + 1)
            if is_exists and result:
                del env[var.name]
                return True
            if not is_exists and not result:
                del env[var.name]
                return False
        env.pop(var.name, None)
        return not is_exists

    return recurse(0)


def evaluate_trc(query: "TRCQuery | str", db: Database) -> Relation:
    """Evaluate a TRC query (AST or text) and return the result relation."""
    if isinstance(query, str):
        from repro.trc.parser import parse_trc

        query = parse_trc(query)

    from repro.trc.safety import has_positive_guard

    check_trc(query.body)
    ranges = variable_ranges(query.body)
    free_vars = free_variables(query.body)
    head_vars = query.head_variables()
    for var in head_vars:
        if var.name not in ranges or not has_positive_guard(var, query.body):
            raise TRCError(
                f"head variable {var.name!r} is not bound by a positive relation atom "
                "(the query is unsafe)"
            )
    # Head variables must be free in the body.
    free_names = {v.name for v in free_vars}
    for var in head_vars:
        if var.name not in free_names:
            raise TRCError(f"head variable {var.name!r} is not free in the body")

    output_names = [item.output_name(i) for i, item in enumerate(query.head)]

    rows: list[tuple] = []
    iteration_vars = [v for v in free_vars if v.name in ranges]
    candidate_lists = [
        [(ranges[v.name], row) for row in _rows_of(db, ranges[v.name])]
        for v in iteration_vars
    ]
    for combination in product(*candidate_lists):
        env: Env = {v.name: binding for v, binding in zip(iteration_vars, combination)}
        if eval_formula(query.body, db, env, ranges):
            rows.append(tuple(_term_value(item.term, env) for item in query.head))

    return result_relation(output_names, dedupe_rows(rows))


def evaluate_trc_boolean(formula: "Formula | str", db: Database) -> bool:
    """Evaluate a closed TRC formula (a logical statement) to TRUE/FALSE."""
    if isinstance(formula, str):
        from repro.trc.parser import parse_trc_formula

        formula = parse_trc_formula(formula)
    check_trc(formula)
    free = free_variables(formula)
    if free:
        raise TRCError(
            f"boolean evaluation requires a sentence; free variables: "
            f"{', '.join(v.name for v in free)}"
        )
    ranges = variable_ranges(formula)
    return eval_formula(formula, db, {}, ranges)
