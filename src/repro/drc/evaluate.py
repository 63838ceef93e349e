"""Guarded evaluation of DRC queries.

Naive active-domain evaluation of DRC enumerates |domain|^k assignments for a
formula with k variables, which already explodes on the 4-attribute Sailors
relation.  This evaluator instead uses the *guards* that safe queries always
have: positive relation atoms reachable through conjunctions generate
candidate bindings (by iterating relation rows), and only variables with no
guard at all fall back to the active domain.

Universal quantifiers and implications are rewritten away
(∀x φ ⇒ ¬∃x ¬φ, :func:`repro.logic.transform.to_existential_nnf`), so the
evaluator core only handles ∃, ∧, ∨, ¬, atoms and comparisons.  Bound
variables are first renamed apart
(:func:`repro.logic.transform.standardize_apart`), so an inner quantifier
that reuses a name binds a new variable instead of joining on the outer one.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.data.database import Database
from repro.data.relation import Relation, dedupe_rows, result_relation
from repro.drc.ast import DRCError, DRCQuery
from repro.logic.formula import (
    And,
    Atom,
    Compare,
    Exists,
    Formula,
    Not,
    Or,
    Truth,
    free_variables,
)
from repro.logic.terms import Const, Term, Var, compare
from repro.logic.transform import standardize_apart, to_existential_nnf

Env = dict[str, Any]


def _term_value(term: Term, env: Env) -> Any:
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        if term.name not in env:
            raise DRCError(f"unbound variable {term.name}")
        return env[term.name]
    raise DRCError(f"not a term: {term!r}")


def _conjuncts(formula: Formula) -> list[Formula]:
    if isinstance(formula, And):
        out: list[Formula] = []
        for operand in formula.operands:
            out.extend(_conjuncts(operand))
        return out
    return [formula]


def _guards(formula: Formula) -> Iterator[Atom]:
    """The positive atoms among ``formula``'s conjuncts, those of a conjunct
    ∃x φ included: bound names are apart, so A ∧ ∃x φ ≡ ∃x (A ∧ φ), and a
    row of φ's atom binds x too (the ∃ then checks that witness)."""
    for conjunct in _conjuncts(formula):
        if isinstance(conjunct, Exists):
            yield from _guards(conjunct.body)
        elif isinstance(conjunct, Atom):
            yield conjunct


def _holds(formula: Formula, db: Database, env: Env, domain: list[Any]) -> bool:
    if isinstance(formula, Truth):
        return formula.value
    if isinstance(formula, Atom):
        relation = db.relation(formula.predicate)
        row = tuple(_term_value(t, env) for t in formula.terms)
        return row in set(relation.distinct_rows())
    if isinstance(formula, Compare):
        return compare(_term_value(formula.left, env), formula.op,
                       _term_value(formula.right, env))
    if isinstance(formula, And):
        return all(_holds(o, db, env, domain) for o in formula.operands)
    if isinstance(formula, Or):
        return any(_holds(o, db, env, domain) for o in formula.operands)
    if isinstance(formula, Not):
        return not _holds(formula.operand, db, env, domain)
    if isinstance(formula, Exists):
        names = [v.name for v in formula.variables]
        for _extended in _assignments(names, formula.body, db, dict(env), domain):
            return True  # only existence matters
        return False
    raise DRCError(f"_holds: unhandled node {type(formula).__name__}")


def _assignments(unbound: list[str], formula: Formula, db: Database, env: Env,
                 domain: list[Any]) -> Iterator[Env]:
    """Yield extensions of ``env`` binding ``unbound`` under which ``formula`` holds.

    Guards (:func:`_guards`, or atoms nested inside disjuncts when every
    disjunct guards the variable) generate candidate rows; unguarded
    variables enumerate the active domain.
    """
    unbound = [name for name in unbound if name not in env]
    if not unbound:
        if _holds(formula, db, env, domain):
            yield dict(env)
        return

    guard = next((candidate for candidate in _guards(formula) if any(
        isinstance(t, Var) and t.name in unbound for t in candidate.terms)), None)
    # Disjunctions guard a variable if it appears in an atom of every branch;
    # cheapest correct handling: split the evaluation per branch.
    if guard is None:
        disjunctions = [c for c in _conjuncts(formula) if isinstance(c, Or)]
        if disjunctions:
            seen: set[tuple] = set()
            for branch in disjunctions[0].operands:
                rest = [c for c in _conjuncts(formula) if c is not disjunctions[0]]
                branch_formula = And(tuple([branch] + rest)) if rest else branch
                for result in _assignments(unbound, branch_formula, db, dict(env), domain):
                    key = tuple(sorted((k, repr(v)) for k, v in result.items()))
                    if key not in seen:
                        seen.add(key)
                        yield result
            return
        # No guard mentions an unbound variable: enumerate the domain for one.
        name = unbound[0]
        for value in domain:
            env[name] = value
            yield from _assignments(unbound[1:], formula, db, dict(env), domain)
        env.pop(name, None)
        return

    relation = db.relation(guard.predicate)
    for row in relation.distinct_rows():
        extended = dict(env)
        consistent = True
        for term, value in zip(guard.terms, row):
            if isinstance(term, Const):
                if term.value != value:
                    consistent = False
                    break
            elif isinstance(term, Var):
                if term.name in extended:
                    if extended[term.name] != value:
                        consistent = False
                        break
                else:
                    extended[term.name] = value
        if not consistent:
            continue
        remaining = [name for name in unbound if name not in extended]
        yield from _assignments(remaining, formula, db, extended, domain)


def evaluate_drc(query: "DRCQuery | str", db: Database) -> Relation:
    """Evaluate a DRC query (AST or text) and return the result relation."""
    if isinstance(query, str):
        from repro.drc.parser import parse_drc

        query = parse_drc(query)

    body = to_existential_nnf(standardize_apart(query.body))
    head_vars = query.head_variables()
    free = {v.name for v in free_variables(body)}
    for var in head_vars:
        if var.name not in free:
            raise DRCError(f"head variable {var.name!r} is not free in the body")

    domain = sorted(db.active_domain(), key=lambda v: (str(type(v)), str(v)))
    rows = dedupe_rows(
        tuple(_term_value(term, env) for term in query.head)
        for env in _assignments([v.name for v in head_vars], body, db, {}, domain))
    return result_relation(query.output_names(), rows)


def evaluate_drc_boolean(formula: "Formula | str", db: Database) -> bool:
    """Evaluate a closed DRC formula (logical statement) to TRUE/FALSE."""
    if isinstance(formula, str):
        from repro.drc.parser import parse_drc_formula

        formula = parse_drc_formula(formula)
    free = free_variables(formula)
    if free:
        raise DRCError(
            "boolean evaluation requires a sentence; free variables: "
            + ", ".join(v.name for v in free)
        )
    body = to_existential_nnf(standardize_apart(formula))
    domain = sorted(db.active_domain(), key=lambda v: (str(type(v)), str(v)))
    return _holds(body, db, {}, domain)
