"""Bottom-up evaluation of Datalog programs with stratified negation.

EDB predicates are the relations of the database (matched case-insensitively
by name).  Evaluation proceeds stratum by stratum; within a stratum, rules
are applied to a fixpoint (naive iteration — the programs in this project are
small and mostly non-recursive, so the simplicity is worth more than the
semi-naive speedup, and the benchmark harness still exercises recursion).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.data.database import Database
from repro.data.relation import Relation, result_relation
from repro.datalog.ast import (
    BuiltinComparison,
    DatalogError,
    Literal,
    Program,
    Rule,
    names_from_heads,
)
from repro.datalog.parser import parse_datalog
from repro.datalog.stratify import evaluation_order, stratify
from repro.logic.terms import Const, Term, Var, compare

#: Facts per predicate.
FactStore = dict[str, set[tuple]]
Env = dict[str, Any]


def _edb_facts(db: Database) -> FactStore:
    return {rel.schema.name.lower(): set(rel.distinct_rows()) for rel in db}


def _term_value(term: Term, env: Env) -> Any:
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        return env.get(term.name, _UNBOUND)
    raise DatalogError(f"not a term: {term!r}")


class _Unbound:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unbound>"


_UNBOUND = _Unbound()


def _match_literal(literal: Literal, facts: FactStore, env: Env) -> Iterator[Env]:
    """Yield extensions of ``env`` matching the (positive) literal against facts."""
    rows = facts.get(literal.predicate.lower(), set())
    for row in rows:
        if len(row) != literal.arity:
            continue
        extended = dict(env)
        consistent = True
        for term, value in zip(literal.terms, row):
            if isinstance(term, Const):
                if term.value != value:
                    consistent = False
                    break
            else:
                bound = extended.get(term.name, _UNBOUND)
                if isinstance(bound, _Unbound):
                    extended[term.name] = value
                elif bound != value:
                    consistent = False
                    break
        if consistent:
            yield extended


def _literal_holds(literal: Literal, facts: FactStore, env: Env) -> bool:
    """Check a fully bound (typically negated) literal against the facts."""
    row = []
    for term in literal.terms:
        value = _term_value(term, env)
        if isinstance(value, _Unbound):
            raise DatalogError(
                f"negated literal {literal.predicate} has unbound variables (unsafe rule)"
            )
        row.append(value)
    return tuple(row) in facts.get(literal.predicate.lower(), set())


def _apply_rule(rule: Rule, facts: FactStore) -> set[tuple]:
    """All head facts derivable from ``facts`` by one application of ``rule``."""
    derived: set[tuple] = set()

    positive = rule.positive_literals()
    checks = [b for b in rule.body if not (isinstance(b, Literal) and not b.negated)]

    def extend(index: int, env: Env) -> None:
        if index == len(positive):
            for item in checks:
                if isinstance(item, Literal):
                    if _literal_holds(item, facts, env):
                        return
                elif isinstance(item, BuiltinComparison):
                    left = _term_value(item.left, env)
                    right = _term_value(item.right, env)
                    if isinstance(left, _Unbound) or isinstance(right, _Unbound):
                        raise DatalogError(
                            "comparison over unbound variable (unsafe rule)")
                    if not compare(left, item.op, right):
                        return
            head_row = []
            for term in rule.head.terms:
                value = _term_value(term, env)
                if isinstance(value, _Unbound):
                    raise DatalogError(
                        f"head variable {term} of {rule.head.predicate} is unbound"
                    )
                head_row.append(value)
            derived.add(tuple(head_row))
            return
        for extended in _match_literal(positive[index], facts, env):
            extend(index + 1, extended)

    extend(0, {})
    return derived


def evaluate_program(program: "Program | str", db: Database) -> FactStore:
    """Compute all IDB facts of ``program`` over ``db`` (stratified fixpoint)."""
    if isinstance(program, str):
        program = parse_datalog(program)
    problems = program.check_safety()
    if problems:
        raise DatalogError("unsafe program: " + "; ".join(problems))

    facts = _edb_facts(db)
    strata = stratify(program)

    for stratum_predicates in evaluation_order(program):
        stratum_rules = [
            rule for rule in program.rules
            if rule.head.predicate.lower() in stratum_predicates
        ]
        for predicate in stratum_predicates:
            facts.setdefault(predicate.lower(), set())
        changed = True
        while changed:
            changed = False
            for rule in stratum_rules:
                new_facts = _apply_rule(rule, facts)
                target = facts.setdefault(rule.head.predicate.lower(), set())
                before = len(target)
                target |= new_facts
                if len(target) != before:
                    changed = True
    del strata
    return facts


def evaluate_datalog(program: "Program | str", db: Database,
                     query: str = "ans") -> Relation:
    """Evaluate a program and return the relation for ``query`` (default ``ans``)."""
    if isinstance(program, str):
        program = parse_datalog(program)
    facts = evaluate_program(program, db)
    key = query.lower()
    if key not in facts:
        raise DatalogError(f"program defines no predicate {query!r}")
    rows = sorted(facts[key], key=lambda r: tuple(str(v) for v in r))
    return result_relation(names_from_heads(program.rules_for(query)), rows)
