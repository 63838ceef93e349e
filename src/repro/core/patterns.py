"""Relational query patterns and pattern isomorphism.

The "correspondence principle" of query visualization asks that a diagram
determine the query's *relational query pattern* — the structure that remains
when one abstracts away variable names and the syntactic order of conjuncts:
which table variables exist, over which relations, inside which
negation/quantification scopes, connected by which predicates, and what is
projected out.  Two SQL texts that differ only syntactically (``NOT IN`` vs.
``NOT EXISTS``, reordered WHERE conjuncts, renamed aliases) share a pattern;
queries with different logic do not.

Patterns are extracted from TRC queries (the language of QueryVis and
Relational Diagrams).  Extraction normalises the formula first: implications
and universal quantifiers are rewritten into ∃/∧/¬ form and nested
existentials in the same negation scope are flattened, which is what makes
the NOT IN / NOT EXISTS variants collapse to the same pattern.

:func:`pattern_of` is the one reader of a TRC query's pattern.  It records
each comparison with the scope it is written in (a constant is moved to the
right once, here), each disjunction as a group of branches in its scope, and
each FALSE as a comparison of its scope that no row satisfies (TRUE is what
a scope with nothing in it means already).
Isomorphism compares exactly that, and the TRC-based diagrams
(:func:`repro.diagrams.common.build_query_graph`) lay it out as boxes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

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
    conjunction,
)
from repro.logic.terms import AttrRef, Const, Var
from repro.trc.ast import TRCQuery, atom_variable


class PatternError(Exception):
    """Raised when a pattern cannot be extracted (e.g. disjunctive bodies)."""


# ---------------------------------------------------------------------------
# Normalisation
# ---------------------------------------------------------------------------

def normalize_trc(formula: Formula) -> Formula:
    """Rewrite into ∃/∧/¬ form (∨ is kept) and flatten nested existentials.

    * ``∀x φ``    →  ``¬∃x ¬φ``
    * ``φ → ψ``   →  ``¬(φ ∧ ¬ψ)``
    * ``¬¬φ``     →  ``φ``;  ``¬TRUE`` → ``FALSE`` and ``¬FALSE`` → ``TRUE``
    * ``∃x (φ ∧ ∃y ψ)`` → ``∃x, y (φ ∧ ψ)``  (same negation scope)
    """
    def rewrite(node: Formula) -> Formula:
        if isinstance(node, (Truth, Atom, Compare)):
            return node
        if isinstance(node, And):
            return conjunction([rewrite(o) for o in node.operands])
        if isinstance(node, Or):
            return Or(tuple(rewrite(o) for o in node.operands))
        if isinstance(node, Not):
            inner = rewrite(node.operand)
            if isinstance(inner, Not):
                return inner.operand
            if isinstance(inner, Truth):
                return Truth(not inner.value)
            return Not(inner)
        if isinstance(node, Implies):
            return rewrite(Not(And((node.antecedent, Not(node.consequent)))))
        if isinstance(node, ForAll):
            return rewrite(Not(Exists(node.variables, Not(node.body))))
        if isinstance(node, Exists):
            body = rewrite(node.body)
            variables = list(node.variables)
            body = _flatten_exists_into(variables, body)
            return Exists(tuple(variables), body)
        raise PatternError(f"normalize: unhandled node {type(node).__name__}")

    # Flatten ∃ nested directly under the (positive) top level conjunction.
    variables: list[Var] = []
    body = _flatten_exists_into(variables, rewrite(formula))
    return Exists(tuple(variables), body) if variables else body


def _flatten_exists_into(variables: list[Var], body: Formula) -> Formula:
    """Pull directly-nested existentials (not under ¬) into ``variables``."""
    changed = True
    while changed:
        changed = False
        if isinstance(body, Exists):
            variables.extend(body.variables)
            body = body.body
            changed = True
        elif isinstance(body, And):
            new_parts = []
            for part in body.operands:
                if isinstance(part, Exists):
                    variables.extend(part.variables)
                    new_parts.append(part.body)
                    changed = True
                else:
                    new_parts.append(part)
            body = conjunction(new_parts)
    return body


# ---------------------------------------------------------------------------
# Pattern structure
# ---------------------------------------------------------------------------

#: Each comparison operator with its two sides swapped.
_FLIP = {"=": "=", "<>": "<>", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _oriented(op: str, left, right) -> tuple:
    """``(op, left, right)`` with the sides in one deterministic order."""
    if repr(right) < repr(left):
        return _FLIP[op], right, left
    return op, left, right


@dataclass(frozen=True)
class PatternVariable:
    """A table variable of the pattern: relation + scope."""

    name: str
    relation: str
    scope: int
    negation_depth: int


@dataclass(frozen=True)
class PatternPredicate:
    """A comparison written in ``scope``.

    Endpoints are ``(var, attr)`` pairs or constants; a constant is always on
    the right, and two attributes keep the order they were written in.
    """

    op: str
    left: tuple[str, str] | Any
    right: tuple[str, str] | Any
    scope: int


@dataclass(frozen=True)
class PatternBranch:
    """One disjunct: the comparisons, disjunctions and variables it holds
    outside any disjunction nested in it (negation scopes included)."""

    predicates: tuple[PatternPredicate, ...]
    disjunctions: tuple[PatternDisjunction, ...]
    variables: tuple[str, ...]


@dataclass(frozen=True)
class PatternDisjunction:
    """A disjunction written in ``scope``, one branch per disjunct."""

    scope: int
    branches: tuple[PatternBranch, ...]


@dataclass
class QueryPattern:
    """The relational query pattern of a TRC query.

    ``predicates`` and ``disjunctions`` hold what lies outside every
    disjunction; a disjunction's branches hold the rest.  ``scopes`` maps a
    scope id to ``(parent, negated)``, parents before children.
    """

    variables: list[PatternVariable] = field(default_factory=list)
    predicates: list[PatternPredicate] = field(default_factory=list)
    disjunctions: list[PatternDisjunction] = field(default_factory=list)
    head: list[tuple[str, str] | Any] = field(default_factory=list)
    scopes: dict[int, tuple[int | None, bool]] = field(default_factory=dict)

    # -- derived ------------------------------------------------------------
    @property
    def has_disjunction(self) -> bool:
        return bool(self.disjunctions)

    def all_predicates(self) -> Iterator[PatternPredicate]:
        """Every comparison of the pattern, those inside disjunctions too."""
        def walk(predicates, disjunctions) -> Iterator[PatternPredicate]:
            yield from predicates
            for disjunction in disjunctions:
                for branch in disjunction.branches:
                    yield from walk(branch.predicates, branch.disjunctions)
        return walk(self.predicates, self.disjunctions)

    def signature(self) -> tuple:
        """An isomorphism-invariant fingerprint (necessary, not sufficient):
        the pattern with every variable renamed to its relation and depth."""
        classes = {v.name: (v.relation.lower(), v.negation_depth) for v in self.variables}
        return (tuple(sorted((v.relation.lower(), v.negation_depth) for v in self.variables)),
                len(self.scopes), _renamed(self, classes))

    def size(self) -> dict[str, int]:
        return {
            "variables": len(self.variables),
            "predicates": sum(1 for _ in self.all_predicates()),
            "scopes": len(self.scopes),
            "negation_scopes": sum(1 for _, negated in self.scopes.values() if negated),
            "max_negation_depth": max(
                (v.negation_depth for v in self.variables), default=0
            ),
        }


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def to_trc(query, schema=None) -> TRCQuery:
    """Accept SQL text, a SQL AST, TRC text, or a TRC query; return a TRC query.

    SQL inputs require ``schema`` for translation.
    """
    from repro.sql.ast import SelectQuery, SetOpQuery
    from repro.translate.sql_to_trc import sql_to_trc

    if isinstance(query, TRCQuery):
        return query
    if isinstance(query, str) and query.strip().startswith("{"):
        from repro.trc.parser import parse_trc

        return parse_trc(query)
    if not isinstance(query, (str, SelectQuery, SetOpQuery)):
        raise PatternError(f"cannot obtain a TRC query from {type(query).__name__}")
    if schema is None:
        raise PatternError("a database schema is required to translate SQL")
    return sql_to_trc(query, schema)


def pattern_of(query: TRCQuery) -> QueryPattern:
    """Extract the relational query pattern of a TRC query."""
    pattern = QueryPattern()
    scope_counter = itertools.count(1)
    pattern.scopes[0] = (None, False)

    def visit(node: Formula, scope: int, depth: int,
              predicates: list, disjunctions: list, names: list) -> None:
        if isinstance(node, Truth):
            # An empty scope or branch already reads TRUE.  FALSE empties
            # its scope, so it is recorded there, as the comparison of two
            # constants it is: FALSE = TRUE.
            if not node.value:
                predicates.append(PatternPredicate("=", False, True, scope))
            return
        if isinstance(node, Atom):
            name = atom_variable(node).name
            pattern.variables.append(PatternVariable(name, node.predicate, scope, depth))
            names.append(name)
        elif isinstance(node, Compare):
            predicates.append(_predicate(node, scope))
        elif isinstance(node, And):
            for operand in node.operands:
                visit(operand, scope, depth, predicates, disjunctions, names)
        elif isinstance(node, Or):
            branches = []
            for operand in node.operands:
                held: tuple[list, list, list] = ([], [], [])
                visit(operand, scope, depth, *held)
                branches.append(PatternBranch(*map(tuple, held)))
            disjunctions.append(PatternDisjunction(scope, tuple(branches)))
        elif isinstance(node, Not):
            new_scope = next(scope_counter)
            pattern.scopes[new_scope] = (scope, True)
            inner = node.operand
            # A negation scope usually wraps an ∃ block; flatten it in place.
            if isinstance(inner, Exists):
                inner = inner.body
            visit(inner, new_scope, depth + 1, predicates, disjunctions, names)
        elif isinstance(node, Exists):
            visit(node.body, scope, depth, predicates, disjunctions, names)
        else:
            raise PatternError(f"pattern extraction: unhandled node {type(node).__name__}")

    visit(normalize_trc(query.body), 0, 0, pattern.predicates, pattern.disjunctions, [])

    for item in query.head:
        if isinstance(item.term, AttrRef):
            pattern.head.append((item.term.var.name, item.term.attr))
        elif isinstance(item.term, Const):
            pattern.head.append(item.term.value)
    return pattern


def _predicate(compare: Compare, scope: int) -> PatternPredicate:
    left, right, op = _endpoint(compare.left), _endpoint(compare.right), compare.op
    if isinstance(right, tuple) and not isinstance(left, tuple):
        left, right, op = right, left, _FLIP[op]
    return PatternPredicate(op, left, right, scope)


def _endpoint(term) -> tuple[str, str] | Any:
    if isinstance(term, AttrRef):
        return (term.var.name, term.attr)
    if isinstance(term, Const):
        return term.value
    raise PatternError(f"unexpected predicate endpoint {term!r}")


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------

def isomorphic(left: QueryPattern, right: QueryPattern) -> bool:
    """Decide whether two patterns are the same up to renaming of variables.

    The bijection must preserve relations and negation depth; under it the
    scopes, every predicate with the scope it is written in, every
    disjunction as a set of branches, and the head must coincide.  The
    search is brute force over per-(relation, depth) groups, which is fine
    for the hand-sized queries diagrams are meant for.
    """
    if left.signature() != right.signature():
        return False
    groups: dict[tuple[str, int], tuple[list[str], list[str]]] = {}
    for side, pattern in enumerate((left, right)):
        for var in pattern.variables:
            key = (var.relation.lower(), var.negation_depth)
            groups.setdefault(key, ([], []))[side].append(var.name)
    target = _renamed(right, {})
    for images in itertools.product(
            *(itertools.permutations(names) for _, names in groups.values())):
        mapping = {a: b for (names, _), image in zip(groups.values(), images)
                   for a, b in zip(names, image)}
        if _renamed(left, mapping) == target:
            return True
    return False


def _renamed(pattern: QueryPattern, mapping: dict[str, Any]) -> tuple:
    """The pattern with variables renamed by ``mapping`` and scope ids
    replaced by names: a scope is named by its parent, the variables it binds,
    and the comparisons written in it."""
    def endpoint(end):
        if isinstance(end, tuple):
            return (mapping.get(end[0], end[0]), end[1].lower())
        return ("const", repr(end))

    def bare(p: PatternPredicate) -> tuple:
        return _oriented(p.op, endpoint(p.left), endpoint(p.right))

    content: dict[int, set] = {scope: set() for scope in pattern.scopes}
    for var in pattern.variables:
        content[var.scope].add(mapping.get(var.name, var.name))
    for p in pattern.all_predicates():
        content[p.scope].add(bare(p))
    names: dict[int | None, Any] = {None: None}
    for scope, (parent, _negated) in pattern.scopes.items():
        names[scope] = (names[parent], frozenset(content[scope]))

    def group(predicates, disjunctions, variables) -> tuple:
        return (
            frozenset((*bare(p), names[p.scope]) for p in predicates),
            frozenset((names[d.scope], frozenset(
                group(b.predicates, b.disjunctions, b.variables) for b in d.branches))
                for d in disjunctions),
            frozenset(mapping.get(v, v) for v in variables),
        )

    return (
        group(pattern.predicates, pattern.disjunctions, ()),
        frozenset((mapping.get(v.name, v.name), names[v.scope]) for v in pattern.variables),
        frozenset(names.values()),
        tuple(endpoint(h) for h in pattern.head),
    )


def same_pattern(sql_or_trc_a, sql_or_trc_b, schema=None) -> bool:
    """Convenience: compare the patterns of two queries given as SQL or TRC.

    SQL inputs require ``schema`` for translation.
    """
    return isomorphic(pattern_of(to_trc(sql_or_trc_a, schema)),
                      pattern_of(to_trc(sql_or_trc_b, schema)))
