"""First-order logic formulas over a relational signature.

The formula language is function-free FOL with equality and order
comparisons: atoms are relation atoms ``R(t1, ..., tn)`` or comparisons
``t1 op t2``; formulas are closed under the boolean connectives and the two
quantifiers.  Propositional logic is the quantifier-free, zero-arity-atom
fragment and is used by Peirce's alpha graphs and Venn diagrams.

These are the node classes of both relational calculi.  A DRC body uses
them as they are; a TRC body is the fragment whose atoms are ``R(t)`` over
one tuple variable and whose comparisons read attribute references
(:class:`repro.logic.terms.AttrRef`).  The variable readers below
(:func:`free_variables`, :func:`all_variables`, :func:`substitute`,
:func:`rename_variables`) see the variable inside an attribute reference
through :func:`repro.logic.terms.variable_of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from repro.logic.terms import Term, Var, term_of, variable_of, variables_in, with_variable

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")


class LogicError(Exception):
    """Raised for malformed formulas."""


class Formula:
    """Base class of all formulas."""

    def children(self) -> tuple["Formula", ...]:
        return ()

    def walk(self) -> Iterator["Formula"]:
        yield self
        for child in self.children():
            yield from child.walk()

    # Convenience constructors so formulas compose with operators.
    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True)
class Truth(Formula):
    """A logical constant TRUE or FALSE."""

    value: bool = True

    def __str__(self) -> str:
        return "TRUE" if self.value else "FALSE"


@dataclass(frozen=True)
class Atom(Formula):
    """A relation atom ``R(t1, ..., tn)``; with no terms it is a proposition."""

    predicate: str
    terms: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(term_of(t) for t in self.terms))

    @property
    def arity(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return self.predicate
        inner = ", ".join(str(t) for t in self.terms)
        return f"{self.predicate}({inner})"


@dataclass(frozen=True)
class Compare(Formula):
    """A comparison atom ``t1 op t2``."""

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        op = {"!=": "<>", "==": "="}.get(self.op, self.op)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", term_of(self.left))
        object.__setattr__(self, "right", term_of(self.right))
        if op not in COMPARISON_OPS:
            raise LogicError(f"unknown comparison operator {self.op!r}")

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Formula):
    """N-ary conjunction."""

    operands: tuple[Formula, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", tuple(self.operands))

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def __str__(self) -> str:
        return "(" + " ∧ ".join(str(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class Or(Formula):
    """N-ary disjunction."""

    operands: tuple[Formula, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", tuple(self.operands))

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def __str__(self) -> str:
        return "(" + " ∨ ".join(str(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class Not(Formula):
    """Negation."""

    operand: Formula = Truth(True)

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"¬{self.operand}"


@dataclass(frozen=True)
class Implies(Formula):
    """Material implication ``antecedent → consequent``."""

    antecedent: Formula = Truth(True)
    consequent: Formula = Truth(True)

    def children(self) -> tuple[Formula, ...]:
        return (self.antecedent, self.consequent)

    def __str__(self) -> str:
        return f"({self.antecedent} → {self.consequent})"


@dataclass(frozen=True)
class Iff(Formula):
    """Biconditional."""

    left: Formula = Truth(True)
    right: Formula = Truth(True)

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ↔ {self.right})"


@dataclass(frozen=True)
class Exists(Formula):
    """Existential quantification over one or more variables."""

    variables: tuple[Var, ...]
    body: Formula = Truth(True)

    def __post_init__(self) -> None:
        variables = self.variables
        if isinstance(variables, Var):
            variables = (variables,)
        object.__setattr__(self, "variables", tuple(variables))

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)

    def __str__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"∃{names}. {self.body}"


@dataclass(frozen=True)
class ForAll(Formula):
    """Universal quantification over one or more variables."""

    variables: tuple[Var, ...]
    body: Formula = Truth(True)

    def __post_init__(self) -> None:
        variables = self.variables
        if isinstance(variables, Var):
            variables = (variables,)
        object.__setattr__(self, "variables", tuple(variables))

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)

    def __str__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"∀{names}. {self.body}"


# ---------------------------------------------------------------------------
# Free variables, substitution, structural helpers
# ---------------------------------------------------------------------------

def _terms(node: Atom | Compare) -> tuple[Term, ...]:
    return node.terms if isinstance(node, Atom) else (node.left, node.right)


def _map_terms(node: Atom | Compare, fn: Callable[[Term], Term]) -> Formula:
    if isinstance(node, Atom):
        return Atom(node.predicate, tuple(fn(t) for t in node.terms))
    return Compare(fn(node.left), node.op, fn(node.right))


def map_children(node: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """``node`` rebuilt with ``fn`` applied to each direct subformula; a truth
    value, an atom or a comparison is returned as it is."""
    if isinstance(node, (Truth, Atom, Compare)):
        return node
    if isinstance(node, (And, Or)):
        return type(node)(tuple(fn(o) for o in node.operands))
    if isinstance(node, Not):
        return Not(fn(node.operand))
    if isinstance(node, Implies):
        return Implies(fn(node.antecedent), fn(node.consequent))
    if isinstance(node, Iff):
        return Iff(fn(node.left), fn(node.right))
    if isinstance(node, (Exists, ForAll)):
        return type(node)(node.variables, fn(node.body))
    raise LogicError(f"unhandled node {type(node).__name__}")


def free_variables(formula: Formula) -> list[Var]:
    """Free variables of a formula, in first-occurrence order."""
    out: list[Var] = []
    seen: set[str] = set()

    def visit(node: Formula, bound: frozenset[str]) -> None:
        if isinstance(node, (Atom, Compare)):
            for var in variables_in(_terms(node)):
                if var.name not in bound and var.name not in seen:
                    seen.add(var.name)
                    out.append(var)
        elif isinstance(node, (Exists, ForAll)):
            visit(node.body, bound | {v.name for v in node.variables})
        else:
            for child in node.children():
                visit(child, bound)

    visit(formula, frozenset())
    return out


def bound_variables(formula: Formula) -> list[Var]:
    """Variables that are bound by some quantifier, in quantifier order."""
    out: list[Var] = []
    seen: set[str] = set()
    for node in formula.walk():
        if isinstance(node, (Exists, ForAll)):
            for var in node.variables:
                if var.name not in seen:
                    seen.add(var.name)
                    out.append(var)
    return out


def all_variables(formula: Formula) -> list[Var]:
    """Every variable mentioned anywhere in the formula."""
    mentioned: list[Var] = []
    for node in formula.walk():
        if isinstance(node, (Atom, Compare)):
            mentioned.extend(variables_in(_terms(node)))
        elif isinstance(node, (Exists, ForAll)):
            mentioned.extend(node.variables)
    return variables_in(mentioned)


def is_sentence(formula: Formula) -> bool:
    """True iff the formula has no free variables (a logical statement)."""
    return not free_variables(formula)


def substitute(formula: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Replace free occurrences of variables by terms.

    The variable of an attribute reference is replaced too, and only by a
    variable.  Bound variables shadow the substitution; no capture-avoidance
    renaming is attempted (callers standardize apart first when needed).
    """
    def sub_term(term: Term, bound: frozenset[str]) -> Term:
        var = variable_of(term)
        if var is None or var.name not in mapping or var.name in bound:
            return term
        replacement = mapping[var.name]
        if isinstance(term, Var):
            return replacement
        if not isinstance(replacement, Var):
            raise LogicError(f"cannot substitute {replacement} for the variable of {term}")
        return with_variable(term, replacement)

    def visit(node: Formula, bound: frozenset[str]) -> Formula:
        if isinstance(node, (Atom, Compare)):
            return _map_terms(node, lambda term: sub_term(term, bound))
        if isinstance(node, (Exists, ForAll)):
            inner = bound | {v.name for v in node.variables}
            return type(node)(node.variables, visit(node.body, inner))
        return map_children(node, lambda child: visit(child, bound))

    return visit(formula, frozenset())


def rename_variables(formula: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename variables (both free and bound) according to ``mapping``,
    those of attribute references and of quantifier lists included."""
    def ren_var(var: Var) -> Var:
        return Var(mapping[var.name]) if var.name in mapping else var

    def ren_term(term: Term) -> Term:
        var = variable_of(term)
        if var is None or var.name not in mapping:
            return term
        return with_variable(term, ren_var(var))

    def visit(node: Formula) -> Formula:
        if isinstance(node, (Atom, Compare)):
            return _map_terms(node, ren_term)
        if isinstance(node, (Exists, ForAll)):
            return type(node)(tuple(ren_var(v) for v in node.variables), visit(node.body))
        return map_children(node, visit)

    return visit(formula)


def atoms_of(formula: Formula) -> list[Atom]:
    """All relation atoms occurring in the formula."""
    return [node for node in formula.walk() if isinstance(node, Atom)]


def predicates_of(formula: Formula) -> list[str]:
    """Distinct predicate names, in first-occurrence order."""
    out: list[str] = []
    for atom in atoms_of(formula):
        if atom.predicate not in out:
            out.append(atom.predicate)
    return out


def map_formula(formula: Formula, fn: Callable[[Formula], Formula | None]) -> Formula:
    """Bottom-up rewrite: apply ``fn`` to every node; None keeps the rebuilt node."""
    def visit(node: Formula) -> Formula:
        rebuilt = map_children(node, visit)
        replacement = fn(rebuilt)
        return rebuilt if replacement is None else replacement

    return visit(formula)


def conjunction(parts: Sequence[Formula]) -> Formula:
    """AND together formulas, flattening nested conjunctions."""
    flat: list[Formula] = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.operands)
        elif isinstance(part, Truth) and part.value:
            continue
        else:
            flat.append(part)
    if not flat:
        return Truth(True)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disjunction(parts: Sequence[Formula]) -> Formula:
    """OR together formulas, flattening nested disjunctions."""
    flat: list[Formula] = []
    for part in parts:
        if isinstance(part, Or):
            flat.extend(part.operands)
        elif isinstance(part, Truth) and not part.value:
            continue
        else:
            flat.append(part)
    if not flat:
        return Truth(False)
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))
