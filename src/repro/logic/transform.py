"""Normal-form transformations for first-order formulas.

The diagram translators need formulas in specific shapes: Peirce beta graphs
correspond to formulas built from ∃, ∧, ¬ only; Relational Diagrams need
negation normal form with ∨ eliminated or isolated; prenex form exposes the
quantifier prefix used by the "default reading order" of QueryVis.
"""

from __future__ import annotations

from typing import Callable

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
    all_variables,
    conjunction,
    disjunction,
    free_variables,
    rename_variables,
)
from repro.logic.terms import Var, fresh_variable


def eliminate_implications(formula: Formula) -> Formula:
    """Rewrite → and ↔ in terms of ∧, ∨, ¬."""
    if isinstance(formula, (Truth, Atom, Compare)):
        return formula
    if isinstance(formula, And):
        return And(tuple(eliminate_implications(o) for o in formula.operands))
    if isinstance(formula, Or):
        return Or(tuple(eliminate_implications(o) for o in formula.operands))
    if isinstance(formula, Not):
        return Not(eliminate_implications(formula.operand))
    if isinstance(formula, Implies):
        return Or((Not(eliminate_implications(formula.antecedent)),
                   eliminate_implications(formula.consequent)))
    if isinstance(formula, Iff):
        left = eliminate_implications(formula.left)
        right = eliminate_implications(formula.right)
        return And((Or((Not(left), right)), Or((Not(right), left))))
    if isinstance(formula, Exists):
        return Exists(formula.variables, eliminate_implications(formula.body))
    if isinstance(formula, ForAll):
        return ForAll(formula.variables, eliminate_implications(formula.body))
    raise LogicError(f"eliminate_implications: unhandled {type(formula).__name__}")


def _push_negations(node: Formula, negate: bool,
                    quantified: Callable[[Formula, bool], Formula]) -> Formula:
    """Push a pending negation (``negate``) through ¬, ∧, ∨ down to the
    atoms; ``quantified(node, negate)`` rewrites an ∃/∀ node."""
    if isinstance(node, Truth):
        return Truth(node.value != negate)
    if isinstance(node, (Atom, Compare)):
        return Not(node) if negate else node
    if isinstance(node, Not):
        return _push_negations(node.operand, not negate, quantified)
    if isinstance(node, And):
        parts = tuple(_push_negations(o, negate, quantified) for o in node.operands)
        return Or(parts) if negate else And(parts)
    if isinstance(node, Or):
        parts = tuple(_push_negations(o, negate, quantified) for o in node.operands)
        return And(parts) if negate else Or(parts)
    if isinstance(node, (Exists, ForAll)):
        return quantified(node, negate)
    raise LogicError(f"push_negations: unhandled {type(node).__name__}")


def to_nnf(formula: Formula) -> Formula:
    """Negation normal form: negations only on atoms; no →, ↔."""
    def quantified(node: Formula, negate: bool) -> Formula:
        body = _push_negations(node.body, negate, quantified)
        dual = isinstance(node, Exists) == negate   # ¬∃ is ∀¬, ¬∀ is ∃¬
        return (ForAll if dual else Exists)(node.variables, body)

    return _push_negations(eliminate_implications(formula), False, quantified)


def to_existential_nnf(formula: Formula) -> Formula:
    """The form guarded calculus evaluation reads: no →, ↔ or ∀ (∀x φ is
    ¬∃x ¬φ), and negations pushed inward but not through ∃, so that the
    guards hidden under ¬(¬A ∨ B) patterns become top-level conjuncts."""
    def quantified(node: Formula, negate: bool) -> Formula:
        if isinstance(node, ForAll):   # ∀x φ ≡ ¬∃x ¬φ
            inner = Exists(node.variables,
                           _push_negations(node.body, True, quantified))
            return inner if negate else Not(inner)
        inner = Exists(node.variables,
                       _push_negations(node.body, False, quantified))
        return Not(inner) if negate else inner

    return _push_negations(eliminate_implications(formula), False, quantified)


def standardize_apart(formula: Formula) -> Formula:
    """Rename bound variables so that every quantifier binds a distinct name,
    distinct also from the formula's free variables (so none is captured)."""
    used = {v.name for v in all_variables(formula)}

    def visit(node: Formula, renaming: dict[str, str]) -> Formula:
        if isinstance(node, Truth):
            return node
        if isinstance(node, (Atom, Compare)):
            return rename_variables(node, renaming) if renaming else node
        if isinstance(node, And):
            return And(tuple(visit(o, renaming) for o in node.operands))
        if isinstance(node, Or):
            return Or(tuple(visit(o, renaming) for o in node.operands))
        if isinstance(node, Not):
            return Not(visit(node.operand, renaming))
        if isinstance(node, Implies):
            return Implies(visit(node.antecedent, renaming), visit(node.consequent, renaming))
        if isinstance(node, Iff):
            return Iff(visit(node.left, renaming), visit(node.right, renaming))
        if isinstance(node, (Exists, ForAll)):
            new_renaming = dict(renaming)
            new_vars = []
            for var in node.variables:
                if var.name in used_bound:
                    fresh = fresh_variable(var.name, used)
                    used.add(fresh.name)
                    new_renaming[var.name] = fresh.name
                    new_vars.append(fresh)
                else:
                    used_bound.add(var.name)
                    new_renaming.pop(var.name, None)
                    new_vars.append(var)
            body = visit(node.body, new_renaming)
            cls = Exists if isinstance(node, Exists) else ForAll
            return cls(tuple(new_vars), body)
        raise LogicError(f"standardize_apart: unhandled {type(node).__name__}")

    used_bound = {v.name for v in free_variables(formula)}
    return visit(formula, {})


def to_prenex(formula: Formula) -> Formula:
    """Prenex normal form: all quantifiers pulled to the front.

    The input is first standardized apart and put into NNF, which makes the
    extraction of quantifiers capture-free.
    """
    formula = standardize_apart(to_nnf(formula))

    def pull(node: Formula) -> tuple[list[tuple[type, tuple[Var, ...]]], Formula]:
        if isinstance(node, (Truth, Atom, Compare, Not)):
            return [], node
        if isinstance(node, (Exists, ForAll)):
            prefix, matrix = pull(node.body)
            return [(type(node), node.variables)] + prefix, matrix
        if isinstance(node, (And, Or)):
            all_prefix: list[tuple[type, tuple[Var, ...]]] = []
            matrices = []
            for operand in node.operands:
                prefix, matrix = pull(operand)
                all_prefix.extend(prefix)
                matrices.append(matrix)
            cls = And if isinstance(node, And) else Or
            return all_prefix, cls(tuple(matrices))
        raise LogicError(f"to_prenex: unhandled {type(node).__name__}")

    prefix, matrix = pull(formula)
    result: Formula = matrix
    for quant_cls, variables in reversed(prefix):
        result = quant_cls(variables, result)
    return result


def to_exists_and_not(formula: Formula) -> Formula:
    """Rewrite into the ∃/∧/¬ fragment used by Peirce's beta graphs.

    ``∀x. φ`` becomes ``¬∃x. ¬φ`` and ``φ ∨ ψ`` becomes ``¬(¬φ ∧ ¬ψ)``.
    The result contains only Truth, Atom, Compare, And, Not, and Exists.
    """
    formula = eliminate_implications(formula)

    def visit(node: Formula) -> Formula:
        if isinstance(node, (Truth, Atom, Compare)):
            return node
        if isinstance(node, And):
            return conjunction([visit(o) for o in node.operands])
        if isinstance(node, Or):
            return Not(conjunction([Not(visit(o)) for o in node.operands]))
        if isinstance(node, Not):
            return Not(visit(node.operand))
        if isinstance(node, Exists):
            return Exists(node.variables, visit(node.body))
        if isinstance(node, ForAll):
            return Not(Exists(node.variables, Not(visit(node.body))))
        raise LogicError(f"to_exists_and_not: unhandled {type(node).__name__}")

    return visit(formula)


def simplify(formula: Formula) -> Formula:
    """Light structural simplification: drop double negations and constants."""
    def visit(node: Formula) -> Formula:
        if isinstance(node, (Truth, Atom, Compare)):
            return node
        if isinstance(node, Not):
            inner = visit(node.operand)
            if isinstance(inner, Not):
                return inner.operand
            if isinstance(inner, Truth):
                return Truth(not inner.value)
            return Not(inner)
        if isinstance(node, And):
            parts = [visit(o) for o in node.operands]
            if any(isinstance(p, Truth) and not p.value for p in parts):
                return Truth(False)
            parts = [p for p in parts if not (isinstance(p, Truth) and p.value)]
            return conjunction(parts)
        if isinstance(node, Or):
            parts = [visit(o) for o in node.operands]
            if any(isinstance(p, Truth) and p.value for p in parts):
                return Truth(True)
            parts = [p for p in parts if not (isinstance(p, Truth) and not p.value)]
            return disjunction(parts)
        if isinstance(node, Implies):
            return Implies(visit(node.antecedent), visit(node.consequent))
        if isinstance(node, Iff):
            return Iff(visit(node.left), visit(node.right))
        if isinstance(node, Exists):
            body = visit(node.body)
            if isinstance(body, Truth):
                return body
            return Exists(node.variables, body)
        if isinstance(node, ForAll):
            body = visit(node.body)
            if isinstance(body, Truth):
                return body
            return ForAll(node.variables, body)
        raise LogicError(f"simplify: unhandled {type(node).__name__}")

    return visit(formula)


def quantifier_prefix(formula: Formula) -> list[tuple[str, Var]]:
    """The leading quantifier prefix of a (prenex) formula as (kind, var) pairs."""
    prefix: list[tuple[str, Var]] = []
    node = formula
    while isinstance(node, (Exists, ForAll)):
        kind = "exists" if isinstance(node, Exists) else "forall"
        for var in node.variables:
            prefix.append((kind, var))
        node = node.body
    return prefix


def quantifier_depth(formula: Formula) -> int:
    """Maximum nesting depth of quantifiers (a complexity measure for diagrams)."""
    if isinstance(formula, (Truth, Atom, Compare)):
        return 0
    if isinstance(formula, (Exists, ForAll)):
        return 1 + quantifier_depth(formula.body)
    return max((quantifier_depth(c) for c in formula.children()), default=0)


def negation_depth(formula: Formula) -> int:
    """Maximum nesting depth of negations (Peirce cut depth)."""
    if isinstance(formula, (Truth, Atom, Compare)):
        return 0
    if isinstance(formula, Not):
        return 1 + negation_depth(formula.operand)
    return max((negation_depth(c) for c in formula.children()), default=0)
