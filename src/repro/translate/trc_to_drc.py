"""TRC → DRC translation (and the positional view DRC needs).

A tuple variable ``s`` ranging over ``Sailors(sid, sname, rating, age)``
becomes four domain variables ``s_sid, s_sname, s_rating, s_age``; the
relation atom ``Sailors(s)`` becomes ``Sailors(s_sid, s_sname, s_rating,
s_age)``, and attribute references become the corresponding domain variable.
Quantifiers over a tuple variable become quantifiers over its domain
variables.  Ranges are scoped: a quantified variable ranges over the
relation of its atoms in the quantifier's own body, so sibling or nested
scopes may reuse a name over different relations (one name over two
relations in one scope raises :class:`TRCToDRCError`).  Both calculi are
formulas of :mod:`repro.logic.formula`, so the translation rewrites atoms,
comparisons and quantifiers only; the connectives carry over as they are.

This is the textbook equivalence proof turned into code.  It is the bridge
from QueryVis-style diagrams (TRC) to Peirce beta graphs (DRC), and it is
the engine's TRC front end: :func:`repro.engine.lower.lower_trc` compiles
the translation with the DRC compiler.
"""

from __future__ import annotations

from repro.data.schema import DatabaseSchema
from repro.drc.ast import DRCQuery
from repro.logic.formula import (
    Atom,
    Compare,
    Exists,
    ForAll,
    Formula,
    free_variables,
    map_children,
)
from repro.logic.terms import AttrRef, Const, Term, Var
from repro.trc.ast import TRCQuery, atom_variable


class TRCToDRCError(Exception):
    """Raised when a TRC query cannot be expanded (e.g. unknown variable range)."""


def _domain_var(var: Var, attribute: str) -> Var:
    return Var(f"{var.name}_{attribute}")


def _domain_vars(var: Var, relation: str, schema: DatabaseSchema) -> list[Var]:
    rel_schema = schema.relation(relation)
    return [_domain_var(var, attr.name) for attr in rel_schema.attributes]


def _convert_term(term: Term, ranges: dict[str, str], schema: DatabaseSchema) -> Term:
    if isinstance(term, Const):
        return term
    if not isinstance(term, AttrRef):
        raise TRCToDRCError(f"not a TRC term: {term!r}")
    relation = ranges.get(term.var.name)
    if relation is None:
        raise TRCToDRCError(
            f"tuple variable {term.var.name!r} has no relation atom; cannot expand"
        )
    for attr in schema.relation(relation).attributes:
        if attr.name.lower() == term.attr.lower():
            return _domain_var(term.var, attr.name)
    raise TRCToDRCError(f"relation {relation!r} has no attribute {term.attr!r}")


def _scope_ranges(body: Formula, names: set[str]) -> dict[str, str]:
    """The relation each of ``names`` ranges over in ``body``: the relation
    of its atoms there, not counting atoms under a quantifier that rebinds
    the name."""
    ranges: dict[str, str] = {}

    def visit(node: Formula, names: set[str]) -> None:
        if isinstance(node, Atom):
            name = atom_variable(node).name
            if name in names:
                relation = ranges.setdefault(name, node.predicate)
                if relation.lower() != node.predicate.lower():
                    raise TRCToDRCError(
                        f"tuple variable {name!r} ranges over both "
                        f"{relation!r} and {node.predicate!r}"
                    )
        elif isinstance(node, (Exists, ForAll)):
            visit(node.body, names - {v.name for v in node.variables})
        else:
            for child in node.children():
                visit(child, names)

    visit(body, names)
    return ranges


def trc_formula_to_drc(formula: Formula, schema: DatabaseSchema,
                       ranges: dict[str, str] | None = None) -> Formula:
    """Convert a TRC formula to a DRC (first-order) formula.

    ``ranges`` maps the formula's free tuple variables to their relations
    (by default, the relations of their atoms in ``formula``); each
    quantifier's variables range over the relations of their atoms in the
    quantifier's own body.  An attribute reference becomes the domain
    variable of the attribute as the schema spells it.  Only atoms,
    comparisons and quantifiers change; every connective is kept as it is.
    """
    if ranges is None:
        ranges = _scope_ranges(formula, {v.name for v in free_variables(formula)})

    def go(node: Formula, ranges: dict[str, str]) -> Formula:
        if isinstance(node, Atom):
            variables = _domain_vars(atom_variable(node), node.predicate, schema)
            return Atom(schema.relation(node.predicate).name, tuple(variables))
        if isinstance(node, Compare):
            return Compare(_convert_term(node.left, ranges, schema), node.op,
                           _convert_term(node.right, ranges, schema))
        if isinstance(node, (Exists, ForAll)):
            scoped = _scope_ranges(node.body, {v.name for v in node.variables})
            domain_variables: list[Var] = []
            for var in node.variables:
                if var.name not in scoped:
                    raise TRCToDRCError(
                        f"tuple variable {var.name!r} has no relation atom; cannot expand"
                    )
                domain_variables.extend(_domain_vars(var, scoped[var.name], schema))
            return type(node)(tuple(domain_variables), go(node.body, {**ranges, **scoped}))
        return map_children(node, lambda child: go(child, ranges))

    return go(formula, ranges)


def trc_to_drc(query: TRCQuery, schema: DatabaseSchema) -> DRCQuery:
    """Translate a full TRC query into an equivalent DRC query.

    The head attribute references become head domain variables; the free
    tuple variables' remaining attributes are existentially quantified so the
    DRC query's free variables are exactly its head variables.
    """
    ranges = _scope_ranges(query.body, {v.name for v in free_variables(query.body)})
    head_terms: list[Term] = []
    head_var_names: set[str] = set()
    for item in query.head:
        term = _convert_term(item.term, ranges, schema)
        head_terms.append(term)
        if isinstance(term, Var):
            head_var_names.add(term.name)

    body = trc_formula_to_drc(query.body, schema, ranges)

    # Existentially close the non-head domain variables of the free tuple vars.
    to_close = [v for v in free_variables(body) if v.name not in head_var_names]
    if to_close:
        body = Exists(tuple(to_close), body)
    return DRCQuery(tuple(head_terms), body)
