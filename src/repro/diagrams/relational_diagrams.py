"""Relational Diagrams (Gatterbauer & Dunne, SIGMOD 2024).

Relational Diagrams are the most recent TRC-based formalism the tutorial
covers.  Like QueryVis they draw one box per tuple variable with predicates
inside and join lines between attribute rows, but the nesting structure is
shown with *nested negated bounding boxes* — directly inspired by Peirce's
cuts — instead of reading-order arrows.  Because they build on TRC (not DRC),
attribute rows replace Lines of Identity, which sidesteps the interpretation
problems of beta graphs.  Disjunctions are handled by drawing the *union of
diagrams*: one diagram per disjunct, displayed side by side.
"""

from __future__ import annotations

from repro.core.diagram import Diagram, merge_side_by_side
from repro.core.patterns import normalize_trc, to_trc
from repro.diagrams.common import (
    CannotRepresent,
    QueryGraph,
    build_query_graph,
    draw_query_graph,
    representable,
)
from repro.logic.formula import And, Exists, Or, conjunction
from repro.trc.ast import TRCQuery


def relational_diagram_from_graph(graph: QueryGraph, *, name: str = "query") -> Diagram:
    """Build a single Relational Diagram (no disjunction) from a query graph."""
    diagram = Diagram(name, formalism="relational_diagrams")
    head_text = ", ".join(f"{var}.{attr}" for var, attr in graph.head)
    draw_query_graph(diagram, graph,
                     lambda scope: (head_text, "dashed") if scope.id == 0 else ("", "negation"),
                     lambda box: box.relation)
    return diagram


def _split_top_level_disjunction(trc: TRCQuery) -> list[TRCQuery]:
    """Split a query whose body is a top-level disjunction into one query per disjunct."""
    body = normalize_trc(trc.body)

    def split(formula) -> list:
        if isinstance(formula, Or):
            out = []
            for operand in formula.operands:
                out.extend(split(operand))
            return out
        if isinstance(formula, Exists):
            return [Exists(formula.variables, branch) for branch in split(formula.body)]
        if isinstance(formula, And):
            # Only split when exactly one conjunct is a disjunction; distribute it.
            disjunctions = [o for o in formula.operands if isinstance(o, Or)]
            if len(disjunctions) == 1:
                others = [o for o in formula.operands if o is not disjunctions[0]]
                return [conjunction(others + [branch]) for branch in split(disjunctions[0])]
            return [formula]
        return [formula]

    branches = split(body)
    if len(branches) == 1:
        return [trc]
    return [TRCQuery(trc.head, branch) for branch in branches]


def relational_diagram(query, schema, *, name: str | None = None) -> Diagram:
    """Build a Relational Diagram from SQL text, SQL AST, or a TRC query.

    Queries whose pattern requires disjunction are rendered as the union of
    one diagram per disjunct (side by side, labelled "OR"), which is exactly
    the treatment the Relational Diagrams paper proposes.
    """
    trc = to_trc(query, schema)
    title = name or "Relational Diagram"
    try:
        graph = build_query_graph(trc, allow_local_disjunction=False)
        return relational_diagram_from_graph(graph, name=title)
    except CannotRepresent:
        branches = _split_top_level_disjunction(trc)
        if len(branches) <= 1:
            raise
        parts = []
        for index, branch in enumerate(branches):
            graph = build_query_graph(branch, allow_local_disjunction=False)
            parts.append(relational_diagram_from_graph(graph, name=f"branch {index + 1}"))
        combined = merge_side_by_side(parts, title,
                                      labels=[("" if i == 0 else "OR ") + f"alternative {i+1}"
                                              for i in range(len(parts))])
        combined.formalism = "relational_diagrams"
        return combined


def can_represent(query, schema) -> bool:
    """True iff the query (or its union-of-diagrams form) is representable."""
    return representable(relational_diagram, query, schema)
