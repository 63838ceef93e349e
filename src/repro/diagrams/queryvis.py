"""QueryVis diagrams.

QueryVis (Danaparamita & Gatterbauer 2011; Leventidis et al. 2020) draws one
box per tuple variable with the attributes it uses, selection predicates
written inside the box, join predicates as lines between attribute rows, and
one *grouping box per nesting level* labelled with its quantifier.  Its
signature element — borrowed from the diagrammatic-reasoning community's
"default reading order" — is the arrow between nesting levels that tells the
reader in which order to traverse the existential quantifiers; without the
arrows the diagram would be ambiguous.
"""

from __future__ import annotations

from repro.core.diagram import Diagram, DiagramEdge
from repro.core.patterns import to_trc
from repro.diagrams.common import (
    QueryGraph,
    ScopeInfo,
    build_query_graph,
    draw_query_graph,
    representable,
)


def queryvis_from_graph(graph: QueryGraph, *, name: str = "query") -> Diagram:
    """Build a QueryVis diagram from a query graph."""
    diagram = Diagram(name, formalism="queryvis")

    # One group per scope.  The root scope shows the output schema in its label.
    head_text = ", ".join(f"{var}.{attr}" for var, attr in graph.head)

    def scope_look(scope: ScopeInfo) -> tuple[str, str]:
        if scope.id == 0:
            return (f"SELECT {head_text}" if head_text else "SELECT"), "solid"
        return ("NOT EXISTS", "negation") if scope.negated else ("EXISTS", "dashed")

    node_ids = draw_query_graph(diagram, graph, scope_look,
                                lambda box: f"{box.relation} {box.var}")

    # Reading-order arrows: from one representative table of a scope to a
    # representative table of each child scope.
    for scope in graph.scopes.values():
        sources = graph.tables_in_scope(scope.id)
        for child in graph.child_scopes(scope.id):
            targets = graph.tables_in_scope(child.id)
            if sources and targets:
                diagram.add_edge(DiagramEdge(node_ids[sources[0].var], node_ids[targets[0].var],
                                             style="dashed", directed=True, kind="reading-order"))
    return diagram


def queryvis_diagram(query, schema, *, name: str | None = None) -> Diagram:
    """Build a QueryVis diagram from SQL text, a SQL AST, or a TRC query."""
    graph = build_query_graph(to_trc(query, schema))
    return queryvis_from_graph(graph, name=name or "QueryVis diagram")


def can_represent(query, schema) -> bool:
    """True iff QueryVis has a direct representation for this query."""
    return representable(queryvis_diagram, query, schema)
