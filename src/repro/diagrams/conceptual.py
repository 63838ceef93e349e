"""Sowa's conceptual graphs (1976), specialised to relational queries.

Conceptual graphs draw *concepts* as rectangles (``[Sailor: *s]``) and
*conceptual relations* as ovals connecting them; negation is a context box
containing a subgraph.  Sowa designed them explicitly as a database
interface, so the mapping from our query graph is direct: every tuple
variable becomes a concept, every join predicate becomes a relation oval
between two concepts, local selections become attribute concepts attached by
relation ovals, and negation scopes become negated contexts — structurally
the same skeleton as the TRC-based formalisms, drawn with the bipartite
concept/relation vocabulary.
"""

from __future__ import annotations

from repro.core.diagram import Diagram, DiagramEdge, DiagramGroup, DiagramNode
from repro.core.patterns import to_trc
from repro.diagrams.common import build_query_graph


def conceptual_graph_diagram(query, schema, *, name: str | None = None) -> Diagram:
    """Build a conceptual-graph diagram from SQL text, SQL AST, or TRC."""
    graph = build_query_graph(to_trc(query, schema))
    diagram = Diagram(name or "conceptual graph", formalism="conceptual")

    group_ids: dict[int, str] = {}
    for scope in sorted(graph.scopes.values(), key=lambda s: s.depth):
        if scope.id == 0:
            group = diagram.add_group(DiagramGroup("outer", "", None, "dashed"))
        else:
            parent = group_ids[scope.parent] if scope.parent is not None else None
            group = diagram.add_group(DiagramGroup(f"ctx{scope.id}", "¬ context",
                                                   parent, "negation"))
        group_ids[scope.id] = group.id

    concept_ids: dict[str, str] = {}
    for box in graph.tables.values():
        marker = "*" if not box.output_attributes else "?"
        node = diagram.add_node(DiagramNode(
            f"c_{box.var}", "concept", f"[{box.relation}: {marker}{box.var}]",
            tuple(box.local_predicates), group_ids[box.scope], "box",
        ))
        concept_ids[box.var] = node.id

    for index, join in enumerate(graph.joins):
        relation_label = f"({join.left_attr} {join.op} {join.right_attr})"
        scope = graph.tables[join.left_var].scope
        inner_scope = graph.tables[join.right_var].scope
        # Place the relation oval in the deeper of the two scopes.
        deeper = scope if graph.scopes[scope].depth >= graph.scopes[inner_scope].depth \
            else inner_scope
        oval = diagram.add_node(DiagramNode(
            f"rel{index}", "relation", relation_label, (), group_ids[deeper], "ellipse",
        ))
        diagram.add_edge(DiagramEdge(concept_ids[join.left_var], oval.id, kind="argument"))
        diagram.add_edge(DiagramEdge(oval.id, concept_ids[join.right_var],
                                     directed=True, kind="argument"))
    return diagram
