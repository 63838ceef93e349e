"""String diagrams for first-order logic (Haydon & Sobocinski; Bonchi et al.).

String diagrams are, as the tutorial puts it, "essentially a variant of
Peirce's beta graphs that allow free variables in addition to bound
variables": predicates are boxes, variables are wires, and *bound* wires end
in a dot while *free* wires run to the boundary of the diagram, where they
form the interface of the query.  Negation is a shaded frame around a
sub-diagram.

The builder reuses the beta-graph extraction and changes the presentation:
free variables get boundary ports instead of being an afterthought.
"""

from __future__ import annotations

from repro.core.diagram import Diagram, DiagramEdge, DiagramGroup, DiagramNode
from repro.data.schema import DatabaseSchema
from repro.diagrams.peirce_beta import BetaGraph, beta_graph_of, _term_text
from repro.drc.ast import DRCQuery


def string_diagram(graph: BetaGraph, free_order: list[str] | None = None,
                   *, name: str = "string diagram") -> Diagram:
    """Render a beta-graph structure in string-diagram style."""
    diagram = Diagram(name, formalism="string_diagrams")
    frame = diagram.add_group(DiagramGroup("frame", "", None, "solid"))
    boundary = diagram.add_group(DiagramGroup("boundary", "interface", None, "dashed"))

    cut_groups: dict[tuple[int, ...], str] = {(): frame.id}
    for cut_id, parent_path in sorted(graph.cuts.items(), key=lambda kv: len(kv[1])):
        parent = cut_groups[parent_path]
        group = diagram.add_group(DiagramGroup(f"neg{cut_id}", "¬", parent, "shaded"))
        cut_groups[parent_path + (cut_id,)] = group.id

    spot_nodes: dict[int, str] = {}
    for spot in graph.spots:
        rows = tuple(f"#{i + 1}: {_term_text(t)}" for i, t in enumerate(spot.terms))
        node = diagram.add_node(DiagramNode(
            f"box{spot.id}", "predicate", spot.predicate, rows,
            cut_groups[spot.cut_path], "table",
        ))
        spot_nodes[spot.id] = node.id

    for index, (left, op, right, path) in enumerate(graph.comparisons):
        diagram.add_node(DiagramNode(
            f"cmp{index}", "predicate", f"{left} {op} {right}", (),
            cut_groups[path], "plaintext",
        ))

    free_order = free_order or []
    for line in graph.lines:
        if line.free:
            position = free_order.index(line.variable) + 1 if line.variable in free_order else 0
            anchor = diagram.add_node(DiagramNode(
                f"port_{line.variable}", "port",
                f"⟨{position}⟩ {line.variable}" if position else line.variable,
                (), boundary.id, "plaintext",
            ))
        else:
            anchor = diagram.add_node(DiagramNode(
                f"dot_{line.variable}", "bound-wire", "", (),
                cut_groups.get(line.outermost, frame.id), "point",
            ))
        for spot_id, hook_position in line.hooks:
            target = spot_nodes[spot_id]
            port = diagram.nodes[target].rows[hook_position]
            diagram.add_edge(DiagramEdge(anchor.id, target, target_port=port,
                                         style="bold", kind="identity"))
    return diagram


def string_diagram_for_query(query, schema: DatabaseSchema,
                             *, name: str | None = None) -> Diagram:
    """Build a string diagram for a relational query (SQL, TRC, or DRC input)."""
    from repro.core.patterns import to_trc
    from repro.translate.trc_to_drc import trc_to_drc

    if isinstance(query, DRCQuery):
        drc = query
    else:
        drc = trc_to_drc(to_trc(query, schema), schema)
    graph = beta_graph_of(drc.body)
    order = [v.name for v in drc.head_variables()]
    return string_diagram(graph, order, name=name or "string diagram")
