"""SQLVis-style syntax visualizations (Miedema & Fletcher 2021).

SQLVis helps SQL *learners* by visualizing the syntactic structure of the
query: one box per table reference of each query block, edges for join
conditions within a block, and one nested box per subquery, labelled with the
keyword that introduces it (``IN``, ``NOT EXISTS``, ...).  Because the
drawing follows the syntax, semantically equivalent spellings (``NOT IN`` vs
``NOT EXISTS``) produce *different* pictures — which is exactly the property
the invariance principle penalises and the tutorial uses this family to
illustrate.
"""

from __future__ import annotations

from repro.core.diagram import Diagram, DiagramEdge, DiagramGroup, DiagramNode
from repro.data.schema import DatabaseSchema
from repro.expr import ast as e
from repro.expr.format import format_expr
from repro.sql.ast import Join, Query, SelectQuery, SetOpQuery, TableRef
from repro.sql.format import format_query
from repro.sql.parser import parse_sql


def sqlvis_diagram(query, schema: DatabaseSchema, *, name: str | None = None) -> Diagram:
    """Visualize the syntactic structure of a SQL query."""
    if isinstance(query, str):
        query = parse_sql(query)
    diagram = Diagram(name or "SQLVis", formalism="sqlvis")
    _emit_query(diagram, query, None, "query")
    return diagram


def _emit_query(diagram: Diagram, query: Query, parent_group: str | None,
                label: str) -> None:
    if isinstance(query, SetOpQuery):
        group = diagram.add_group(DiagramGroup(diagram.fresh_id("g"),
                                               f"{label}: {query.op.upper()}",
                                               parent_group, "solid"))
        _emit_query(diagram, query.left, group.id, "left")
        _emit_query(diagram, query.right, group.id, "right")
        return
    if not isinstance(query, SelectQuery):
        raise TypeError(f"unexpected query node {type(query).__name__}")

    select_text = ", ".join(
        format_expr(item.expr, subquery_formatter=format_query)
        for item in query.select_items
    ) or "*"
    group = diagram.add_group(DiagramGroup(
        diagram.fresh_id("g"), f"{label}: SELECT {select_text}", parent_group, "solid",
    ))

    table_nodes: dict[str, str] = {}

    def add_table(ref: TableRef) -> None:
        rows = []
        node = diagram.add_node(DiagramNode(
            diagram.fresh_id("t"), "table",
            f"{ref.name} {ref.alias}" if ref.alias else ref.name, tuple(rows),
            group.id, "table",
        ))
        table_nodes[(ref.alias or ref.name).lower()] = node.id

    def add_from_item(item) -> None:
        if isinstance(item, TableRef):
            add_table(item)
        elif isinstance(item, Join):
            add_from_item(item.left)
            add_from_item(item.right)
            if item.condition is not None:
                _emit_condition_edges(diagram, item.condition, table_nodes, group.id)
        else:  # DerivedTable
            _emit_query(diagram, item.query, group.id, f"FROM {item.alias}")

    for item in query.from_items:
        add_from_item(item)

    if query.where is not None:
        _emit_where(diagram, query.where, table_nodes, group.id)
    for expr in query.group_by:
        diagram.add_node(DiagramNode(diagram.fresh_id("c"), "clause",
                                     f"GROUP BY {format_expr(expr)}", (), group.id,
                                     "plaintext"))
    if query.having is not None:
        diagram.add_node(DiagramNode(
            diagram.fresh_id("c"), "clause",
            "HAVING " + format_expr(query.having, subquery_formatter=format_query),
            (), group.id, "plaintext",
        ))


def _emit_where(diagram: Diagram, expr: e.Expr, table_nodes: dict[str, str],
                group_id: str, negations: int = 0) -> None:
    """Emit WHERE conjuncts; a nested block under ``negations`` enclosing
    ``NOT (...)`` carries each of them in its label."""
    def nest(query, label: str) -> None:
        for _ in range(negations):
            label = f"NOT ({label})"
        _emit_query(diagram, query, group_id, label)

    for conjunct in e.conjuncts(expr):
        if isinstance(conjunct, e.Exists):
            nest(conjunct.query, "NOT EXISTS" if conjunct.negated else "EXISTS")
        elif isinstance(conjunct, e.InSubquery):
            nest(conjunct.query, f"{format_expr(conjunct.operand)} "
                                 f"{'NOT IN' if conjunct.negated else 'IN'}")
        elif isinstance(conjunct, e.QuantifiedComparison):
            nest(conjunct.query, f"{format_expr(conjunct.left)} {conjunct.op} "
                                 f"{conjunct.quantifier.upper()}")
        elif isinstance(conjunct, e.Not) and e.contains_subquery(conjunct):
            _emit_where(diagram, conjunct.operand, table_nodes, group_id,
                        negations + 1)
        else:
            _emit_condition_edges(diagram, conjunct, table_nodes, group_id)


def _emit_condition_edges(diagram: Diagram, condition: e.Expr,
                          table_nodes: dict[str, str], group_id: str) -> None:
    """Join conditions become edges; everything else becomes a predicate note."""
    if isinstance(condition, e.Comparison):
        qualifiers = [c.qualifier.lower() for c in condition.columns() if c.qualifier]
        if len(set(qualifiers)) == 2 and all(q in table_nodes for q in qualifiers):
            diagram.add_edge(DiagramEdge(
                table_nodes[qualifiers[0]], table_nodes[qualifiers[1]],
                format_expr(condition), kind="join",
            ))
            return
    diagram.add_node(DiagramNode(
        diagram.fresh_id("p"), "predicate",
        format_expr(condition, subquery_formatter=format_query), (), group_id, "plaintext",
    ))
