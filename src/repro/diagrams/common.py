"""Shared machinery for TRC-based diagram builders (QueryVis, Relational Diagrams).

Both formalisms draw the same ingredients — one table box per tuple variable,
selection predicates inside the box, join predicates as lines between
attribute rows, and nested boxes for quantification/negation scopes — and
differ in how scopes and reading order are drawn.  This module lays out the
query's relational query pattern (:func:`repro.core.patterns.pattern_of`,
which records every comparison and disjunction with the scope it is written
in) as that shared "query graph"; it reads nothing off the formula itself.
A comparison written apart from its table variable's scope has no place in
the layout and raises :class:`CannotRepresent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.diagram import Diagram, DiagramEdge, DiagramGroup, DiagramNode
from repro.core.patterns import (
    PatternDisjunction,
    PatternError,
    PatternPredicate,
    pattern_of,
)
from repro.data.types import format_value
from repro.trc.ast import TRCQuery


class CannotRepresent(Exception):
    """Raised when a formalism has no visual element for a query construct."""


@dataclass
class ScopeInfo:
    """One quantification/negation scope of the normalised query."""

    id: int
    parent: int | None
    negated: bool
    depth: int


@dataclass
class TableBox:
    """One tuple variable with everything drawn inside its box.

    ``selections`` are the comparisons on this variable alone, and the
    disjunctions of such comparisons, written in the box's scope.
    """

    var: str
    relation: str
    scope: int
    selections: list[PatternPredicate | PatternDisjunction] = field(default_factory=list)
    attributes: list[str] = field(default_factory=list)
    output_attributes: list[str] = field(default_factory=list)

    @property
    def local_predicates(self) -> list[str]:
        return [_selection_text(s) for s in self.selections]

    def ensure_attribute(self, name: str) -> None:
        if name not in self.attributes:
            self.attributes.append(name)


def _selection_text(selection: PatternPredicate | PatternDisjunction) -> str:
    if isinstance(selection, PatternDisjunction):
        return " OR ".join(_selection_text(branch.predicates[0])
                           for branch in selection.branches)
    right = selection.right
    right_text = right[1] if isinstance(right, tuple) else format_value(right)
    return f"{selection.left[1]} {selection.op} {right_text}"


@dataclass
class JoinEdge:
    """A predicate connecting attributes of two different tuple variables."""

    left_var: str
    left_attr: str
    op: str
    right_var: str
    right_attr: str


@dataclass
class QueryGraph:
    """The shared structure both TRC-based formalisms draw."""

    scopes: dict[int, ScopeInfo] = field(default_factory=dict)
    tables: dict[str, TableBox] = field(default_factory=dict)
    joins: list[JoinEdge] = field(default_factory=list)
    head: list[tuple[str, str]] = field(default_factory=list)

    def tables_in_scope(self, scope_id: int) -> list[TableBox]:
        return [t for t in self.tables.values() if t.scope == scope_id]

    def child_scopes(self, scope_id: int | None) -> list[ScopeInfo]:
        return [s for s in self.scopes.values() if s.parent == scope_id]


def build_query_graph(query: TRCQuery, *, allow_local_disjunction: bool = True) -> QueryGraph:
    """Lay out the pattern of a TRC query as a query graph.

    A box sits in the scope of its variable's atom.  A comparison on one
    variable goes in that box when it is written in the box's scope; a
    comparison across two variables becomes a join line when it is written
    in the scope of one of its boxes.  A disjunction whose branches are each
    one attribute-vs-constant comparison of the same variable, written in
    the disjunction's scope, folds into that variable's box
    (``color = 'red' OR color = 'green'``).  Anything else raises
    :class:`CannotRepresent`, which is the behaviour the tutorial describes
    for QueryVis-style diagrams.
    """
    try:
        pattern = pattern_of(query)
    except PatternError as exc:
        raise CannotRepresent(str(exc)) from exc
    graph = QueryGraph()
    for scope, (parent, negated) in pattern.scopes.items():
        depth = 0 if parent is None else graph.scopes[parent].depth + 1
        graph.scopes[scope] = ScopeInfo(scope, parent, negated, depth)
    for var in pattern.variables:
        if var.name in graph.tables:
            raise CannotRepresent(f"tuple variable {var.name} is bound twice")
        graph.tables[var.name] = TableBox(var.name, var.relation, var.scope)

    def box_of(endpoint) -> TableBox:
        if not isinstance(endpoint, tuple):
            raise CannotRepresent("comparisons between two constants have no table box to live in")
        if endpoint[0] not in graph.tables:
            raise CannotRepresent(f"tuple variable {endpoint[0]} ranges over no relation")
        return graph.tables[endpoint[0]]

    for predicate in pattern.predicates:
        left = box_of(predicate.left)
        if isinstance(predicate.right, tuple) and predicate.right[0] != left.var:
            right = box_of(predicate.right)
            if predicate.scope not in (left.scope, right.scope):
                raise CannotRepresent("join written outside the scopes of both its tables")
            graph.joins.append(JoinEdge(left.var, predicate.left[1], predicate.op,
                                        right.var, predicate.right[1]))
            left.ensure_attribute(predicate.left[1])
            right.ensure_attribute(predicate.right[1])
            continue
        if predicate.scope != left.scope:
            raise CannotRepresent("comparison written outside its table's scope")
        left.ensure_attribute(predicate.left[1])
        left.selections.append(predicate)

    for disjunction in pattern.disjunctions:
        if not allow_local_disjunction:
            raise CannotRepresent("disjunction across tuple variables")
        _folding_box(graph, disjunction).selections.append(disjunction)

    for var, attr in (h for h in pattern.head if isinstance(h, tuple)):
        graph.head.append((var, attr))
        if var in graph.tables:
            box = graph.tables[var]
            box.ensure_attribute(attr)
            if attr not in box.output_attributes:
                box.output_attributes.append(attr)
    return graph


def _folding_box(graph: QueryGraph, disjunction: PatternDisjunction) -> TableBox:
    """The one box a disjunction folds into, or :class:`CannotRepresent`."""
    variables = set()
    for branch in disjunction.branches:
        if branch.disjunctions or branch.variables or len(branch.predicates) != 1:
            raise CannotRepresent("general disjunction")
        predicate = branch.predicates[0]
        if predicate.scope != disjunction.scope or not isinstance(predicate.left, tuple) \
                or isinstance(predicate.right, tuple):
            raise CannotRepresent("general disjunction")
        variables.add(predicate.left[0])
    box = graph.tables.get(variables.pop()) if len(variables) == 1 else None
    if box is None or box.scope != disjunction.scope:
        raise CannotRepresent("disjunction across tuple variables")
    return box


def draw_query_graph(diagram: Diagram, graph: QueryGraph,
                     scope_look: Callable[[ScopeInfo], tuple[str, str]],
                     table_label: Callable[[TableBox], str]) -> dict[str, str]:
    """Draw the parts QueryVis and Relational Diagrams share: one group per
    scope (``scope_look`` gives its label and style), one table node per box
    in its scope's group (attribute rows, output rows marked ``→``, then its
    selections), and one join line per join edge between the joined
    attribute rows, labelled unless equality.  Returns the node ids."""
    group_ids: dict[int, str] = {}
    for scope in sorted(graph.scopes.values(), key=lambda s: s.depth):
        label, style = scope_look(scope)
        parent = group_ids.get(scope.parent) if scope.parent is not None else None
        group_ids[scope.id] = diagram.add_group(
            DiagramGroup(f"scope{scope.id}", label, parent, style)).id
    node_ids: dict[str, str] = {}
    for box in graph.tables.values():
        rows = [("→ " if attr in box.output_attributes else "") + attr
                for attr in box.attributes]
        rows.extend(box.local_predicates)
        node = diagram.add_node(DiagramNode(
            f"t_{box.var}", "table", table_label(box), tuple(rows),
            group_ids[box.scope], "table",
        ))
        node_ids[box.var] = node.id
    for join in graph.joins:
        source = diagram.nodes[node_ids[join.left_var]]
        target = diagram.nodes[node_ids[join.right_var]]
        diagram.add_edge(DiagramEdge(
            source.id, target.id,
            label="" if join.op == "=" else join.op,
            source_port=_row_for(source.rows, join.left_attr),
            target_port=_row_for(target.rows, join.right_attr),
            kind="join",
        ))
    return node_ids


def representable(build: Callable, query, schema) -> bool:
    """True iff ``build(query, schema)`` draws the query."""
    from repro.translate.sql_to_trc import UnsupportedSQL

    try:
        build(query, schema)
        return True
    except (CannotRepresent, UnsupportedSQL):
        return False


def _row_for(rows: tuple[str, ...], attribute: str) -> str | None:
    for row in rows:
        stripped = row.removeprefix("→ ")
        if stripped == attribute or stripped.startswith(f"{attribute} "):
            return row
    return None
