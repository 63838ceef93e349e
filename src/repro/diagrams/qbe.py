"""Query-By-Example (Zloof 1977).

QBE presents one *skeleton table* per relation occurrence; the user fills
cells with example elements (``_SID``), constants, print markers (``P.``) and
negation markers on rows.  Complex conditions go to a separate *condition
box*.  Universal quantification (relational division) is not expressible in
one screen: the textbook recipe — the one the tutorial contrasts with
Datalog — breaks the query into two logical steps that materialise a
temporary relation.

The builder turns a conjunctive query (with simple negated subqueries) into
skeleton tables, and :func:`qbe_division_steps` produces the two-step plan
for "all red boats"-style queries, mirroring the Datalog division pattern of
:func:`repro.translate.ra_datalog.ra_to_datalog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.diagram import Diagram, DiagramNode
from repro.core.patterns import PatternDisjunction, PatternPredicate, to_trc
from repro.data.schema import DatabaseSchema
from repro.data.types import format_value
from repro.diagrams.common import CannotRepresent, build_query_graph


@dataclass
class SkeletonTable:
    """One QBE skeleton table: relation name + one example row."""

    relation: str
    entries: dict[str, str] = field(default_factory=dict)
    negated: bool = False

    def row_text(self, schema: DatabaseSchema) -> list[str]:
        try:
            attributes = [a.name for a in schema.relation(self.relation).attributes]
        except Exception:
            # Temporary relations (e.g. the division helper) are not in the schema.
            attributes = list(self.entries)
        return [f"{name}: {self.entries.get(name, '')}".rstrip() for name in attributes]


@dataclass
class QBEQuery:
    """A QBE screen: skeleton tables plus a condition box."""

    tables: list[SkeletonTable] = field(default_factory=list)
    conditions: list[str] = field(default_factory=list)
    result_name: str | None = None

    def to_diagram(self, schema: DatabaseSchema, *, name: str = "QBE") -> Diagram:
        diagram = Diagram(name, formalism="qbe")
        for index, table in enumerate(self.tables):
            label = table.relation + ("  (¬)" if table.negated else "")
            diagram.add_node(DiagramNode(
                f"tbl{index}", "table", label, tuple(table.row_text(schema)), None, "table",
            ))
        if self.conditions:
            diagram.add_node(DiagramNode(
                "conditions", "condition-box", "CONDITIONS", tuple(self.conditions),
                None, "table",
            ))
        if self.result_name:
            diagram.add_node(DiagramNode(
                "result", "table", f"{self.result_name} (result)", (), None, "table",
            ))
        return diagram


def qbe_from_query(query, schema: DatabaseSchema) -> QBEQuery:
    """Build the QBE screen of a query (conjunctive core + one level of negation)."""
    graph = build_query_graph(to_trc(query, schema))
    if any(scope.depth > 1 for scope in graph.scopes.values()):
        raise CannotRepresent(
            "QBE needs multiple screens (temporary relations) for nested negation; "
            "use qbe_division_steps for universal quantification"
        )

    qbe = QBEQuery()
    # Cells (variable, attribute) equated by a predicate share one example
    # element: a union-find over the cells.
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(cell: tuple[str, str]) -> tuple[str, str]:
        while cell in parent:
            cell = parent[cell]
        return cell

    equalities = [(j.left_var, j.left_attr, j.right_var, j.right_attr)
                  for j in graph.joins if j.op == "="]
    equalities += [(box.var, s.left[1], box.var, s.right[1])
                   for box in graph.tables.values() for s in box.selections
                   if isinstance(s, PatternPredicate) and s.op == "=" and isinstance(s.right, tuple)]
    for left_var, left_attr, right_var, right_attr in equalities:
        left, right = find((left_var, left_attr)), find((right_var, right_attr))
        if left != right:
            parent[left] = right

    # Example elements are named as cells are first used: the first one is
    # ``_ATTR``, a later one carries the number of cells used before it.
    example_names: dict[tuple[str, str], str] = {}
    class_names: dict[tuple[str, str], str] = {}

    def example_for(var: str, attr: str) -> str:
        if (var, attr) not in example_names:
            example_names[(var, attr)] = class_names.setdefault(
                find((var, attr)), f"_{attr.upper()}{len(example_names) or ''}")
        return example_names[(var, attr)]

    for join in graph.joins:
        left = example_for(join.left_var, join.left_attr)
        right = example_for(join.right_var, join.right_attr)
        if join.op != "=":
            qbe.conditions.append(f"{left} {join.op} {right}")

    def condition(table: SkeletonTable, var: str, predicate: PatternPredicate) -> str:
        def operand(end) -> str:
            if not isinstance(end, tuple):
                return format_value(end)
            example = example_for(var, end[1])
            table.entries.setdefault(end[1], example)
            return example

        return f"{operand(predicate.left)} {predicate.op} {operand(predicate.right)}"

    for box in graph.tables.values():
        table = SkeletonTable(box.relation, negated=graph.scopes[box.scope].negated)
        for (var, attr), example in example_names.items():
            if var == box.var:
                table.entries[attr] = example
        for selection in box.selections:
            if isinstance(selection, PatternDisjunction):
                qbe.conditions.append(" OR ".join(condition(table, box.var, branch.predicates[0])
                                                  for branch in selection.branches))
            elif selection.op != "=":
                qbe.conditions.append(condition(table, box.var, selection))
            elif isinstance(selection.right, tuple):
                # The equated cells already share an element; fill both.
                condition(table, box.var, selection)
            else:
                table.entries[selection.left[1]] = format_value(selection.right)
        for var, attr in graph.head:
            if var == box.var:
                existing = table.entries.get(attr, "")
                table.entries[attr] = f"P.{existing}" if existing else f"P._{attr.upper()}"
        qbe.tables.append(table)
    return qbe


def qbe_diagram(query, schema: DatabaseSchema, *, name: str | None = None) -> Diagram:
    """The QBE screen as a diagram (single-screen queries only)."""
    return qbe_from_query(query, schema).to_diagram(schema, name=name or "QBE skeleton")


def qbe_division_steps(schema: DatabaseSchema, *, dividend: str = "Reserves",
                       divisor_relation: str = "Boats",
                       divisor_condition: str = "color = 'red'",
                       quotient_attr: str = "sid",
                       divisor_attr: str = "bid") -> list[QBEQuery]:
    """The textbook two-step QBE plan for relational division.

    Step 1 materialises a temporary relation ``BadSid`` of candidates that
    *miss* some divisor tuple (using a negated skeleton row); step 2 prints
    the candidates not in ``BadSid``.  This is exactly the dataflow-style,
    multi-occurrence pattern that Datalog uses, which is why the tutorial
    asks whether QBE is really more "visual" than Datalog.
    """
    attr_cond, value = divisor_condition.split("=")
    step1 = QBEQuery(result_name="BadSid")
    step1.tables.append(SkeletonTable(dividend, {quotient_attr: f"_{quotient_attr.upper()}"}))
    step1.tables.append(SkeletonTable(
        divisor_relation,
        {divisor_attr: f"_{divisor_attr.upper()}", attr_cond.strip(): value.strip()},
    ))
    step1.tables.append(SkeletonTable(
        dividend,
        {quotient_attr: f"_{quotient_attr.upper()}", divisor_attr: f"_{divisor_attr.upper()}"},
        negated=True,
    ))
    step1.conditions.append(f"BadSid({quotient_attr}) ← _{quotient_attr.upper()}")

    step2 = QBEQuery()
    step2.tables.append(SkeletonTable(dividend, {quotient_attr: f"P._{quotient_attr.upper()}"}))
    step2.tables.append(SkeletonTable(
        "BadSid", {quotient_attr: f"_{quotient_attr.upper()}"}, negated=True,
    ))
    return [step1, step2]
