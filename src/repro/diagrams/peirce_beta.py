"""Peirce's beta existential graphs (first-order logic).

Beta graphs extend alpha graphs with the *Line of Identity* (LI): a heavy
line that simultaneously asserts the existence of an individual and the
identity of its endpoints.  Predicates ("spots") are written with hooks to
which lines attach; cuts negate.  The quantification of a line is decided by
its *outermost point*: a line whose outermost part lies on the sheet is an
existential at the top level, a line entirely inside one cut is an
existential under that negation, and so on.

The tutorial devotes attention to the *imperfect mapping* between beta graphs
and the Boolean fragment of Domain Relational Calculus: beta graphs have no
free variables (every LI is quantified), so only *sentences* are
representable, and reading a graph back requires choosing where each line is
quantified.  Both directions are implemented here: DRC sentence → beta graph
(:func:`beta_graph_of`), and beta graph → DRC sentence (:func:`drc_of_beta`),
with the round trip preserving semantics.  For *queries* (formulas with free
variables) the builder follows the convention also used by string diagrams:
free variables become lines that reach the diagram boundary, which is exactly
the extension the tutorial attributes to later work — flagged in the result's
``formalism`` metadata so the caveat is not lost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.diagram import Diagram, DiagramEdge, DiagramGroup, DiagramNode
from repro.data.schema import DatabaseSchema
from repro.data.types import format_value
from repro.drc.ast import DRCQuery
from repro.logic.formula import (
    And,
    Atom,
    Compare,
    Exists,
    Formula,
    Not,
    Truth,
    conjunction,
    free_variables,
)
from repro.logic.terms import Const, Term, Var
from repro.logic.transform import simplify, standardize_apart, to_exists_and_not


class BetaError(Exception):
    """Raised for inputs outside the beta-graph fragment."""


@dataclass
class Spot:
    """A predicate occurrence with its argument terms."""

    id: int
    predicate: str
    terms: tuple[Term, ...]
    cut_path: tuple[int, ...]  # ids of enclosing cuts, outermost first


@dataclass
class LineOfIdentity:
    """One line of identity: a variable with every hook it attaches to."""

    variable: str
    #: (spot id, argument position) pairs the line connects.
    hooks: list[tuple[int, int]] = field(default_factory=list)
    #: The cut path of the outermost point of the line (decides quantification).
    outermost: tuple[int, ...] = ()
    free: bool = False


@dataclass
class BetaGraph:
    """A structured beta graph: cuts, spots, lines of identity."""

    cuts: dict[int, tuple[int, ...]] = field(default_factory=dict)  # cut id -> parent path
    spots: list[Spot] = field(default_factory=list)
    lines: list[LineOfIdentity] = field(default_factory=list)
    comparisons: list[tuple[str, str, str, tuple[int, ...]]] = field(default_factory=list)

    def cut_depth(self) -> int:
        return max((len(path) + 1 for path in self.cuts.values()), default=0)

    def line_for(self, variable: str) -> LineOfIdentity:
        for line in self.lines:
            if line.variable == variable:
                return line
        raise KeyError(variable)


def beta_graph_of(formula: Formula) -> BetaGraph:
    """Translate a DRC formula (a sentence, or a query body) into a beta graph.

    The formula is first normalised to the ∃/∧/¬ fragment, its bound
    variables renamed apart (one line per quantified variable, even where a
    name is reused in another scope).  Free variables become free lines (see
    module docstring).
    """
    # Normalise to ∃/∧/¬ and drop the double negations the rewrite introduces,
    # so e.g. ∀x (A → B) gets its canonical two-cut rendering ¬∃x (A ∧ ¬B).
    normalized = simplify(to_exists_and_not(standardize_apart(formula)))
    graph = BetaGraph()
    cut_counter = itertools.count(1)
    spot_counter = itertools.count(1)
    free = {v.name for v in free_variables(formula)}
    line_scope: dict[str, tuple[int, ...]] = {name: () for name in free}

    def visit(node: Formula, path: tuple[int, ...]) -> None:
        if isinstance(node, Truth):
            if not node.value:
                # FALSE is an empty cut.
                cut_id = next(cut_counter)
                graph.cuts[cut_id] = path
            return
        if isinstance(node, Atom):
            spot_id = next(spot_counter)
            graph.spots.append(Spot(spot_id, node.predicate, node.terms, path))
            for position, term in enumerate(node.terms):
                if isinstance(term, Var):
                    line_scope.setdefault(term.name, path)
                    line = _ensure_line(graph, term.name)
                    line.hooks.append((spot_id, position))
            return
        if isinstance(node, Compare):
            left = _term_text(node.left)
            right = _term_text(node.right)
            graph.comparisons.append((left, node.op, right, path))
            for term in (node.left, node.right):
                if isinstance(term, Var):
                    line_scope.setdefault(term.name, path)
                    _ensure_line(graph, term.name)
            return
        if isinstance(node, And):
            for operand in node.operands:
                visit(operand, path)
            return
        if isinstance(node, Not):
            cut_id = next(cut_counter)
            graph.cuts[cut_id] = path
            visit(node.operand, path + (cut_id,))
            return
        if isinstance(node, Exists):
            for var in node.variables:
                line_scope.setdefault(var.name, path)
                _ensure_line(graph, var.name)
            visit(node.body, path)
            return
        raise BetaError(f"beta graphs cannot express {type(node).__name__} directly")

    visit(normalized, ())
    for line in graph.lines:
        line.outermost = line_scope.get(line.variable, ())
        line.free = line.variable in free
    return graph


def _ensure_line(graph: BetaGraph, variable: str) -> LineOfIdentity:
    for line in graph.lines:
        if line.variable == variable:
            return line
    line = LineOfIdentity(variable)
    graph.lines.append(line)
    return line


def _term_text(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Const):
        return format_value(term.value)
    return str(term)


def drc_of_beta(graph: BetaGraph) -> Formula:
    """Read a beta graph back as a DRC formula (the imperfect inverse).

    Every line is existentially quantified at its outermost point; free lines
    (the query extension) stay free.  Constants on spot hooks are preserved.
    """
    def formula_at(path: tuple[int, ...]) -> Formula:
        parts: list[Formula] = []
        for spot in graph.spots:
            if spot.cut_path == path:
                parts.append(Atom(spot.predicate, spot.terms))
        for left, op, right, compare_path in graph.comparisons:
            if compare_path == path:
                parts.append(Compare(_parse_term(left), op, _parse_term(right)))
        for cut_id, parent in graph.cuts.items():
            if parent == path:
                parts.append(Not(formula_at(path + (cut_id,))))
        body = conjunction(parts)
        bound_here = [line.variable for line in graph.lines
                      if line.outermost == path and not line.free]
        if bound_here:
            return Exists(tuple(Var(name) for name in bound_here), body)
        return body

    return formula_at(())


def _parse_term(text: str) -> Term:
    if text.startswith("'") and text.endswith("'"):
        return Const(text[1:-1].replace("''", "'"))
    try:
        return Const(int(text))
    except ValueError:
        pass
    try:
        return Const(float(text))
    except ValueError:
        pass
    if text in ("TRUE", "FALSE"):
        return Const(text == "TRUE")
    return Var(text)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def beta_diagram(graph: BetaGraph, *, name: str = "beta graph") -> Diagram:
    """Render a beta graph: cuts as nested boxes, spots as predicates, LIs as bold edges."""
    diagram = Diagram(name, formalism="peirce_beta")
    sheet = diagram.add_group(DiagramGroup("sheet", "sheet of assertion", None, "dashed"))

    cut_groups: dict[tuple[int, ...], str] = {(): sheet.id}
    for cut_id, parent_path in sorted(graph.cuts.items(), key=lambda kv: len(kv[1])):
        parent = cut_groups[parent_path]
        group = diagram.add_group(DiagramGroup(f"cut{cut_id}", "", parent, "cut"))
        cut_groups[parent_path + (cut_id,)] = group.id

    spot_nodes: dict[int, str] = {}
    for spot in graph.spots:
        rows = []
        for position, term in enumerate(spot.terms):
            rows.append(f"#{position + 1}: {_term_text(term)}")
        node = diagram.add_node(DiagramNode(
            f"spot{spot.id}", "predicate", spot.predicate, tuple(rows),
            cut_groups[spot.cut_path], "table",
        ))
        spot_nodes[spot.id] = node.id

    for index, (left, op, right, path) in enumerate(graph.comparisons):
        diagram.add_node(DiagramNode(
            f"cmp{index}", "predicate", f"{left} {op} {right}", (),
            cut_groups[path], "plaintext",
        ))

    for line in graph.lines:
        junction = diagram.add_node(DiagramNode(
            f"li_{line.variable}", "line-of-identity",
            line.variable if line.free else "",
            (), cut_groups.get(line.outermost, sheet.id), "point",
        ))
        for spot_id, position in line.hooks:
            target = spot_nodes[spot_id]
            port = diagram.nodes[target].rows[position]
            diagram.add_edge(DiagramEdge(junction.id, target, style="bold",
                                         target_port=port, kind="identity"))
    return diagram


def beta_diagram_for_query(query, schema: DatabaseSchema, *, name: str | None = None) -> Diagram:
    """Build a beta-graph diagram for a relational query (SQL text, SQL AST, TRC, or DRC)."""
    from repro.core.patterns import to_trc
    from repro.translate.trc_to_drc import trc_to_drc

    if isinstance(query, DRCQuery):
        drc = query
    else:
        trc = to_trc(query, schema)
        drc = trc_to_drc(trc, schema)
    graph = beta_graph_of(drc.body)
    diagram = beta_diagram(graph, name=name or "Peirce beta graph")
    if drc.head_variables():
        diagram.formalism = "peirce_beta (with free lines — beyond Peirce's sentences)"
    return diagram
