"""SQL → Tuple Relational Calculus translation.

This is the translation underlying QueryVis and Relational Diagrams: every
table reference of the SQL query (in any nesting level) becomes one tuple
variable, subquery predicates become quantifiers, and the WHERE clauses
become the quantifier-free matrix.  The supported fragment is the
tutorial's: SELECT–FROM–WHERE blocks (no aggregates, no GROUP BY) nested via
EXISTS / NOT EXISTS / IN / NOT IN / ANY / ALL, combined with UNION /
INTERSECT / EXCEPT when both sides range over the same head relation.
"""

from __future__ import annotations

import itertools

from repro.data.schema import DatabaseSchema, SchemaError
from repro.expr import ast as e
from repro.sql.ast import Join, Query, SelectQuery, SetOpQuery, TableRef
from repro.logic.formula import (
    And,
    Atom,
    Compare,
    Exists,
    Formula,
    Not,
    Truth,
    conjunction,
    disjunction,
    rename_variables,
)
from repro.logic.terms import AttrRef, Const, Term, Var
from repro.trc.ast import HeadItem, TRCQuery, atom_variable, variable_ranges


class UnsupportedSQL(Exception):
    """Raised when a SQL construct falls outside the translatable fragment."""


class _Context:
    """Resolution context: alias → (tuple variable, relation name), with an outer chain."""

    def __init__(self, schema: DatabaseSchema, outer: "_Context | None" = None) -> None:
        self.schema = schema
        self.outer = outer
        self.bindings: dict[str, tuple[Var, str]] = {}

    def bind(self, alias: str, var: Var, relation: str) -> None:
        self.bindings[alias.lower()] = (var, relation)

    def resolve(self, column: e.Col) -> AttrRef:
        if column.qualifier:
            context: _Context | None = self
            while context is not None:
                hit = context.bindings.get(column.qualifier.lower())
                if hit is not None:
                    var, relation = hit
                    self._check_attribute(relation, column.name)
                    return AttrRef(var, column.name)
                context = context.outer
            raise UnsupportedSQL(f"unknown table alias {column.qualifier!r}")
        # Unqualified: find the unique binding whose relation has the column.
        context = self
        while context is not None:
            matches = []
            for var, relation in context.bindings.values():
                try:
                    self.schema.relation(relation).attribute(column.name)
                    matches.append(AttrRef(var, column.name))
                except SchemaError:
                    continue
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise UnsupportedSQL(f"ambiguous column {column.name!r}")
            context = context.outer
        raise UnsupportedSQL(f"cannot resolve column {column.name!r}")

    def _check_attribute(self, relation: str, name: str) -> None:
        try:
            self.schema.relation(relation).attribute(name)
        except SchemaError as exc:
            raise UnsupportedSQL(str(exc)) from exc


class SQLToTRCTranslator:
    """Translates SQL query ASTs into TRC queries."""

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self._counter = itertools.count(1)

    # -- variable naming ---------------------------------------------------
    def _fresh_var(self, table: TableRef, used: set[str]) -> Var:
        base = (table.alias or table.name[:1]).lower()
        if base not in used:
            used.add(base)
            return Var(base)
        while True:
            candidate = f"{base}{next(self._counter)}"
            if candidate not in used:
                used.add(candidate)
                return Var(candidate)

    # -- entry points --------------------------------------------------------
    def translate(self, query: Query) -> TRCQuery:
        if isinstance(query, SetOpQuery):
            return self._translate_setop(query)
        if isinstance(query, SelectQuery):
            head, formula, _vars = self._translate_select(query, outer=None, used=set())
            if head is None:
                raise UnsupportedSQL("top-level query must have a SELECT list of columns")
            return TRCQuery(tuple(head), formula)
        raise UnsupportedSQL(f"unsupported query node {type(query).__name__}")

    def _translate_setop(self, query: SetOpQuery) -> TRCQuery:
        left = self.translate(query.left)
        right = self.translate(query.right)
        if len(left.head) != len(right.head):
            raise UnsupportedSQL("set operation operands have different arities")
        # Unify: both sides must project attributes of a single head variable
        # ranging over the same relation, so that the right body can be
        # rewritten over the left head variable.
        left_vars = left.head_variables()
        right_vars = right.head_variables()
        if len(left_vars) != 1 or len(right_vars) != 1:
            raise UnsupportedSQL(
                "set operations are only supported when each side projects "
                "attributes of a single tuple variable"
            )
        left_range = variable_ranges(left.body).get(left_vars[0].name)
        right_range = variable_ranges(right.body).get(right_vars[0].name)
        if not left_range or not right_range or left_range.lower() != right_range.lower():
            raise UnsupportedSQL(
                "set operations require both sides to range over the same relation"
            )
        renamed_right = rename_variables(right.body,
                                         {right_vars[0].name: left_vars[0].name})
        if query.op == "union":
            body: Formula = disjunction([left.body, renamed_right])
        elif query.op == "intersect":
            body = conjunction([left.body, renamed_right])
        else:  # except
            body = conjunction([left.body, Not(renamed_right)])
        return TRCQuery(left.head, body)

    # -- SELECT blocks ------------------------------------------------------
    def _translate_select(self, query: SelectQuery, outer: _Context | None,
                          used: set[str]) -> tuple[list[HeadItem] | None, Formula, list[Var]]:
        if query.group_by or query.having is not None:
            raise UnsupportedSQL("GROUP BY / HAVING are outside first-order SQL")
        if any(e.contains_aggregate(item.expr) for item in query.select_items):
            raise UnsupportedSQL("aggregates are outside first-order SQL")
        if query.select_star or query.star_qualifiers:
            raise UnsupportedSQL("SELECT * is not supported; list columns explicitly")

        context = _Context(self.schema, outer)
        variables: list[Var] = []
        join_conditions: list[Formula] = []
        atoms: list[Atom] = []

        def add_table(table: TableRef) -> None:
            var = self._fresh_var(table, used)
            context.bind(table.binding_name, var, table.name)
            variables.append(var)
            atoms.append(Atom(self.schema.relation(table.name).name, (var,)))

        for item in query.from_items:
            self._add_from_item(item, add_table, join_conditions, context)

        where_formula: Formula = Truth()
        if query.where is not None:
            where_formula = self._translate_predicate(query.where, context, used)

        head: list[HeadItem] | None = []
        for item in query.select_items:
            if isinstance(item.expr, e.Col):
                head.append(HeadItem(context.resolve(item.expr), item.alias))
            elif isinstance(item.expr, e.Const):
                head.append(HeadItem(Const(item.expr.value), item.alias))
            else:
                raise UnsupportedSQL(
                    "SELECT list entries must be plain columns or constants "
                    f"(got {type(item.expr).__name__})"
                )

        head_var_names = {
            item.term.var.name for item in head if isinstance(item.term, AttrRef)
        }
        inner_vars = [v for v in variables if v.name not in head_var_names]
        outer_atoms = [a for a in atoms if atom_variable(a).name in head_var_names]
        inner_atoms = [a for a in atoms if atom_variable(a).name not in head_var_names]

        inner_formula = conjunction(inner_atoms + join_conditions + [where_formula])
        if inner_vars:
            body = conjunction(outer_atoms + [Exists(tuple(inner_vars), inner_formula)])
        else:
            body = conjunction(outer_atoms + [inner_formula])
        return head, body, variables

    def _add_from_item(self, item, add_table, join_conditions: list[Formula],
                       context: _Context) -> None:
        if isinstance(item, TableRef):
            add_table(item)
            return
        if isinstance(item, Join):
            if item.kind not in ("inner", "cross"):
                raise UnsupportedSQL("outer joins are outside first-order SQL translation")
            self._add_from_item(item.left, add_table, join_conditions, context)
            self._add_from_item(item.right, add_table, join_conditions, context)
            if item.natural or item.using:
                raise UnsupportedSQL("NATURAL JOIN / USING: write the join condition explicitly")
            if item.condition is not None:
                join_conditions.append(
                    self._translate_predicate(item.condition, context, set())
                )
            return
        raise UnsupportedSQL("derived tables (FROM subqueries) are not supported")

    # -- predicates ----------------------------------------------------------
    def _translate_predicate(self, expr: e.Expr, context: _Context,
                             used: set[str]) -> Formula:
        if isinstance(expr, e.BoolConst):
            return Truth(expr.value)
        if isinstance(expr, e.And):
            return conjunction([self._translate_predicate(o, context, used)
                                for o in expr.operands])
        if isinstance(expr, e.Or):
            return disjunction([self._translate_predicate(o, context, used)
                                for o in expr.operands])
        if isinstance(expr, e.Not):
            return Not(self._translate_predicate(expr.operand, context, used))
        if isinstance(expr, e.Comparison):
            return Compare(self._term(expr.left, context), expr.op,
                           self._term(expr.right, context))
        if isinstance(expr, e.Between):
            operand = self._term(expr.operand, context)
            low = self._term(expr.low, context)
            high = self._term(expr.high, context)
            body = And((Compare(operand, ">=", low), Compare(operand, "<=", high)))
            return Not(body) if expr.negated else body
        if isinstance(expr, e.InList):
            operand = self._term(expr.operand, context)
            options = [Compare(operand, "=", self._term(i, context)) for i in expr.items]
            body = disjunction(options)
            return Not(body) if expr.negated else body
        if isinstance(expr, e.Exists):
            inner = self._subquery_formula(expr.query, context, used, equate_to=None)
            return Not(inner) if expr.negated else inner
        if isinstance(expr, e.InSubquery):
            operand = self._term(expr.operand, context)
            inner = self._subquery_formula(expr.query, context, used,
                                           equate_to=("=", operand))
            return Not(inner) if expr.negated else inner
        if isinstance(expr, e.QuantifiedComparison):
            operand = self._term(expr.left, context)
            if expr.quantifier == "any":
                return self._subquery_formula(expr.query, context, used,
                                              equate_to=(expr.op, operand))
            # ALL: x op ALL (Q)  ≡  ¬∃ y ∈ Q. ¬(x op y)
            negated_op = e.Comparison(e.Const(0), expr.op, e.Const(0)).negated().op
            inner = self._subquery_formula(expr.query, context, used,
                                           equate_to=(negated_op, operand))
            return Not(inner)
        raise UnsupportedSQL(
            f"predicate {type(expr).__name__} is outside the translatable fragment"
        )

    def _subquery_formula(self, query, context: _Context, used: set[str],
                          equate_to: tuple[str, Term] | None) -> Formula:
        if not isinstance(query, SelectQuery):
            raise UnsupportedSQL("subqueries must be plain SELECT blocks")
        head, body, variables = self._translate_select(query, context, used)
        parts: list[Formula] = []
        if equate_to is not None:
            if head is None or len(head) != 1:
                raise UnsupportedSQL("IN / ANY / ALL subqueries must select exactly one column")
            op, outer_term = equate_to
            parts.append(Compare(outer_term, op, head[0].term))
        # The subquery body already quantifies its non-head variables; its
        # head variables are still free and must be bound here.
        head_vars = []
        if head is not None:
            for item in head:
                if isinstance(item.term, AttrRef) and item.term.var not in head_vars:
                    head_vars.append(item.term.var)
        inner = conjunction([body] + parts)
        if head_vars:
            return Exists(tuple(head_vars), inner)
        return inner

    def _term(self, expr: e.Expr, context: _Context) -> Term:
        if isinstance(expr, e.Col):
            return context.resolve(expr)
        if isinstance(expr, e.Const):
            return Const(expr.value)
        raise UnsupportedSQL(
            f"arithmetic in comparisons is not supported ({type(expr).__name__})"
        )


def sql_to_trc(query: "Query | str", schema: DatabaseSchema) -> TRCQuery:
    """Translate a SQL query (text or AST) into an equivalent TRC query."""
    if isinstance(query, str):
        from repro.sql.parser import parse_sql

        query = parse_sql(query)
    return SQLToTRCTranslator(schema).translate(query)
