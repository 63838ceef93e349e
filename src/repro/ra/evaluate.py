"""Evaluation of Relational Algebra expressions over a database.

The evaluator is a straightforward tuple-at-a-time interpreter: it favours
clarity over speed, which is appropriate for a reference implementation whose
job is to *define* the semantics the translators and diagrams are checked
against.  Set semantics is the default (textbook RA); ``bag=True`` keeps
duplicates for the operators where SQL needs them.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.data.database import Database
from repro.data.relation import Relation, dedupe_rows, require_union_compatible
from repro.data.schema import RelationSchema
from repro.expr.eval import Scope, compute_aggregate, eval_predicate
from repro.ra.ast import (
    AntiJoin,
    Difference,
    Distinct,
    Division,
    GroupBy,
    Intersection,
    NaturalJoin,
    Product,
    Projection,
    RAError,
    RAExpr,
    RelationRef,
    Rename,
    resolve_attribute,
    Selection,
    SemiJoin,
    ThetaJoin,
    Union,
    output_schema,
    _split_reference,
)


class AttributeScope(Scope):
    """A scope that resolves column references against one RA output schema.

    RA attribute names may be dotted (``S.sid``) after products; this scope
    applies the same resolution rules as :func:`repro.ra.ast.resolve_attribute`
    so that conditions behave identically during schema inference and
    evaluation.
    """

    def __init__(self, schema: RelationSchema, row: Sequence[Any],
                 outer: Scope | None = None) -> None:
        super().__init__(outer)
        self._schema = schema
        self._row = tuple(row)
        self.bind(schema.name, schema.attribute_names, self._row)

    def lookup(self, name: str, qualifier: str | None = None) -> Any:
        try:
            resolved = resolve_attribute(self._schema, name, qualifier)
        except RAError:
            if self.outer is not None:
                return self.outer.lookup(name, qualifier)
            raise
        return self._row[self._schema.index_of(resolved)]


def evaluate(expr: RAExpr, db: Database, *, bag: bool = False) -> Relation:
    """Evaluate ``expr`` against ``db`` and return the result relation.

    With ``bag=False`` (default) every operator output is duplicate-free, the
    classical set semantics of RA.  With ``bag=True`` duplicates are preserved
    (SQL semantics) except where an operator is inherently set-based
    (set operations, division, duplicate elimination).
    """
    rows = _eval(expr, db, bag=bag)
    return Relation.answer(output_schema(expr, db.schema),
                           rows if bag else dedupe_rows(rows))


def _eval(expr: RAExpr, db: Database, *, bag: bool) -> list[tuple]:
    if isinstance(expr, RelationRef):
        return db.relation(expr.name).rows()

    if isinstance(expr, Rename):
        return _eval(expr.input, db, bag=bag)

    if isinstance(expr, Selection):
        input_schema = output_schema(expr.input, db.schema)
        rows = _eval(expr.input, db, bag=bag)
        return [row for row in rows
                if eval_predicate(expr.condition, AttributeScope(input_schema, row))]

    if isinstance(expr, Projection):
        input_schema = output_schema(expr.input, db.schema)
        indices = []
        for column in expr.columns:
            qualifier, name = _split_reference(column)
            resolved = resolve_attribute(input_schema, name, qualifier)
            indices.append(input_schema.index_of(resolved))
        rows = [tuple(row[i] for i in indices) for row in _eval(expr.input, db, bag=bag)]
        return rows if bag else dedupe_rows(rows)

    if isinstance(expr, Product):
        left_rows = _eval(expr.left, db, bag=bag)
        right_rows = _eval(expr.right, db, bag=bag)
        return [l + r for l in left_rows for r in right_rows]

    if isinstance(expr, ThetaJoin):
        joined_schema = output_schema(expr, db.schema)
        left_rows = _eval(expr.left, db, bag=bag)
        right_rows = _eval(expr.right, db, bag=bag)
        out = []
        for l in left_rows:
            for r in right_rows:
                row = l + r
                if eval_predicate(expr.condition, AttributeScope(joined_schema, row)):
                    out.append(row)
        return out

    if isinstance(expr, NaturalJoin):
        left_schema = output_schema(expr.left, db.schema)
        right_schema = output_schema(expr.right, db.schema)
        shared = [n for n in left_schema.attribute_names if n in right_schema.attribute_names]
        left_idx = [left_schema.index_of(n) for n in shared]
        right_idx = [right_schema.index_of(n) for n in shared]
        keep_right = [i for i, a in enumerate(right_schema.attributes) if a.name not in shared]
        right_rows = _eval(expr.right, db, bag=bag)
        out = []
        for l in _eval(expr.left, db, bag=bag):
            key_l = tuple(l[i] for i in left_idx)
            for r in right_rows:
                if key_l == tuple(r[i] for i in right_idx):
                    out.append(l + tuple(r[i] for i in keep_right))
        return out

    if isinstance(expr, (SemiJoin, AntiJoin)):
        return _eval_semi_anti(expr, db, bag=bag)

    if isinstance(expr, Union):
        left, right = _union_inputs(expr, db, bag=bag)
        rows = left + right
        return rows if bag else dedupe_rows(rows)

    if isinstance(expr, Intersection):
        left, right = _union_inputs(expr, db, bag=bag)
        right_set = set(right)
        return dedupe_rows([row for row in left if row in right_set])

    if isinstance(expr, Difference):
        left, right = _union_inputs(expr, db, bag=bag)
        right_set = set(right)
        return dedupe_rows([row for row in left if row not in right_set])

    if isinstance(expr, Division):
        return _eval_division(expr, db)

    if isinstance(expr, Distinct):
        return dedupe_rows(_eval(expr.input, db, bag=bag))

    if isinstance(expr, GroupBy):
        return _eval_groupby(expr, db, bag=bag)

    raise RAError(f"evaluate: unhandled node {type(expr).__name__}")


def _union_inputs(expr, db: Database, *, bag: bool) -> tuple[list[tuple], list[tuple]]:
    left_schema = output_schema(expr.left, db.schema)
    right_schema = output_schema(expr.right, db.schema)
    left_rel = Relation(left_schema, (), validate=False)
    right_rel = Relation(right_schema, (), validate=False)
    require_union_compatible(left_rel, right_rel, type(expr).__name__)
    return _eval(expr.left, db, bag=bag), _eval(expr.right, db, bag=bag)


def _eval_semi_anti(expr, db: Database, *, bag: bool) -> list[tuple]:
    left_schema = output_schema(expr.left, db.schema)
    right_schema = output_schema(expr.right, db.schema)
    left_rows = _eval(expr.left, db, bag=bag)
    right_rows = _eval(expr.right, db, bag=bag)
    want_match = isinstance(expr, SemiJoin)

    if expr.condition is None:
        shared = [n for n in left_schema.attribute_names if n in right_schema.attribute_names]
        if not shared:
            has_any = bool(right_rows)
            if want_match:
                return list(left_rows) if has_any else []
            return [] if has_any else list(left_rows)
        left_idx = [left_schema.index_of(n) for n in shared]
        right_keys = {tuple(r[right_schema.index_of(n)] for n in shared) for r in right_rows}
        out = []
        for row in left_rows:
            matched = tuple(row[i] for i in left_idx) in right_keys
            if matched == want_match:
                out.append(row)
        return out

    joined_schema = left_schema.concat(right_schema)
    out = []
    for l in left_rows:
        matched = any(
            eval_predicate(expr.condition, AttributeScope(joined_schema, l + r))
            for r in right_rows
        )
        if matched == want_match:
            out.append(l)
    return out


def _eval_division(expr: Division, db: Database) -> list[tuple]:
    left_schema = output_schema(expr.left, db.schema)
    right_schema = output_schema(expr.right, db.schema)
    right_names = list(right_schema.attribute_names)
    quotient_names = [n for n in left_schema.attribute_names if n not in right_names]
    quotient_idx = [left_schema.index_of(n) for n in quotient_names]
    divisor_idx = [left_schema.index_of(n) for n in right_names]

    divisor_rows = set(dedupe_rows(_eval(expr.right, db, bag=False)))
    groups: dict[tuple, set[tuple]] = {}
    for row in _eval(expr.left, db, bag=False):
        key = tuple(row[i] for i in quotient_idx)
        groups.setdefault(key, set()).add(tuple(row[i] for i in divisor_idx))
    return [key for key, seen in groups.items() if divisor_rows <= seen]


def _eval_groupby(expr: GroupBy, db: Database, *, bag: bool) -> list[tuple]:
    input_schema = output_schema(expr.input, db.schema)
    rows = _eval(expr.input, db, bag=True)

    group_indices = []
    for column in expr.group_columns:
        qualifier, name = _split_reference(column)
        resolved = resolve_attribute(input_schema, name, qualifier)
        group_indices.append(input_schema.index_of(resolved))

    groups: dict[tuple, list[tuple]] = {}
    order: list[tuple] = []
    for row in rows:
        key = tuple(row[i] for i in group_indices)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)

    if not expr.group_columns and not groups:
        # Aggregates over an empty input still produce one row (COUNT=0, SUM=NULL).
        groups[()] = []
        order.append(())

    out = []
    for key in order:
        member_scopes = [AttributeScope(input_schema, row) for row in groups[key]]
        aggregated = tuple(
            compute_aggregate(call, member_scopes) for call, _alias in expr.aggregates
        )
        out.append(key + aggregated)
    return out


def cardinality(expr: RAExpr, db: Database) -> int:
    """Number of tuples in the (set-semantics) result."""
    return len(evaluate(expr, db))
