"""Direct SQL evaluation over an in-memory database.

The evaluator interprets the SQL AST directly (no translation to RA), which
gives the project an *independent* implementation of query semantics: the
cross-language equivalence experiments compare this evaluator against the RA,
TRC, DRC, and Datalog evaluators, so a bug would have to be replicated five
times to go unnoticed.

Supported: multi-table FROM with aliases, INNER/LEFT/RIGHT/FULL/CROSS and
NATURAL joins, WHERE with correlated subqueries (EXISTS, IN, ANY/ALL, scalar
subqueries), GROUP BY / HAVING with the five standard aggregates, DISTINCT,
UNION/INTERSECT/EXCEPT (with and without ALL), ORDER BY, LIMIT.

Simplification (documented): NATURAL JOIN and USING keep both copies of the
join columns in ``*`` expansions, like a plain equi-join.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Sequence

from repro.data.database import Database
from repro.data.relation import Relation, dedupe_rows, result_relation
from repro.expr.ast import Col, Const, Expr, FuncCall, contains_aggregate, map_children
from repro.expr.eval import Scope, compute_aggregate, eval_expr, eval_predicate, sort_key
from repro.sql.ast import (
    DerivedTable,
    FromItem,
    Join,
    OrderItem,
    Query,
    SelectQuery,
    SetOpQuery,
    TableRef,
)
from repro.sql.parser import parse_sql


class SQLEvaluationError(Exception):
    """Raised when a query cannot be evaluated."""


#: One FROM-clause binding: (alias, attribute names, row values).
Binding = tuple[str, tuple[str, ...], tuple]
#: One row of the FROM product: a tuple of bindings.
EnvRow = tuple[Binding, ...]


def evaluate_sql(query: "Query | str", db: Database, *,
                 outer_scope: Scope | None = None) -> Relation:
    """Evaluate a SQL query (AST or text) against ``db``."""
    if isinstance(query, str):
        query = parse_sql(query)
    names, rows = _eval_query(query, db, outer_scope)
    return result_relation(names, rows)


# ---------------------------------------------------------------------------
# Query dispatch
# ---------------------------------------------------------------------------

def _eval_query(query: Query, db: Database,
                outer_scope: Scope | None) -> tuple[list[str], list[tuple]]:
    if isinstance(query, SetOpQuery):
        return _eval_setop(query, db, outer_scope)
    if isinstance(query, SelectQuery):
        return _eval_select(query, db, outer_scope)
    raise SQLEvaluationError(f"unknown query node {type(query).__name__}")


def _eval_setop(query: SetOpQuery, db: Database,
                outer_scope: Scope | None) -> tuple[list[str], list[tuple]]:
    left_names, left_rows = _eval_query(query.left, db, outer_scope)
    right_names, right_rows = _eval_query(query.right, db, outer_scope)
    if len(left_names) != len(right_names):
        raise SQLEvaluationError(
            f"{query.op.upper()}: operands have different arities "
            f"({len(left_names)} vs {len(right_names)})"
        )
    if query.op == "union":
        rows = left_rows + right_rows
        if not query.all:
            rows = dedupe_rows(rows)
    elif query.op == "intersect":
        if query.all:
            right_count = Counter(right_rows)
            rows = []
            for row in left_rows:
                if right_count[row] > 0:
                    right_count[row] -= 1
                    rows.append(row)
        else:
            right_set = set(right_rows)
            rows = dedupe_rows([row for row in left_rows if row in right_set])
    else:  # except
        if query.all:
            right_count = Counter(right_rows)
            rows = []
            for row in left_rows:
                if right_count[row] > 0:
                    right_count[row] -= 1
                else:
                    rows.append(row)
        else:
            right_set = set(right_rows)
            rows = dedupe_rows([row for row in left_rows if row not in right_set])

    rows = _apply_order_limit(rows, left_names, query.order_by, query.limit)
    return left_names, rows


def _apply_order_limit(rows: list[tuple], names: list[str],
                       order_by: tuple[OrderItem, ...], limit: int | None) -> list[tuple]:
    if order_by:
        def key(row: tuple):
            scope = Scope().bind("_out", names, row)
            parts = []
            for item in order_by:
                value = eval_expr(item.expr, scope)
                parts.append(sort_key(value, item.ascending))
            return tuple(parts)

        rows = sorted(rows, key=key)
    if limit is not None:
        rows = rows[:limit]
    return rows


# ---------------------------------------------------------------------------
# SELECT evaluation
# ---------------------------------------------------------------------------

def _eval_select(query: SelectQuery, db: Database,
                 outer_scope: Scope | None) -> tuple[list[str], list[tuple]]:
    env_rows = _expand_from(query.from_items, db, outer_scope)

    def subquery_eval(subquery: Any, scope: Scope) -> list[tuple]:
        _, rows = _eval_query(subquery, db, scope)
        return rows

    def scope_for(env: EnvRow) -> Scope:
        scope = Scope(outer_scope)
        for alias, names, values in env:
            scope.bind(alias, names, values)
        return scope

    if query.where is not None:
        env_rows = [env for env in env_rows
                    if eval_predicate(query.where, scope_for(env), subquery_eval)]

    grouped = bool(query.group_by) or query.having is not None or any(
        contains_aggregate(item.expr) for item in query.select_items
    )

    output_names = _output_names(query, db)

    if grouped:
        rows = _eval_grouped(query, env_rows, scope_for, subquery_eval)
    else:
        rows = []
        for env in env_rows:
            scope = scope_for(env)
            rows.append(_project_row(query, env, scope, subquery_eval))

    if query.distinct:
        rows = dedupe_rows(rows)

    rows = _order_and_limit(query, rows, output_names, env_rows, grouped,
                            scope_for, subquery_eval)
    return output_names, rows


def _order_and_limit(query: SelectQuery, rows: list[tuple], output_names: list[str],
                     env_rows: list[EnvRow], grouped: bool, scope_for, subquery_eval):
    """ORDER BY over output columns (by name/alias) or, failing that, input columns."""
    if query.order_by:
        def key(indexed_row: tuple[int, tuple]):
            index, row = indexed_row
            out_scope = Scope().bind("_out", output_names, row)
            parts = []
            for item in query.order_by:
                try:
                    value = eval_expr(item.expr, out_scope)
                except Exception:
                    # A qualified reference (S.rating) may match the output
                    # column by its bare name; otherwise fall back to the
                    # pre-projection row for non-grouped queries.
                    if isinstance(item.expr, Col) and item.expr.qualifier:
                        try:
                            value = eval_expr(Col(item.expr.name), out_scope)
                        except Exception:
                            value = None
                            if not grouped and index < len(env_rows):
                                value = eval_expr(item.expr, scope_for(env_rows[index]),
                                                  subquery_eval)
                    elif not grouped and index < len(env_rows):
                        value = eval_expr(item.expr, scope_for(env_rows[index]), subquery_eval)
                    else:
                        raise
                parts.append(sort_key(value, item.ascending))
            return tuple(parts)

        indexed = sorted(enumerate(rows), key=key)
        rows = [row for _, row in indexed]
    if query.limit is not None:
        rows = rows[:query.limit]
    return rows


def _output_names(query: SelectQuery, db: Database) -> list[str]:
    names: list[str] = []
    if query.select_star or query.star_qualifiers:
        for alias, attr_names in _from_bindings_schema(query.from_items, db):
            if query.select_star or alias in query.star_qualifiers:
                names.extend(attr_names)
    for i, item in enumerate(query.select_items):
        names.append(item.output_name(i))
    return names


def _project_row(query: SelectQuery, env: EnvRow, scope: Scope, subquery_eval) -> tuple:
    values: list[Any] = []
    if query.select_star or query.star_qualifiers:
        for alias, _names, row_values in env:
            if query.select_star or alias in query.star_qualifiers:
                values.extend(row_values)
    for item in query.select_items:
        values.append(eval_expr(item.expr, scope, subquery_eval))
    return tuple(values)


# ---------------------------------------------------------------------------
# GROUP BY / aggregates
# ---------------------------------------------------------------------------

def _eval_grouped(query: SelectQuery, env_rows: list[EnvRow], scope_for, subquery_eval):
    groups: dict[tuple, list[EnvRow]] = {}
    order: list[tuple] = []
    for env in env_rows:
        scope = scope_for(env)
        key = tuple(eval_expr(expr, scope, subquery_eval) for expr in query.group_by)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(env)

    if not query.group_by and not groups:
        groups[()] = []
        order.append(())

    rows = []
    for key in order:
        member_envs = groups[key]
        member_scopes = [scope_for(env) for env in member_envs]
        representative = member_scopes[0] if member_scopes else Scope()

        def eval_in_group(expr: Expr) -> Any:
            rewritten = _replace_aggregates(expr, member_scopes, subquery_eval)
            return eval_expr(rewritten, representative, subquery_eval)

        if query.having is not None:
            rewritten = _replace_aggregates(query.having, member_scopes, subquery_eval)
            if eval_expr(rewritten, representative, subquery_eval) is not True:
                continue

        values = []
        if query.select_star or query.star_qualifiers:
            raise SQLEvaluationError("SELECT * cannot be combined with GROUP BY / aggregates")
        for item in query.select_items:
            values.append(eval_in_group(item.expr))
        rows.append(tuple(values))
    return rows


def _replace_aggregates(expr: Expr, member_scopes: list[Scope], subquery_eval) -> Expr:
    """Replace aggregate calls by constants computed over the group."""
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        return Const(compute_aggregate(expr, member_scopes, subquery_eval))
    return map_children(
        expr, lambda child: _replace_aggregates(child, member_scopes, subquery_eval))


# ---------------------------------------------------------------------------
# FROM clause expansion
# ---------------------------------------------------------------------------

def _from_bindings_schema(from_items: Sequence[FromItem], db: Database) -> list[tuple[str, tuple[str, ...]]]:
    """The (alias, attribute names) pairs contributed by a FROM list, in order."""
    out: list[tuple[str, tuple[str, ...]]] = []

    def visit(item: FromItem) -> None:
        if isinstance(item, TableRef):
            rel = db.relation(item.name)
            out.append((item.binding_name, rel.attribute_names))
        elif isinstance(item, DerivedTable):
            names, _rows = _eval_query(item.query, db, None)
            out.append((item.alias, tuple(names)))
        elif isinstance(item, Join):
            visit(item.left)
            visit(item.right)

    for item in from_items:
        visit(item)
    return out


def _expand_from(from_items: Sequence[FromItem], db: Database,
                 outer_scope: Scope | None) -> list[EnvRow]:
    env_rows: list[EnvRow] = [()]
    for item in from_items:
        item_rows = _expand_item(item, db, outer_scope)
        env_rows = [existing + new for existing in env_rows for new in item_rows]
    return env_rows


def _expand_item(item: FromItem, db: Database, outer_scope: Scope | None) -> list[EnvRow]:
    if isinstance(item, TableRef):
        rel = db.relation(item.name)
        names = rel.attribute_names
        alias = item.binding_name
        return [((alias, names, row),) for row in rel.rows()]

    if isinstance(item, DerivedTable):
        names, rows = _eval_query(item.query, db, outer_scope)
        return [((item.alias, tuple(names), row),) for row in rows]

    if isinstance(item, Join):
        return _expand_join(item, db, outer_scope)

    raise SQLEvaluationError(f"unknown FROM item {type(item).__name__}")


def _join_condition_holds(join: Join, left_env: EnvRow, right_env: EnvRow,
                          db: Database, outer_scope: Scope | None) -> bool:
    scope = Scope(outer_scope)
    for alias, names, values in left_env + right_env:
        scope.bind(alias, names, values)

    def subquery_eval(subquery: Any, inner_scope: Scope) -> list[tuple]:
        _, rows = _eval_query(subquery, db, inner_scope)
        return rows

    if join.natural or join.using:
        if join.using:
            shared = list(join.using)
        else:
            left_names = [n for _, names, _ in left_env for n in names]
            right_names = [n for _, names, _ in right_env for n in names]
            shared = [n for n in dict.fromkeys(left_names) if n in right_names]
        for name in shared:
            left_value = _lookup_in_env(left_env, name)
            right_value = _lookup_in_env(right_env, name)
            if left_value is None or right_value is None or left_value != right_value:
                return False
        return True
    if join.kind == "cross" or join.condition is None:
        return True
    return eval_predicate(join.condition, scope, subquery_eval)


def _lookup_in_env(env: EnvRow, name: str) -> Any:
    for _alias, names, values in env:
        for i, attr in enumerate(names):
            if attr.lower() == name.lower():
                return values[i]
    return None


def _null_env_like(env_rows: list[EnvRow], sample: EnvRow | None,
                   db: Database, item: FromItem, outer_scope: Scope | None) -> EnvRow:
    """An EnvRow with the same shape as the given side but all-NULL values."""
    if sample is not None:
        return tuple((alias, names, tuple(None for _ in names)) for alias, names, _ in sample)
    # The side had no rows at all: reconstruct its shape from the schema.
    shape = _from_bindings_schema([item], db)
    return tuple((alias, names, tuple(None for _ in names)) for alias, names in shape)


def _expand_join(join: Join, db: Database, outer_scope: Scope | None) -> list[EnvRow]:
    left_rows = _expand_item(join.left, db, outer_scope)
    right_rows = _expand_item(join.right, db, outer_scope)

    matched_right: set[int] = set()
    out: list[EnvRow] = []
    for left_env in left_rows:
        matched = False
        for j, right_env in enumerate(right_rows):
            if _join_condition_holds(join, left_env, right_env, db, outer_scope):
                matched = True
                matched_right.add(j)
                out.append(left_env + right_env)
        if not matched and join.kind in ("left", "full"):
            null_right = _null_env_like(right_rows, right_rows[0] if right_rows else None,
                                        db, join.right, outer_scope)
            out.append(left_env + null_right)
    if join.kind in ("right", "full"):
        for j, right_env in enumerate(right_rows):
            if j not in matched_right:
                null_left = _null_env_like(left_rows, left_rows[0] if left_rows else None,
                                           db, join.left, outer_scope)
                out.append(null_left + right_env)
    return out
