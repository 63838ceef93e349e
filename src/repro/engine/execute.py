"""The physical executor: hash joins, hash set operations, index scans.

One executor runs the plans of every frontend.  Physical choices:

* equi-joins build a hash table on the right input (semi/anti joins build a
  key set) instead of the reference interpreters' nested loops;
* DISTINCT and the set operations are hash-based;
* constant-equality filters directly over a base-table scan use the
  per-attribute indexes that :class:`repro.data.relation.Relation` maintains;
* every subplan's result is memoized *by plan value* for the duration of one
  :func:`execute_plan` call — the operational half of common subexpression
  elimination, and what makes the dependent-join compilation of correlated
  subqueries cheap (the embedded outer plan is evaluated once).

:func:`execute_datalog` drives recursive Datalog programs with **semi-naive
evaluation**, in two steps one can hold apart: :func:`lower_datalog` /
:func:`optimize_datalog` compile the program (per stratum, each rule once
plus once per occurrence of a same-stratum predicate, so that occurrence
reads the delta relation), and :func:`run_datalog` runs the compiled program
— its fixpoint loop only re-derives from last round's new facts.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Protocol, Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.schema import Attribute, RelationSchema
from repro.data.types import DataType, check_value, infer_type
from repro.expr import ast as e
from repro.expr.eval import _and3, _compare, _like_to_regex, _not3, _or3
from repro.sql.evaluate import _dedupe
from repro.engine.lower import (
    LoweringError,
    _PositionCol,
    _dedupe_names,
    detect_language,
    lower,
    lower_datalog_rule,
)
from repro.engine.plan import (
    AggregateP,
    DeltaScanP,
    DeltaUnavailable,
    DistinctP,
    DivideP,
    FilterP,
    JoinP,
    Plan,
    PlanError,
    ProjectP,
    ScanP,
    SetOpP,
    SortLimitP,
    resolve_column,
)

Row = tuple
RowFn = Callable[[Row], Any]


# ---------------------------------------------------------------------------
# Expression compilation (row -> value closures)
# ---------------------------------------------------------------------------

def compile_expr(expr: e.Expr, columns: Sequence[str]) -> RowFn:
    """Compile an expression into a closure over row tuples (3-valued logic)."""
    if isinstance(expr, _PositionCol):
        position = expr.position
        return lambda row: row[position]
    if isinstance(expr, (e.Const, e.BoolConst)):
        value = expr.value
        return lambda row: value
    if isinstance(expr, e.Col):
        idx = resolve_column(columns, expr.name, expr.qualifier)
        return operator.itemgetter(idx)
    if isinstance(expr, e.Comparison):
        left = compile_expr(expr.left, columns)
        right = compile_expr(expr.right, columns)
        op = expr.op
        return lambda row: _compare(left(row), op, right(row))
    if isinstance(expr, e.And):
        parts = [compile_expr(o, columns) for o in expr.operands]
        return lambda row: _and3(p(row) for p in parts)
    if isinstance(expr, e.Or):
        parts = [compile_expr(o, columns) for o in expr.operands]
        return lambda row: _or3(p(row) for p in parts)
    if isinstance(expr, e.Not):
        inner = compile_expr(expr.operand, columns)
        return lambda row: _not3(inner(row))
    if isinstance(expr, e.Neg):
        inner = compile_expr(expr.operand, columns)

        def neg(row: Row) -> Any:
            value = inner(row)
            return None if value is None else -value

        return neg
    if isinstance(expr, e.BinOp):
        left = compile_expr(expr.left, columns)
        right = compile_expr(expr.right, columns)
        return _compile_binop(expr.op, left, right)
    if isinstance(expr, e.IsNull):
        inner = compile_expr(expr.operand, columns)
        if expr.negated:
            return lambda row: inner(row) is not None
        return lambda row: inner(row) is None
    if isinstance(expr, e.InList):
        inner = compile_expr(expr.operand, columns)
        items = [compile_expr(i, columns) for i in expr.items]
        negated = expr.negated

        def in_list(row: Row) -> Any:
            value = inner(row)
            result = _in_membership(value, [i(row) for i in items])
            return _not3(result) if negated else result

        return in_list
    if isinstance(expr, e.Between):
        inner = compile_expr(expr.operand, columns)
        low = compile_expr(expr.low, columns)
        high = compile_expr(expr.high, columns)
        negated = expr.negated

        def between(row: Row) -> Any:
            value = inner(row)
            result = _and3([_compare(value, ">=", low(row)),
                            _compare(value, "<=", high(row))])
            return _not3(result) if negated else result

        return between
    if isinstance(expr, e.Like):
        inner = compile_expr(expr.operand, columns)
        pattern = _like_to_regex(expr.pattern)
        negated = expr.negated

        def like(row: Row) -> Any:
            value = inner(row)
            if value is None:
                return None
            result = bool(pattern.match(str(value)))
            return not result if negated else result

        return like
    if isinstance(expr, e.FuncCall) and not expr.is_aggregate:
        args = [compile_expr(a, columns) for a in expr.args]
        return _compile_scalar_function(expr.name, args)
    raise PlanError(f"cannot compile expression node {type(expr).__name__}")


def _in_membership(value: Any, items: Sequence[Any]) -> Any:
    if value is None:
        return None if items else False
    saw_null = False
    for item in items:
        if item is None:
            saw_null = True
            continue
        try:
            if _compare(value, "=", item) is True:
                return True
        except e.ExprError:
            continue
    return None if saw_null else False


def _compile_binop(op: str, left: RowFn, right: RowFn) -> RowFn:
    def apply(row: Row) -> Any:
        lhs = left(row)
        rhs = right(row)
        if lhs is None or rhs is None:
            return None
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if rhs == 0:
                raise e.ExprError("division by zero")
            return lhs / rhs
        if op == "%":
            if rhs == 0:
                raise e.ExprError("division by zero")
            return lhs % rhs
        raise e.ExprError(f"unknown operator {op!r}")

    return apply


def _compile_scalar_function(name: str, args: list[RowFn]) -> RowFn:
    def apply(row: Row) -> Any:
        values = [a(row) for a in args]
        if name == "abs":
            return None if values[0] is None else abs(values[0])
        if name == "lower":
            return None if values[0] is None else str(values[0]).lower()
        if name == "upper":
            return None if values[0] is None else str(values[0]).upper()
        if name == "length":
            return None if values[0] is None else len(str(values[0]))
        if name == "coalesce":
            for value in values:
                if value is not None:
                    return value
            return None
        raise e.ExprError(f"unknown function {name!r}")

    return apply


def compile_predicate(expr: e.Expr, columns: Sequence[str]) -> Callable[[Row], bool]:
    fn = compile_expr(expr, columns)
    return lambda row: fn(row) is True


# ---------------------------------------------------------------------------
# Compiled-closure cache
# ---------------------------------------------------------------------------
#
# Compilation is pure — a closure depends only on the (immutable, hashable)
# expression node and the column layout — so compiled closures are cached
# process-wide.  Re-executing the same Plan object (the pipeline's plan cache
# does exactly that on every warm request, and the Datalog fixpoint re-runs
# its delta plans every round) therefore compiles each expression once, not
# once per `_filter`/`_join` call.

_COMPILED_CACHE_LIMIT = 4096
_compiled_exprs: dict[tuple, RowFn] = {}
_compiled_predicates: dict[tuple, Callable[[Row], bool]] = {}


def _cache_slot(cache: dict, key: tuple, build: Callable[[], Any]) -> Any:
    try:
        cached = cache.get(key)
    except TypeError:  # unhashable payload (opaque subquery nodes): no caching
        return build()
    if cached is None:
        cached = build()
        if len(cache) >= _COMPILED_CACHE_LIMIT:
            cache.clear()
        cache[key] = cached
    return cached


def compiled_expr(expr: e.Expr, columns: Sequence[str]) -> RowFn:
    """Cached :func:`compile_expr` (keyed on expression + column layout)."""
    columns = tuple(columns)
    return _cache_slot(_compiled_exprs, (expr, columns),
                       lambda: compile_expr(expr, columns))


def compiled_predicate(expr: e.Expr, columns: Sequence[str]) -> Callable[[Row], bool]:
    """Cached :func:`compile_predicate` (keyed on expression + column layout)."""
    columns = tuple(columns)

    def build() -> Callable[[Row], bool]:
        fn = compiled_expr(expr, columns)
        return lambda row: fn(row) is True

    return _cache_slot(_compiled_predicates, (expr, columns), build)


def clear_compiled_cache() -> None:
    """Drop all cached closures (test/benchmark isolation)."""
    _compiled_exprs.clear()
    _compiled_predicates.clear()


# ---------------------------------------------------------------------------
# Plan execution
# ---------------------------------------------------------------------------

class Executor:
    """Evaluates plans against one database, memoizing per plan value."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self._memo: dict[Plan, list[Row]] = {}

    def rows(self, plan: Plan) -> list[Row]:
        cached = self._memo.get(plan)
        if cached is None:
            cached = self._compute(plan)
            self._memo[plan] = cached
        return cached

    # -- operators -------------------------------------------------------

    def _compute(self, plan: Plan) -> list[Row]:
        if isinstance(plan, ScanP):
            relation = self.db.relation(plan.relation)
            if len(plan.columns) != relation.schema.arity:
                raise PlanError(
                    f"scan of {plan.relation} expects arity {len(plan.columns)}, "
                    f"relation has {relation.schema.arity}"
                )
            return relation.rows()
        if isinstance(plan, DeltaScanP):
            return delta_scan_rows(self.db, plan)
        if isinstance(plan, FilterP):
            return self._filter(plan)
        if isinstance(plan, ProjectP):
            rows = self.rows(plan.input)
            if all(isinstance(x, (e.Col, _PositionCol)) for x in plan.exprs):
                # Pure column picks: batch via itemgetter.
                indices = [
                    x.position if isinstance(x, _PositionCol)
                    else resolve_column(plan.input.columns, x.name, x.qualifier)
                    for x in plan.exprs
                ]
                if len(indices) == 1:
                    i0 = indices[0]
                    return [(row[i0],) for row in rows]
                getter = operator.itemgetter(*indices)
                return [getter(row) for row in rows]
            fns = [compiled_expr(x, plan.input.columns) for x in plan.exprs]
            return [tuple(fn(row) for fn in fns) for row in rows]
        if isinstance(plan, DistinctP):
            return _dedupe(self.rows(plan.input))
        if isinstance(plan, JoinP):
            return self._join(plan)
        if isinstance(plan, SetOpP):
            return self._setop(plan)
        if isinstance(plan, AggregateP):
            return self._aggregate(plan)
        if isinstance(plan, DivideP):
            return self._divide(plan)
        if isinstance(plan, SortLimitP):
            return self._sort_limit(plan)
        raise PlanError(f"cannot execute {type(plan).__name__}")

    def _filter(self, plan: FilterP) -> list[Row]:
        conjuncts = e.conjuncts(plan.condition)
        source = plan.input
        rows: list[Row] | None = None
        # Index fast path: a constant-equality conjunct directly over a scan.
        if isinstance(source, ScanP) and source not in self._memo:
            for conjunct in conjuncts:
                lookup = self._index_lookup(source, conjunct)
                if lookup is not None:
                    rows = lookup
                    conjuncts = [c for c in conjuncts if c is not conjunct]
                    break
        if rows is None:
            rows = self.rows(source)
        if not conjuncts:
            return list(rows)
        predicate = compiled_predicate(e.conjunction(conjuncts), source.columns)
        return [row for row in rows if predicate(row)]

    def _index_lookup(self, scan: ScanP, conjunct: e.Expr) -> list[Row] | None:
        if not (isinstance(conjunct, e.Comparison) and conjunct.op == "="):
            return None
        for col, const in ((conjunct.left, conjunct.right),
                           (conjunct.right, conjunct.left)):
            if isinstance(col, e.Col) and isinstance(const, e.Const) \
                    and const.value is not None:
                try:
                    idx = resolve_column(scan.columns, col.name, col.qualifier)
                except PlanError:
                    return None
                relation = self.db.relation(scan.relation)
                attribute = relation.schema.attributes[idx]
                if not check_value(const.value, attribute.dtype):
                    # A type-mismatched constant must go through the compiled
                    # predicate so it raises like the reference's _compare
                    # would, instead of silently probing the hash index.
                    return None
                index = relation.index_on(attribute.name)
                return list(index.get(const.value, ()))
        return None

    def _join(self, plan: JoinP) -> list[Row]:
        left_rows = self.rows(plan.left)
        if plan.kind in ("inner", "cross") and not plan.left_keys \
                and plan.residual is None:
            right_rows = self.rows(plan.right)
            return [l + r for l in left_rows for r in right_rows]

        left_cols = plan.left.columns
        right_cols = plan.right.columns
        left_idx = [resolve_column(left_cols, *_split_name(k)) for k in plan.left_keys]
        right_idx = [resolve_column(right_cols, *_split_name(k)) for k in plan.right_keys]
        residual = None
        if plan.residual is not None:
            residual = compiled_predicate(plan.residual, left_cols + right_cols)

        right_rows = self.rows(plan.right)
        if plan.kind in ("semi", "anti"):
            return self._semi_anti(plan, left_rows, right_rows, left_idx, right_idx,
                                   residual)

        # Inner hash join: build on the right.
        table: dict[tuple, list[Row]] = {}
        for row in right_rows:
            key = tuple(row[i] for i in right_idx)
            if not plan.null_matches and any(v is None for v in key):
                continue
            table.setdefault(key, []).append(row)
        out: list[Row] = []
        for l in left_rows:
            key = tuple(l[i] for i in left_idx)
            if not plan.null_matches and any(v is None for v in key):
                continue
            for r in table.get(key, ()):
                row = l + r
                if residual is None or residual(row):
                    out.append(row)
        return out

    def _semi_anti(self, plan: JoinP, left_rows: list[Row], right_rows: list[Row],
                   left_idx: list[int], right_idx: list[int],
                   residual: Callable[[Row], bool] | None) -> list[Row]:
        want_match = plan.kind == "semi"
        if residual is None:
            keys = set()
            for row in right_rows:
                key = tuple(row[i] for i in right_idx)
                if not plan.null_matches and any(v is None for v in key):
                    continue
                keys.add(key)
            out = []
            for row in left_rows:
                key = tuple(row[i] for i in left_idx)
                if not plan.null_matches and any(v is None for v in key):
                    matched = False
                else:
                    matched = key in keys
                if matched == want_match:
                    out.append(row)
            return out
        # Residual condition: hash on the equi part, test residual per match.
        table: dict[tuple, list[Row]] = {}
        for row in right_rows:
            key = tuple(row[i] for i in right_idx)
            if not plan.null_matches and any(v is None for v in key):
                continue
            table.setdefault(key, []).append(row)
        out = []
        for l in left_rows:
            key = tuple(l[i] for i in left_idx)
            if not plan.null_matches and any(v is None for v in key):
                matched = False
            else:
                matched = any(residual(l + r) for r in table.get(key, ()))
            if matched == want_match:
                out.append(l)
        return out

    def _setop(self, plan: SetOpP) -> list[Row]:
        left = self.rows(plan.left)
        right = self.rows(plan.right)
        if plan.op == "union":
            rows = left + right
            return _dedupe(rows) if plan.distinct else rows
        if plan.op == "intersect":
            if plan.distinct:
                right_set = set(right)
                return _dedupe([row for row in left if row in right_set])
            counts = Counter(right)
            out = []
            for row in left:
                if counts.get(row, 0) > 0:
                    counts[row] -= 1
                    out.append(row)
            return out
        # except
        if plan.distinct:
            right_set = set(right)
            return _dedupe([row for row in left if row not in right_set])
        counts = Counter(right)
        out = []
        for row in left:
            if counts.get(row, 0) > 0:
                counts[row] -= 1
            else:
                out.append(row)
        return out

    def _aggregate(self, plan: AggregateP) -> list[Row]:
        rows = self.rows(plan.input)
        columns = plan.input.columns
        key_fns = [compiled_expr(x, columns) for x in plan.group_exprs]
        groups: dict[tuple, list[Row]] = {}
        order: list[tuple] = []
        for row in rows:
            key = tuple(fn(row) for fn in key_fns)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
                order.append(key)
            bucket.append(row)
        if not plan.group_exprs and not groups:
            groups[()] = []
            order.append(())
        agg_fns = [self._compile_aggregate(call, columns)
                   for call, _name in plan.aggregates]
        out: list[Row] = []
        width = len(columns)
        for key in order:
            members = groups[key]
            representative = members[0] if members else (None,) * width
            out.append(representative + tuple(fn(members) for fn in agg_fns))
        return out

    def _compile_aggregate(self, call: e.FuncCall,
                           columns: tuple[str, ...]) -> Callable[[list[Row]], Any]:
        name = call.name
        if name == "count" and call.args and isinstance(call.args[0], e.Star):
            return len
        if not call.args:
            raise PlanError(f"aggregate {name.upper()} needs an argument")
        arg = compiled_expr(call.args[0], columns)
        distinct = call.distinct

        def apply(rows: list[Row]) -> Any:
            values = [v for v in (arg(row) for row in rows) if v is not None]
            if distinct:
                values = list(dict.fromkeys(values))
            if name == "count":
                return len(values)
            if not values:
                return None
            if name == "sum":
                return sum(values)
            if name == "avg":
                return sum(values) / len(values)
            if name == "min":
                return min(values)
            if name == "max":
                return max(values)
            raise PlanError(f"unknown aggregate {name!r}")

        return apply

    def _divide(self, plan: DivideP) -> list[Row]:
        left_cols = plan.left.columns
        right_names = {c.lower() for c in plan.right.columns}
        quotient_idx = [i for i, c in enumerate(left_cols)
                        if c.lower() not in right_names]
        divisor_pos = {c.lower(): i for i, c in enumerate(left_cols)}
        divisor_idx = [divisor_pos[c.lower()] for c in plan.right.columns]
        divisor_rows = set(_dedupe(self.rows(plan.right)))
        groups: dict[tuple, set[tuple]] = {}
        order: list[tuple] = []
        for row in _dedupe(self.rows(plan.left)):
            key = tuple(row[i] for i in quotient_idx)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = set()
                order.append(key)
            bucket.add(tuple(row[i] for i in divisor_idx))
        return [key for key in order if divisor_rows <= groups[key]]

    def _sort_limit(self, plan: SortLimitP) -> list[Row]:
        rows = list(self.rows(plan.input))
        if plan.keys:
            from repro.sql.evaluate import _sort_key

            fns = [(compiled_expr(expr, plan.input.columns), ascending)
                   for expr, ascending in plan.keys]

            def key(row: Row) -> tuple:
                return tuple(_sort_key(fn(row), ascending) for fn, ascending in fns)

            rows.sort(key=key)
        if plan.limit is not None:
            rows = rows[:plan.limit]
        return rows


def delta_scan_rows(db: Database, plan: DeltaScanP) -> list[Row]:
    """Resolve a :class:`DeltaScanP` window against the storage layer.

    Shared by every backend so window semantics cannot drift: ``delta`` reads
    the rows appended after the anchor, ``asof`` the bag as of the anchor.
    """
    if plan.since is None:
        raise PlanError(
            f"delta scan of {plan.relation} is an unanchored template; "
            "anchor() it with the view's version map before executing"
        )
    relation = db.relation(plan.relation)
    if len(plan.columns) != relation.schema.arity:
        raise PlanError(
            f"delta scan of {plan.relation} expects arity {len(plan.columns)}, "
            f"relation has {relation.schema.arity}"
        )
    if plan.mode == "delta":
        rows = relation.delta_since(plan.since)
    else:
        rows = relation.rows_at(plan.since)
    if rows is None:
        raise DeltaUnavailable(
            f"delta log of {plan.relation} no longer covers version "
            f"{plan.since} (current {relation.version}); rebuild the view"
        )
    return rows


def _split_name(column: str) -> tuple[str, str | None]:
    # Join keys are stored as full column spellings; resolve by exact name
    # first (resolve_column tries the bare spelling before suffix rules).
    return column, None



# ---------------------------------------------------------------------------
# Executor backends
# ---------------------------------------------------------------------------

class ExecutorBackend(Protocol):
    """The physical-execution seam: logical plan + database in, rows out.

    Four implementations ship: the row-at-a-time reference backend in this
    module (``"row"``), the columnar batch-at-a-time backend in
    :mod:`repro.engine.vectorized` (``"vectorized"``), the scatter-gather
    backend in :mod:`repro.engine.sharded` (``"sharded"``: shard subplans
    inline on the calling thread), and its multi-process variant over
    shared-memory column pages in :mod:`repro.engine.process`
    (``"process"``).  All must agree bag-for-bag on every plan —
    ``tests/test_vectorized.py``, ``tests/test_sharded.py``,
    ``tests/test_process.py``, and the property-based differential suite in
    ``tests/test_fuzz_differential.py`` pin that over the canonical catalog
    and randomly generated plans.
    """

    name: str

    def execute(self, plan: Plan, db: Database) -> list[Row]:
        """Evaluate ``plan`` against ``db`` and return its rows (bag order)."""
        ...


class RowBackend:
    """The PR-1 row-at-a-time executor, kept as the reference backend."""

    name = "row"

    def execute(self, plan: Plan, db: Database) -> list[Row]:
        return Executor(db).rows(plan)


def get_backend(name: "str | ExecutorBackend") -> "ExecutorBackend":
    """Resolve a backend by name (``"row"`` / ``"vectorized"`` /
    ``"sharded"`` / ``"process"``) or pass an instance through."""
    if not isinstance(name, str):
        return name
    key = name.lower()
    if key == "row":
        return _ROW_BACKEND
    if key == "vectorized":
        from repro.engine.vectorized import VectorizedBackend

        return VectorizedBackend()
    if key == "sharded":
        # The singleton: its auto-sharding and compiled-plan caches are
        # shared across all executions (per-database, weakly keyed).
        from repro.engine.sharded import SHARDED_BACKEND

        return SHARDED_BACKEND
    if key == "process":
        # The singleton: its worker-process pool (and the page segments the
        # databases publish for it) is shared across all executions.
        from repro.engine.process import PROCESS_BACKEND

        return PROCESS_BACKEND
    raise PlanError(f"unknown executor backend {name!r} (expected 'row', "
                    "'vectorized', 'sharded', or 'process')")


_ROW_BACKEND = RowBackend()


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def execute_plan(plan: Plan, db: Database, *,
                 backend: "str | ExecutorBackend" = "row") -> Relation:
    """Execute a plan and package the rows as a Relation (types inferred)."""
    rows = get_backend(backend).execute(plan, db)
    return build_result_relation(plan.columns, rows)


def build_result_relation(columns: Sequence[str], rows: list[Row],
                          *, name: str = "result") -> Relation:
    """Build an untyped-until-observed result relation (shared helper)."""
    names = _dedupe_names([c.split(".")[-1] or c for c in columns])
    attributes = []
    for i, attr_name in enumerate(names):
        dtype = DataType.STRING
        for row in rows:
            if row[i] is not None:
                try:
                    dtype = infer_type(row[i])
                except ValueError:
                    dtype = DataType.STRING
                break
        attributes.append(Attribute(attr_name, dtype))
    schema = RelationSchema(name, tuple(attributes))
    answer = Relation(schema)
    if answer._adopt_rows(list(rows), log=False):  # an answer keeps no log
        return answer
    return Relation(schema, rows, validate=False)


def run_query(query: Any, db: Database, language: str | None = None,
              *, use_optimizer: bool = True,
              backend: "str | ExecutorBackend" = "row") -> Relation:
    """Parse/lower/optimize/execute any of the five languages on the engine.

    Raises :class:`LoweringError` (never silently falls back) when the query
    is outside the engine fragment — callers that want interpreter fallback
    handle that explicitly.  ``backend`` selects the physical executor for
    plan execution; the Datalog fixpoint always drives the row executor
    (delta relations are small, and the fixpoint leans on its per-plan memo).
    """
    from repro.datalog.ast import Program

    if isinstance(query, Program) or (
            isinstance(query, str)
            and (language or detect_language(query)).lower() == "datalog"):
        return execute_datalog(query, db, use_optimizer=use_optimizer)
    plan = lower(query, db.schema, language)
    if use_optimizer:
        from repro.engine.optimize import optimize

        plan = optimize(plan, db)
    return execute_plan(plan, db, backend=backend)


# ---------------------------------------------------------------------------
# Semi-naive Datalog: compile the program, then run the compiled program
# ---------------------------------------------------------------------------

class CompiledRule(NamedTuple):
    """One rule of a :class:`CompiledDatalog` program."""

    head: str                                #: head predicate, lower-cased
    #: Variable name per head position, ``None`` for a constant — what the
    #: output columns are named after (literal values play no part).
    head_vars: tuple[str | None, ...]
    plan: Plan | None                        #: the rule body; ``None`` = fact
    fact: tuple[e.Const, ...]                #: a fact's row, as constants
    #: ``(predicate, plan)`` per positive body occurrence that may read a
    #: delta: ``plan`` is the rule with that one occurrence scanning
    #: ``predicate@delta``.
    variants: tuple[tuple[str, Plan], ...]


class CompiledDatalog(NamedTuple):
    """A Datalog program compiled to plans: strata, per-rule base and delta
    plans, fact rows, output names.

    Built by :func:`lower_datalog`, rewritten by :func:`optimize_datalog`,
    evaluated (any number of times) by :func:`run_datalog`.  Only tuples,
    plans and constants inside, so :class:`repro.engine.bind.Template`
    substitutes literals into it exactly as into a single plan.
    """

    idb: tuple[tuple[str, int], ...]         #: (predicate, arity), program order
    strata: tuple[tuple[CompiledRule, ...], ...]     #: lowest stratum first


def lower_datalog(program: Any, db: Database) -> CompiledDatalog:
    """Stratify a program (text or AST) and lower every rule to plans.

    Each non-fact rule gets its base plan plus one delta variant per
    positive occurrence of a same-stratum predicate: what the semi-naive
    loop of :func:`run_datalog` executes.  A program compiles once and is
    evaluated from scratch on every run; a materialized Datalog view
    rebuilds on refresh rather than resuming a fixpoint.
    """
    from repro.datalog.ast import Literal, Program
    from repro.datalog.parser import parse_datalog
    from repro.datalog.stratify import evaluation_order
    from repro.logic.terms import Var as LVar

    if isinstance(program, str):
        program = parse_datalog(program)
    assert isinstance(program, Program)
    problems = program.check_safety()
    if problems:
        raise LoweringError("unsafe program: " + "; ".join(problems))

    arities: dict[str, int] = {}
    for rel in db:
        arities[rel.schema.name.lower()] = rel.schema.arity
    for rule in program.rules:
        arities.setdefault(rule.head.predicate.lower(), rule.head.arity)
        for item in rule.body:
            if isinstance(item, Literal):
                arities.setdefault(item.predicate.lower(), item.arity)

    strata: list[tuple[CompiledRule, ...]] = []
    for stratum in evaluation_order(program):
        stratum_preds = {p.lower() for p in stratum}
        rules: list[CompiledRule] = []
        for rule in program.rules:
            head = rule.head.predicate.lower()
            if head not in stratum_preds:
                continue
            head_vars = tuple(term.name if isinstance(term, LVar) else None
                              for term in rule.head.terms)
            if rule.is_fact:
                fact = tuple(e.Const(value) for value in _fact_row(rule))
                rules.append(CompiledRule(head, head_vars, None, fact, ()))
                continue
            variants = []
            for position, item in enumerate(rule.body):
                if isinstance(item, Literal) and not item.negated:
                    predicate = item.predicate.lower()
                    if predicate in stratum_preds:
                        variants.append((predicate, lower_datalog_rule(
                            rule, arities, {position: f"{predicate}@delta"})))
            rules.append(CompiledRule(
                head, head_vars, lower_datalog_rule(rule, arities), (),
                tuple(variants)))
        strata.append(tuple(rules))
    idb = tuple((p.lower(), arities[p.lower()])
                for p in program.idb_predicates())
    return CompiledDatalog(idb, tuple(strata))


def _generic_relation(predicate: str, arity: int,
                      rows: Iterable[Row]) -> Relation:
    schema = RelationSchema(predicate, tuple(
        Attribute(f"col{i + 1}", DataType.STRING) for i in range(arity)))
    return Relation(schema, rows, validate=False)


def _working_database(compiled: CompiledDatalog, db: Database,
                      facts: "Mapping[str, set[Row]] | None" = None
                      ) -> Database:
    """EDB relations (shared) plus one relation per IDB predicate: its
    ``facts``, or before a run what an equally named EDB relation holds."""
    working = Database()
    for rel in db:
        working.add_relation(rel)
    for predicate, arity in compiled.idb:
        if facts is not None:
            rows: Iterable[Row] = facts[predicate]
        else:
            rows = db.relation(predicate).row_set() if predicate in db else ()
        working.add_relation(_generic_relation(predicate, arity, rows))
    return working


def optimize_datalog(compiled: CompiledDatalog, db: Database) -> CompiledDatalog:
    """Optimize every plan of a compiled program against ``db``'s statistics.

    Profiles are cached on the relations themselves, version-tagged, so the
    EDB profiles are shared with every other query over the same EDB.  IDB
    predicates are profiled as they stand before a run (empty unless an EDB
    relation has the name) and delta relations, which do not exist yet, are
    estimated tiny — so the cost-based join ordering places each variant's
    delta occurrence first: the semi-join reduction decision.  Like every
    cached plan, the result may outlive the statistics it was chosen under;
    that costs speed, never rows.
    """
    from repro.engine.optimize import optimize as optimize_plan
    from repro.engine.stats import StatsCatalog

    working = _working_database(compiled, db)
    stats = StatsCatalog(working)

    def optimized(plan: Plan) -> Plan:
        return optimize_plan(plan, working, stats=stats)

    return compiled._replace(strata=tuple(
        tuple(rule._replace(
            plan=None if rule.plan is None else optimized(rule.plan),
            variants=tuple((predicate, optimized(plan))
                           for predicate, plan in rule.variants))
            for rule in rules)
        for rules in compiled.strata))


def run_datalog(compiled: CompiledDatalog, db: Database) -> dict[str, set[Row]]:
    """All IDB (and EDB) facts of a compiled program, by semi-naive fixpoint.

    Every run starts from the EDB alone: per stratum, round 0 evaluates
    every rule in full, then the delta variants iterate until no rule
    derives a new fact.
    """
    facts: dict[str, set[Row]] = {
        rel.schema.name.lower(): set(rel.row_set()) for rel in db}
    for predicate, _arity in compiled.idb:
        facts.setdefault(predicate, set())
    # Working database: EDB relations (shared) plus materialized IDB facts.
    working = _working_database(compiled, db, facts)

    def materialize(name: str, predicate: str, rows: Iterable[Row]) -> None:
        arity = working.relation(predicate).schema.arity
        working.add_relation(_generic_relation(name, arity, rows))

    def derive(executor: Executor, plans: "list[tuple[str, Plan]]",
               into: dict[str, set[Row]]) -> None:
        for head, plan in plans:
            known = facts[head]
            for row in executor.rows(plan):
                if row not in known:
                    known.add(row)
                    into[head].add(row)

    for rules in compiled.strata:
        stratum_preds = {rule.head for rule in rules}
        # The delta variants (w.r.t. same-stratum predicates) drive the
        # semi-naive loop.
        delta_variants = [(rule.head, plan) for rule in rules
                          for _predicate, plan in rule.variants]
        delta: dict[str, set[Row]] = {p: set() for p in stratum_preds}
        # Round 0: full evaluation of every rule.  One shared executor so
        # the per-plan memo reuses common subplans across the stratum's
        # rules (`working` is not mutated until after the round).
        for rule in rules:
            if rule.plan is None:
                row = tuple(c.value for c in rule.fact)
                if row not in facts[rule.head]:
                    facts[rule.head].add(row)
                    delta[rule.head].add(row)
        derive(Executor(working),
               [(rule.head, rule.plan) for rule in rules
                if rule.plan is not None], delta)
        for predicate in stratum_preds:
            materialize(predicate, predicate, facts[predicate])

        # Semi-naive iteration (only needed if some rule reads a
        # same-stratum predicate).
        while delta_variants and any(delta[p] for p in stratum_preds):
            for predicate in stratum_preds:
                materialize(f"{predicate}@delta", predicate, delta[predicate])
            new_delta: dict[str, set[Row]] = {p: set() for p in stratum_preds}
            derive(Executor(working), delta_variants, new_delta)
            delta = new_delta
            for predicate in stratum_preds:
                if delta[predicate]:
                    materialize(predicate, predicate, facts[predicate])
        for predicate in stratum_preds:
            if f"{predicate}@delta" in working:
                working.drop_relation(f"{predicate}@delta")

    return facts


def datalog_relation(compiled: CompiledDatalog, facts: Mapping[str, set[Row]],
                     query: str = "ans") -> Relation:
    """Package the ``query`` predicate of :func:`run_datalog`'s facts."""
    from repro.datalog.evaluate import _build_relation, names_from_heads

    key = query.lower()
    if key not in facts:
        raise LoweringError(f"program defines no predicate {query!r}")
    rows = sorted(facts[key], key=lambda r: tuple(str(v) for v in r))
    names = names_from_heads(
        [rule.head_vars for rules in compiled.strata for rule in rules
         if rule.head == key], rows)
    return _build_relation(names, rows)


def execute_datalog(program: Any, db: Database, query: str = "ans",
                    *, use_optimizer: bool = True) -> Relation:
    """Evaluate a stratified Datalog program with semi-naive iteration."""
    compiled = lower_datalog(program, db)
    if use_optimizer:
        compiled = optimize_datalog(compiled, db)
    return datalog_relation(compiled, run_datalog(compiled, db), query)


def _fact_row(rule: Any) -> Row:
    from repro.logic.terms import Const as LConst

    row = []
    for term in rule.head.terms:
        if not isinstance(term, LConst):
            raise LoweringError(
                f"head variable of fact {rule.head.predicate} is unbound"
            )
        row.append(term.value)
    return tuple(row)
