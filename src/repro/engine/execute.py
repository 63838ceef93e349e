"""The physical executor: one compile, two targets.

A plan runs as a *program*: it is compiled once by a :class:`_Compiler`,
kept on its root like its hash, and every later execution only calls it —
a cached template compiles on its first execution, a hit calls the program
with its literals.  Two compilers share that mechanism: this module's
compiles to row programs (:func:`compile_rows`, lists of row tuples), and
the columnar one in :mod:`repro.engine.vectorized` subclasses it to compile
to batches (``compile_batches``, numpy kernels from their crossover up).  The
base compiler owns what both targets do alike:

* each distinct node (by value) compiles once, with its column positions,
  key getters, each filter's lookup candidate and its classified conjuncts
  fixed at compile time;
* a subplan that occurs more than once gets a result slot, its rows kept
  for the rest of the call — the operational half of common subexpression
  elimination, and what makes the dependent-join compilation of correlated
  subqueries cheap (the embedded outer plan is evaluated once);
* a base relation is reached by one access-path rule: each distinct scan or
  version window gets a window slot, resolved once per call to
  ``(relation, keep)``, the relation and how many of its leading rows the
  read sees (:func:`resolve_window`), and every path reads that answer —
  the scan itself, a filter whose first conjunct is ``col = const`` as one
  bucket of the relation's ``key_index`` capped at ``keep``
  (:func:`scan_lookup`), a hash join's build side as that index
  (:func:`join_table`);
* with ``given``, every node equal to it reads the rows the call hands in
  (a view's finishing operators over its maintained core, a sharded plan's
  finishers over its gathered rows);
* a plan with slots compiles as it is, their values passed to each call as
  ``params`` (a cached template's literals, a view's version anchors): a
  lookup key or a column-op-constant conjunct reads its slot from them
  (:func:`repro.engine.bind.param_reader`), and a node whose own fields
  hold a slot in any other form is bound per call, those fields alone
  (:func:`repro.engine.bind.bind_node`).  Every other node is never bound.

Each operator has one Python implementation, a function of this module:
:func:`join_rows`, :func:`aggregate_rows`, :func:`sort_limit_rows`,
:func:`semi_anti_positions`, :func:`setop_rows`, :func:`divide_rows`,
:func:`fold`, and one conjunct compiler, :func:`_row_test`.  The row
program calls them, and so does the columnar program wherever a numpy
kernel declines, so the targets cannot drift apart.  How a scan reaches
its relation (:func:`resolve_window`) and the shape of a filter conjunct
the selection kernels lower (:func:`column_comparison`) live here too.

The executor shares no code with the reference interpreters.  It takes the
semantic decisions both must make alike from neutral modules: the 3-valued
operators, ``IN``, scalar functions and the ORDER BY key from
:mod:`repro.expr.eval`, row dedupe and answer packaging from
:mod:`repro.data.relation` (:func:`build_result_relation` names the
columns), the comparison table from :mod:`repro.logic.terms`, and Datalog
output names from :mod:`repro.datalog.ast`.

A Datalog program is one plan like any other query; its recursion is one
operator, :class:`~repro.engine.plan.FixpointP`, run by
:func:`fixpoint_rows` with **semi-naive evaluation**: each round after the
first runs only the stratum's delta variants, over the facts the previous
round found new.  Its rule bodies are row programs whichever target
reaches it.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import Counter
from typing import Any, Callable, Iterable, Protocol, Sequence

from repro.data.database import Database
from repro.data.relation import Relation, dedupe_rows, key_positions, result_relation
from repro.data.schema import Attribute, RelationSchema
from repro.data.types import DataType, check_value, infer_type
from repro.expr import ast as e
from repro.expr.eval import (
    _and3,
    _compare,
    _like_to_regex,
    _not3,
    _or3,
    binary_operator,
    in_membership,
    scalar_function,
    sort_key,
)
from repro.logic.terms import COMPARISONS
from repro.engine.bind import (
    bind_node,
    expr_binder,
    holds_slots,
    param_reader,
)
from repro.engine.cache import count_path, sink_bump
from repro.engine.lower import lower, lower_datalog
from repro.engine.plan import (
    AggregateP,
    DeltaScanP,
    DeltaUnavailable,
    DistinctP,
    DivideP,
    FilterP,
    FixpointP,
    JoinP,
    Plan,
    PlanError,
    PositionCol,
    ProjectP,
    ScanP,
    SetOpP,
    SortLimitP,
    resolve_column,
)
from repro.engine.stats import DELTA_SUFFIX

Row = tuple
RowFn = Callable[[Row], Any]


# ---------------------------------------------------------------------------
# Expression compilation (row -> value closures)
# ---------------------------------------------------------------------------

def compile_expr(expr: e.Expr, columns: Sequence[str]) -> RowFn:
    """Compile an expression into a closure over row tuples (3-valued logic)."""
    if isinstance(expr, PositionCol):
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
        apply = binary_operator(expr.op)

        def binop(row: Row) -> Any:
            lhs = left(row)
            rhs = right(row)
            return None if lhs is None or rhs is None else apply(lhs, rhs)

        return binop
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
            result = in_membership(value, [i(row) for i in items])
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
        function = scalar_function(expr.name)
        return lambda row: function([a(row) for a in args])
    raise PlanError(f"cannot compile expression node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# The operators
# ---------------------------------------------------------------------------

def join_rows(plan: JoinP, left_rows: list[Row], right_rows: Sequence[Row],
              source: "tuple[Relation, int] | None",
              residual: "Callable[[Row], bool] | None",
              build: "Callable[[], dict[Any, list[int]]] | None" = None
              ) -> list[Row]:
    """A keyed (or residual-only) join of two input bags: a hash probe of
    the right side's table (:func:`join_table`) with each left row, in left
    order, a bucket's rows in position order.

    ``source`` is the right input's window where an index can serve it
    (:func:`_indexable`), else ``None``; ``residual`` the plan's
    :func:`join_residual`; ``build`` makes the table where
    ``source`` is ``None`` (default: from ``right_rows``' key columns; given
    one, only the matched ``right_rows[j]`` are read).  The columnar
    executor runs a probe its kernel declines here.
    """
    left_idx, right_idx = plan.key_positions
    # Build on the right: positions into ``right_rows``.  Keys that cannot
    # match (NULLs under SQL equality) are not in the table.
    skip_nulls = not plan.null_matches
    if build is None:
        def build() -> dict[Any, list[int]]:
            return key_positions(
                [list(map(operator.itemgetter(i), right_rows))
                 for i in right_idx], len(right_rows), skip_nulls)
    table = join_table(source, right_idx, skip_nulls, build)
    # A key as the tables hold it: the raw value of one column, else a
    # tuple.
    key = operator.itemgetter(*left_idx) if left_idx else lambda row: ()
    if plan.kind in ("semi", "anti"):
        match = None if residual is None else pair_residual(
            residual, left_rows, right_rows)
        return [left_rows[i] for i in semi_anti_positions(
            plan.kind, map(key, left_rows), table, match)]
    out: list[Row] = []
    for l in left_rows:
        for j in table.get(key(l), ()):
            row = l + right_rows[j]
            if residual is None or residual(row):
                out.append(row)
    return out


def join_residual(plan: JoinP) -> "Callable[[Row], bool] | None":
    """``plan``'s residual as a test of a joined row, or ``None``."""
    if plan.residual is None:
        return None
    fn = compile_expr(plan.residual, plan.left.columns + plan.right.columns)
    return lambda row: fn(row) is True


def pair_residual(residual: Callable[[Row], bool], left_rows: Sequence[Row],
                  right_rows: Sequence[Row]) -> Callable[[int, int], bool]:
    """``residual`` over the joined row of left position ``i`` and right
    position ``j`` (:func:`semi_anti_positions`' match)."""
    return lambda i, j: residual(left_rows[i] + right_rows[j])


def project_fns(plan: ProjectP) -> list[RowFn]:
    """``plan``'s expressions, compiled over its input."""
    return [compile_expr(x, plan.input.columns) for x in plan.exprs]


def operator_fns(plan: "AggregateP | SortLimitP") -> "tuple[Plan, Any]":
    """``plan`` with its :func:`aggregate_fns` or :func:`sort_fns`."""
    return plan, (aggregate_fns(plan) if isinstance(plan, AggregateP)
                  else sort_fns(plan))


def aggregate_fns(plan: AggregateP) -> "tuple[list[RowFn], list[Callable[[list[Row]], Any]]]":
    """``plan``'s group keys and aggregates, compiled over its input."""
    columns = plan.input.columns
    return ([compile_expr(x, columns) for x in plan.group_exprs],
            [_compile_aggregate(call, columns)
             for call, _name in plan.aggregates])


def aggregate_rows(plan: AggregateP, rows: list[Row],
                   fns: "tuple[list[RowFn], list[Callable[[list[Row]], Any]]]"
                   ) -> list[Row]:
    """A group-by over its input bag: one row per group, in first-occurrence
    order — the group's first row followed by each aggregate's fold.  An
    ungrouped aggregate over no rows yields one row, its input columns NULL
    (SQL: ``COUNT`` folds to 0).  ``fns`` are :func:`aggregate_fns`'s."""
    columns = plan.input.columns
    key_fns, agg_fns = fns
    groups: dict[tuple, list[Row]] = {}
    for row in rows:
        key = tuple(fn(row) for fn in key_fns)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = bucket = []
        bucket.append(row)
    if not plan.group_exprs and not groups:
        groups[()] = []
    blank = (None,) * len(columns)
    return [(members[0] if members else blank)
            + tuple(fn(members) for fn in agg_fns)
            for members in groups.values()]


def _compile_aggregate(call: e.FuncCall, columns: tuple[str, ...]
                       ) -> Callable[[list[Row]], Any]:
    name = call.name
    if name == "count" and call.args and isinstance(call.args[0], e.Star):
        return len
    if not call.args:
        raise PlanError(f"aggregate {name.upper()} needs an argument")
    arg = compile_expr(call.args[0], columns)
    distinct = call.distinct
    return lambda rows: fold(name, (arg(row) for row in rows), distinct)


def sort_fns(plan: SortLimitP) -> "list[tuple[RowFn, bool]]":
    """``plan``'s ORDER BY keys, compiled over its input, each with its
    direction."""
    return [(compile_expr(expr, plan.input.columns), ascending)
            for expr, ascending in plan.keys]


def sort_limit_rows(plan: SortLimitP, rows: list[Row],
                    fns: "list[tuple[RowFn, bool]]") -> list[Row]:
    """ORDER BY (a stable sort on the reference interpreter's key: NULLs
    last ascending, values of different types apart), then LIMIT.
    ``fns`` are :func:`sort_fns`'s."""
    if plan.keys:
        rows = sorted(rows, key=lambda row: tuple(
            sort_key(fn(row), ascending) for fn, ascending in fns))
    return rows[:plan.limit]


def semi_anti_positions(kind: str, keys: Iterable[Any],
                        table: "dict[Any, list[int]] | _PrefixTable",
                        residual: "Callable[[int, int], bool] | None"
                        ) -> list[int]:
    """The probe positions a ``"semi"`` (``"anti"``) join keeps: those whose
    key in ``keys`` has some (no) match in the build ``table``.

    With a ``residual``, a match is a table position ``j`` for which
    ``residual(i, j)`` holds.  Keys that cannot match (NULLs under SQL
    equality) are not in the table, so membership alone decides.
    """
    want_match = kind == "semi"
    if residual is None:
        return [i for i, key in enumerate(keys) if (key in table) == want_match]
    get = table.get
    return [i for i, key in enumerate(keys)
            if any(residual(i, j) for j in get(key, ())) == want_match]


def setop_rows(plan: SetOpP, left: list[Row], right: list[Row]) -> list[Row]:
    """A set operation over its two input bags (hash-based, left order)."""
    if plan.op == "union":
        rows = left + right
        return dedupe_rows(rows) if plan.distinct else rows
    keep_matched = plan.op == "intersect"  # else except
    if plan.distinct:
        right_set = set(right)
        return dedupe_rows([row for row in left
                            if (row in right_set) == keep_matched])
    counts = Counter(right)  # each right row matches one left row
    out = []
    for row in left:
        matched = counts[row] > 0
        if matched:
            counts[row] -= 1
        if matched == keep_matched:
            out.append(row)
    return out


def divide_rows(plan: DivideP, left: list[Row], right: list[Row]) -> list[Row]:
    """Relational division: the quotient groups of ``left`` that pair with
    every (distinct) ``right`` row, in first-occurrence order."""
    left_cols = plan.left.columns
    right_names = {c.lower() for c in plan.right.columns}
    quotient_idx = [i for i, c in enumerate(left_cols)
                    if c.lower() not in right_names]
    divisor_pos = {c.lower(): i for i, c in enumerate(left_cols)}
    divisor_idx = [divisor_pos[c.lower()] for c in plan.right.columns]
    divisor_rows = set(dedupe_rows(right))
    groups: dict[tuple, set[tuple]] = {}
    order: list[tuple] = []
    for row in dedupe_rows(left):
        key = tuple(row[i] for i in quotient_idx)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = bucket = set()
            order.append(key)
        bucket.add(tuple(row[i] for i in divisor_idx))
    return [key for key in order if divisor_rows <= groups[key]]


class _FixpointProgram:
    """A fixpoint's rule bodies and delta variants, compiled once (one
    :class:`_Compiler`): ``rules`` and ``variants`` pair a head with its
    body's :data:`RowsFn`; ``volatile`` are the result slots that read a
    working relation, cleared every round, the other slots keeping their
    rows across rounds."""

    __slots__ = ("rules", "variants", "windows", "slots", "volatile")

    def __init__(self, plan: FixpointP) -> None:
        names = {name for p in plan.arities()
                 for name in (p, p + DELTA_SUFFIX)}

        def stable(node: Plan) -> bool:
            return not any(isinstance(scan, ScanP) and scan.relation in names
                           for scan in node.walk())

        compiler = _Compiler(plan.children(), kept=stable)
        self.rules = [(head, compiler.node(body)) for head, body in plan.rules]
        self.variants = [(head, compiler.node(body))
                         for head, body in plan.variants]
        self.windows = len(compiler.windows)
        self.slots = len(compiler.slots)
        self.volatile = [slot for node, slot in compiler.slots.items()
                         if not stable(node)]


def fixpoint_program(plan: FixpointP) -> _FixpointProgram:
    """``plan``'s compiled bodies, made on first use and kept on the node."""
    program = plan.__dict__.get("_fixpoint_program")
    if program is None:
        program = _FixpointProgram(plan)
        object.__setattr__(plan, "_fixpoint_program", program)
        count_path("plan_compile")
    return program


def fixpoint_rows(plan: FixpointP, db: Database,
                  params: Sequence[Any] = ()) -> list[Row]:
    """The facts of ``plan.predicate``: semi-naive iteration of its stratum.

    Round 0 takes the facts and runs every rule body once; each later round
    runs only the delta variants, over the facts the previous round found
    new (``pred@delta``), until it finds none.  The bodies run as their
    compiled row programs (:func:`fixpoint_program`), reading the stratum's
    predicates from working relations and every other relation of ``db``
    in place; what reads no working relation is kept across rounds, and
    ``params`` are the request's literals the bodies and facts are bound
    to.
    """
    program = fixpoint_program(plan)
    arities = plan.arities()
    working = _WorkingDatabase(db)
    shared: "list[list[Row] | None]" = [None] * program.slots
    facts: dict[str, dict[Row, None]] = {p: {} for p in arities}
    delta: dict[str, dict[Row, None]] = {p: {} for p in arities}

    def derive(bodies: "list[tuple[str, RowsFn]]") -> None:
        for slot in program.volatile:
            shared[slot] = None
        call = _Call(working, params, program.windows, shared)
        for head, body in bodies:
            known = facts[head]
            for row in body(call):
                if row not in known:
                    known[row] = delta[head][row] = None

    for predicate, arity in arities.items():
        working.add_relation(_working_relation(predicate, [], arity))
    for head, consts in bind_node(plan, params).facts:
        row = tuple(c.value for c in consts)
        facts[head][row] = delta[head][row] = None
    derive(program.rules)
    while plan.variants and any(delta.values()):
        for predicate, new in delta.items():
            arity = arities[predicate]
            if new:
                working.add_relation(_working_relation(
                    predicate, list(facts[predicate]), arity))
            working.add_relation(_working_relation(
                predicate + DELTA_SUFFIX, list(new), arity))
        delta = {p: {} for p in arities}
        derive(program.variants)
    return list(facts[plan.predicate])


class _WorkingDatabase(Database):
    """A fixpoint's working relations over the database it reads in place."""

    def __init__(self, base: Database) -> None:
        super().__init__()
        self.base = base

    def relation(self, name: str) -> Relation:
        held = self._relations.get(name.lower())
        return self.base.relation(name) if held is None else held


def _working_relation(name: str, rows: list[Row], arity: int) -> Relation:
    """``rows`` as a relation ``name`` over ``col1..colN``, each column
    typed by its first row's value."""
    first = rows[0] if rows else (None,) * arity
    return Relation(RelationSchema(name, tuple(
        Attribute(f"col{i + 1}", DataType.STRING if value is None
                  else infer_type(value))
        for i, value in enumerate(first))), rows, validate=False)


def fold(name: str, values: Iterable[Any], distinct: bool = False) -> Any:
    """One aggregate over one group's argument values; NULLs are skipped,
    and an empty group folds to 0 for ``COUNT``, NULL otherwise."""
    values = [v for v in values if v is not None]
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


def operand_position(positions: "dict[e.Expr, int | None]",
                     operand: e.Expr) -> int | None:
    """The input position of a filter conjunct's column operand, from its
    filter's :attr:`~repro.engine.plan.FilterP.operand_positions`; ``None``
    for anything but a column."""
    if isinstance(operand, (e.Col, PositionCol)):
        return positions.get(operand)
    return None


def column_comparison(conjunct: e.Expr, positions: "dict[e.Expr, int | None]"
                      ) -> "tuple[int, str, Any, bool] | None":
    """Classify a filter conjunct for the selection kernels and the row
    test (:func:`_row_test`), its columns at their filter's
    ``positions``.

    ``(position, op, const, False)`` for column-op-constant with ``const``
    the :class:`~repro.expr.ast.Const` node (a constant on the left is
    flipped to the right; a template's constant may be a slot),
    ``(position, op, other, True)`` for column-op-column with ``other`` the
    right column's position, else ``None``: the caller runs the
    row-compiled predicate instead.
    """
    if not isinstance(conjunct, e.Comparison) or conjunct.op not in COMPARISONS:
        return None
    left, right = conjunct.left, conjunct.right
    lpos = operand_position(positions, left)
    rpos = operand_position(positions, right)
    if lpos is not None and isinstance(right, e.Const):
        return lpos, conjunct.op, right, False
    if rpos is not None and isinstance(left, e.Const):
        return rpos, conjunct.flipped().op, left, False
    if lpos is not None and rpos is not None:
        return lpos, conjunct.op, rpos, True
    return None


def _row_test(plan: FilterP, conjuncts: Sequence[e.Expr]
              ) -> "Callable[[Sequence[Any]], Callable[[Row], Any]] | None":
    """``conjuncts`` of ``plan``'s condition, in order, as a function of one
    call's parameters returning a row test that is truthy only where their
    conjunction is TRUE, or ``None`` when there are none: the one conjunct
    compiler of both programs.

    Each conjunct is classified and compiled here, once.  A conjunct
    :func:`column_comparison` classifies compares the row's values at the
    filter's resolved positions; the rest compile to closures.  Where no
    conjunct holds a slot every call gets the one test built here; else a
    column-op-constant conjunct compares against the call's parameter, and
    any other slotted conjunct is bound to the call's values and compiled
    afresh.  The columnar program tests each conjunct its selection kernel
    declines through this function, one conjunct at a time.
    """
    if not conjuncts:
        return None
    parts = [_conjunct_part(c, plan) for c in conjuncts]
    classified = len(parts) == 1 and parts[0][2]
    if all(make is None for _fixed, make, _classified in parts):
        predicate = _conjoined([fixed for fixed, _make, _classified in parts],
                               classified)
        return lambda params: predicate
    if classified:
        return parts[0][1]  # type: ignore[return-value]
    return lambda params: _conjoined(
        [fixed if make is None else make(params)  # type: ignore[misc]
         for fixed, make, _classified in parts], classified)


def _conjunct_part(conjunct: e.Expr, plan: FilterP
                   ) -> "tuple[RowFn | None, Callable[[Sequence[Any]], RowFn] | None, bool]":
    """One conjunct of ``plan`` as ``(test, make, classified)``: its
    three-valued row closure, or — when it holds a slot — how one call's
    parameters make it; ``classified`` when :func:`column_comparison`
    classifies it."""
    shape = column_comparison(conjunct, plan.operand_positions)
    if shape is not None:
        position, op, other, is_column = shape
        read = None if is_column else param_reader(other)
        if read is None:
            return _compared(position, op, other if is_column
                             else other.value, is_column), None, True
        return None, lambda params: _compared(position, op, read(params),
                                              False), True
    columns = tuple(plan.input.columns)
    bind = expr_binder(conjunct)
    if bind is None:
        return compile_expr(conjunct, columns), None, False
    return None, lambda params: compile_expr(bind(params), columns), False


def _conjoined(parts: Sequence[RowFn], classified: bool
               ) -> Callable[[Row], bool]:
    """``parts`` as one test, truthy only where their conjunction is TRUE;
    ``classified``: the only part is a comparison closure."""
    if len(parts) == 1:
        part = parts[0]
        if classified:
            return part  # TRUE, FALSE or NULL: truthy only when TRUE
        return lambda row: part(row) is True
    return lambda row: _and3(p(row) for p in parts) is True


def _compared(position: int, op: str, other: Any, other_is_column: bool
              ) -> RowFn:
    """A :func:`column_comparison` shape as a three-valued row closure."""
    if other_is_column:
        return lambda row: _compare(row[position], op, row[other])
    return lambda row: _compare(row[position], op, other)


# ---------------------------------------------------------------------------
# The access-path rule: how both executors reach a base relation
# ---------------------------------------------------------------------------

def resolve_window(db: Database, plan: "ScanP | DeltaScanP",
                   params: Sequence[Any]) -> "tuple[Relation, int]":
    """``(relation, keep)``: the relation a scan or a version window reads
    (its arity checked against the plan's), and how many of its leading
    rows the read sees.

    A :class:`ScanP` sees all of them, an ``asof`` window the prefix as of
    its anchor (storage only appends).  A ``delta`` window, the rows
    appended after its anchor, is no prefix: it resolves to a relation of
    its own.  The one place a window's anchor is bound (to ``params``) and
    read against the delta log: unbound, it is a :class:`PlanError`; no
    longer covered by the bounded log, it raises :class:`DeltaUnavailable`
    (the view rebuilds).
    """
    relation = db.relation(plan.relation)
    if len(plan.columns) != relation.schema.arity:
        raise PlanError(
            f"scan of {plan.relation} expects arity {len(plan.columns)}, "
            f"relation has {relation.schema.arity}")
    if isinstance(plan, ScanP):
        return relation, len(relation)
    anchor = param_reader(plan.since)
    since = plan.version if anchor is None or not params \
        else anchor(params)
    if since is None:
        raise PlanError(
            f"delta scan of {plan.relation} is an unbound window; execute "
            "it with the view's version anchors as params")
    if plan.mode == "delta":
        rows = relation.delta_since(since)
        window = None if rows is None else (
            Relation.answer(relation.schema, rows), len(rows))
    else:
        count = relation.delta_count_since(since)
        window = None if count is None else (relation, len(relation) - count)
    if window is None:
        raise DeltaUnavailable(
            f"delta log of {plan.relation} no longer covers version "
            f"{since} (current {relation.version}); rebuild the view")
    return window


def _indexable(plan: Plan) -> bool:
    """Whether ``plan`` is an input an index can serve: a :class:`ScanP` or
    an ``asof`` window."""
    return isinstance(plan, ScanP) or (isinstance(plan, DeltaScanP)
                                       and plan.mode == "asof")


def lookup_key(plan: FilterP) -> "tuple[int, e.Const] | None":
    """``(position, constant)`` when ``plan``'s *first* conjunct is
    ``col = const``: the candidate :func:`scan_lookup` may serve from an
    index, the constant as its node (a template's may be a slot); the
    other conjuncts run over the bucket in order.  A later conjunct is
    never looked up first: a conjunct before it may raise (a type
    mismatch) exactly where the reference raises."""
    first = (e.conjuncts(plan.condition) or (None,))[0]
    if not (isinstance(first, e.Comparison) and first.op == "="):
        return None
    for col, const in ((first.left, first.right), (first.right, first.left)):
        if not isinstance(const, e.Const):
            continue
        position = operand_position(plan.operand_positions, col)
        return None if position is None else (position, const)
    return None


def scan_lookup(source: "tuple[Relation, int] | None", position: int,
                value: Any, sink: "dict[str, int] | None" = None
                ) -> "tuple[Relation, list[int]] | None":
    """``(relation, positions)`` when a filter's :func:`lookup_key` can read
    the one bucket of ``value`` in a base relation's ``key_index`` at
    ``position`` instead of scanning, else ``None``.

    ``source`` is the filter input's window where an index can serve it
    (:func:`_indexable`), else ``None``; the bucket is capped at its
    ``keep``.  ``value`` must be non-NULL and of the column's
    declared type.  The index the relation holds is used; a live relation
    that holds none builds it (and then maintains it), while a frozen
    snapshot holding none is scanned — the index would be built for this
    one query.  A lookup is counted process-wide (``scan_lookup`` in
    :func:`repro.engine.cache.path_counts`) and in the caller's ``sink``,
    if it keeps one.
    """
    if source is None:
        return None
    relation, keep = source
    if not check_value(value, relation.schema.attributes[position].dtype,
                       allow_null=False):
        return None
    index = relation.held_key_index((position,))
    if index is None:
        if relation.is_frozen:
            return None
        index = relation.key_index((position,))
    count_path("scan_lookup")
    sink_bump(sink, "scan_lookup")
    return relation, list(_capped(index, relation, keep).get(value, ()))


def join_table(source: "tuple[Relation, int] | None", idx: Sequence[int],
               skip_nulls: bool, build: Callable[[], dict[Any, list[int]]]
               ) -> "dict[Any, list[int]] | _PrefixTable":
    """The hash-join build side: key -> positions in its rows.

    Over a base relation (``source``, an input :func:`_indexable`) it is the
    relation's maintained ``key_index`` capped at the window — view
    refresh then never rebuilds an old-state table.  Any other input, or a
    join without keys, is built by ``build``.
    """
    if source is None or not idx:
        return build()
    relation, keep = source
    return _capped(relation.key_index(idx, skip_nulls=skip_nulls),
                   relation, keep)


def _capped(table: dict[Any, list[int]], relation: Relation, keep: int
            ) -> "dict[Any, list[int]] | _PrefixTable":
    """``relation``'s index ``table`` as its first ``keep`` rows see it."""
    return table if keep == len(relation) else _PrefixTable(table, keep)


class _PrefixTable:
    """A positional hash index restricted to row positions ``< keep``.

    Wraps a relation's full cached
    :meth:`~repro.data.relation.Relation.key_index` to serve an ``asof``
    window, to a join's probe or an equality lookup: buckets hold ascending
    positions (bag order), so the restriction is one
    :func:`bisect.bisect_left` per probed bucket.  Probe sides in delta
    plans are tiny, so per-probe slicing costs nothing compared to
    rebuilding an old-state hash table per refresh.
    """

    __slots__ = ("table", "keep")

    def __init__(self, table: dict[Any, list[int]], keep: int) -> None:
        self.table = table
        self.keep = keep

    def get(self, key: Any, default: Any = None) -> "list[int] | None":
        bucket = self.table.get(key)
        if not bucket:
            return default
        if bucket[-1] < self.keep:
            return bucket
        cut = bisect_left(bucket, self.keep)
        return bucket[:cut] if cut else default

    def __contains__(self, key: Any) -> bool:
        """Whether ``key`` has an in-window position (semi/anti probes)."""
        bucket = self.table.get(key)
        return bool(bucket) and bucket[0] < self.keep


# ---------------------------------------------------------------------------
# Programs: a plan compiled once, called per execution
# ---------------------------------------------------------------------------

#: A compiled operator: one call's state in, the operator's result out —
#: a list of rows (:func:`compile_rows`) or a batch (``compile_batches``).
RowsFn = Callable[["_Call"], Any]


class _Call:
    """One call of a :class:`Program`: its database and parameters, the
    scans and windows it resolved (:func:`resolve_window`, each once, in
    the slot the compiler numbered it), the results of its shared
    subplans, the rows handed in for the program's ``given`` node, and the
    caller's counter ``sink`` (:func:`scan_lookup`, the kernels' cache)."""

    __slots__ = ("db", "params", "windows", "shared", "given", "sink")

    def __init__(self, db: Database, params: Sequence[Any], windows: int,
                 shared: "list[Any]", given: "list[Row] | None" = None,
                 sink: "dict[str, int] | None" = None) -> None:
        self.db = db
        self.params = params
        self.windows: "list[tuple[Relation, int] | None]" = [None] * windows
        self.shared = shared
        self.given = given
        self.sink = sink


class Program:
    """A plan compiled by a :class:`_Compiler` (:func:`compile_rows`,
    ``compile_batches``).

    Immutable, and shared by every thread that executes the plan: what one
    execution resolves lives in its call (:class:`_Call`), never here.
    """

    __slots__ = ("_run", "_windows", "_shared")

    def __init__(self, run: RowsFn, windows: int, shared: int) -> None:
        self._run = run
        self._windows = windows
        self._shared = shared

    def __call__(self, db: Database, params: Sequence[Any] = (),
                 given: "list[Row] | None" = None,
                 sink: "dict[str, int] | None" = None) -> Any:
        """The plan's result over ``db`` (rows, or a batch), its slots read
        from ``params``; ``given`` are the rows of the node the program was
        compiled to take as an input, ``sink`` the caller's counters."""
        return self._run(_Call(db, params, self._windows,
                               [None] * self._shared, given, sink))


def compile_rows(plan: Plan, given: "Plan | None" = None) -> Program:
    """``plan`` as a row program (:meth:`_Compiler.program`): its call
    returns the plan's rows.  Raises :class:`PlanError` /
    :class:`~repro.expr.ast.ExprError` for a plan the executor cannot
    run."""
    return _Compiler.program(plan, given)


class _Compiler:
    """Compiles the nodes of one or more plans into :data:`RowsFn`
    closures, each distinct node (by value) once: this class to lists of
    rows, a subclass to another target by overriding :meth:`_operator` and
    :meth:`_given`.

    A node that occurs more than once gets a result slot in the call.  So
    does, under ``kept``, each subtree that ``kept`` accepts and whose
    parent it rejects: a fixpoint's rule bodies keep what reads no working
    relation across rounds (:func:`fixpoint_rows`).  Each distinct scan or
    window gets a window slot, read by the scan, a lookup and a join's
    build side alike.
    """

    @classmethod
    def program(cls, plan: Plan, given: "Plan | None" = None) -> Program:
        """``plan``'s program, compiled on first use and kept on the node
        like its hash, so a cached template compiles once per compiler and
        every hit calls the program with its own literals.  With
        ``given``, every node equal to it reads the rows the call hands in
        instead."""
        programs = plan.__dict__.get("_programs")
        if programs is None:
            programs = {}
            object.__setattr__(plan, "_programs", programs)
        program = programs.get((cls, given))
        if program is None:
            compiler = cls((plan,), given)
            program = programs[cls, given] = Program(
                compiler.node(plan), len(compiler.windows),
                len(compiler.slots))
            count_path("plan_compile")
        return program

    def __init__(self, roots: Sequence[Plan], given: "Plan | None" = None,
                 kept: "Callable[[Plan], bool] | None" = None) -> None:
        seen: Counter[Plan] = Counter()
        self.slots: dict[Plan, int] = {}
        # Depth first, iteratively: a recursive closure would be a reference
        # cycle, keeping every compiler (and its closures) until a full
        # collection.
        pending = [(root, False) for root in reversed(roots)]
        while pending:
            node, parent_kept = pending.pop()
            seen[node] += 1
            keep = kept is not None and kept(node)
            if seen[node] > 1 or (keep and not parent_kept):
                self.slots.setdefault(node, len(self.slots))
            if seen[node] == 1 and node != given \
                    and not isinstance(node, FixpointP):
                pending.extend((child, keep)
                               for child in reversed(node.children()))
        self.windows: dict[Plan, int] = {}
        self.done: dict[Plan, RowsFn] = {}
        if given is not None:
            self.done[given] = self._given(given)

    def _given(self, given: Plan) -> RowsFn:
        """How a call reads the rows handed in for ``given``."""
        return lambda call: call.given

    def window(self, plan: "ScanP | DeltaScanP"
               ) -> "Callable[[_Call], tuple[Relation, int]]":
        """How a call reads ``plan``'s window: resolved on first read."""
        index = self.windows.setdefault(plan, len(self.windows))

        def read(call: _Call) -> "tuple[Relation, int]":
            window = call.windows[index]
            if window is None:
                window = call.windows[index] = resolve_window(
                    call.db, plan, call.params)
            return window

        return read

    def node(self, plan: Plan) -> RowsFn:
        run = self.done.get(plan)
        if run is None:
            run = self._operator(plan)
            slot = self.slots.get(plan)
            if slot is not None:
                run = _in_slot(run, slot)
            self.done[plan] = run
        return run

    def _lookup(self, plan: FilterP
                ) -> "Callable[[_Call], tuple[Relation, list[int]] | None] | None":
        """How a call reads the bucket of ``plan``'s lookup candidate
        (:func:`lookup_key`; :func:`scan_lookup` decides per call whether
        an index serves it), ``None`` when it has none."""
        key = lookup_key(plan) if _indexable(plan.input) else None
        if key is None:
            return None
        position, const = key
        read = param_reader(const)
        value = const.value
        window = self.window(plan.input)  # type: ignore[arg-type]
        return lambda call: scan_lookup(
            window(call), position,
            value if read is None else read(call.params), call.sink)

    @staticmethod
    def _per_call(plan: Plan, make: Callable[[Plan], Any]
                  ) -> Callable[[_Call], Any]:
        """``make(plan)``, made here once — or, where ``plan``'s own fields
        hold a slot, per call from the node bound to the call's values."""
        if holds_slots(plan):
            return lambda call: make(bind_node(plan, call.params))
        made = make(plan)
        return lambda call: made

    def _operator(self, plan: Plan) -> RowsFn:
        if isinstance(plan, (ScanP, DeltaScanP)):
            read = self.window(plan)

            def scan(call: _Call) -> list[Row]:
                relation, keep = read(call)
                return relation[:keep]
            return scan
        if isinstance(plan, FilterP):
            return self._filter(plan)
        if isinstance(plan, ProjectP):
            return self._project(plan)
        if isinstance(plan, DistinctP):
            rows = self.node(plan.input)
            return lambda call: dedupe_rows(rows(call))
        if isinstance(plan, JoinP):
            return self._join(plan)
        if isinstance(plan, (SetOpP, DivideP)):
            left, right = self.node(plan.left), self.node(plan.right)
            apply = setop_rows if isinstance(plan, SetOpP) else divide_rows
            return lambda call: apply(plan, left(call), right(call))
        if isinstance(plan, (AggregateP, SortLimitP)):
            return self._unary(plan)
        if isinstance(plan, FixpointP):
            fixpoint_program(plan)  # compile errors surface here
            return lambda call: fixpoint_rows(plan, call.db, call.params)
        raise PlanError(f"cannot execute {type(plan).__name__}")

    def _filter(self, plan: FilterP) -> RowsFn:
        """A selection: one bucket of the input relation's ``key_index``
        when the first conjunct is a lookup (:meth:`_lookup`), else the
        input; then the rest of the conjuncts."""
        rows = self.node(plan.input)
        conjuncts = e.conjuncts(plan.condition)
        every = _row_test(plan, conjuncts)
        after = _row_test(plan, conjuncts[1:])
        lookup = self._lookup(plan)

        def select(call: _Call) -> list[Row]:
            found = None if lookup is None else lookup(call)
            if found is None:
                test, candidates = every, rows(call)
            else:
                relation, positions = found
                test, candidates = after, [relation[p] for p in positions]
            if test is None:
                return list(candidates)
            predicate = test(call.params)
            return [row for row in candidates if predicate(row)]

        return select

    def _project(self, plan: ProjectP) -> RowsFn:
        rows = self.node(plan.input)
        indices = plan.pick_positions
        if None not in indices:
            # Pure column picks: batch via itemgetter.
            if len(indices) == 1:
                i0 = indices[0]
                return lambda call: [(row[i0],) for row in rows(call)]
            getter = operator.itemgetter(*indices)
            return lambda call: [getter(row) for row in rows(call)]
        fns = self._per_call(plan, project_fns)

        def project(call: _Call) -> list[Row]:
            candidates = rows(call)
            made = fns(call)
            return [tuple([fn(row) for fn in made]) for row in candidates]

        return project

    def _join(self, plan: JoinP) -> RowsFn:
        left, right = self.node(plan.left), self.node(plan.right)
        if plan.kind in ("inner", "cross") and not plan.left_keys \
                and plan.residual is None:
            def product(call: _Call) -> list[Row]:
                left_rows = left(call)
                right_rows = right(call)
                return [l + r for l in left_rows for r in right_rows]
            return product
        window = self.window(plan.right) \
            if plan.left_keys and _indexable(plan.right) else None
        residual = self._per_call(plan, join_residual)

        def join(call: _Call) -> list[Row]:
            # An indexed build reads the relation, not a copy of its window.
            source = None if window is None else window(call)
            return join_rows(plan, left(call), right(call) if source is None
                             else source[0], source, residual(call))

        return join

    def _unary(self, plan: "AggregateP | SortLimitP") -> RowsFn:
        """An aggregate or a sort over its input, its expressions compiled
        here, or per call when they hold a slot."""
        rows = self.node(plan.input)
        apply = aggregate_rows if isinstance(plan, AggregateP) \
            else sort_limit_rows
        prepared = self._per_call(plan, operator_fns)

        def unary(call: _Call) -> list[Row]:
            candidates = rows(call)
            node, fns = prepared(call)
            return apply(node, candidates, fns)

        return unary


def _in_slot(run: RowsFn, slot: int) -> RowsFn:
    """``run`` computed once per call, its rows kept in the call's
    ``slot``."""
    def shared(call: _Call) -> list[Row]:
        rows = call.shared[slot]
        if rows is None:
            rows = call.shared[slot] = run(call)
        return rows
    return shared


# ---------------------------------------------------------------------------
# Executor backends
# ---------------------------------------------------------------------------

class ExecutorBackend(Protocol):
    """The physical-execution seam: logical plan + database in, rows out.

    Four implementations ship: the row-at-a-time reference backend in this
    module (``"row"``, a plan's compiled row program), the columnar
    batch-at-a-time backend in :mod:`repro.engine.vectorized`
    (``"vectorized"``, which runs a plan no operator of which has the
    kernels' rows at stake as its row program), the scatter-gather
    backend in :mod:`repro.engine.sharded` (``ShardedBackend``: shard
    subplans inline on the calling thread), and its multi-process variant
    over shared-memory column pages in :mod:`repro.engine.process`
    (``ProcessBackend``).  The last two run over a
    :class:`~repro.data.sharded.ShardedDatabase` only, and a
    :class:`~repro.core.sharded_service.ShardedQueryService` makes its own.
    Every backend executes a cached template with each request's literals
    as ``params``, compiling it once.  All must agree bag-for-bag on every
    plan — ``tests/test_vectorized.py``, ``tests/test_sharded.py``,
    ``tests/test_process.py``, and the property-based differential suite in
    ``tests/test_fuzz_differential.py`` pin that over the canonical catalog
    and randomly generated plans.
    """

    name: str

    def execute(self, plan: Plan, db: Database,
                params: Sequence[Any] = ()) -> list[Row]:
        """Evaluate ``plan`` against ``db`` and return its rows (bag order).

        ``params`` fill the plan's slotted constants
        (:mod:`repro.engine.bind`): a cached template's literals, a view's
        version anchors.
        """
        ...


class RowBackend:
    """The row-at-a-time reference backend: each plan runs as its row
    program (:func:`compile_rows`), compiled on its first execution."""

    name = "row"

    def execute(self, plan: Plan, db: Database,
                params: Sequence[Any] = ()) -> list[Row]:
        return compile_rows(plan)(db, params)


def get_backend(name: "str | ExecutorBackend") -> "ExecutorBackend":
    """The ``"row"`` or ``"vectorized"`` backend by name (one instance
    each per process), or an instance passed through as it is: a
    scatter-gather backend is made by its service, never named."""
    if not isinstance(name, str):
        return name
    key = name.lower()
    if key == "row":
        return _ROW_BACKEND
    if key == "vectorized":
        return _VECTORIZED_BACKEND or _vectorized_backend()
    raise PlanError(f"unknown executor backend {name!r} (expected 'row' "
                    "or 'vectorized')")


_ROW_BACKEND = RowBackend()
_VECTORIZED_BACKEND: "ExecutorBackend | None" = None


def _vectorized_backend() -> "ExecutorBackend":
    """The ``"vectorized"`` singleton, made on first use: its module
    imports this one."""
    global _VECTORIZED_BACKEND
    from repro.engine.vectorized import VectorizedBackend

    _VECTORIZED_BACKEND = VectorizedBackend()
    return _VECTORIZED_BACKEND


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def execute_plan(plan: Plan, db: Database, *,
                 backend: "str | ExecutorBackend" = "row",
                 params: Sequence[Any] = ()) -> Relation:
    """Execute a plan and package the rows as a Relation (types inferred).

    ``params`` are the values a plan's slotted constants take for this
    execution (``Const(_, slot=i)`` reads ``params[i]``): a cached
    template's literals, a view's version anchors.  A plan without slots
    ignores them.
    """
    rows = get_backend(backend).execute(plan, db, params)
    return build_result_relation(plan.columns, rows)


def build_result_relation(columns: Sequence[str], rows: list[Row]) -> Relation:
    """A plan's answer (:func:`~repro.data.relation.result_relation`), its
    columns named by their unqualified names."""
    return result_relation([c.split(".")[-1] or c for c in columns], rows)


def run_query(query: Any, db: Database, language: str | None = None,
              *, use_optimizer: bool = True,
              backend: "str | ExecutorBackend" = "row") -> Relation:
    """Parse/lower/optimize/execute any of the five languages on the engine.

    Raises :class:`LoweringError` (never silently falls back) when the query
    is outside the engine fragment — callers that want interpreter fallback
    handle that explicitly.  ``backend`` selects the physical executor; a
    Datalog fixpoint runs its rule bodies on the row executor whichever it
    is (its relations change every round).
    """
    from repro.engine.optimize import optimize

    plan = lower(query, db.schema, language)
    return execute_plan(optimize(plan, db) if use_optimizer else plan, db,
                        backend=backend)


def execute_datalog(program: Any, db: Database, query: str = "ans",
                    *, use_optimizer: bool = True) -> Relation:
    """Evaluate a stratified Datalog program at its ``query`` predicate:
    its one plan (:func:`~repro.engine.lower.lower_datalog`), run."""
    from repro.engine.optimize import optimize

    plan = lower_datalog(program, db.schema, query)
    return execute_plan(optimize(plan, db) if use_optimizer else plan, db)
