"""Columnar, batch-at-a-time plan execution (the ``"vectorized"`` backend).

Where :class:`repro.engine.execute.Executor` streams Python row tuples
through each operator, this backend moves whole columns:

* **scans** read the per-attribute arrays that
  :meth:`repro.data.relation.Relation.column_store` maintains — no per-query
  transposition and no row-tuple allocation — and reach a base relation by
  the access-path rule shared with the row executor: a filter whose first
  conjunct is ``col = const`` reads one bucket of the relation's
  ``key_index`` (:func:`~repro.engine.execute.scan_lookup`), and a hash
  join's build over a scan or an ``asof`` window is that index
  (:func:`~repro.engine.execute.join_table`);
* **filters** compile simple comparisons into tight per-column selection
  loops that produce an index vector instead of calling a closure chain per
  row; remaining conjuncts fall back to the row-compiled predicates (shared
  with the row backend, so three-valued logic and type-error semantics agree
  by construction);
* **hash joins** build and probe on raw column values (no key-tuple
  allocation for single-column keys) and emit *selection vectors* — output
  columns stay virtual ``(base array, index vector)`` pairs until something
  actually reads them (late materialization), so an n-way join composes one
  index vector per side instead of copying every column at every step;
* **aggregation** groups on column arrays and folds each aggregate over the
  grouped index lists with the row backend's :func:`~repro.engine.execute.fold`.

Set operations other than bag union, and division, materialize rows and
run the row backend's own functions (:func:`~repro.engine.execute.setop_rows`,
:func:`~repro.engine.execute.divide_rows`) — they are not on the hot path,
and sharing the code is what keeps the two backends bag-equal (pinned over
the whole canonical catalog by ``tests/test_vectorized.py``).

This is the engine's **one** columnar executor.  Its four hot loops —
selection, hash-join probe, DISTINCT, group-by — each first offer their
batch to the numpy kernel of :mod:`repro.engine.kernels` and run the Python
loop when the kernel declines (numpy absent, ``REPRO_KERNELS=0``, a dtype
the lowering cannot reproduce bit-for-bit).  A kernel is only offered
batches from its hook's crossover up — below it the fixed cost of a numpy
call exceeds the whole Python loop: :data:`~repro.engine.kernels.KERNEL_MIN_ROWS`
rows, or :data:`~repro.engine.kernels.CACHED_PROBE_MIN_ROWS` rows at stake
for the probe of a relation's cached build structure.
From the gate up selections are numpy index arrays all the way to the
final row build: a hash join's build side stays unbuilt
(:class:`~repro.engine.kernels.BuildSide`) until its probe has chosen the
kernel or the loop, and a loop's output is converted once, where it is
produced.

The backend satisfies the :class:`repro.engine.execute.ExecutorBackend`
protocol; select it with ``execute_plan(plan, db, backend="vectorized")`` or
``QueryVisualizationPipeline(backend="vectorized")``.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from repro.data.database import Database
from repro.expr import ast as e
from repro.expr.eval import ExprError
from repro.engine import kernels
from repro.engine.batch import (
    Batch,
    Vector,
    _exact,
    _iter_key_list,
    _key_columns,
    _take,
)
from repro.engine.execute import (
    Row,
    _PrefixTable,
    _column_position,
    _split_name,
    build_source,
    compiled_expr,
    compiled_predicate,
    delta_scan_rows,
    divide_rows,
    fold,
    join_table,
    scan_lookup,
    setop_rows,
)
from repro.engine.plan import (
    AggregateP,
    DeltaScanP,
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

_COMPARATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


# ---------------------------------------------------------------------------
# Vectorized filter compilation
# ---------------------------------------------------------------------------

def vector_filter(conjunct: e.Expr, columns: tuple[str, ...]
                  ) -> Callable[[Batch, list[int] | None], list[int]] | None:
    """Compile one conjunct into a column-selection loop, or ``None``.

    Only simple comparisons (column vs. constant, column vs. column) get the
    fast path; everything else is handled by the caller's row fallback.  The
    loops replicate :func:`repro.expr.eval._compare` exactly: NULL operands
    never match, and str/non-str or bool/non-bool mixes raise
    :class:`ExprError` just like the reference interpreters.
    """
    if not isinstance(conjunct, e.Comparison) or conjunct.op not in _COMPARATORS:
        return None
    left, op, right = conjunct.left, conjunct.op, conjunct.right
    lpos = _column_position(left, columns)
    rpos = _column_position(right, columns)
    if lpos is not None and isinstance(right, e.Const):
        return _compare_const(lpos, op, right.value)
    if rpos is not None and isinstance(left, e.Const):
        flipped = conjunct.flipped()
        return _compare_const(rpos, flipped.op, left.value)
    if lpos is not None and rpos is not None:
        return _compare_columns(lpos, op, rpos)
    return None


def _indices(batch: Batch, sel: "list[int] | Any | None") -> "range | list[int]":
    """The positions a column loop visits, as Python ints.

    An earlier conjunct's numpy kernel leaves an index array; a Python loop
    over it would pay for (and pass on) numpy scalars.
    """
    if sel is None:
        return range(batch.length)
    return sel if type(sel) is list else sel.tolist()


def _compare_const(pos: int, op: str, const: Any
                   ) -> Callable[[Batch, list[int] | None], list[int]]:
    if const is None:
        # NULL never compares TRUE: the conjunct drops every row.
        return lambda batch, sel: []
    cmp = _COMPARATORS[op]
    const_is_str = isinstance(const, str)
    const_is_bool = isinstance(const, bool)

    def run(batch: Batch, sel: list[int] | None) -> list[int]:
        column = batch.vectors[pos].materialize()
        out: list[int] = []
        append = out.append
        indices = _indices(batch, sel)
        for i in indices:
            v = column[i]
            if v is None:
                continue
            if isinstance(v, str) != const_is_str or isinstance(v, bool) != const_is_bool:
                raise ExprError(f"cannot compare {v!r} with {const!r}")
            if cmp(v, const):
                append(i)
        return out

    return run


def _compare_columns(lpos: int, op: str, rpos: int
                     ) -> Callable[[Batch, list[int] | None], list[int]]:
    cmp = _COMPARATORS[op]

    def run(batch: Batch, sel: list[int] | None) -> list[int]:
        lcol = batch.vectors[lpos].materialize()
        rcol = batch.vectors[rpos].materialize()
        out: list[int] = []
        append = out.append
        indices = _indices(batch, sel)
        for i in indices:
            a = lcol[i]
            b = rcol[i]
            if a is None or b is None:
                continue
            if isinstance(a, str) != isinstance(b, str) \
                    or isinstance(a, bool) != isinstance(b, bool):
                raise ExprError(f"cannot compare {a!r} with {b!r}")
            if cmp(a, b):
                append(i)
        return out

    return run


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

class VectorizedExecutor:
    """Evaluates plans column-at-a-time, memoizing batches per plan value.

    ``counters`` (optional) receives the kernel layer's derived-structure
    cache hit/miss/eviction bumps and this executor's ``scan_lookup``
    count, letting each backend report its own traffic through
    ``execution_counts()``.
    """

    def __init__(self, db: Database,
                 counters: "dict[str, int] | None" = None) -> None:
        self.db = db
        self.kernel_counters = counters
        self._memo: dict[Plan, Batch] = {}

    def batch(self, plan: Plan) -> Batch:
        cached = self._memo.get(plan)
        if cached is None:
            cached = self._compute(plan)
            self._memo[plan] = cached
        return cached

    # -- operators -------------------------------------------------------

    def _compute(self, plan: Plan) -> Batch:
        if isinstance(plan, ScanP):
            return self._scan(plan)
        if isinstance(plan, DeltaScanP):
            return self._delta_scan(plan)
        if isinstance(plan, FilterP):
            return self._filter(plan)
        if isinstance(plan, ProjectP):
            return self._project(plan)
        if isinstance(plan, DistinctP):
            return self._distinct(plan)
        if isinstance(plan, JoinP):
            return self._join(plan)
        if isinstance(plan, SetOpP):
            return self._setop(plan)
        if isinstance(plan, AggregateP):
            return self._aggregate(plan)
        if isinstance(plan, DivideP):
            return Batch.from_rows(plan.columns, divide_rows(
                plan, self.batch(plan.left).rows(), self.batch(plan.right).rows()))
        if isinstance(plan, SortLimitP):
            return self._sort_limit(plan)
        raise PlanError(f"cannot execute {type(plan).__name__}")

    def _scan(self, plan: ScanP) -> Batch:
        relation = self.db.relation(plan.relation)
        if len(plan.columns) != relation.schema.arity:
            raise PlanError(
                f"scan of {plan.relation} expects arity {len(plan.columns)}, "
                f"relation has {relation.schema.arity}"
            )
        store = relation.column_store()
        return Batch(plan.columns,
                     [Vector(a, None, (store, i))
                      for i, a in enumerate(store.arrays)],
                     len(relation))

    def _delta_scan(self, plan: DeltaScanP) -> Batch:
        """Columnar delta/asof windows.

        The ``asof`` window is a *prefix* of the bag (storage only appends),
        so it shares the maintained column store's arrays **without copying**
        and truncates the batch's logical length — refresh cost must not
        scale with base-table size.  Consumers respect ``Batch.length``; the
        hash-join build side short-circuits further via the capped
        :class:`_PrefixTable` over the relation's cached key index.  The
        ``delta`` window is small by construction and transposes.
        """
        if plan.mode == "asof" and plan.since is not None:
            relation = self.db.relation(plan.relation)
            count = relation.delta_count_since(plan.since)
            if count is not None and len(plan.columns) == relation.schema.arity:
                store = relation.column_store()
                keep = len(relation) - count
                return Batch(plan.columns,
                             [Vector(a, None, (store, i))
                              for i, a in enumerate(store.arrays)], keep)
        return Batch.from_rows(plan.columns, delta_scan_rows(self.db, plan))

    def _filter(self, plan: FilterP) -> Batch:
        """Narrow the batch conjunct by conjunct, in the conjunction's order.

        A first ``col = const`` conjunct over a base scan is a lookup
        (:func:`~repro.engine.execute.scan_lookup`): the batch starts as that
        bucket's rows.  Each remaining conjunct either compiles to a
        column-selection loop (:func:`vector_filter`) or falls back to the
        row-compiled predicate over the still-selected rows.  Keeping the
        original order means a conjunct that raises (type mismatch, division
        by zero) raises here exactly when the row backend would have
        reached it.
        """
        batch = self.batch(plan.input)
        lookup = scan_lookup(self.db, plan, self.kernel_counters)
        if lookup is None:
            conjuncts = e.conjuncts(plan.condition)
        else:
            _relation, positions, conjuncts = lookup
            batch = batch.take(kernels.index_array(positions))
        sel: "list[int] | Any | None" = None  # Any: a kernel's index array
        materialized: list[list[Any]] | None = None
        for conjunct in conjuncts:
            fast = self._compile_conjunct(conjunct, batch)
            if fast is not None:
                sel = fast(batch, sel)
                continue
            predicate = compiled_predicate(conjunct, batch.columns)
            if materialized is None:
                materialized = [v.materialize() for v in batch.vectors]
            sel = [i for i in _indices(batch, sel)
                   if predicate(tuple(column[i] for column in materialized))]
        if sel is None:
            return batch
        return batch.take(kernels.index_array(sel))

    def _compile_conjunct(self, conjunct: e.Expr, batch: Batch
                          ) -> Callable[[Batch, list[int] | None],
                                        list[int]] | None:
        """Compile one filter conjunct: numpy selection, else column loop."""
        if batch.length >= kernels.KERNEL_MIN_ROWS:
            fast = kernels.kernel_filter(conjunct, batch)
            if fast is not None:
                return fast
        return vector_filter(conjunct, batch.columns)

    def _project(self, plan: ProjectP) -> Batch:
        batch = self.batch(plan.input)
        vectors: list[Vector] = []
        rows: list[Row] | None = None
        for expr in plan.exprs:
            pos = _column_position(expr, plan.input.columns)
            if pos is not None:
                vectors.append(batch.vectors[pos])
                continue
            if rows is None:
                rows = batch.rows()
            fn = compiled_expr(expr, plan.input.columns)
            vectors.append(Vector([fn(row) for row in rows]))
        return Batch(plan.names, vectors, batch.length)

    def _distinct(self, plan: DistinctP) -> Batch:
        batch = self.batch(plan.input)
        return batch.take(self._distinct_positions(batch))

    def _distinct_positions(self, batch: Batch) -> "list[int] | Any":
        """First-occurrence positions of the distinct rows."""
        if batch.length >= kernels.KERNEL_MIN_ROWS:
            positions = kernels.kernel_distinct(batch)
            if positions is not None:
                return positions
        seen: set[Row] = set()
        add = seen.add
        sel: list[int] = []
        append = sel.append
        for i, row in enumerate(batch.rows()):
            if row not in seen:
                add(row)
                append(i)
        return kernels.index_array(sel)

    # -- joins -------------------------------------------------------------

    def _join(self, plan: JoinP) -> Batch:
        left = self.batch(plan.left)
        if plan.kind in ("inner", "cross") and not plan.left_keys \
                and plan.residual is None:
            right = self.batch(plan.right)
            nl, nr = left.length, right.length
            left_sel = [i for i in range(nl) for _ in range(nr)]
            right_sel = list(range(nr)) * nl
            return Batch(plan.columns,
                         _take(left.vectors, left_sel) + _take(right.vectors, right_sel),
                         nl * nr)

        left_cols = plan.left.columns
        right_cols = plan.right.columns
        left_idx = [resolve_column(left_cols, *_split_name(k)) for k in plan.left_keys]
        right_idx = [resolve_column(right_cols, *_split_name(k)) for k in plan.right_keys]
        residual = None
        if plan.residual is not None:
            residual = compiled_predicate(plan.residual, left_cols + right_cols)
        right = self.batch(plan.right)

        if plan.kind in ("semi", "anti"):
            return self._semi_anti(plan, left, right, left_idx, right_idx, residual)

        table = self._hash_table(plan.right, right, right_idx,
                                 plan.null_matches, lazy=True)
        left_sel, right_sel = self._probe_batch(left, left_idx, table,
                                                plan.null_matches)
        if residual is not None:
            lmat = [v.materialize() for v in left.vectors]
            rmat = [v.materialize() for v in right.vectors]
            keep = []
            for k in range(len(left_sel)):
                i, j = left_sel[k], right_sel[k]
                row = tuple(c[i] for c in lmat) + tuple(c[j] for c in rmat)
                if residual(row):
                    keep.append(k)
            left_sel = [left_sel[k] for k in keep]
            right_sel = [right_sel[k] for k in keep]
        return Batch(plan.columns,
                     _take(left.vectors, left_sel) + _take(right.vectors, right_sel),
                     len(left_sel))

    def _hash_table(self, right_plan: Plan, right: Batch, right_idx: list[int],
                    null_matches: bool, *, lazy: bool = False
                    ) -> "dict[Any, list[int]] | _PrefixTable | kernels.BuildSide":
        """The build side of a hash join, by the shared access-path rule
        (:func:`~repro.engine.execute.join_table`): a base scan's is its
        relation's maintained ``key_index``, an ``asof`` window's that index
        capped at the window.

        With ``lazy`` (the inner-join probe, which may never need the dict)
        the build side comes back as a :class:`~repro.engine.kernels.BuildSide`
        (a whole relation: :class:`~repro.engine.kernels.RelationBuild`):
        the kernel probe lowers the key columns' encodings instead, and only
        the Python probe builds a table — or takes ``key_index`` — through
        it.  Semi/anti joins read the table's keys, so theirs is built here.
        """
        skip_nulls = not null_matches
        build = kernels.BuildSide(right, right_idx, skip_nulls)
        if lazy:
            source = build_source(self.db, right_plan, right_idx)
            if source is None:
                return build
            relation, keep = source
            if keep == len(relation):  # not an as-of window
                return kernels.RelationBuild(right, right_idx, skip_nulls,
                                             relation)
        return join_table(self.db, right_plan, right_idx, skip_nulls,
                          build.table)

    def _probe_batch(self, batch: Batch, idx: list[int], build: Any,
                     null_matches: bool) -> "tuple[Any, Any]":
        """Probe phase of the hash join: sort-based kernel, else the loop.

        A lazy build side says how many rows are at stake
        (:meth:`~repro.engine.kernels.BuildSide.rows_at_stake`: read,
        emitted, indexed for this query alone) and from how many the kernel
        wins (:meth:`~repro.engine.kernels.BuildSide.min_rows`: lower for a
        relation's cached structure).  What the loop emits at gate size or
        more leaves here as index arrays, converted once.
        """
        lazy = isinstance(build, kernels.BuildSide)
        if lazy and build.rows_at_stake(batch.length) >= build.min_rows():
            pair = kernels.kernel_probe(batch, idx, build, null_matches,
                                        self.kernel_counters)
            if pair is not None:
                kernels.count_path("probe_kernel")
                return pair
        kernels.count_path("probe_loop")
        left_sel, right_sel = _probe(
            batch, idx, build.table() if lazy else build)
        return kernels.index_array(left_sel), kernels.index_array(right_sel)

    def _semi_anti(self, plan: JoinP, left: Batch, right: Batch,
                   left_idx: list[int], right_idx: list[int],
                   residual: Callable[[Row], bool] | None) -> Batch:
        """Keys that cannot match (NULLs under SQL equality) are not in the
        table, so membership alone decides."""
        want_match = plan.kind == "semi"
        table = self._hash_table(plan.right, right, right_idx,
                                 plan.null_matches)
        keys = _iter_key_list(_key_columns(left, left_idx), left.length)
        if residual is None:
            sel = [i for i, key in enumerate(keys)
                   if (key in table) == want_match]
        else:
            lmat = [v.materialize() for v in left.vectors]
            rmat = [v.materialize() for v in right.vectors]
            sel = [i for i, key in enumerate(keys)
                   if any(residual(tuple(c[i] for c in lmat)
                                   + tuple(c[j] for c in rmat))
                          for j in table.get(key, ())) == want_match]
        return Batch(plan.columns, _take(left.vectors, sel), len(sel))

    # -- set operations, aggregation, the rest -----------------------------

    def _setop(self, plan: SetOpP) -> Batch:
        left = self.batch(plan.left)
        right = self.batch(plan.right)
        if plan.op == "union" and not plan.distinct:
            # Bag union is pure columnar concatenation — but each side must
            # be cut to its *logical* length first: a length-limited batch
            # (an as-of window) shares the relation's full arrays, and
            # concatenating those raw would splice out-of-window rows in.
            vectors = [Vector(_exact(l, left.length) + _exact(r, right.length))
                       for l, r in zip(left.vectors, right.vectors)]
            return Batch(plan.columns, vectors, left.length + right.length)
        return Batch.from_rows(plan.columns,
                               setop_rows(plan, left.rows(), right.rows()))

    def _aggregate(self, plan: AggregateP) -> Batch:
        batch = self.batch(plan.input)
        if batch.length >= kernels.KERNEL_MIN_ROWS:
            lowered = kernels.kernel_aggregate(plan, batch)
            if lowered is not None:
                return lowered
        columns = plan.input.columns
        n = batch.length
        rows: list[Row] | None = None

        def value_array(expr: e.Expr) -> list[Any]:
            nonlocal rows
            pos = _column_position(expr, columns)
            if pos is not None:
                array = batch.vectors[pos].materialize()
                return array if len(array) == n else array[:n]
            if rows is None:
                rows = batch.rows()
            fn = compiled_expr(expr, columns)
            return [fn(row) for row in rows]

        key_arrays = [value_array(x) for x in plan.group_exprs]
        reps, members = self._group_members(key_arrays, n)

        agg_arrays: list[list[Any]] = []
        for call, _name in plan.aggregates:
            agg_arrays.append(self._fold_aggregate(call, members, value_array))

        if not plan.group_exprs and not members:
            # SQL: an ungrouped aggregate over empty input yields one row
            # (all-NULL representatives; COUNT folds to 0 above).
            vectors = [Vector([None]) for _ in columns]
            vectors.extend(Vector(arr if arr else [fold(call.name, ())])
                           for (call, _n), arr in zip(plan.aggregates, agg_arrays))
            return Batch(plan.columns, vectors, 1)

        vectors = _take(batch.vectors, reps)
        vectors.extend(Vector(arr) for arr in agg_arrays)
        return Batch(plan.columns, vectors, len(reps))

    def _group_members(self, key_arrays: list[list[Any]], n: int
                       ) -> tuple[list[int], list[list[int]]]:
        """Group row indices by key.

        Returns ``(reps, members)``: the first-occurrence index of each
        group (in first-occurrence order) and the member indices per group.
        """
        groups: dict[tuple, int] = {}
        reps: list[int] = []
        members: list[list[int]] = []
        if key_arrays:
            for i, key in enumerate(zip(*key_arrays)):
                g = groups.get(key)
                if g is None:
                    groups[key] = g = len(reps)
                    reps.append(i)
                    members.append([])
                members[g].append(i)
        elif n:
            reps.append(0)
            members.append(list(range(n)))
        return reps, members

    def _fold_aggregate(self, call: e.FuncCall, members: list[list[int]],
                        value_array: Callable[[e.Expr], list[Any]]) -> list[Any]:
        name = call.name
        if name == "count" and call.args and isinstance(call.args[0], e.Star):
            return [len(group) for group in members]
        if not call.args:
            raise PlanError(f"aggregate {name.upper()} needs an argument")
        arg = value_array(call.args[0])
        return [fold(name, (arg[i] for i in group), call.distinct)
                for group in members]

    def _sort_limit(self, plan: SortLimitP) -> Batch:
        batch = self.batch(plan.input)
        sel = list(range(batch.length))
        if plan.keys:
            from repro.sql.evaluate import _sort_key

            rows = batch.rows()
            fns = [(compiled_expr(expr, plan.input.columns), ascending)
                   for expr, ascending in plan.keys]

            def key(i: int) -> tuple:
                row = rows[i]
                return tuple(_sort_key(fn(row), ascending) for fn, ascending in fns)

            sel.sort(key=key)
        if plan.limit is not None:
            sel = sel[:plan.limit]
        return batch.take(sel)


# ---------------------------------------------------------------------------
# Hash-join plumbing
# ---------------------------------------------------------------------------

def _probe(batch: Batch, idx: list[int],
           table: "dict[Any, list[int]] | _PrefixTable"
           ) -> tuple[list[int], list[int]]:
    """Probe ``table`` with each row's key.  A NULL key that must not match
    finds nothing: the table was built without such keys."""
    left_sel: list[int] = []
    right_sel: list[int] = []
    lappend = left_sel.append
    lextend = left_sel.extend
    rappend = right_sel.append
    rextend = right_sel.extend
    get = table.get
    for i, key in enumerate(_iter_key_list(_key_columns(batch, idx),
                                           batch.length)):
        matches = get(key)
        if matches:
            if len(matches) == 1:
                lappend(i)
                rappend(matches[0])
            else:
                lextend([i] * len(matches))
                rextend(matches)
    return left_sel, right_sel


# ---------------------------------------------------------------------------
# The backend object
# ---------------------------------------------------------------------------

class VectorizedBackend:
    """:class:`ExecutorBackend` implementation running plans column-wise."""

    name = "vectorized"

    def execute(self, plan: Plan, db: Database) -> list[Row]:
        return VectorizedExecutor(db).batch(plan).rows()
