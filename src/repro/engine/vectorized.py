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
* **aggregation and DISTINCT** run the numpy kernels of
  :mod:`repro.engine.kernels` (below).

Each operator has one Python implementation, in :mod:`repro.engine.execute`,
and this backend calls it wherever it has no columnar loop of its own:
group-by and DISTINCT below their kernel's gate or where it declines
(:func:`~repro.engine.execute.aggregate_rows`, ``dedupe_rows``), sort/limit,
set operations other than bag union, and division (``sort_limit_rows``,
``setop_rows``, ``divide_rows``) run over materialized rows; a semi/anti
join takes the positions ``semi_anti_positions`` keeps as a selection
vector, so column encodings survive for the kernels above it.  Sharing the
code keeps the backends bag-equal (``tests/test_vectorized.py``), and the
``one-operator`` lint rule keeps it shared.

This is the engine's **one** columnar executor.  Its four hot operators —
selection, hash-join probe, DISTINCT, group-by — each first offer their
batch to the numpy kernel of :mod:`repro.engine.kernels`.  When the kernel
declines (numpy absent, ``REPRO_KERNELS=0``, a dtype the lowering cannot
reproduce bit-for-bit), selection and the probe run their columnar Python
loops, and DISTINCT and group-by the row functions above.  A kernel is
only offered batches from its hook's crossover up — below it the fixed
cost of a numpy call exceeds the whole Python loop:
:data:`~repro.engine.kernels.KERNEL_MIN_ROWS` rows, or
:data:`~repro.engine.kernels.CACHED_PROBE_MIN_ROWS` rows at stake for the
probe of a relation's cached build structure.
From the gate up selections are numpy index arrays all the way to the
final row build: a hash join's build side stays unbuilt
(:class:`~repro.engine.kernels.BuildSide`) until its probe has chosen the
kernel or the loop, and a loop's output is converted once, where it is
produced.

The backend runs a plan whose every base relation holds fewer than
:data:`~repro.engine.kernels.KERNEL_MIN_ROWS` rows on the row
:class:`~repro.engine.execute.Executor` (:func:`runs_on_rows`), which pays
for no batches, selection vectors or copies: measured, it is no slower
there (E2's 1k/2k cells, ``five-lang-cold``), even where a cached probe or
a fanning-out join would have reached a kernel.  On the tutorial instance
that is every query.  The choice is made once per execution, at the root,
from the relations' live sizes, and counted (``plan_rows`` /
``plan_columnar`` in :func:`~repro.engine.kernels.path_counts`).  Deciding
per subtree was measured and dropped: a small subtree handed back as a row
batch loses its column-store origin, and the kernel probes above it fall
back to loops.

The backend satisfies the :class:`repro.engine.execute.ExecutorBackend`
protocol; select it with ``execute_plan(plan, db, backend="vectorized")`` or
``QueryVisualizationPipeline(backend="vectorized")``.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.data.database import Database
from repro.data.relation import Relation, dedupe_rows
from repro.expr import ast as e
from repro.expr.eval import ExprError
from repro.logic.terms import COMPARISONS
from repro.engine import kernels
from repro.engine.bind import bind_node, is_bound
from repro.engine.batch import (
    Batch,
    Vector,
    _exact,
    _iter_key_list,
    _key_columns,
    _take,
)
from repro.engine.execute import (
    Executor,
    Row,
    _PrefixTable,
    aggregate_rows,
    build_source,
    column_comparison,
    compiled_expr,
    compiled_predicate,
    delta_scan_rows,
    divide_rows,
    fixpoint_rows,
    join_table,
    scan_lookup,
    scan_relation,
    semi_anti_positions,
    setop_rows,
    sort_limit_rows,
)
from repro.engine.plan import (
    AggregateP,
    DeltaScanP,
    DistinctP,
    DivideP,
    FilterP,
    FixpointP,
    JoinP,
    Plan,
    PlanError,
    ProjectP,
    ScanP,
    SetOpP,
    SortLimitP,
)


# ---------------------------------------------------------------------------
# Vectorized filter compilation
# ---------------------------------------------------------------------------

def vector_filter(conjunct: e.Expr, positions: "dict[e.Expr, int | None]"
                  ) -> Callable[[Batch, list[int] | None], list[int]] | None:
    """Compile one conjunct into a column-selection loop, or ``None``.

    Only simple comparisons (column vs. constant, column vs. column) get the
    fast path; everything else is handled by the caller's row fallback.  The
    loops replicate :func:`repro.expr.eval._compare` exactly: NULL operands
    never match, and str/non-str or bool/non-bool mixes raise
    :class:`ExprError` just like the reference interpreters.  ``positions``
    are the filter's resolved columns
    (:attr:`~repro.engine.plan.FilterP.operand_positions`).
    """
    shape = column_comparison(conjunct, positions)
    if shape is None:
        return None
    pos, op, other, other_is_column = shape
    if other_is_column:
        return _compare_columns(pos, op, other)
    return _compare_const(pos, op, other)


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
    cmp = COMPARISONS[op]
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
    cmp = COMPARISONS[op]

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
    ``execution_counts()``.  ``params`` are the values of the plan's slots,
    as for the row :class:`~repro.engine.execute.Executor`.
    """

    def __init__(self, db: Database,
                 counters: "dict[str, int] | None" = None,
                 params: Sequence[Any] = ()) -> None:
        self.db = db
        self.kernel_counters = counters
        self.params = tuple(params)
        self._memo: dict[Plan, Batch] = {}

    def batch(self, plan: Plan) -> Batch:
        cached = self._memo.get(plan)
        if cached is None:
            cached = self._compute(bind_node(plan, self.params))
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
            return Batch.from_rows(plan.columns, sort_limit_rows(
                plan, self.batch(plan.input).rows()))
        if isinstance(plan, FixpointP):
            return Batch.from_rows(plan.columns, fixpoint_rows(
                plan, self.db, params=self.params))
        raise PlanError(f"cannot execute {type(plan).__name__}")

    def _scan(self, plan: ScanP) -> Batch:
        relation = scan_relation(self.db, plan)
        return _store_batch(plan.columns, relation, len(relation))

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
        if plan.mode == "asof" and plan.version is not None:
            relation = scan_relation(self.db, plan)
            count = relation.delta_count_since(plan.version)
            if count is not None:
                return _store_batch(plan.columns, relation,
                                    len(relation) - count)
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
            fast = self._compile_conjunct(conjunct, batch,
                                          plan.operand_positions)
            if fast is not None:
                sel = fast(batch, sel)
                continue
            predicate = compiled_predicate(conjunct, batch.columns,
                                           cached=not is_bound(plan))
            if materialized is None:
                materialized = [v.materialize() for v in batch.vectors]
            sel = [i for i in _indices(batch, sel)
                   if predicate(tuple(column[i] for column in materialized))]
        if sel is None:
            return batch
        return batch.take(kernels.index_array(sel))

    def _compile_conjunct(self, conjunct: e.Expr, batch: Batch,
                          positions: "dict[e.Expr, int | None]"
                          ) -> Callable[[Batch, list[int] | None],
                                        list[int]] | None:
        """Compile one filter conjunct: numpy selection, else column loop."""
        if batch.length >= kernels.KERNEL_MIN_ROWS:
            fast = kernels.kernel_filter(conjunct, batch, positions)
            if fast is not None:
                return fast
        return vector_filter(conjunct, positions)

    def _project(self, plan: ProjectP) -> Batch:
        batch = self.batch(plan.input)
        vectors: list[Vector] = []
        rows: list[Row] | None = None
        for expr, pos in zip(plan.exprs, plan.pick_positions):
            if pos is not None:
                vectors.append(batch.vectors[pos])
                continue
            if rows is None:
                rows = batch.rows()
            fn = compiled_expr(expr, plan.input.columns,
                               cached=not is_bound(plan))
            vectors.append(Vector([fn(row) for row in rows]))
        return Batch(plan.names, vectors, batch.length)

    def _distinct(self, plan: DistinctP) -> Batch:
        batch = self.batch(plan.input)
        if batch.length >= kernels.KERNEL_MIN_ROWS:
            positions = kernels.kernel_distinct(batch)
            if positions is not None:
                return batch.take(positions)
        return Batch.from_rows(plan.columns, dedupe_rows(batch.rows()))

    # -- joins -------------------------------------------------------------

    def _join(self, plan: JoinP) -> Batch:
        left = self.batch(plan.left)
        if plan.kind in ("inner", "cross") and not plan.left_keys \
                and plan.residual is None:
            right = self.batch(plan.right)
            nl, nr = left.length, right.length
            left_sel = [i for i in range(nl) for _ in range(nr)] if nr else []
            right_sel = list(range(nr)) * nl
            return Batch(plan.columns,
                         _take(left.vectors, left_sel) + _take(right.vectors, right_sel),
                         nl * nr)

        left_idx, right_idx = plan.key_positions
        residual = None
        if plan.residual is not None:
            residual = compiled_predicate(
                plan.residual, plan.left.columns + plan.right.columns,
                cached=not is_bound(plan))
        right = self.batch(plan.right)

        match = None if residual is None else _pair_predicate(
            residual, left, right)
        if plan.kind in ("semi", "anti"):
            table = self._hash_table(plan.right, right, right_idx,
                                     plan.null_matches)
            sel = semi_anti_positions(
                plan.kind, _iter_key_list(_key_columns(left, left_idx),
                                          left.length), table, match)
            return Batch(plan.columns, _take(left.vectors, sel), len(sel))

        table = self._hash_table(plan.right, right, right_idx,
                                 plan.null_matches, lazy=True)
        left_sel, right_sel = self._probe_batch(left, left_idx, table,
                                                plan.null_matches)
        if match is not None:
            keep = [k for k in range(len(left_sel))
                    if match(left_sel[k], right_sel[k])]
            left_sel = [left_sel[k] for k in keep]
            right_sel = [right_sel[k] for k in keep]
        return Batch(plan.columns,
                     _take(left.vectors, left_sel) + _take(right.vectors, right_sel),
                     len(left_sel))

    def _hash_table(self, right_plan: Plan, right: Batch, right_idx: list[int],
                    null_matches: bool, *, lazy: bool = False
                    ) -> "dict[Any, list[int]] | _PrefixTable | kernels.BuildSide":
        """The build side of a hash join over ``right_plan`` (a template
        node: a window's anchor is bound to this execution's params), by
        the shared access-path rule (:func:`~repro.engine.execute.join_table`):
        a base scan's is its relation's maintained ``key_index``, an
        ``asof`` window's that index capped at the window.

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
            source = build_source(self.db, right_plan, right_idx,
                                  self.params)
            if source is None:
                return build
            relation, keep = source
            if keep == len(relation):  # not an as-of window
                return kernels.RelationBuild(right, right_idx, skip_nulls,
                                             relation)
        return join_table(self.db, right_plan, right_idx, skip_nulls,
                          build.table, self.params)

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

    # -- set operations, aggregation, the rest -----------------------------

    def _setop(self, plan: SetOpP) -> Batch:
        left = self.batch(plan.left)
        right = self.batch(plan.right)
        if plan.op == "union" and not plan.distinct:
            if not right.length:
                return left
            if not left.length:
                return Batch(plan.columns, right.vectors, right.length)
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
        return Batch.from_rows(plan.columns, aggregate_rows(plan, batch.rows()))


def _store_batch(columns: tuple[str, ...], relation: Relation,
                 length: int) -> Batch:
    """The first ``length`` rows of ``relation``: its column store's arrays,
    shared without copying."""
    store = relation.column_store()
    return Batch(columns, [Vector(a, None, (store, i))
                           for i, a in enumerate(store.arrays)], length)


# ---------------------------------------------------------------------------
# Hash-join plumbing
# ---------------------------------------------------------------------------

def _pair_predicate(residual: Callable[[Row], bool], left: Batch,
                    right: Batch) -> Callable[[int, int], bool]:
    """``residual`` over the joined row of left position ``i`` and right
    position ``j``."""
    lmat = [v.materialize() for v in left.vectors]
    rmat = [v.materialize() for v in right.vectors]
    return lambda i, j: residual(tuple(c[i] for c in lmat)
                                 + tuple(c[j] for c in rmat))


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

def runs_on_rows(plan: Plan, db: Database) -> bool:
    """Whether every base relation ``plan`` reads holds fewer than
    :data:`~repro.engine.kernels.KERNEL_MIN_ROWS` rows, so the plan runs on
    the row executor.  That is a measured rule, not a proof that no kernel
    could engage: a cached probe takes its kernel from
    :data:`~repro.engine.kernels.CACHED_PROBE_MIN_ROWS` rows at stake, and
    a join that fans out can hand more rows than its inputs hold to the
    operators above it, but on such inputs the row executor is no slower
    (E2's 1k/2k cells, ``five-lang-cold``).  A name ``db`` does not hold (a
    fixpoint's working predicate) is not an input.  Read at each execution,
    never kept on the plan: a write can move a relation across the gate
    while its cached template stays."""
    gate = kernels.KERNEL_MIN_ROWS
    return all(len(db.relation(name)) < gate
               for name in plan.base_relations if name in db)


class VectorizedBackend:
    """:class:`ExecutorBackend` implementation running plans column-wise,
    or on the row executor when every input is under the kernel gate
    (:func:`runs_on_rows`).  The choice is made once, at the root: a
    subtree handed back as rows would lose its batches' column-store
    origin, and with it the kernel paths above it."""

    name = "vectorized"

    def execute(self, plan: Plan, db: Database,
                params: Sequence[Any] = ()) -> list[Row]:
        if runs_on_rows(plan, db):
            kernels.count_path("plan_rows")
            return Executor(db, params=params).rows(plan)
        kernels.count_path("plan_columnar")
        return VectorizedExecutor(db, params=params).batch(plan).rows()
