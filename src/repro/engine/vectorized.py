"""Columnar, batch-at-a-time plan execution (the ``"vectorized"`` backend).

Where the row executor (:func:`repro.engine.execute.compile_rows`) streams
Python row tuples through each operator, this backend moves whole columns:

* **scans** read the per-attribute arrays that
  :meth:`repro.data.relation.Relation.column_store` maintains — no per-query
  transposition and no row-tuple allocation — and reach a base relation by
  the access-path rule shared with the row executor: a scan or a window
  resolves once to ``(relation, keep)``
  (:func:`~repro.engine.execute.resolve_window`; an ``asof`` window is the
  leading ``keep`` rows of the same arrays, a ``delta`` window's log rows
  are transposed), and a ``col = const`` filter reads one bucket of its
  ``key_index`` capped at ``keep`` (:func:`~repro.engine.execute.scan_lookup`),
  a hash join's build that index (:func:`~repro.engine.execute.join_table`)
  or a whole relation's cached kernel structure;
* **filters** narrow a *selection vector*, conjunct by conjunct;
* **hash joins** emit selection vectors — output columns stay virtual
  ``(base array, index vector)`` pairs until something actually reads them
  (late materialization), so an n-way join composes one index vector per
  side instead of copying every column at every step.

Columnar means numpy.  The four hot operators — selection, hash-join
probe, DISTINCT, group-by — each offer their batch to the numpy kernel of
:mod:`repro.engine.kernels`, from that hook's crossover up
(:data:`~repro.engine.kernels.KERNEL_MIN_ROWS` rows, or
:data:`~repro.engine.kernels.CACHED_PROBE_MIN_ROWS` rows at stake for the
probe of a relation's cached build structure).  Where a kernel declines —
below its gate, a dtype the lowering cannot reproduce bit-for-bit, numpy
absent — the operator runs its one Python implementation, the row
executor's, in :mod:`repro.engine.execute`.  This module has no
comparison or probe loop of its own:

* a declined conjunct is the row test
  :func:`~repro.engine.execute.filter_predicate` over the still-selected
  rows, and its survivors stay a selection vector, so the batch keeps its
  column-store origin for the kernels above;
* a declined inner probe is :func:`~repro.engine.execute.join_rows` over
  rows (a build row is built when a probe key matches it), and group-by
  and DISTINCT (:func:`~repro.engine.execute.aggregate_rows`,
  ``dedupe_rows``), sort/limit, set operations other than bag union, and
  division (``sort_limit_rows``, ``setop_rows``, ``divide_rows``) run over
  materialized rows: each returns a batch of rows, whose key values a
  kernel probe above it lowers where it reads them, on either side;
* a semi/anti join takes the positions ``semi_anti_positions`` keeps as a
  selection vector, and a residual over a kernel probe's pairs is the
  same row test as a declined conjunct.

Sharing the code keeps the backends bag-equal
(``tests/test_vectorized.py``), and the ``one-operator`` lint rule keeps it
shared.  From the gate up selections are numpy index arrays all the way to
the final row build: a hash join's build side stays unbuilt
(:class:`~repro.engine.kernels.BuildSide`) until its probe has chosen the
kernel or the rows, and a row test's survivors are converted once, where
they are produced.

The backend runs a plan as its row program
(:func:`~repro.engine.execute.compile_rows`, :func:`runs_on_rows`) when the
kernels are off, or when every base relation it reads holds fewer than
:data:`~repro.engine.kernels.KERNEL_MIN_ROWS` rows: there the row executor
pays for no batches, selection vectors or copies, and measured, it is no
slower (E2's 1k/2k cells, ``five-lang-cold``), even where a cached probe or
a fanning-out join would have reached a kernel.  On the tutorial instance
that is every query.  The choice is made once per execution, at the root,
from the relations' live sizes, and counted (``plan_rows`` /
``plan_columnar`` in :func:`~repro.engine.cache.path_counts`).  Deciding
per subtree was measured and dropped: a small subtree handed back as a row
batch loses its column-store origin, and with it the cached encodings the
kernels above it read.

The backend satisfies the :class:`repro.engine.execute.ExecutorBackend`
protocol; select it with ``execute_plan(plan, db, backend="vectorized")`` or
``QueryVisualizationPipeline(backend="vectorized")``.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Callable, Sequence

from repro.data.database import Database
from repro.data.relation import Relation, dedupe_rows
from repro.expr import ast as e
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
    Row,
    Windows,
    aggregate_rows,
    compile_rows,
    compiled_expr,
    divide_rows,
    filter_predicate,
    fixpoint_rows,
    join_residual,
    join_rows,
    join_table,
    lookup_key,
    pair_residual,
    scan_lookup,
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
# The executor
# ---------------------------------------------------------------------------

class VectorizedExecutor:
    """Evaluates plans column-at-a-time, memoizing batches per plan value.

    ``counters`` (optional) receives the kernel layer's derived-structure
    cache hit/miss/eviction bumps and this executor's ``scan_lookup``
    count, letting each backend report its own traffic through
    ``execution_counts()``.  ``params`` are the values of the plan's slots
    (:mod:`repro.engine.bind`): each node is computed bound to them.
    """

    def __init__(self, db: Database,
                 counters: "dict[str, int] | None" = None,
                 params: Sequence[Any] = ()) -> None:
        self.db = db
        self.kernel_counters = counters
        self.params = tuple(params)
        self.windows = Windows(db, self.params)
        self._memo: dict[Plan, Batch] = {}

    def batch(self, plan: Plan) -> Batch:
        cached = self._memo.get(plan)
        if cached is None:
            cached = self._compute(plan)
            self._memo[plan] = cached
        return cached

    # -- operators -------------------------------------------------------

    def _compute(self, plan: Plan) -> Batch:
        if isinstance(plan, (ScanP, DeltaScanP)):
            # An asof window's batch is the relation's arrays cut to ``keep``:
            # refresh cost must not scale with the base table.
            relation, keep = self.windows.read(plan)
            return _store_batch(plan.columns, relation, keep)
        if isinstance(plan, FixpointP):
            return Batch.from_rows(plan.columns, fixpoint_rows(
                plan, self.db, self.params))
        plan = bind_node(plan, self.params)
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
        raise PlanError(f"cannot execute {type(plan).__name__}")

    def _filter(self, plan: FilterP) -> Batch:
        """Narrow the batch conjunct by conjunct, in the conjunction's order.

        A first ``col = const`` conjunct over a scan or an ``asof`` window
        is a lookup (:func:`~repro.engine.execute.scan_lookup`): the batch
        starts as that bucket's rows.  Each remaining conjunct is a numpy
        selection (:func:`~repro.engine.kernels.kernel_filter`) from the
        gate up, and where that declines the row test
        (:func:`~repro.engine.execute.filter_predicate`) over the
        still-selected rows.  Either way the result is a selection, so the
        batch keeps its column-store origin for the kernels above.  Keeping
        the original order means a conjunct that raises (type mismatch,
        division by zero) raises here exactly when the row backend would
        have reached it.
        """
        batch = self.batch(plan.input)
        key = lookup_key(plan)
        lookup = None if key is None else scan_lookup(
            self.windows.base(plan.input), key[0], key[1].value,
            self.kernel_counters)
        if lookup is None:
            conjuncts = e.conjuncts(plan.condition)
        else:
            _relation, positions = lookup
            conjuncts = key[2]
            batch = batch.take(kernels.index_array(positions))
        sel: "list[int] | Any | None" = None  # Any: a kernel's index array
        for conjunct in conjuncts:
            fast = None
            if batch.length >= kernels.KERNEL_MIN_ROWS:
                fast = kernels.kernel_filter(conjunct, batch,
                                             plan.operand_positions)
            sel = fast(batch, sel) if fast is not None else _passing(
                batch, sel, filter_predicate(plan, (conjunct,)))
        if sel is None:
            return batch
        return batch.take(kernels.index_array(sel))

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
        """A hash join: the numpy probe, else the row executor's
        (:func:`~repro.engine.execute.join_rows`) over the inputs' rows.

        The kernel's output stays a pair of selections, its residual a row
        test over the joined batch.  A semi/anti join keeps the positions
        :func:`~repro.engine.execute.semi_anti_positions` finds, and a
        cross product composes selections.
        """
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
        right = self.batch(plan.right)
        source = self.windows.base(plan.right)
        side = kernels.BuildSide(right, right_idx, not plan.null_matches)
        if plan.kind in ("semi", "anti"):
            table = join_table(source, right_idx, side.skip_nulls, side.table)
            residual = join_residual(plan)
            match = None if residual is None else pair_residual(
                residual, _RowsAt(left), _RowsAt(right))
            sel = semi_anti_positions(
                plan.kind, _iter_key_list(_key_columns(left, left_idx),
                                          left.length), table, match)
            return Batch(plan.columns, _take(left.vectors, sel), len(sel))

        pair = self._kernel_probe(plan, left, side, source)
        if pair is None:
            kernels.count_path("probe_loop")
            return Batch.from_rows(plan.columns, join_rows(
                plan, left.rows(), _RowsAt(right), source,
                join_residual(plan), side.table))
        kernels.count_path("probe_kernel")
        left_sel, right_sel = pair
        joined = Batch(plan.columns, _take(left.vectors, left_sel)
                       + _take(right.vectors, right_sel), len(left_sel))
        residual = join_residual(plan)
        if residual is None:
            return joined
        return joined.take(kernels.index_array(_passing(joined, None,
                                                        residual)))

    def _kernel_probe(self, plan: JoinP, left: Batch, side: kernels.BuildSide,
                      source: "tuple[Relation, int] | None"
                      ) -> "tuple[Any, Any] | None":
        """The numpy probe's ``(left_sel, right_sel)``, or ``None``.

        The build side is ``source``, as the shared access-path rule
        resolved it (:meth:`~repro.engine.execute.Windows.base`) for this
        probe and, if it declines, the row join: a whole base relation
        probes its cached structure
        (:class:`~repro.engine.kernels.RelationBuild`), an ``asof`` window
        declines (its table is the relation's capped ``key_index``), and
        any other batch lowers its own.  The kernel is offered the probe
        when the rows at stake
        (:meth:`~repro.engine.kernels.BuildSide.rows_at_stake`: read,
        emitted, indexed for this query alone) reach the build side's gate
        (:meth:`~repro.engine.kernels.BuildSide.min_rows`: lower for a
        relation's cached structure).
        """
        if source is not None and side.idx:
            relation, keep = source
            if keep != len(relation):
                return None
            side = kernels.RelationBuild(side.batch, side.idx,
                                         side.skip_nulls, relation)
        if side.rows_at_stake(left.length) < side.min_rows():
            return None
        return kernels.kernel_probe(left, plan.key_positions[0], side,
                                    plan.null_matches, self.kernel_counters)

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


class _RowsAt:
    """A batch's rows, each built when it is read: a declined probe or a
    semi/anti join's residual reads only the rows its keys match."""

    __slots__ = ("columns",)

    def __init__(self, batch: Batch) -> None:
        self.columns = [v.materialize() for v in batch.vectors]

    def __getitem__(self, i: int) -> Row:
        return tuple([column[i] for column in self.columns])


def _passing(batch: Batch, sel: "list[int] | Any | None",
             test: Callable[[Row], bool]) -> list[int]:
    """The positions of ``sel`` (``None``: every row; a kernel's index
    array) whose row of ``batch`` passes ``test``."""
    if sel is None:
        return list(compress(range(batch.length), map(test, batch.rows())))
    if type(sel) is not list:
        sel = sel.tolist()
    return list(compress(sel, map(test, batch.take(sel).rows())))


# ---------------------------------------------------------------------------
# The backend object
# ---------------------------------------------------------------------------

def runs_on_rows(plan: Plan, db: Database) -> bool:
    """Whether ``plan`` runs on the row executor: every base relation it
    reads holds fewer than :data:`~repro.engine.kernels.KERNEL_MIN_ROWS`
    rows, or the kernels are off
    (:func:`~repro.engine.kernels.kernels_enabled`), when every columnar
    operator would run its row implementation anyway.  The size rule is
    measured, not a proof that no kernel could engage: a cached probe takes
    its kernel from :data:`~repro.engine.kernels.CACHED_PROBE_MIN_ROWS`
    rows at stake, and a join that fans out can hand more rows than its
    inputs hold to the operators above it, but on such inputs the row
    executor is no slower (E2's 1k/2k cells, ``five-lang-cold``).  A name ``db`` does not hold (a
    fixpoint's working predicate) is not an input.  Read at each execution,
    never kept on the plan: a write can move a relation across the gate
    while its cached template stays."""
    gate = kernels.KERNEL_MIN_ROWS
    return all(len(db.relation(name)) < gate
               for name in plan.base_relations if name in db) \
        or not kernels.kernels_enabled()


class VectorizedBackend:
    """:class:`ExecutorBackend` implementation running plans column-wise,
    or as their row program when every input is under the kernel gate
    (:func:`runs_on_rows`).  The choice is made once, at the root: a
    subtree handed back as rows would lose its batches' column-store
    origin, and with it the kernel paths above it."""

    name = "vectorized"

    def execute(self, plan: Plan, db: Database,
                params: Sequence[Any] = ()) -> list[Row]:
        if runs_on_rows(plan, db):
            kernels.count_path("plan_rows")
            return compile_rows(plan)(db, params)
        kernels.count_path("plan_columnar")
        return VectorizedExecutor(db, params=params).batch(plan).rows()
