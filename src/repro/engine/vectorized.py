"""Columnar, batch-at-a-time plan execution (the ``"vectorized"`` backend).

The columnar executor is the engine's one compiler
(:class:`repro.engine.execute._Compiler`) with another target: where a row
program (:func:`~repro.engine.execute.compile_rows`) streams Python row
tuples through each operator, the program :func:`compile_batches` makes
moves whole columns.  It is compiled once per plan, kept on the node, and
shares all but the operators with the row program: the window slots (an
``asof`` window is the leading ``keep`` rows of the same arrays, a
``delta`` window's log rows are transposed), the result slots of shared
subplans, the ``given`` node, each filter's lookup candidate and conjunct
row tests, and binding a node per call only where its own fields hold a
slot.

* **scans** read the per-attribute arrays that
  :meth:`repro.data.relation.Relation.column_store` maintains — no
  per-query transposition and no row-tuple allocation — and a
  ``col = const`` filter reads one bucket of the relation's ``key_index``
  (:func:`~repro.engine.execute.scan_lookup`), a hash join's build that
  index (:func:`~repro.engine.execute.join_table`) or a whole relation's
  cached kernel structure;
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
probe of a relation's cached build structure), gated on the live batch at
every call.  Where a kernel declines — below its gate, a dtype the
lowering cannot reproduce bit-for-bit, numpy absent — the operator runs
its one Python implementation, in :mod:`repro.engine.execute`; this
module has no comparison or probe loop of its own:

* a declined conjunct is its row test
  (:func:`~repro.engine.execute._row_test`) over the still-selected rows,
  and its survivors stay a selection vector, so the batch keeps its
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
(``tests/test_vectorized.py``); the ``one-operator`` and ``one-compile``
lint rules keep it shared.  From the gate up selections are numpy index
arrays all the way to the final row build: a hash join's build side stays
unbuilt (:class:`~repro.engine.kernels.BuildSide`) until its probe has
chosen the kernel or the rows, and a row test's survivors are converted
once, where they are produced.

The backend runs a plan as its row program (:func:`runs_on_rows`) when the
kernels are off, or when every base relation it reads holds fewer than
:data:`~repro.engine.kernels.KERNEL_MIN_ROWS` rows: there the row program
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
from typing import Any, Callable

from repro.data.database import Database
from repro.data.relation import Relation, dedupe_rows
from repro.expr import ast as e
from repro.engine import kernels
from repro.engine.bind import expr_binder
from repro.engine.batch import (
    Batch,
    Vector,
    _exact,
    _iter_key_list,
    _key_columns,
    _take,
)
from repro.engine.execute import (
    Program,
    Row,
    RowsFn,
    _Call,
    _Compiler,
    _indexable,
    _row_test,
    aggregate_rows,
    compile_rows,
    divide_rows,
    fixpoint_program,
    fixpoint_rows,
    join_residual,
    join_rows,
    join_table,
    operator_fns,
    pair_residual,
    project_fns,
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
# The compiler
# ---------------------------------------------------------------------------

def compile_batches(plan: Plan, given: "Plan | None" = None) -> Program:
    """``plan`` as a columnar program
    (:meth:`~repro.engine.execute._Compiler.program`): its call returns the
    plan's :class:`Batch`, and its ``sink`` receives the kernel layer's
    derived-structure cache hit/miss/eviction bumps and the
    ``scan_lookup`` count, so each backend reports its own traffic."""
    return _BatchCompiler.program(plan, given)


class _BatchCompiler(_Compiler):
    """Compiles a plan's operators to batches: the numpy kernels from their
    gates up, the row implementations of :mod:`repro.engine.execute`
    below them or where they decline."""

    def _given(self, given: Plan) -> RowsFn:
        return lambda call: Batch.from_rows(given.columns, call.given)

    def _operator(self, plan: Plan) -> RowsFn:
        columns = plan.columns
        if isinstance(plan, (ScanP, DeltaScanP)):
            read = self.window(plan)

            def scan(call: _Call) -> Batch:
                # An asof window's batch is the relation's arrays cut to
                # ``keep``: refresh cost must not scale with the base table.
                relation, keep = read(call)
                return _store_batch(columns, relation, keep)
            return scan
        if isinstance(plan, FixpointP):
            fixpoint_program(plan)  # compile errors surface here
            return lambda call: Batch.from_rows(columns, fixpoint_rows(
                plan, call.db, call.params))
        if isinstance(plan, FilterP):
            return self._filter(plan)
        if isinstance(plan, ProjectP):
            return self._project(plan)
        if isinstance(plan, DistinctP):
            return self._distinct(plan)
        if isinstance(plan, JoinP):
            return self._join(plan)
        if isinstance(plan, SetOpP) and plan.op == "union" \
                and not plan.distinct:
            return self._union_all(plan)
        if isinstance(plan, AggregateP):
            return self._aggregate(plan)
        if isinstance(plan, (SetOpP, DivideP)):
            left, right = self.node(plan.left), self.node(plan.right)
            apply = setop_rows if isinstance(plan, SetOpP) else divide_rows
            return lambda call: Batch.from_rows(columns, apply(
                plan, left(call).rows(), right(call).rows()))
        if isinstance(plan, SortLimitP):
            rows = self.node(plan.input)
            prepared = self._per_call(plan, operator_fns)

            def sort(call: _Call) -> Batch:
                batch = rows(call)
                node, fns = prepared(call)
                return Batch.from_rows(columns, sort_limit_rows(
                    node, batch.rows(), fns))
            return sort
        raise PlanError(f"cannot execute {type(plan).__name__}")

    def _filter(self, plan: FilterP) -> RowsFn:
        """Narrow the batch conjunct by conjunct, in the conjunction's order.

        A lookup candidate an index serves (:meth:`_lookup`) starts the
        batch as that bucket's rows.  Each remaining conjunct is a numpy
        selection (:func:`~repro.engine.kernels.kernel_filter`, offered
        the conjunct bound to the call's values) from the gate up, and
        where that declines its row test over the still-selected rows.
        Either way the result is a selection, so the batch keeps its
        column-store origin for the kernels above.  Keeping the original
        order means a conjunct that raises (type mismatch, division by
        zero) raises here exactly when the row program would have reached
        it.
        """
        rows = self.node(plan.input)
        positions = plan.operand_positions
        steps = [(c, expr_binder(c), _row_test(plan, (c,)))
                 for c in e.conjuncts(plan.condition)]
        lookup = self._lookup(plan)

        def select(call: _Call) -> Batch:
            batch = rows(call)
            found = None if lookup is None else lookup(call)
            todo = steps
            if found is not None:
                batch = batch.take(kernels.index_array(found[1]))
                todo = steps[1:]
            sel: "list[int] | Any | None" = None  # Any: a kernel's index array
            for conjunct, bind, test in todo:
                fast = None
                if batch.length >= kernels.KERNEL_MIN_ROWS:
                    fast = kernels.kernel_filter(
                        conjunct if bind is None else bind(call.params),
                        batch, positions)
                sel = fast(batch, sel) if fast is not None else _passing(
                    batch, sel, test(call.params))  # type: ignore[misc]
            if sel is None:
                return batch
            return batch.take(kernels.index_array(sel))

        return select

    def _project(self, plan: ProjectP) -> RowsFn:
        """Picked columns pass through as vectors; a computed one is its
        expression over the batch's rows."""
        rows = self.node(plan.input)
        picks = plan.pick_positions
        fns = self._per_call(plan, project_fns)

        def project(call: _Call) -> Batch:
            batch = rows(call)
            vectors: list[Vector] = []
            values: "list[Row] | None" = None
            for fn, pos in zip(fns(call), picks):
                if pos is not None:
                    vectors.append(batch.vectors[pos])
                    continue
                if values is None:
                    values = batch.rows()
                vectors.append(Vector([fn(row) for row in values]))
            return Batch(plan.names, vectors, batch.length)

        return project

    def _distinct(self, plan: DistinctP) -> RowsFn:
        rows = self.node(plan.input)

        def distinct(call: _Call) -> Batch:
            batch = rows(call)
            if batch.length >= kernels.KERNEL_MIN_ROWS:
                positions = kernels.kernel_distinct(batch)
                if positions is not None:
                    return batch.take(positions)
            return Batch.from_rows(plan.columns, dedupe_rows(batch.rows()))

        return distinct

    def _join(self, plan: JoinP) -> RowsFn:
        """A hash join: the numpy probe, else the row executor's
        (:func:`~repro.engine.execute.join_rows`) over the inputs' rows.

        The kernel's output stays a pair of selections, its residual a row
        test over the joined batch.  A semi/anti join keeps the positions
        :func:`~repro.engine.execute.semi_anti_positions` finds, and a
        cross product composes selections.
        """
        left, right = self.node(plan.left), self.node(plan.right)
        columns = plan.columns
        if plan.kind in ("inner", "cross") and not plan.left_keys \
                and plan.residual is None:
            def product(call: _Call) -> Batch:
                lb, rb = left(call), right(call)
                nl, nr = lb.length, rb.length
                left_sel = [i for i in range(nl) for _ in range(nr)] \
                    if nr else []
                right_sel = list(range(nr)) * nl
                return Batch(columns, _take(lb.vectors, left_sel)
                             + _take(rb.vectors, right_sel), nl * nr)
            return product
        left_idx, right_idx = plan.key_positions
        skip_nulls = not plan.null_matches
        window = self.window(plan.right) if _indexable(plan.right) else None
        residual = self._per_call(plan, join_residual)

        def join(call: _Call) -> Batch:
            lb, rb = left(call), right(call)
            source = None if window is None else window(call)
            side = kernels.BuildSide(rb, right_idx, skip_nulls)
            test = residual(call)
            if plan.kind in ("semi", "anti"):
                table = join_table(source, right_idx, skip_nulls, side.table)
                match = None if test is None else pair_residual(
                    test, _RowsAt(lb), _RowsAt(rb))
                sel = semi_anti_positions(
                    plan.kind, _iter_key_list(_key_columns(lb, left_idx),
                                              lb.length), table, match)
                return Batch(columns, _take(lb.vectors, sel), len(sel))
            pair = _kernel_probe(plan, lb, side, source, call.sink)
            if pair is None:
                kernels.count_path("probe_loop")
                return Batch.from_rows(columns, join_rows(
                    plan, lb.rows(), _RowsAt(rb), source, test, side.table))
            kernels.count_path("probe_kernel")
            left_sel, right_sel = pair
            joined = Batch(columns, _take(lb.vectors, left_sel)
                           + _take(rb.vectors, right_sel), len(left_sel))
            if test is None:
                return joined
            return joined.take(kernels.index_array(_passing(joined, None,
                                                            test)))

        return join

    def _union_all(self, plan: SetOpP) -> RowsFn:
        """Bag union: pure columnar concatenation — but each side must be
        cut to its *logical* length first: a length-limited batch (an as-of
        window) shares the relation's full arrays, and concatenating those
        raw would splice out-of-window rows in."""
        left, right = self.node(plan.left), self.node(plan.right)

        def union_all(call: _Call) -> Batch:
            lb, rb = left(call), right(call)
            if not rb.length:
                return lb
            if not lb.length:
                return Batch(plan.columns, rb.vectors, rb.length)
            vectors = [Vector(_exact(l, lb.length) + _exact(r, rb.length))
                       for l, r in zip(lb.vectors, rb.vectors)]
            return Batch(plan.columns, vectors, lb.length + rb.length)

        return union_all

    def _aggregate(self, plan: AggregateP) -> RowsFn:
        rows = self.node(plan.input)
        prepared = self._per_call(plan, operator_fns)

        def aggregate(call: _Call) -> Batch:
            batch = rows(call)
            node, fns = prepared(call)
            if batch.length >= kernels.KERNEL_MIN_ROWS:
                lowered = kernels.kernel_aggregate(node, batch)
                if lowered is not None:
                    return lowered
            return Batch.from_rows(plan.columns, aggregate_rows(
                node, batch.rows(), fns))

        return aggregate


def _kernel_probe(plan: JoinP, left: Batch, side: kernels.BuildSide,
                  source: "tuple[Relation, int] | None",
                  sink: "dict[str, int] | None"
                  ) -> "tuple[Any, Any] | None":
    """The numpy probe's ``(left_sel, right_sel)``, or ``None``.

    The build side is ``source``, the right input's window as the shared
    access-path rule resolved it for this probe and, if it declines, the
    row join: a whole base relation probes its cached structure
    (:class:`~repro.engine.kernels.RelationBuild`), an ``asof`` window
    declines (its table is the relation's capped ``key_index``), and any
    other batch lowers its own.  The kernel is offered the probe when the
    rows at stake (:meth:`~repro.engine.kernels.BuildSide.rows_at_stake`:
    read, emitted, indexed for this query alone) reach the build side's
    gate (:meth:`~repro.engine.kernels.BuildSide.min_rows`: lower for a
    relation's cached structure).
    """
    if source is not None and side.idx:
        relation, keep = source
        if keep != len(relation):
            return None
        side = kernels.RelationBuild(side.batch, side.idx, side.skip_nulls,
                                     relation)
    if side.rows_at_stake(left.length) < side.min_rows():
        return None
    return kernels.kernel_probe(left, plan.key_positions[0], side,
                                plan.null_matches, sink)


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
        return compile_batches(plan)(db, params).rows()
