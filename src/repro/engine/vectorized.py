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
:mod:`repro.engine.kernels` where its rows at stake, priced on the live
batch at every call, reach the crossover
(:func:`~repro.engine.stats.reaches_kernels`).  Where a kernel declines,
the operator runs its one Python implementation, in
:mod:`repro.engine.execute` (the ``one-operator`` and ``one-compile`` lint
rules keep the code shared, and the backends bag-equal): a declined
conjunct or semi/anti join keeps a selection vector; a declined probe,
group-by, DISTINCT, sort/limit, set operation or division returns a batch
of rows, whose key values a kernel probe above it lowers where it reads
them.  A hash join's build side stays unbuilt
(:class:`~repro.engine.kernels.BuildSide`) until its probe has chosen the
kernel or the rows.

The backend reads the same price to pick the program at the root: a plan
no operator of which has the kernels' rows at stake (:func:`rows_at_stake`;
the tutorial instance, a view refresh probing kept indexes) runs as its
row program (``plan_rows`` / ``plan_columnar``).  Deciding per subtree was
measured and dropped: a subtree handed back as rows loses its
column-store origin, and with it the encodings the kernels above it read.

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
    lookup_key,
    operator_fns,
    pair_residual,
    project_fns,
    resolve_window,
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
from repro.engine.stats import (lookup_at_stake, probe_at_stake,
                                 reaches_kernels, relation_probe)


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
    """Compiles a plan's operators to batches: the numpy kernels where
    their rows at stake reach the crossover, the row implementations of
    :mod:`repro.engine.execute` below it or where they decline."""

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
        the conjunct bound to the call's values) from the crossover up, and
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
                if reaches_kernels(batch.length):
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
            if reaches_kernels(batch.length):
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
            if reaches_kernels(batch.length):
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
    """The numpy probe's ``(left_sel, right_sel)`` where its price
    (:func:`~repro.engine.stats.probe_at_stake`) reaches the crossover,
    else ``None``.  A whole base relation (``source``, as resolved) probes
    its cached structure (:class:`~repro.engine.kernels.RelationBuild`), an
    ``asof`` window declines to its capped ``key_index``."""
    fan_out, indexed = 1.0, float(side.batch.length)
    if source is not None and side.idx:
        relation, keep = source
        if keep != len(relation):
            return None
        side = kernels.RelationBuild(side.batch, side.idx, side.skip_nulls,
                                     relation)
        fan_out, indexed = relation_probe(relation, side.idx, side.skip_nulls)
    if not reaches_kernels(probe_at_stake(left.length, fan_out, indexed)):
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

def rows_at_stake(plan: Plan, db: Database,
                  params: Sequence[Any] = ()) -> float:
    """The most rows a filter, group-by, DISTINCT or keyed join
    (:func:`~repro.engine.stats.probe_at_stake`) of ``plan`` has at stake,
    priced from live sizes by a pricer compiled once and kept on the node."""
    pricer = plan.__dict__.get("_pricer")
    if pricer is None:
        pricer = _pricer(plan)
        object.__setattr__(plan, "_pricer", pricer)
    most = [0.0]
    pricer(db, params, most)
    return most[0]


def _pricer(node: Plan, watched: bool = False) -> Callable[..., float]:
    """``node``'s live rows; raises ``most[0]`` to each probe's price and,
    if ``watched`` (a filter's, group-by's or DISTINCT's input), to them.
    A filter an index lookup serves reads one bucket: its price, and its
    rows, are the bucket's (:func:`~repro.engine.stats.lookup_at_stake`)."""
    key = lookup_key(node) if isinstance(node, FilterP) \
        and _indexable(node.input) else None
    if key is not None:
        name, position = node.input.relation, key[0]  # type: ignore

        def lookup(db, params, most):
            rows = lookup_at_stake(db.relation(name), position)
            if rows > most[0]:
                most[0] = rows
            return rows
        return lookup
    if isinstance(node, (FilterP, AggregateP, DistinctP)):
        return _pricer(node.children()[0], True)  # its input rows, unchanged
    keyed = isinstance(node, JoinP) and bool(node.left_keys)
    kept = keyed and _indexable(node.right)  # type: ignore[union-attr]
    children = node.children()[:2 - kept]
    if isinstance(node, DeltaScanP) and node.mode == "delta":
        # The rows past the anchor: all but its as-of twin's.
        old = DeltaScanP(node.relation, node.columns, node.since, "asof")
        def price(db, params, most):
            relation, keep = resolve_window(db, old, params)
            return len(relation) - keep
    elif isinstance(node, FixpointP):
        def price(db, params, most):
            return sum(len(db.relation(name))
                       for name in node.base_relations if name in db)
    elif isinstance(node, (ScanP, DeltaScanP)):
        def price(db, params, most):
            return len(db.relation(node.relation))
    elif len(children) == 1 and not keyed:
        return _pricer(children[0], watched)  # a projection, sort, semi-join
    elif keyed and node.kind in ("inner", "cross"):  # type: ignore
        first = _pricer(children[0])
        build = None if kept else _pricer(children[1])
        key = (node.right.relation, node.key_positions[1],  # type: ignore
               not node.null_matches) if kept else ()

        def join(db, params, most):  # its price bounds its rows
            rows = first(db, params, most)
            fan_out, indexed = (1.0, build(db, params, most)) if build \
                else relation_probe(db.relation(key[0]), *key[1:])
            at_stake = probe_at_stake(rows, fan_out, indexed)
            if at_stake > most[0]:
                most[0] = at_stake
            return rows * fan_out
        return join
    else:
        inputs = [_pricer(child) for child in children]
        product = isinstance(node, JoinP) and node.kind in ("inner", "cross")
        union = isinstance(node, SetOpP) and node.op == "union"

        def price(db, params, most):
            counts = [fn(db, params, most) for fn in inputs]
            return counts[0] * counts[1] if product \
                else sum(counts) if union else counts[0]
    if not watched:
        return price
    def watch(db, params, most):
        rows = price(db, params, most)
        if rows > most[0]:
            most[0] = rows
        return rows
    return watch


class VectorizedBackend:
    """:class:`ExecutorBackend` running a plan column-wise, or as its row
    program where no operator's rows at stake (:func:`rows_at_stake`)
    reach the kernels or they are off; chosen once, at the root."""

    name = "vectorized"

    def execute(self, plan: Plan, db: Database,
                params: Sequence[Any] = ()) -> list[Row]:
        if not reaches_kernels(rows_at_stake(plan, db, params)) \
                or not kernels.kernels_enabled():
            kernels.count_path("plan_rows")
            return compile_rows(plan)(db, params)
        kernels.count_path("plan_columnar")
        return compile_batches(plan)(db, params).rows()
