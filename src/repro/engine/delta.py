"""Insert-delta plan rewriting and incremental view maintenance.

This module is the engine half of the materialized-view subsystem (the
service half — registry, locking, refresh policy — lives in
:mod:`repro.core.service`).  Given the optimized logical plan of a query, it
derives the machinery to keep a materialized answer current under appends:

* :func:`delta_terms` rewrites a *bag-maintainable* plan fragment (scans,
  filters, projections, inner/cross joins, bag unions) into its **insert
  delta**: one term per base-relation occurrence, following the classic
  telescoping identity ``Δ(L ⋈ R) = ΔL ⋈ R_new  ∪  L_old ⋈ ΔR`` with
  :class:`~repro.engine.plan.DeltaScanP` windows at the leaves.  Each term is
  re-run through the cost-based optimizer, whose statistics estimate delta
  windows tiny — so every term is seated at its delta occurrence and probes
  the existing hash indexes, the semi-join discipline of semi-naive
  evaluation.
* :func:`find_core` decomposes a view plan into a maintainable **core**
  (plain bag, ``DISTINCT`` over a bag, or aggregation over a bag) plus a
  stack of *finishing* operators re-applied to the (small) core output on
  refresh.
* The maintainer classes hold the per-view state: the materialized bag, the
  first-seen set of a distinct view, or per-group accumulators of an
  aggregate view.  :func:`build_maintainer` is the one dispatch; the
  sharded service runs it once per shard over the scatter subplan that
  :func:`repro.engine.sharded.shard_plan` compiles for the view's core.

Everything here is **insert-only**: deletions and updates are out of scope,
and non-monotone operators (anti/semi joins, ``EXCEPT``/``INTERSECT``,
division, sorting with ``LIMIT``) raise :class:`DeltaRewriteError`, which the
service layer answers by falling back to rebuild-on-refresh.  Datalog views
rebuild on refresh too: a program is not one plan, and resuming its
semi-naive fixpoint from the new frontier measured only 1.3–1.5x faster
than evaluating it again.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.expr import ast as e
from repro.engine.execute import (
    Executor,
    Row,
    build_result_relation,
    compiled_expr,
    get_backend,
)
from repro.engine.plan import (
    AggregateP,
    DeltaScanP,
    DistinctP,
    FilterP,
    JoinP,
    Plan,
    ProjectP,
    ScanP,
    SetOpP,
    SortLimitP,
)
from repro.engine.verify import maybe_verify

__all__ = [
    "AggregateMaintainer",
    "BagMaintainer",
    "DeltaRewriteError",
    "DistinctMaintainer",
    "ViewMaintainer",
    "anchor",
    "asof_plan",
    "base_relations",
    "build_maintainer",
    "delta_terms",
    "find_core",
    "finish_rows",
    "term_delta_relation",
]


class DeltaRewriteError(Exception):
    """The plan (or program) is outside the insert-delta-maintainable fragment."""


# ---------------------------------------------------------------------------
# Delta rewriting
# ---------------------------------------------------------------------------

def base_relations(plan: Plan) -> tuple[str, ...]:
    """Lower-cased base relations a plan reads, in first-occurrence order."""
    seen: dict[str, None] = {}
    for node in plan.walk():
        if isinstance(node, (ScanP, DeltaScanP)):
            seen.setdefault(node.relation.lower())
    return tuple(seen)


def asof_plan(plan: Plan) -> Plan:
    """The plan evaluated over every base relation's *old* state.

    Valid for the bag-maintainable fragment only: each operator there is
    computed leaf-wise, so substituting as-of windows at the leaves yields
    exactly the operator's old output.
    """
    if isinstance(plan, ScanP):
        return DeltaScanP(plan.relation, plan.columns, None, "asof")
    if isinstance(plan, FilterP):
        return FilterP(asof_plan(plan.input), plan.condition)
    if isinstance(plan, ProjectP):
        return ProjectP(asof_plan(plan.input), plan.exprs, plan.names)
    if isinstance(plan, JoinP) and plan.kind in ("inner", "cross"):
        return JoinP(asof_plan(plan.left), asof_plan(plan.right), plan.kind,
                     plan.left_keys, plan.right_keys, plan.residual,
                     plan.null_matches)
    if isinstance(plan, SetOpP) and plan.op == "union" and not plan.distinct:
        return SetOpP("union", asof_plan(plan.left), asof_plan(plan.right),
                      distinct=False)
    raise DeltaRewriteError(
        f"{type(plan).__name__} is not insert-delta maintainable"
    )


def _projection_positions(plan: Plan) -> list[int] | None:
    """Input positions of a pure column-pick projection, else ``None``."""
    from repro.engine.vectorized import _column_position

    if not isinstance(plan, ProjectP):
        return None
    positions = []
    for expr in plan.exprs:
        position = _column_position(expr, plan.input.columns)
        if position is None:
            return None
        positions.append(position)
    return positions


def hoist_projections(plan: Plan) -> Plan:
    """Bubble pure column-pick projections above joins and filters.

    The optimizer's join reordering restores column order with interior
    projections; those block the flattening (and hence the cost-based
    re-seating) of delta terms, leaving an as-of side evaluated as one big
    block join.  Hoisting is semantics-preserving — join keys, residuals and
    filter conditions are remapped positionally onto the projection's input —
    and turns the maintainable fragment into a pure join tree with a single
    projection stack on top, which delta terms then flatten through.  Any
    remapping ambiguity falls back to the unhoisted node (slower, correct).
    """
    from repro.engine.lower import _PositionCol
    from repro.engine.plan import PlanError, resolve_column

    if isinstance(plan, FilterP):
        child = hoist_projections(plan.input)
        positions = _projection_positions(child)
        if positions is None:
            return FilterP(child, plan.condition) if child is not plan.input \
                else plan
        inner = child.input
        try:
            condition = _remap_positional(plan.condition, child.columns,
                                          [inner.columns[p] for p in positions])
        except PlanError:
            return FilterP(child, plan.condition)
        assert isinstance(child, ProjectP)
        return ProjectP(FilterP(inner, condition), child.exprs, child.names)
    if isinstance(plan, ProjectP):
        child = hoist_projections(plan.input)
        outer = _projection_positions(
            ProjectP(child, plan.exprs, plan.names)
            if child is not plan.input else plan)
        inner_positions = _projection_positions(child)
        if outer is not None and inner_positions is not None:
            assert isinstance(child, ProjectP)
            composed = [inner_positions[p] for p in outer]
            return ProjectP(child.input,
                            tuple(_PositionCol(p) for p in composed),
                            plan.names)
        if child is not plan.input:
            return ProjectP(child, plan.exprs, plan.names)
        return plan
    if isinstance(plan, JoinP) and plan.kind in ("inner", "cross"):
        left = hoist_projections(plan.left)
        right = hoist_projections(plan.right)
        left_positions = _projection_positions(left)
        right_positions = _projection_positions(right)
        if left_positions is None and right_positions is None:
            if left is plan.left and right is plan.right:
                return plan
            return JoinP(left, right, plan.kind, plan.left_keys,
                         plan.right_keys, plan.residual, plan.null_matches)
        inner_left = left.input if left_positions is not None else left
        inner_right = right.input if right_positions is not None else right
        if left_positions is None:
            left_positions = list(range(len(left.columns)))
        if right_positions is None:
            right_positions = list(range(len(right.columns)))
        out_spellings = (
            [inner_left.columns[p] for p in left_positions]
            + [inner_right.columns[p] for p in right_positions])
        try:
            left_keys = tuple(
                inner_left.columns[left_positions[
                    resolve_column(left.columns, key)]]
                for key in plan.left_keys)
            right_keys = tuple(
                inner_right.columns[right_positions[
                    resolve_column(right.columns, key)]]
                for key in plan.right_keys)
            residual = None
            if plan.residual is not None:
                residual = _remap_positional(
                    plan.residual, plan.columns, out_spellings)
        except PlanError:
            return JoinP(left, right, plan.kind, plan.left_keys,
                         plan.right_keys, plan.residual, plan.null_matches)
        joined = JoinP(inner_left, inner_right, plan.kind, left_keys,
                       right_keys, residual, plan.null_matches)
        width = len(inner_left.columns)
        exprs = tuple(_PositionCol(p) for p in left_positions) \
            + tuple(_PositionCol(width + p) for p in right_positions)
        return ProjectP(joined, exprs, plan.columns)
    children = plan.children()
    if not children:
        return plan
    rebuilt = tuple(hoist_projections(child) for child in children)
    if all(new is old for new, old in zip(rebuilt, children)):
        return plan
    if isinstance(plan, (DistinctP, AggregateP, SortLimitP)):
        return replace(plan, input=rebuilt[0])
    if isinstance(plan, (JoinP, SetOpP)):
        return replace(plan, left=rebuilt[0], right=rebuilt[1])
    return plan


def _remap_positional(expr: e.Expr, from_cols: Sequence[str],
                      to_cols: Sequence[str]) -> e.Expr:
    """Rewrite every column ref by position from one layout to another."""
    from repro.engine.plan import resolve_column

    def remap(col: e.Col) -> e.Col:
        idx = resolve_column(tuple(from_cols), col.name, col.qualifier)
        spelling = to_cols[idx]
        qualifier, _, name = spelling.rpartition(".")
        return e.Col(name if qualifier else spelling, qualifier or None)

    return e.map_columns(expr, remap)


def delta_terms(plan: Plan) -> list[Plan]:
    """The insert delta of a bag-maintainable plan, as a list of terms.

    Each term contains exactly **one** ``delta``-window leaf (plus any number
    of full and as-of leaves); their bag union is exactly the rows the plan
    gains when the appends behind the delta windows are applied.  Keeping the
    terms separate (instead of one big union plan) lets the refresh prune
    terms whose delta relation saw no writes before executing anything.
    """
    if isinstance(plan, ScanP):
        return [DeltaScanP(plan.relation, plan.columns, None, "delta")]
    if isinstance(plan, FilterP):
        return [FilterP(term, plan.condition)
                for term in delta_terms(plan.input)]
    if isinstance(plan, ProjectP):
        return [ProjectP(term, plan.exprs, plan.names)
                for term in delta_terms(plan.input)]
    if isinstance(plan, JoinP) and plan.kind in ("inner", "cross"):
        old_left = None
        terms = [JoinP(term, plan.right, plan.kind, plan.left_keys,
                       plan.right_keys, plan.residual, plan.null_matches)
                 for term in delta_terms(plan.left)]
        for term in delta_terms(plan.right):
            if old_left is None:
                old_left = asof_plan(plan.left)
            terms.append(JoinP(old_left, term, plan.kind, plan.left_keys,
                               plan.right_keys, plan.residual,
                               plan.null_matches))
        return terms
    if isinstance(plan, SetOpP) and plan.op == "union" and not plan.distinct:
        return delta_terms(plan.left) + delta_terms(plan.right)
    raise DeltaRewriteError(
        f"{type(plan).__name__} is not insert-delta maintainable"
    )


def term_delta_relation(term: Plan) -> str:
    """The (lower-cased) relation behind a term's single delta window."""
    for node in term.walk():
        if isinstance(node, DeltaScanP) and node.mode == "delta":
            return node.relation.lower()
    raise DeltaRewriteError("term has no delta window")


def anchor(plan: Plan, anchors: Mapping[str, int]) -> Plan:
    """Substitute per-relation version anchors into a delta/as-of template.

    ``anchors`` maps lower-cased relation names to the
    :attr:`~repro.data.relation.Relation.version` the view last absorbed.
    """
    if isinstance(plan, DeltaScanP):
        since = anchors.get(plan.relation.lower())
        if since is None:
            raise DeltaRewriteError(
                f"no version anchor for relation {plan.relation!r}"
            )
        return replace(plan, since=since)
    children = plan.children()
    if not children:
        return plan
    rebuilt = tuple(anchor(child, anchors) for child in children)
    if all(new is old for new, old in zip(rebuilt, children)):
        return plan
    if isinstance(plan, (FilterP, ProjectP, DistinctP, AggregateP, SortLimitP)):
        return replace(plan, input=rebuilt[0])
    if isinstance(plan, (JoinP, SetOpP)):
        return replace(plan, left=rebuilt[0], right=rebuilt[1])
    raise DeltaRewriteError(f"cannot anchor {type(plan).__name__}")


# ---------------------------------------------------------------------------
# Core discovery
# ---------------------------------------------------------------------------

#: Operators that may sit *above* the maintainable core and are re-applied to
#: its (small) output on every refresh.  ``SortLimitP`` is excluded: ``LIMIT``
#: keeps a prefix of a bag whose order incremental maintenance does not
#: reproduce, so such views rebuild instead.
_FINISHING = (FilterP, ProjectP, DistinctP)


def _is_bag_maintainable(plan: Plan) -> bool:
    try:
        delta_terms(plan)
        return True
    except DeltaRewriteError:
        return False


def find_core(plan: Plan) -> tuple[Plan, str]:
    """Locate the maintainable core of a view plan.

    Returns ``(core_subplan, kind)`` with ``kind`` one of ``"bag"``,
    ``"distinct"``, ``"aggregate"``; raises :class:`DeltaRewriteError` when
    no maintainable core exists (the view must rebuild on refresh).
    """
    if _is_bag_maintainable(plan):
        return plan, "bag"
    if isinstance(plan, DistinctP) and _is_bag_maintainable(plan.input):
        return plan, "distinct"
    if isinstance(plan, AggregateP) and _is_bag_maintainable(plan.input):
        return plan, "aggregate"
    if isinstance(plan, _FINISHING):
        return find_core(plan.children()[0])
    raise DeltaRewriteError(
        f"no maintainable core under {type(plan).__name__}"
    )


def finish_rows(db: Database, plan: Plan, core: Plan,
                core_rows: list[Row]) -> list[Row]:
    """Apply the finishing operators above ``core`` to its maintained rows.

    Implemented by seeding a row executor's per-plan memo with the core's
    rows: every operator above the core then runs through the production
    row operators, so finishing semantics cannot drift from the executors'.
    """
    if plan is core or plan == core:
        return core_rows
    executor = Executor(db)
    executor._memo[core] = core_rows
    return executor.rows(plan)


# ---------------------------------------------------------------------------
# Delta source: shared execution plumbing for the maintainers
# ---------------------------------------------------------------------------

class _DeltaSource:
    """Optimized delta terms of one bag-maintainable plan.

    The terms are optimized once (cost-based reordering seats each at its
    tiny delta window); a refresh unions the terms whose delta relation
    actually changed and executes them as one plan, so the executor's
    per-plan memo shares as-of subplans across terms.
    """

    def __init__(self, plan: Plan, db: Database) -> None:
        from repro.engine.optimize import optimize

        self.plan = plan
        # Hoisting first lets every term flatten into one join tree, which
        # the cost-based reorder then seats at its tiny delta window.  Each
        # term is verified as produced (before the optimizer's own hooks
        # run) so a bad delta rewrite is reported under its own rule name.
        hoisted = hoist_projections(plan)
        self.terms = [(term_delta_relation(term),
                       optimize(maybe_verify(term, db, rule="delta_terms"),
                                db))
                      for term in delta_terms(hoisted)]

    def full_rows(self, db: Database, backend: str) -> list[Row]:
        return get_backend(backend).execute(self.plan, db)

    def delta_rows(self, db: Database, anchors: Mapping[str, int],
                   changed: set[str], backend: str) -> list[Row]:
        """Rows the plan gained since ``anchors``; empty if nothing changed."""
        active = [anchor(term, anchors)
                  for relation, term in self.terms if relation in changed]
        if not active:
            return []
        union = active[0]
        for term in active[1:]:
            union = SetOpP("union", union, term, distinct=False)
        # About to execute: every delta window must be anchored by now.
        maybe_verify(union, db, rule="anchor", require_anchored=True)
        return get_backend(backend).execute(union, db)


# ---------------------------------------------------------------------------
# Aggregate accumulators (insert-only, matching the executors' folds)
# ---------------------------------------------------------------------------

class _CountStarAcc:
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def update(self, value: Any) -> None:
        self.n += 1

    def final(self) -> Any:
        return self.n

    @staticmethod
    def empty() -> Any:
        return 0


class _CountAcc:
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def update(self, value: Any) -> None:
        if value is not None:
            self.n += 1

    def final(self) -> Any:
        return self.n

    @staticmethod
    def empty() -> Any:
        return 0


class _SumAcc:
    """SUM/AVG: a running total plus the non-NULL count."""

    __slots__ = ("total", "n", "average")

    def __init__(self, average: bool) -> None:
        self.total: Any = None
        self.n = 0
        self.average = average

    def update(self, value: Any) -> None:
        if value is None:
            return
        self.total = value if self.total is None else self.total + value
        self.n += 1

    def final(self) -> Any:
        if self.n == 0:
            return None
        return self.total / self.n if self.average else self.total

    @staticmethod
    def empty() -> Any:
        return None


class _MinMaxAcc:
    """MIN/MAX: monotone under inserts, so one running value suffices."""

    __slots__ = ("value", "pick")

    def __init__(self, pick: Callable[[Any, Any], Any]) -> None:
        self.value: Any = None
        self.pick = pick

    def update(self, value: Any) -> None:
        if value is None:
            return
        self.value = value if self.value is None else self.pick(self.value, value)

    def final(self) -> Any:
        return self.value

    @staticmethod
    def empty() -> Any:
        return None


class _DistinctAcc:
    """DISTINCT aggregates keep the ordered set of seen values."""

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: dict[Any, None] = {}

    def update(self, value: Any) -> None:
        if value is not None:
            self.values.setdefault(value)

    def final(self) -> Any:
        from repro.engine.vectorized import _fold

        return _fold(self.name, list(self.values))

    def empty(self) -> Any:
        return 0 if self.name == "count" else None


def _accumulator_spec(call: e.FuncCall, columns: tuple[str, ...]
                      ) -> tuple[Callable[[], Any], Callable[[Row], Any] | None]:
    """``(make_accumulator, value_fn)`` for one aggregate call.

    ``value_fn`` is ``None`` for ``COUNT(*)`` (which counts rows, not
    values).  Unknown aggregates raise :class:`DeltaRewriteError` so the view
    falls back to rebuild-on-refresh instead of silently diverging.
    """
    name = call.name
    if name == "count" and call.args and isinstance(call.args[0], e.Star):
        return _CountStarAcc, None
    if not call.args:
        raise DeltaRewriteError(f"aggregate {name.upper()} needs an argument")
    value_fn = compiled_expr(call.args[0], columns)
    if call.distinct:
        if name not in ("count", "sum", "avg", "min", "max"):
            raise DeltaRewriteError(f"unknown aggregate {name!r}")
        return (lambda: _DistinctAcc(name)), value_fn
    if name == "count":
        return _CountAcc, value_fn
    if name == "sum":
        return (lambda: _SumAcc(False)), value_fn
    if name == "avg":
        return (lambda: _SumAcc(True)), value_fn
    if name == "min":
        return (lambda: _MinMaxAcc(min)), value_fn
    if name == "max":
        return (lambda: _MinMaxAcc(max)), value_fn
    raise DeltaRewriteError(f"unknown aggregate {name!r}")


# ---------------------------------------------------------------------------
# Maintainers
# ---------------------------------------------------------------------------

class ViewMaintainer:
    """Base class: incremental state for one materialized view core.

    Lifecycle (all calls made under the service's write lock):

    * :meth:`initialize` — full computation, resetting any previous state
      (also the rebuild path);
    * :meth:`apply_delta` — absorb the appends past ``anchors`` for the
      relations in ``changed``; raises
      :class:`~repro.engine.plan.DeltaUnavailable` when a relation's bounded
      delta log no longer covers the window (the caller rebuilds);
    * :meth:`rows` — the core's current output rows.
    """

    kind = "abstract"

    def initialize(self, db: Database, backend: str) -> None:
        raise NotImplementedError

    def apply_delta(self, db: Database, anchors: Mapping[str, int],
                    changed: set[str], backend: str) -> None:
        raise NotImplementedError

    def rows(self) -> list[Row]:
        raise NotImplementedError


class BagMaintainer(ViewMaintainer):
    """A plain bag view: the materialized rows grow by the delta terms."""

    kind = "bag"

    def __init__(self, plan: Plan, db: Database) -> None:
        self.source = _DeltaSource(plan, db)
        self._rows: list[Row] = []

    def initialize(self, db: Database, backend: str) -> None:
        self._rows = list(self.source.full_rows(db, backend))

    def apply_delta(self, db: Database, anchors: Mapping[str, int],
                    changed: set[str], backend: str) -> None:
        self._rows.extend(self.source.delta_rows(db, anchors, changed, backend))

    def rows(self) -> list[Row]:
        return self._rows


class DistinctMaintainer(ViewMaintainer):
    """``DISTINCT`` over a bag: first-seen set semantics, insert-monotone."""

    kind = "distinct"

    def __init__(self, plan: DistinctP, db: Database) -> None:
        self.source = _DeltaSource(plan.input, db)
        self._seen: set[Row] = set()
        self._rows: list[Row] = []

    def initialize(self, db: Database, backend: str) -> None:
        self._seen = set()
        self._rows = []
        self._absorb(self.source.full_rows(db, backend))

    def apply_delta(self, db: Database, anchors: Mapping[str, int],
                    changed: set[str], backend: str) -> None:
        self._absorb(self.source.delta_rows(db, anchors, changed, backend))

    def _absorb(self, rows: Iterable[Row]) -> None:
        seen = self._seen
        out = self._rows
        for row in rows:
            if row not in seen:
                seen.add(row)
                out.append(row)

    def rows(self) -> list[Row]:
        return self._rows


class AggregateMaintainer(ViewMaintainer):
    """Grouped aggregation over a bag, maintained via per-group accumulators.

    Replicates the executors' aggregate semantics exactly: the output row is
    the group's first input row (the representative) followed by one value
    per aggregate, groups in first-arrival order, and the SQL ungrouped-empty
    special case (one all-NULL representative, ``COUNT`` = 0).
    """

    kind = "aggregate"

    def __init__(self, plan: AggregateP, db: Database) -> None:
        self.plan = plan
        self.source = _DeltaSource(plan.input, db)
        columns = plan.input.columns
        self._width = len(columns)
        self._key_fns = [compiled_expr(x, columns) for x in plan.group_exprs]
        self._specs = [_accumulator_spec(call, columns)
                       for call, _name in plan.aggregates]
        # key -> (representative row, [accumulator per aggregate])
        self._groups: dict[tuple, tuple[Row, list[Any]]] = {}

    def initialize(self, db: Database, backend: str) -> None:
        self._groups = {}
        self._absorb(self.source.full_rows(db, backend))

    def apply_delta(self, db: Database, anchors: Mapping[str, int],
                    changed: set[str], backend: str) -> None:
        self._absorb(self.source.delta_rows(db, anchors, changed, backend))

    def _absorb(self, rows: Iterable[Row]) -> None:
        groups = self._groups
        key_fns = self._key_fns
        specs = self._specs
        for row in rows:
            key = tuple(fn(row) for fn in key_fns)
            entry = groups.get(key)
            if entry is None:
                entry = (row, [make() for make, _value in specs])
                groups[key] = entry
            for (_make, value_fn), acc in zip(specs, entry[1]):
                acc.update(row if value_fn is None else value_fn(row))

    def rows(self) -> list[Row]:
        if not self._key_fns and not self._groups:
            # SQL's ungrouped aggregate over empty input: one all-NULL
            # representative row with each aggregate's empty fold.
            empties = tuple(make().empty() for make, _value in self._specs)
            return [(None,) * self._width + empties]
        return [representative + tuple(acc.final() for acc in accs)
                for representative, accs in self._groups.values()]


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def build_maintainer(plan: Plan, db: Database) -> tuple[ViewMaintainer, Plan]:
    """``(maintainer, core_subplan)`` for an engine plan, or raise.

    The caller combines the maintained core rows with :func:`finish_rows`
    (for the operators above the core) and packages the output with
    :func:`~repro.engine.execute.build_result_relation` so a view's answers
    are indistinguishable from a from-scratch execution.
    """
    core, kind = find_core(plan)
    if kind == "bag":
        return BagMaintainer(core, db), core
    if kind == "distinct":
        assert isinstance(core, DistinctP)
        return DistinctMaintainer(core, db), core
    assert isinstance(core, AggregateP)
    return AggregateMaintainer(core, db), core


def view_result_relation(plan: Plan, rows: Sequence[Row]) -> Relation:
    """Package maintained rows exactly like :func:`execute_plan` would."""
    return build_result_relation(plan.columns, list(rows))
