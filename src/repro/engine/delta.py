"""Insert-delta plan rewriting and incremental view maintenance.

This module is the engine half of the materialized-view subsystem (the
service half — registry, locking, refresh policy — lives in
:mod:`repro.core.service`).  Given the optimized logical plan of a query, it
derives the machinery to keep a materialized answer current under appends:

* :func:`delta_terms` rewrites a *bag-maintainable* plan fragment (scans,
  filters, projections, inner/cross joins, bag unions) into its **insert
  delta**: one term per base-relation occurrence, following the classic
  telescoping identity ``Δ(L ⋈ R) = ΔL ⋈ R_new  ∪  L_old ⋈ ΔR`` with
  :class:`~repro.engine.plan.DeltaScanP` windows at the leaves, each
  anchored at a slot its relation's version fills on every refresh
  (:mod:`repro.engine.bind`).  The terms are planned once, by the
  cost-based optimizer alone, whose statistics estimate delta windows tiny
  — so every term is seated at its delta occurrence and probes the
  existing hash indexes, the semi-join discipline of semi-naive
  evaluation.
* :func:`find_core` decomposes a view plan into a maintainable **core**
  (plain bag, ``DISTINCT`` over a bag, or aggregation over a bag) plus a
  stack of *finishing* operators re-applied to the (small) core output on
  refresh.
* The maintainer classes hold the per-view state over one execution
  database: the materialized bag, the first-seen set of a distinct view,
  or the per-group partial states of an aggregate view, plus the version
  of each relation read as of the last absorbed write.  An aggregate's
  states are those of the sharded partial→final combiner
  (:func:`repro.engine.sharded.split_aggregate`): each delta is folded in
  as one more part, so the aggregate merge has one home.
  :func:`build_maintainer` is the one dispatch; a view runs it once per
  part of its service's recipe — once over the database on the plain
  service, once per shard over the scatter subplan that
  :func:`repro.engine.sharded.shard_plan` compiles for the view's core on
  the sharded one.

Everything here is **insert-only**: deletions and updates are out of scope,
and non-monotone operators (anti/semi joins, ``EXCEPT``/``INTERSECT``,
division, sorting with ``LIMIT``) raise :class:`DeltaRewriteError`, which the
service layer answers by falling back to rebuild-on-refresh.  So do
``DISTINCT`` aggregates, which have no partial→final combine rule.
A Datalog program is one plan, maintained like its calculus spelling,
except for a recursive stratum: its :class:`~repro.engine.plan.FixpointP`
is not maintainable, and resuming its semi-naive fixpoint from the new
frontier measured only 1.3–1.5x faster than evaluating it again.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.data.database import Database
from repro.expr import ast as e
from repro.engine.execute import (
    Row,
    _indexable,
    compile_expr,
    compile_rows,
    get_backend,
    join_table,
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
)
from repro.engine.bind import bind_plan
from repro.engine.sharded import split_aggregate
from repro.engine.verify import maybe_verify, verification_enabled

__all__ = [
    "AggregateMaintainer",
    "BagMaintainer",
    "DeltaRewriteError",
    "DistinctMaintainer",
    "ViewMaintainer",
    "asof_plan",
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

def _window(scan: ScanP, mode: str, slots: tuple[str, ...]) -> DeltaScanP:
    """A window of ``scan``'s relation anchored at the slot numbered by its
    position in ``slots``."""
    return DeltaScanP(scan.relation, scan.columns,
                      e.Const(None, slots.index(scan.relation.lower())), mode)


def asof_plan(plan: Plan) -> Plan:
    """The plan evaluated over every base relation's *old* state.

    Valid for the bag-maintainable fragment only: each operator there is
    computed leaf-wise, so substituting as-of windows at the leaves yields
    exactly the operator's old output.  Each window's anchor is the slot of
    its relation in :attr:`Plan.base_relations` order.
    """
    return _asof(plan, plan.base_relations)


def _bag_operator(plan: Plan) -> bool:
    """True for the operators an insert delta distributes over: a filter, a
    projection, an inner or cross join and a bag union (the scan aside)."""
    if isinstance(plan, JoinP):
        return plan.kind in ("inner", "cross")
    if isinstance(plan, SetOpP):
        return plan.op == "union" and not plan.distinct
    return isinstance(plan, (FilterP, ProjectP))


def _not_maintainable(plan: Plan) -> DeltaRewriteError:
    return DeltaRewriteError(f"{type(plan).__name__} is not insert-delta maintainable")


def _asof(plan: Plan, slots: tuple[str, ...]) -> Plan:
    if isinstance(plan, ScanP):
        return _window(plan, "asof", slots)
    if not _bag_operator(plan):
        raise _not_maintainable(plan)
    return plan.with_children([_asof(child, slots) for child in plan.children()])


def delta_terms(plan: Plan) -> list[Plan]:
    """The insert delta of a bag-maintainable plan, as a list of terms.

    Each term contains exactly **one** ``delta``-window leaf (plus any number
    of full and as-of leaves); their bag union is exactly the rows the plan
    gains when the appends behind the delta windows are applied.  Keeping the
    terms separate (instead of one big union plan) lets the refresh prune
    terms whose delta relation saw no writes before executing anything.
    A term is executed with its relations' version anchors as ``params``,
    in :attr:`Plan.base_relations` order: its windows' slots.
    """
    return _delta(plan, plan.base_relations)


def _delta(plan: Plan, slots: tuple[str, ...]) -> list[Plan]:
    if isinstance(plan, ScanP):
        return [_window(plan, "delta", slots)]
    if not _bag_operator(plan):
        raise _not_maintainable(plan)
    if isinstance(plan, SetOpP):  # linear: each side's new rows
        return _delta(plan.left, slots) + _delta(plan.right, slots)
    # Linear in each input: one input's new rows meet the old state of the
    # inputs before it and the full state of those after it.
    children = plan.children()
    terms: list[Plan] = []
    for i, child in enumerate(children):
        old = [_asof(before, slots) for before in children[:i]]
        terms.extend(plan.with_children([*old, term, *children[i + 1:]])
                     for term in _delta(child, slots))
    return terms


def term_delta_relation(term: Plan) -> str:
    """The (lower-cased) relation behind a term's single delta window."""
    for node in term.walk():
        if isinstance(node, DeltaScanP) and node.mode == "delta":
            return node.relation.lower()
    raise DeltaRewriteError("term has no delta window")


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

    ``plan``'s row program, compiled to take ``core`` as an input
    (:func:`~repro.engine.execute.compile_rows`), is handed the core's
    rows: every operator above the core then runs through the production
    row operators, so finishing semantics cannot drift from the executors'.
    """
    if plan is core or plan == core:
        return core_rows
    return compile_rows(plan, core)(db, given=core_rows)


# ---------------------------------------------------------------------------
# Delta source: shared execution plumbing for the maintainers
# ---------------------------------------------------------------------------

class _DeltaSource:
    """Optimized delta terms of one bag-maintainable plan.

    The optimizer alone plans each term, once, starting it at its delta
    window, estimated tiny: E4's ``asof(Sailors) ⋈ Δ(Reserves)`` probes
    ``Sailors`` with the written rows, through a key index built with the
    full result (``probed``) and maintained write by write, so a refresh
    is priced at the rows written.  A refresh unions the terms whose delta
    relation actually changed and executes them as one plan, its windows
    bound to the view's anchors, so its program is compiled from the
    terms' own nodes, once, and shares as-of subplans across terms.
    """

    def __init__(self, plan: Plan, db: Database) -> None:
        from repro.engine.optimize import optimize

        self.plan = plan
        self.relations = plan.base_relations
        # Each term is verified as produced (before the optimizer's own
        # hooks run) so a bad delta rewrite is reported under its own rule.
        self.terms = [(term_delta_relation(term),
                       optimize(maybe_verify(term, db, rule="delta_terms"),
                                db))
                      for term in delta_terms(plan)]
        #: The union each set of changed relations executes, built once, so
        #: a refresh runs a plan whose row program it compiled before.
        self._unions: dict[tuple[str, ...], Plan] = {}
        #: ``(relation, key, skip_nulls)`` of each kept build a delta probes.
        self.probed = {(node.right.relation, node.key_positions[1],
                        not node.null_matches)
                       for _relation, term in self.terms
                       for node in term.walk()
                       if isinstance(node, JoinP) and node.left_keys
                       and _indexable(node.right)
                       and any(isinstance(leaf, DeltaScanP)
                               and leaf.mode == "delta"
                               for leaf in node.left.walk())}

    def full_rows(self, db: Database, backend: str) -> list[Row]:
        for name, positions, skip_nulls in self.probed:
            relation = db.relation(name)   # each probe's build, built ahead
            join_table((relation, len(relation)), positions, skip_nulls, dict)
        return get_backend(backend).execute(self.plan, db)

    def delta_rows(self, db: Database, anchors: Mapping[str, int],
                   changed: set[str], backend: str) -> list[Row]:
        """Rows the plan gained since ``anchors``; empty if nothing changed."""
        active = [(relation, term) for relation, term in self.terms
                  if relation in changed]
        if not active:
            return []
        key = tuple(relation for relation, _term in active)
        union = self._unions.get(key)
        if union is None:
            union = active[0][1]
            for _relation, term in active[1:]:
                union = SetOpP("union", union, term, distinct=False)
            self._unions[key] = union
        params = tuple(anchors[relation] for relation in self.relations)
        if verification_enabled():
            # The windows the anchors bind are certified like a literal bind.
            maybe_verify(bind_plan(union, params), db, rule="anchor")
        return get_backend(backend).execute(union, db, params)


# ---------------------------------------------------------------------------
# Maintainers
# ---------------------------------------------------------------------------

class ViewMaintainer:
    """Base class: incremental state for one materialized view core over
    one execution database.

    Lifecycle (all calls made under the service's write lock):

    * :meth:`initialize` — full computation over a database, resetting any
      previous state (also the rebuild path), and anchoring every relation
      the core reads at its current version;
    * :meth:`catch_up` — absorb the appends past the anchors, for the
      relations that moved; raises
      :class:`~repro.engine.plan.DeltaUnavailable` when a relation's bounded
      delta log no longer covers the window (the caller re-initializes);
    * :meth:`rows` — the core's current output rows.
    """

    kind = "abstract"

    def __init__(self, plan: Plan, db: Database) -> None:
        self.source = _DeltaSource(plan, db)
        self.db = db
        #: relation -> the version this state has absorbed up to
        self.anchors = dict.fromkeys(plan.base_relations, -1)

    def initialize(self, db: Database, backend: str) -> None:
        self.db = db
        self._reset()
        self._absorb(self.source.full_rows(db, backend))
        self.anchors = {rel: db.relation_version(rel) for rel in self.anchors}

    def catch_up(self, backend: str) -> bool:
        """Absorb the writes past the anchors; ``False`` if there were none."""
        db = self.db
        changed = {rel for rel, seen in self.anchors.items()
                   if db.relation_version(rel) > seen}
        if not changed:
            return False
        self._absorb(self.source.delta_rows(db, self.anchors, changed,
                                            backend))
        for rel in changed:
            self.anchors[rel] = db.relation_version(rel)
        return True

    def _reset(self) -> None:
        raise NotImplementedError

    def _absorb(self, rows: Iterable[Row]) -> None:
        raise NotImplementedError

    def rows(self) -> list[Row]:
        raise NotImplementedError


class BagMaintainer(ViewMaintainer):
    """A plain bag view: the materialized rows grow by the delta terms."""

    kind = "bag"

    def _reset(self) -> None:
        self._rows: list[Row] = []

    def _absorb(self, rows: Iterable[Row]) -> None:
        self._rows.extend(rows)

    def rows(self) -> list[Row]:
        return self._rows


class DistinctMaintainer(BagMaintainer):
    """``DISTINCT`` over a bag: first-seen set semantics, insert-monotone."""

    kind = "distinct"

    def __init__(self, plan: DistinctP, db: Database) -> None:
        super().__init__(plan.input, db)

    def _reset(self) -> None:
        super()._reset()
        self._seen: set[Row] = set()

    def _absorb(self, rows: Iterable[Row]) -> None:
        seen = self._seen
        out = self._rows
        for row in rows:
            if row not in seen:
                seen.add(row)
                out.append(row)


class AggregateMaintainer(ViewMaintainer):
    """Grouped aggregation over a bag, maintained as per-group partial states.

    The states are those of :func:`~repro.engine.sharded.split_aggregate`'s
    partial→final combiner.  The initial computation is one part, computed
    as a shard computes its own: the partial plan over the input.  Every
    delta is lifted row by row to one-row partial states (``COUNT(*)`` → 1,
    ``COUNT(x)`` → 0 or 1, ``SUM``/``MIN``/``MAX(x)`` → ``x``, AVG → that
    SUM and COUNT, the presence counter → 1) and folded in as one more
    part.  The rows are the executors': each group's first input row (the
    representative) followed by one value per aggregate, groups in
    first-arrival order, and the SQL ungrouped-empty case (one all-NULL
    representative, ``COUNT`` = 0).  ``DISTINCT`` aggregates have no
    partial→final rule and raise :class:`DeltaRewriteError`: such a view
    rebuilds on refresh.
    """

    kind = "aggregate"

    def __init__(self, plan: AggregateP, db: Database) -> None:
        split = split_aggregate(plan)
        if split is None:
            raise DeltaRewriteError(
                "aggregate has no partial→final combine rule")
        super().__init__(plan.input, db)
        self._partial, self._combine = split
        self._lifts = [_lift(call, plan.input.columns)
                       for call, _name in self._partial.aggregates]

    def initialize(self, db: Database, backend: str) -> None:
        self.db = db
        self._state = self._combine.state()
        self._state.fold(finish_rows(db, self._partial, self._partial.input,
                                     self.source.full_rows(db, backend)))
        self.anchors = {rel: db.relation_version(rel) for rel in self.anchors}

    def _absorb(self, rows: Iterable[Row]) -> None:
        lifts = self._lifts
        self._state.fold(row + tuple([lift(row) for lift in lifts])
                         for row in rows)

    def rows(self) -> list[Row]:
        return self._state.rows()


def _lift(call: e.FuncCall, columns: tuple[str, ...]) -> Callable[[Row], Any]:
    """One input row's partial state for one partial-plan aggregate."""
    if isinstance(call.args[0], e.Star):  # COUNT(*), the presence counter
        return lambda row: 1
    value = compile_expr(call.args[0], columns)
    if call.name == "count":
        return lambda row: 0 if value(row) is None else 1
    return value  # SUM / MIN / MAX: the value itself (NULL folds as absent)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def build_maintainer(plan: Plan, db: Database) -> ViewMaintainer:
    """The maintainer of an engine plan's maintainable core, or raise.

    The caller combines the maintained core rows with :func:`finish_rows`
    (for the operators above the core) and packages the output with
    :func:`~repro.engine.execute.build_result_relation` so a view's answers
    are indistinguishable from a from-scratch execution.
    """
    core, kind = find_core(plan)
    if kind == "bag":
        return BagMaintainer(core, db)
    if kind == "distinct":
        assert isinstance(core, DistinctP)
        return DistinctMaintainer(core, db)
    assert isinstance(core, AggregateP)
    return AggregateMaintainer(core, db)
