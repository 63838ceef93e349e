"""Table statistics and cost estimation for the optimizer.

The optimizer's statistics, collected in one pass over each relation's
column store:

* per-relation **row counts**;
* per-attribute **distinct counts**, **min/max** (numeric attributes), and
  **null counts**;
* derived **selectivity estimates** — ``col = const`` costs ``1/distinct``,
  range predicates interpolate against min/max, and equi-join cardinality is
  ``|L|·|R| / max(d_left, d_right)`` over the join keys' distinct counts.

A relation's profile is a lazy cache *of the relation* (:func:`table_profile`,
tagged with its monotonic :attr:`~repro.data.relation.Relation.version` like
its column store and key indexes), so a relation is profiled at most once
per version process-wide no matter how many :class:`StatsCatalog` objects
look at it: a bare ``optimize(plan, db)`` per query costs a dictionary probe
per table, not a scan.

:func:`repro.engine.optimize.reorder_joins` orders join trees by these
*estimated result sizes*.  They also drive the **semi-join reduction** of
the semi-naive Datalog fixpoint (:class:`~repro.engine.plan.FixpointP`):
a working delta relation (``pred@delta``), which the database does not
hold, is estimated tiny (:data:`DELTA_ESTIMATE`), so each delta variant
joins its delta occurrence first and every later join is probed only
with tuples that survived it.

**One price for every physical choice**, in rows: a lone join seats its
cheaper build (:meth:`StatsCatalog.build_price`) on the right; a probe
has the rows it emits and indexes at stake (:func:`probe_at_stake`), and
from :data:`KERNEL_MIN_ROWS` rows at stake (:func:`reaches_kernels`) an
operator takes its numpy kernel and a plan its columnar program
(:func:`repro.engine.vectorized.rows_at_stake`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.schema import SchemaError
from repro.expr import ast as e
from repro.logic.terms import COMPARISONS
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
    PositionCol,
    ProjectP,
    ScanP,
    SetOpP,
    SortLimitP,
    resolve_column,
)

#: Suffix marking the delta relations of the semi-naive Datalog fixpoint.
DELTA_SUFFIX = "@delta"

#: Assumed cardinality of a not-yet-materialized delta relation.  Being tiny
#: is the point: it makes cost-based ordering seed each delta-variant plan at
#: the delta occurrence (semi-join reduction).
DELTA_ESTIMATE = 1.0

#: Fallback cardinality for relations the catalog knows nothing about.
UNKNOWN_ESTIMATE = 100.0

#: Fallback selectivities, matching the PR-1 heuristics.
EQ_SELECTIVITY = 0.1
DEFAULT_SELECTIVITY = 0.4

#: The fewest rows at stake from which a numpy kernel, which costs
#: microseconds before it touches a row, beats the Python loop: where the
#: last hook to cross, DISTINCT and a probe of a per-query build, stops
#: losing (PR 15; E2's 1k/2k cells).  Of the interpreter, not a setting.
KERNEL_MIN_ROWS = 2048

#: What a row a hash probe emits costs the Python loop, in the rows
#: :data:`KERNEL_MIN_ROWS` counts: the ratio of the measured crossovers,
#: 2048 for DISTINCT, 512 for the unique-key probe of a kept 48k-row index
#: (PR 30: 1.12x at 384 rows, 1.33x at 512).
EMITTED_ROW_COST = 4


def reaches_kernels(rows: float) -> bool:
    """Whether ``rows`` at stake are worth a numpy call."""
    return rows >= KERNEL_MIN_ROWS


def probe_at_stake(probe_rows: float, fan_out: float, indexed: float) -> float:
    """A hash probe's rows at stake on one execution: the rows it emits
    (``fan_out`` ≥ 1 per probe row) at :data:`EMITTED_ROW_COST` each, and
    the build rows ``indexed`` for this execution alone."""
    return EMITTED_ROW_COST * probe_rows * fan_out + indexed


def relation_probe(relation: Relation, idx: "tuple[int, ...]",
                   skip_nulls: bool) -> "tuple[float, float]":
    """``(fan_out, indexed)`` of a probe of ``relation`` on ``idx``: its
    held ``key_index``'s rows per key and nothing, else one row per key and
    every row, as the row join would index them (never a table profile)."""
    index = relation.held_key_index(idx, skip_nulls=skip_nulls)
    if index is None:
        return 1.0, float(len(relation))
    return len(relation) / max(len(index), 1), 0.0


def lookup_at_stake(relation: Relation, position: int) -> float:
    """The rows a filter has at stake on one execution when its first
    conjunct reads one bucket of ``relation``'s key index at ``position``
    (:func:`repro.engine.execute.scan_lookup`): a key's rows under a held
    index, else every row — the scan, or the build, that serves it then."""
    fan_out, indexed = relation_probe(relation, (position,), True)
    return max(fan_out, indexed)


def working_predicate(relation: str) -> str:
    """The fixpoint predicate a working relation holds facts of: ``p`` for
    both ``p`` and its delta ``p@delta``."""
    return relation.lower().removesuffix(DELTA_SUFFIX)


@dataclass(frozen=True)
class ColumnStats:
    """One attribute's statistics (one pass over its column array)."""

    distinct: int
    null_count: int
    min_value: float | None = None  # numeric attributes only
    max_value: float | None = None


@dataclass(frozen=True)
class TableStats:
    """One relation's statistics."""

    row_count: int
    columns: tuple[ColumnStats, ...]


def collect_table_stats(relation: Relation) -> TableStats:
    """Compute :class:`TableStats` from the relation's column store.

    Dictionary-encoded string columns (a live kernel encoding or a decoded
    ``"D"`` shared-memory page) answer distinct/null counts straight from
    the dictionary — no per-refresh full-column set scan.  String columns
    never carry numeric min/max, so the fast path loses nothing.
    """
    store = relation.column_store()
    columns = []
    for index, array in enumerate(store.arrays):
        dict_stats = store.dictionary_stats(index)
        if dict_stats is not None:
            distinct, null_count = dict_stats
            columns.append(ColumnStats(distinct, null_count, None, None))
            continue
        values = [v for v in array if v is not None]
        null_count = len(array) - len(values)
        distinct = len(set(values))
        min_value = max_value = None
        if values and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values):
            min_value = float(min(values))
            max_value = float(max(values))
        columns.append(ColumnStats(distinct, null_count, min_value, max_value))
    return TableStats(len(relation), tuple(columns))


#: Guards every relation's ``profile_cache`` slot and is held across the
#: profiling pass itself: concurrent optimizer calls over a just-written
#: relation (the serving layer runs many at once) wait for one profile
#: instead of each scanning the table.  A leaf lock — profiling takes no
#: other.
_PROFILE_LOCK = threading.Lock()


def table_profile(relation: Relation) -> TableStats:
    """``relation``'s statistics, collected at most once per version.

    The profile lives on the relation (``profile_cache``), tagged with the
    version read *before* the scan, and is published only if that version
    still stands afterwards — so a write racing the scan can never leave a
    profile filed under the newer version; the next caller recollects.
    Estimates may be momentarily off, answers never are.
    """
    cached = relation.profile_cache
    if cached is not None and cached[0] == relation.version:
        return cached[1]
    with _PROFILE_LOCK:
        version = relation.version
        cached = relation.profile_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        stats = collect_table_stats(relation)
        if relation.version == version:
            relation.profile_cache = (version, stats)
        return stats


class StatsCatalog:
    """Statistics and estimates over one database's relations.

    A thin, stateless view: per-relation profiles are cached on the
    relations themselves (:func:`table_profile`), so constructing a catalog
    per query is free and every catalog over the same relations shares one
    set of profiles.  A mutated relation is re-profiled on next access; a
    replaced one carries its own.
    """

    def __init__(self, db: Database) -> None:
        self.db = db

    def table(self, name: str) -> TableStats | None:
        """Statistics for ``name``, or ``None`` if the relation is unknown."""
        try:
            relation = self.db.relation(name)
        except SchemaError:
            return None
        return table_profile(relation)

    # -- column provenance ------------------------------------------------

    def column_stats(self, plan: Plan, position: int) -> ColumnStats | None:
        """Statistics of the base attribute behind output column ``position``.

        Follows renamings and join concatenation down to a scan; returns
        ``None`` when the column is computed (projection expressions,
        aggregates) or the base relation is unknown.
        """
        origin = _column_origin(plan, position)
        if origin is None:
            return None
        relation, attr_position = origin
        stats = self.table(relation)
        if stats is None or attr_position >= len(stats.columns):
            return None
        return stats.columns[attr_position]

    def _named_column_stats(self, plan: Plan, col: e.Col) -> ColumnStats | None:
        try:
            position = resolve_column(plan.columns, col.name, col.qualifier)
        except PlanError:
            return None
        return self.column_stats(plan, position)

    def build_price(self, plan: Plan) -> float:
        """The rows a hash build over ``plan`` indexes on every execution:
        none for a base relation or ``asof`` window, which keeps its
        structure, the estimate of any other input."""
        if (isinstance(plan, ScanP) or (isinstance(plan, DeltaScanP)
                                        and plan.mode == "asof")) \
                and self.table(plan.relation) is not None:
            return 0.0
        return self.estimate(plan)

    # -- cardinality estimation -------------------------------------------

    def estimate(self, plan: Plan) -> float:
        """Estimated output rows of ``plan`` (≥ 1 except for empty scans)."""
        if isinstance(plan, ScanP):
            stats = self.table(plan.relation)
            if stats is not None:
                return float(stats.row_count)
            # Not in the database: a fixpoint's working relation.
            if plan.relation.lower().endswith(DELTA_SUFFIX):
                return DELTA_ESTIMATE
            return UNKNOWN_ESTIMATE
        if isinstance(plan, DeltaScanP):
            # Insert-delta windows are tiny by construction (the point of
            # incremental maintenance); estimating them tiny makes the
            # cost-based join ordering start a delta term at its delta
            # occurrence.  The as-of window is essentially the full
            # relation.
            if plan.mode == "delta":
                return DELTA_ESTIMATE
            stats = self.table(plan.relation)
            if stats is not None:
                return float(stats.row_count)
            return UNKNOWN_ESTIMATE
        if isinstance(plan, FilterP):
            base = self.estimate(plan.input)
            selectivity = 1.0
            for conjunct in e.conjuncts(plan.condition):
                selectivity *= self.selectivity(conjunct, plan.input)
            return max(1.0, base * selectivity)
        if isinstance(plan, (ProjectP, SortLimitP)):
            base = self.estimate(plan.children()[0])
            if isinstance(plan, SortLimitP) and plan.limit is not None:
                return min(base, float(plan.limit))
            return base
        if isinstance(plan, DistinctP):
            return max(1.0, self.estimate(plan.input) * 0.8)
        if isinstance(plan, JoinP):
            return self._estimate_join(plan)
        if isinstance(plan, SetOpP):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            if plan.op == "union":
                return left + right
            if plan.op == "intersect":
                return min(left, right)
            return left
        if isinstance(plan, AggregateP):
            return max(1.0, self._estimate_groups(plan))
        if isinstance(plan, DivideP):
            return max(1.0, self.estimate(plan.left) * 0.1)
        if isinstance(plan, FixpointP):
            return max(1.0, len(plan.facts) + sum(
                self.estimate(body) for _head, body in plan.rules))
        return UNKNOWN_ESTIMATE

    def _estimate_join(self, plan: JoinP) -> float:
        left = self.estimate(plan.left)
        right = self.estimate(plan.right)
        if plan.kind in ("semi", "anti"):
            return max(1.0, left * 0.5)
        if plan.left_keys:
            denominator = 1.0
            for lkey, rkey in zip(plan.left_keys, plan.right_keys):
                d_left = self._key_distinct(plan.left, lkey)
                d_right = self._key_distinct(plan.right, rkey)
                denominator *= max(d_left, d_right, 1.0)
            return max(1.0, left * right / denominator)
        if plan.residual is not None:
            return max(1.0, left * right * 0.3)
        return left * right

    def _key_distinct(self, plan: Plan, key: str) -> float:
        try:
            position = resolve_column(plan.columns, key)
        except PlanError:
            return 1.0
        stats = self.column_stats(plan, position)
        if stats is None:
            # Unknown provenance: assume keys are fairly discriminating.
            return max(1.0, self.estimate(plan) * 0.5)
        return float(max(stats.distinct, 1))

    def _estimate_groups(self, plan: AggregateP) -> float:
        base = self.estimate(plan.input)
        if not plan.group_exprs:
            return 1.0
        distinct = 1.0
        for expr in plan.group_exprs:
            if isinstance(expr, e.Col):
                stats = self._named_column_stats(plan.input, expr)
                if stats is not None:
                    distinct *= max(stats.distinct, 1)
                    continue
            distinct *= max(1.0, base * 0.3)
        return min(base, distinct)

    # -- selectivity -------------------------------------------------------

    def selectivity(self, conjunct: e.Expr, plan: Plan) -> float:
        """Fraction of ``plan``'s rows the conjunct is estimated to keep."""
        if isinstance(conjunct, e.Comparison) and conjunct.op == e.NOT_DISTINCT:
            conjunct = e.Comparison(conjunct.left, "=", conjunct.right)
        if isinstance(conjunct, e.Comparison):
            for col, const in ((conjunct.left, conjunct.right),
                               (conjunct.right, conjunct.left)):
                if isinstance(col, e.Col) and isinstance(const, e.Const):
                    op = conjunct.op if col is conjunct.left \
                        else conjunct.flipped().op
                    return self._comparison_selectivity(plan, col, op, const.value)
            if isinstance(conjunct.left, e.Col) and isinstance(conjunct.right, e.Col) \
                    and conjunct.op == "=":
                d_left = self._named_column_stats(plan, conjunct.left)
                d_right = self._named_column_stats(plan, conjunct.right)
                if d_left is not None and d_right is not None:
                    return 1.0 / max(d_left.distinct, d_right.distinct, 1)
                return EQ_SELECTIVITY
        if isinstance(conjunct, e.Comparison) and conjunct.op == "=":
            return EQ_SELECTIVITY
        return DEFAULT_SELECTIVITY

    def _comparison_selectivity(self, plan: Plan, col: e.Col, op: str,
                                value: Any) -> float:
        stats = self._named_column_stats(plan, col)
        if stats is None:
            return EQ_SELECTIVITY if op == "=" else DEFAULT_SELECTIVITY
        if op == "=":
            return 1.0 / max(stats.distinct, 1)
        if op == "<>":
            return 1.0 - 1.0 / max(stats.distinct, 1)
        if stats.min_value is not None and stats.max_value is not None \
                and isinstance(value, (int, float)) and not isinstance(value, bool):
            span = stats.max_value - stats.min_value
            if span <= 0:
                # Constant column: the predicate keeps all rows or none.
                kept = COMPARISONS[op](stats.min_value, float(value))
                return 1.0 if kept else 1.0 / max(stats.distinct, 1)
            fraction = (float(value) - stats.min_value) / span
            fraction = min(1.0, max(0.0, fraction))
            if op in ("<", "<="):
                return max(fraction, 1.0 / max(stats.distinct, 1))
            return max(1.0 - fraction, 1.0 / max(stats.distinct, 1))
        return DEFAULT_SELECTIVITY


def _column_origin(plan: Plan, position: int) -> tuple[str, int] | None:
    """Trace output column ``position`` down to ``(relation, attribute)``."""
    if isinstance(plan, (ScanP, DeltaScanP)):
        return (plan.relation, position)
    if isinstance(plan, (FilterP, DistinctP, SortLimitP)):
        return _column_origin(plan.children()[0], position)
    if isinstance(plan, ProjectP):
        expr = plan.exprs[position]
        if isinstance(expr, e.Col):
            try:
                inner = resolve_column(plan.input.columns, expr.name,
                                       expr.qualifier)
            except PlanError:
                return None
            return _column_origin(plan.input, inner)
        if isinstance(expr, PositionCol):
            return _column_origin(plan.input, expr.position)
        return None
    if isinstance(plan, JoinP):
        if plan.kind in ("semi", "anti"):
            return _column_origin(plan.left, position)
        width = len(plan.left.columns)
        if position < width:
            return _column_origin(plan.left, position)
        return _column_origin(plan.right, position - width)
    if isinstance(plan, AggregateP):
        if position < len(plan.input.columns):
            return _column_origin(plan.input, position)
        return None
    if isinstance(plan, SetOpP):
        return _column_origin(plan.left, position)
    return None


def estimate_rows(plan: Plan, db: Database) -> float:
    """Statistics-driven cardinality estimate of ``plan`` over ``db``."""
    return StatsCatalog(db).estimate(plan)
