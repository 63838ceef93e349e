"""Scatter-gather plan execution over a sharded database (``"sharded"``).

This module is the engine half of the horizontal-partitioning subsystem
(:mod:`repro.data.sharded` is the storage half).  It registers the third
:class:`~repro.engine.execute.ExecutorBackend` and rewrites one logical plan
into *per-shard subplans plus a merge step*:

* **distribution analysis** (:func:`distribute`) proves which subtrees can
  run independently on every shard such that concatenating the shard
  outputs reproduces the single-node bag.  The proof tracks, per subtree,
  the output columns that are hash-co-partitioned with the shard layout —
  scans start it at the relation's shard key, filters/projections/joins
  propagate it;
* **joins** run scattered when the equi-keys pair up the partition keys of
  both sides (co-partitioned: matching rows provably share a shard);
  otherwise the *smaller* side (by optimizer statistics) is **broadcast** —
  read in full on every shard, under a ``name@broadcast`` alias so the same
  relation can simultaneously stay scattered elsewhere in the plan (self-
  join chains need exactly that).  Semi/anti joins always broadcast the
  right side, which is correct for any partitioning of the left;
* **group-bys** whose keys do not cover the partition key are split into a
  per-shard **partial aggregation** and a gather-side **final combine**
  (COUNT → sum of counts, SUM/MIN/MAX fold, AVG → partial sum+count);
* a plan whose root is not distributable sheds *finishing* operators
  (projection, filter, distinct, sort/limit) onto the merge step until a
  distributable core remains; the finishers then run once over the gathered
  rows.  Plans with no distributable core at all (cross-shard set
  differences, delta scans, ...) fall back to single-node vectorized
  execution over the merged view — correct, never scattered;
* **single-shard routing**: when every scattered relation is filtered to a
  constant shard-key value, the whole scatter collapses onto the one shard
  that can own matching rows and the gather step disappears — the
  point-query fast path the sharded serving layer leans on.

Per-shard subplans run one after another on the calling thread; each shard
runs the plain vectorized executor over a shard-local database (scattered
relations) plus the merged views of broadcast relations.  Where subplans
run is the one step :class:`~repro.engine.process.ProcessBackend` replaces
(worker processes over shared-memory pages); compilation, counting, and the
gather are the same driver.  ``tests/test_sharded.py`` pins the backend
bag-equal to ``"vectorized"`` over the full canonical catalog at 1, 2, and
4 shards, and ``tests/test_fuzz_differential.py`` extends that to randomly
generated plans.

A sharded materialized view is maintained from the same compilation:
:class:`~repro.core.sharded_service.ShardedMaterializedView` compiles its
core with :func:`shard_plan`, keeps the compiled ``scatter`` subplan
delta-maintained on every shard, and hands the maintained parts to
:meth:`ShardedPlan.finish` exactly as a request hands it executed ones.

Known, documented divergences from single-node execution (bag equality is
the contract, row order is not): gathered rows arrive in shard order, so
``LIMIT`` under ties and the representative (non-grouped, non-aggregate)
columns of groups that straddle shards may pick different — equally valid —
witnesses than the single-node backends.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable
from weakref import WeakKeyDictionary

from repro.data.database import Database
from repro.data.sharded import (
    BROADCAST_SUFFIX,
    DEFAULT_N_SHARDS,
    ShardedDatabase,
)
from repro.expr import ast as e
from repro.engine.cache import LRUCache
from repro.engine.execute import Row, _split_name, compiled_expr
from repro.engine.kernels import path_counts
from repro.engine.plan import (
    AggregateP,
    DeltaScanP,
    DistinctP,
    DivideP,
    FilterP,
    JoinP,
    Plan,
    ProjectP,
    ScanP,
    SetOpP,
    SortLimitP,
    resolve_column,
)
from repro.engine.stats import StatsCatalog
from repro.engine.vectorized import (
    Batch,
    VectorizedExecutor,
    _column_position,
)
from repro.engine.verify import maybe_verify_sharded, verification_counts

__all__ = [
    "NotDistributable",
    "ShardedBackend",
    "ShardedPlan",
    "SHARDED_BACKEND",
    "distribute",
    "shard_execution_database",
    "shard_plan",
    "split_aggregate",
]


class NotDistributable(Exception):
    """A (sub)plan cannot run shard by shard under the current layout."""


#: The full partition key: one equivalence class of output-column positions
#: per shard-key attribute, in shard-key order (grown by equi-join equality
#: propagation), or ``None`` when no co-partitioning is tracked.
PartitionKey = tuple | None


@dataclass(frozen=True)
class Distribution:
    """What the distribution analysis proves about one subtree.

    ``key``
        The shard-key image through the subtree: one *equivalence class* of
        output-column positions per shard-key attribute — every position in
        a class provably carries the component's value (equi-joins equate
        positions, so ``S.sid`` and ``R.sid`` share a class after a join on
        them).  ``None`` when the outputs are scattered with no tracked
        co-partitioning.
    ``partitioned`` / ``broadcast``
        Base relations the subtree reads shard-locally vs. in full on
        every shard.  A relation may appear in both: broadcast occurrences
        are rewritten to read the ``name@broadcast`` alias, so the plain
        name always means the shard-local partition.
    """

    key: PartitionKey
    partitioned: frozenset[str]
    broadcast: frozenset[str]


def _merge_sets(*dists: Distribution) -> tuple[frozenset[str], frozenset[str]]:
    return (frozenset().union(*(d.partitioned for d in dists)),
            frozenset().union(*(d.broadcast for d in dists)))


def distribute(plan: Plan, sharded: ShardedDatabase,
               stats: StatsCatalog | None = None) -> Distribution:
    """Prove ``plan`` distributable, or raise :class:`NotDistributable`.

    The contract: executing the (broadcast-rewritten) plan on every shard
    database and concatenating the outputs in shard order is bag-equal to
    executing ``plan`` once over the merged database.  Use
    :func:`shard_plan` to also obtain the rewritten per-shard subplan and
    the merge step.
    """
    return _rewrite(plan, sharded, stats)[1]


def _rewrite(plan: Plan, sharded: ShardedDatabase,
             stats: StatsCatalog | None) -> tuple[Plan, Distribution]:
    """``(per-shard plan, Distribution)`` — raises :class:`NotDistributable`."""
    if isinstance(plan, ScanP):
        name = plan.relation.lower()
        schema = sharded.shard(0).relation(name).schema
        key = tuple(frozenset((schema.index_of(a),))
                    for a in sharded.shard_key(name))
        return plan, Distribution(key, frozenset((name,)), frozenset())
    if isinstance(plan, DeltaScanP):
        raise NotDistributable("delta scans read a single relation's log")
    if isinstance(plan, FilterP):
        child, dist = _rewrite(plan.input, sharded, stats)
        return FilterP(child, plan.condition), dist
    if isinstance(plan, ProjectP):
        child, dist = _rewrite(plan.input, sharded, stats)
        return (ProjectP(child, plan.exprs, plan.names),
                Distribution(_project_key(plan, dist.key),
                             dist.partitioned, dist.broadcast))
    if isinstance(plan, DistinctP):
        child, dist = _rewrite(plan.input, sharded, stats)
        if dist.key is None:
            raise NotDistributable(
                "distinct below the root needs co-partitioned input "
                "(equal rows could straddle shards)")
        return DistinctP(child), dist
    if isinstance(plan, JoinP):
        return _rewrite_join(plan, sharded, stats)
    if isinstance(plan, SetOpP):
        return _rewrite_setop(plan, sharded, stats)
    if isinstance(plan, AggregateP):
        child, dist = _rewrite(plan.input, sharded, stats)
        if dist.key is None or not _key_covered_by_groups(plan, dist.key):
            raise NotDistributable(
                "group-by below the root does not group on the partition key")
        # Output = input columns + aggregate columns: positions unchanged.
        return (AggregateP(child, plan.group_exprs, plan.aggregates), dist)
    if isinstance(plan, DivideP):
        return _rewrite_divide(plan, sharded, stats)
    if isinstance(plan, SortLimitP):
        # Concatenating per-shard sorted runs would interleave the global
        # order (and per-shard LIMIT would drop the wrong rows): always
        # hand sort/limit to the merge step, which replays it once over
        # the gathered bag via the finisher-shedding path in shard_plan.
        raise NotDistributable("sort/limit must run once over the gather")
    raise NotDistributable(f"{type(plan).__name__} is not distributable")


def _broadcast_side(plan: Plan) -> tuple[Plan, Distribution]:
    """Rewrite a subtree to read every base relation's broadcast alias.

    Any deterministic subtree qualifies — evaluated over the full merged
    relations it produces its complete single-node output on every shard —
    except delta scans, whose version anchors do not carry over to the
    rebuilt merged views.
    """
    names: set[str] = set()

    def visit(node: Plan) -> Plan:
        if isinstance(node, ScanP):
            names.add(node.relation.lower())
            return ScanP(node.relation + BROADCAST_SUFFIX, node.columns)
        if isinstance(node, DeltaScanP):
            raise NotDistributable(
                "delta scans cannot be broadcast (no merged delta log)")
        children = [visit(child) for child in node.children()]
        return _rebuild_node(node, children)

    rewritten = visit(plan)
    return rewritten, Distribution(None, frozenset(), frozenset(names))


def _rebuild_node(plan: Plan, children: list[Plan]) -> Plan:
    from repro.engine.optimize import _rebuild

    return _rebuild(plan, children)


def _project_key(plan: ProjectP, key: PartitionKey) -> PartitionKey:
    """Map a partition key through a projection's pure column picks.

    Each equivalence class maps to the output positions of its surviving
    members; a class whose members are all projected away kills the key.
    """
    if key is None:
        return None
    out_positions: dict[int, set[int]] = {}
    for j, expr in enumerate(plan.exprs):
        pos = _column_position(expr, plan.input.columns)
        if pos is not None:
            out_positions.setdefault(pos, set()).add(j)
    mapped = []
    for component in key:
        survivors: set[int] = set()
        for p in component:
            survivors.update(out_positions.get(p, ()))
        if not survivors:
            return None
        mapped.append(frozenset(survivors))
    return tuple(mapped)


def _key_covered_by_groups(plan: AggregateP, key: tuple) -> bool:
    """Do the group expressions pin every partition-key component?

    If some member of each component appears among the group expressions
    as a pure column pick, equal group keys imply equal partition keys, so
    no group straddles two shards and per-shard grouping is exact.
    """
    grouped = set()
    for expr in plan.group_exprs:
        pos = _column_position(expr, plan.input.columns)
        if pos is not None:
            grouped.add(pos)
    return all(component & grouped for component in key)


def _close_over_pairs(key: PartitionKey,
                      pairs: "list[tuple[int, int]]") -> PartitionKey:
    """Grow each key class with positions equated by equi-join pairs."""
    if key is None or not pairs:
        return key
    components = [set(component) for component in key]
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            for component in components:
                if a in component and b not in component:
                    component.add(b)
                    changed = True
                elif b in component and a not in component:
                    component.add(a)
                    changed = True
    return tuple(frozenset(component) for component in components)


def _rewrite_join(plan: JoinP, sharded: ShardedDatabase,
                  stats: StatsCatalog | None) -> tuple[Plan, Distribution]:
    if plan.kind in ("semi", "anti"):
        left_plan, left_dist = _rewrite(plan.left, sharded, stats)
        right_plan, bcast = _broadcast_side(plan.right)
        partitioned, broadcast = _merge_sets(left_dist, bcast)
        return (JoinP(left_plan, right_plan, plan.kind, plan.left_keys,
                      plan.right_keys, plan.residual, plan.null_matches),
                Distribution(left_dist.key, partitioned, broadcast))

    try:
        left: tuple[Plan, Distribution] | None = \
            _rewrite(plan.left, sharded, stats)
    except NotDistributable:
        left = None
    try:
        right: tuple[Plan, Distribution] | None = \
            _rewrite(plan.right, sharded, stats)
    except NotDistributable:
        right = None
    if left is None and right is None:
        raise NotDistributable("neither join input is distributable")

    width = len(plan.left.columns)
    equi_pairs = _equi_pairs(plan)
    output_pairs = [(lp, rp + width) for lp, rp in equi_pairs]
    if left is not None and right is not None \
            and _co_partitioned(plan, equi_pairs, left[1].key, right[1].key):
        partitioned, broadcast = _merge_sets(left[1], right[1])
        key = tuple(
            lcomp | frozenset(rp + width for rp in rcomp)
            for lcomp, rcomp in zip(left[1].key, right[1].key))
        return (JoinP(left[0], right[0], plan.kind, plan.left_keys,
                      plan.right_keys, plan.residual, plan.null_matches),
                Distribution(_close_over_pairs(key, output_pairs),
                             partitioned, broadcast))

    # Not co-partitioned: broadcast one side, scatter the other.  Prefer
    # broadcasting the side the optimizer estimates smaller; a side that
    # cannot scatter at all must be the broadcast one.
    if left is not None and right is not None:
        left_rows = stats.estimate(plan.left) if stats is not None else 0.0
        right_rows = stats.estimate(plan.right) if stats is not None else 0.0
        side = "right" if right_rows <= left_rows else "left"
    else:
        side = "right" if left is not None else "left"
    if side == "right":
        assert left is not None
        scatter_plan, scatter = left
        bcast_plan, bcast = _broadcast_side(plan.right)
        key = scatter.key
        rewritten = JoinP(scatter_plan, bcast_plan, plan.kind, plan.left_keys,
                          plan.right_keys, plan.residual, plan.null_matches)
    else:
        assert right is not None
        scatter_plan, scatter = right
        bcast_plan, bcast = _broadcast_side(plan.left)
        key = None if scatter.key is None else tuple(
            frozenset(p + width for p in component)
            for component in scatter.key)
        rewritten = JoinP(bcast_plan, scatter_plan, plan.kind, plan.left_keys,
                          plan.right_keys, plan.residual, plan.null_matches)
    partitioned, broadcast = _merge_sets(scatter, bcast)
    return rewritten, Distribution(_close_over_pairs(key, output_pairs),
                                   partitioned, broadcast)


def _equi_pairs(plan: JoinP) -> list[tuple[int, int]]:
    """The equi-key pairs as (left position, right position)."""
    pairs = []
    for lk, rk in zip(plan.left_keys, plan.right_keys):
        pairs.append((resolve_column(plan.left.columns, *_split_name(lk)),
                      resolve_column(plan.right.columns, *_split_name(rk))))
    return pairs


def _co_partitioned(plan: JoinP, equi_pairs: list[tuple[int, int]],
                    left_key: PartitionKey, right_key: PartitionKey) -> bool:
    """Do the equi-keys pair the partition keys component by component?

    When they do, two joinable rows have equal partition-key value tuples,
    hash to the same shard, and the per-shard hash join sees every match.
    Classes make the check equality-aware: any member of the left class
    equated with any member of the right class pins that component.
    """
    if left_key is None or right_key is None \
            or len(left_key) != len(right_key):
        return False
    if not equi_pairs:
        return False
    return all(
        any(lp in lcomp and rp in rcomp for lp, rp in equi_pairs)
        for lcomp, rcomp in zip(left_key, right_key))


def _rewrite_setop(plan: SetOpP, sharded: ShardedDatabase,
                   stats: StatsCatalog | None) -> tuple[Plan, Distribution]:
    left_plan, left = _rewrite(plan.left, sharded, stats)
    right_plan, right = _rewrite(plan.right, sharded, stats)
    partitioned, broadcast = _merge_sets(left, right)
    # Set operations compare rows positionally, so the two keys align when
    # every component pair shares a position: a row equal on both sides
    # then hashes identically through either side's layout.
    aligned: PartitionKey = None
    if left.key is not None and right.key is not None \
            and len(left.key) == len(right.key):
        shared = tuple(lcomp & rcomp
                       for lcomp, rcomp in zip(left.key, right.key))
        if all(shared):
            aligned = shared
    if plan.op == "union" and not plan.distinct:
        # Bag union is pure concatenation: any partitioning merges correctly.
        return (SetOpP("union", left_plan, right_plan, distinct=False),
                Distribution(aligned, partitioned, broadcast))
    # Duplicate-sensitive set operations need equal rows to share a shard.
    if aligned is None:
        raise NotDistributable(
            f"{plan.op} needs both sides co-partitioned on the same positions")
    return (SetOpP(plan.op, left_plan, right_plan, plan.distinct),
            Distribution(aligned, partitioned, broadcast))


def _rewrite_divide(plan: DivideP, sharded: ShardedDatabase,
                    stats: StatsCatalog | None) -> tuple[Plan, Distribution]:
    left_plan, left = _rewrite(plan.left, sharded, stats)
    if left.key is None:
        raise NotDistributable("division needs a co-partitioned dividend")
    right_names = {c.lower() for c in plan.right.columns}
    quotient = [i for i, c in enumerate(plan.left.columns)
                if c.lower() not in right_names]
    mapped = []
    for component in left.key:
        survivors = frozenset(quotient.index(p) for p in component
                              if p in quotient)
        if not survivors:
            # A quotient group (one candidate output row) could straddle.
            raise NotDistributable(
                "division does not partition on the quotient")
        mapped.append(survivors)
    right_plan, bcast = _broadcast_side(plan.right)
    partitioned, broadcast = _merge_sets(left, bcast)
    return (DivideP(left_plan, right_plan),
            Distribution(tuple(mapped), partitioned, broadcast))


# ---------------------------------------------------------------------------
# Partial -> final aggregation split
# ---------------------------------------------------------------------------

#: Aggregates the gather step knows how to combine from partial states.
_SPLITTABLE_AGGREGATES = ("count", "sum", "min", "max", "avg")


def split_aggregate(agg: AggregateP, input_plan: Plan | None = None
                    ) -> "tuple[AggregateP, Callable[[list[list[Row]]], list[Row]]] | None":
    """Split a group-by into a per-shard partial plan and a final combiner.

    Returns ``(partial_plan, combine)`` or ``None`` when an aggregate
    cannot be combined from partial states (``DISTINCT`` aggregates need
    the raw values).  The partial plan computes, per shard-local group,
    one column per partial state (AVG contributes a SUM and a COUNT) plus a
    trailing ``COUNT(*)`` presence counter; ``combine`` merges the partial
    rows of all shards into rows with the original aggregate's exact
    output layout (representative input columns followed by one value per
    aggregate).  ``input_plan`` substitutes a rewritten (broadcast-aliased)
    input for the partial plan; the combine step is input-agnostic.
    """
    partial_calls: list[tuple[e.FuncCall, str]] = []
    specs: list[tuple[str, tuple[int, ...]]] = []
    width = len(agg.input.columns)
    for j, (call, _name) in enumerate(agg.aggregates):
        if call.distinct or call.name not in _SPLITTABLE_AGGREGATES:
            return None
        if call.name == "avg":
            specs.append(("avg", (width + len(partial_calls),
                                  width + len(partial_calls) + 1)))
            partial_calls.append((e.FuncCall("sum", call.args), f"__p{j}_sum"))
            partial_calls.append((e.FuncCall("count", call.args), f"__p{j}_cnt"))
            continue
        kind = "count" if call.name == "count" else call.name
        specs.append((kind, (width + len(partial_calls),)))
        partial_calls.append((call, f"__p{j}"))
    # Presence counter: lets the combiner tell an empty shard's synthetic
    # all-NULL row (ungrouped aggregate over an empty shard) from real data.
    rows_position = width + len(partial_calls)
    partial_calls.append((e.FuncCall("count", (e.Star(),)), "__rows"))
    partial = AggregateP(input_plan if input_plan is not None else agg.input,
                         agg.group_exprs, tuple(partial_calls))

    group_exprs = agg.group_exprs
    input_columns = agg.input.columns

    def combine(parts: list[list[Row]]) -> list[Row]:
        group_fns = [compiled_expr(gx, input_columns) for gx in group_exprs]
        accumulators: dict[tuple, list[Any]] = {}
        representatives: dict[tuple, Row] = {}
        order: list[tuple] = []
        synthetic: Row | None = None
        for part in parts:
            for row in part:
                if not group_exprs and not row[rows_position]:
                    if synthetic is None:
                        synthetic = row
                    continue
                key = tuple(fn(row) for fn in group_fns)
                acc = accumulators.get(key)
                if acc is None:
                    accumulators[key] = acc = [None] * (2 * len(specs))
                    representatives[key] = row[:width]
                    order.append(key)
                for s, (kind, positions) in enumerate(specs):
                    _fold_partial(acc, s, kind, row, positions)
        if not order and not group_exprs:
            # Every shard was empty: one all-NULL representative row with
            # COUNTs folded to zero, exactly like the single-node backends.
            base = synthetic[:width] if synthetic is not None else (None,) * width
            return [base + tuple(_finalize(kind, None, None)
                                 for kind, _p in specs)]
        out: list[Row] = []
        for key in order:
            acc = accumulators[key]
            out.append(representatives[key] + tuple(
                _finalize(kind, acc[2 * s], acc[2 * s + 1])
                for s, (kind, _p) in enumerate(specs)))
        return out

    return partial, combine


def _fold_partial(acc: list[Any], s: int, kind: str, row: Row,
                  positions: tuple[int, ...]) -> None:
    """Fold one partial row into accumulator slots ``2s`` / ``2s+1``."""
    a = 2 * s
    if kind == "count":
        acc[a] = (acc[a] or 0) + row[positions[0]]
    elif kind == "sum":
        value = row[positions[0]]
        if value is not None:
            acc[a] = value if acc[a] is None else acc[a] + value
    elif kind == "min":
        value = row[positions[0]]
        if value is not None and (acc[a] is None or value < acc[a]):
            acc[a] = value
    elif kind == "max":
        value = row[positions[0]]
        if value is not None and (acc[a] is None or value > acc[a]):
            acc[a] = value
    else:  # avg: slot a = running sum, slot a+1 = running count
        total, count = row[positions[0]], row[positions[1]]
        if total is not None:
            acc[a] = total if acc[a] is None else acc[a] + total
        acc[a + 1] = (acc[a + 1] or 0) + count


def _finalize(kind: str, first: Any, second: Any) -> Any:
    if kind == "count":
        return first or 0
    if kind == "avg":
        return None if not second else first / second
    return first


# ---------------------------------------------------------------------------
# Per-shard execution databases
# ---------------------------------------------------------------------------

def shard_execution_database(sharded: ShardedDatabase, index: int,
                             partitioned: Iterable[str],
                             broadcast: Iterable[str]) -> Database:
    """Shard ``index``'s execution view: local + broadcast relations.

    The partitioned entries are the shard's **live** relation objects —
    their per-version delta logs and version counters carry over, which is
    what lets view maintainers run delta plans shard-locally — while the
    broadcast entries are the frozen merged aliases (stable objects while
    the underlying relation is unwritten).
    """
    db = Database()
    shard = sharded.shard(index)
    for name in sorted(partitioned):
        db.add_relation(shard.relation(name))
    for name in sorted(broadcast):
        db.add_relation(sharded.broadcast_relation(name))
    return db


# ---------------------------------------------------------------------------
# Plan assembly
# ---------------------------------------------------------------------------

#: Unary operators the merge step can replay over the gathered rows.
_FINISHERS = (FilterP, ProjectP, DistinctP, SortLimitP)


@dataclass
class ShardedPlan:
    """One logical plan compiled for scatter-gather execution.

    ``mode`` is ``"scatter"`` (per-shard subplans + gather), ``"single"``
    (the scatter collapsed onto one shard — a routed point query), or
    ``"fallback"`` (single-node vectorized execution over the whole data).
    ``scatter`` is the subplan every selected shard runs (broadcast reads
    rewritten to their aliases); ``core`` is the node of ``plan`` whose
    rows the gather step reconstitutes.  Row-deterministic finishers
    directly above the core (FILTER / PROJECT, plus one per-shard DISTINCT
    pre-reduction) are *absorbed* into ``scatter`` so shards gather final
    rows, not raw core rows; ``gather`` names the highest absorbed node —
    the gathered parts are its rows, and everything above it replays once
    over them.  ``combine`` is the partial-aggregation merger, when the
    core is a split group-by (no absorption then).  ``prereduced`` records
    that a DISTINCT was pushed into the scatter (it still replays globally
    on the gather — dedup of a union equals dedup of unioned per-shard
    dedups).
    """

    plan: Plan
    mode: str
    core: Plan | None = None
    scatter: Plan | None = None
    combine: Callable[[list[list[Row]]], list[Row]] | None = None
    partitioned: frozenset[str] = frozenset()
    broadcast: frozenset[str] = frozenset()
    key: tuple[int, ...] | None = None
    shard_index: int | None = None
    gather: Plan | None = None
    prereduced: bool = False

    def describe(self) -> str:
        """A one-line plan-shape summary (for tests and benchmarks)."""
        if self.mode == "fallback":
            return "fallback(single-node)"
        verb = "scatter" if self.shard_index is None else "routed"
        parts = [f"{verb}({', '.join(sorted(self.partitioned))})"]
        if self.broadcast:
            parts.append(f"broadcast({', '.join(sorted(self.broadcast))})")
        if self.combine is not None:
            parts.append("partial-aggregate")
        if self.prereduced:
            parts.append("shard-distinct")
        if self.core is not self.plan:
            parts.append("merge-finish")
        if self.shard_index is not None:
            parts.append(f"shard={self.shard_index}")
        return " + ".join(parts)

    # -- execution ---------------------------------------------------------

    def parts(self, sharded: ShardedDatabase,
              counters: "dict[str, int] | None" = None) -> list[list[Row]]:
        """Run the scatter subplan on each selected shard, one after another.

        One part per shard in shard order (just the routed shard's for a
        ``"single"`` plan); a ``"fallback"`` plan's one part is its whole
        single-node answer over the merged view (or a plain source database).
        """
        if self.mode == "fallback":
            return [VectorizedExecutor(sharded, counters).batch(self.plan).rows()]
        assert self.scatter is not None
        if self.shard_index is not None:
            shards: Iterable[int] = (self.shard_index,)
        else:
            shards = range(sharded.n_shards)
        return [VectorizedExecutor(
                    shard_execution_database(sharded, i, self.partitioned,
                                             self.broadcast), counters)
                .batch(self.scatter).rows() for i in shards]

    def finish(self, sharded: ShardedDatabase, parts: list[list[Row]],
               counters: "dict[str, int] | None" = None) -> list[Row]:
        """Merge per-shard result parts into the final rows (bag order).

        The parts come from :meth:`parts` or from the ``"process"``
        backend's workers, which return exactly one part per shard.
        """
        if self.combine is not None:
            rows = self.combine(parts)
        elif len(parts) == 1:  # fallback, routed, or a one-shard scatter
            rows = parts[0]
        else:
            rows = [row for part in parts for row in part]
        seed = self.gather if self.gather is not None else self.core
        if seed is None or seed is self.plan:
            return rows
        # Finishing operators: replay the suffix of the original plan over
        # the gathered rows by pre-seeding the executor's per-plan memo at
        # the highest absorbed node (structurally shared copies reuse it).
        executor = VectorizedExecutor(sharded, counters)
        executor._memo[seed] = Batch.from_rows(seed.columns, rows)
        return executor.batch(self.plan).rows()


def shard_plan(plan: Plan, sharded: ShardedDatabase,
               stats: StatsCatalog | None = None) -> ShardedPlan:
    """Compile one logical plan into a :class:`ShardedPlan`.

    Walks down from the root shedding finishing operators until a
    distributable core (or a splittable group-by over one) is found; falls
    back to single-node execution when none exists.  Under
    ``REPRO_VERIFY_PLANS`` the compiled plan is certified by the static
    verifier (:func:`repro.engine.verify.verify_sharded_plan`) before it is
    returned.
    """
    return maybe_verify_sharded(_compile_shard_plan(plan, sharded, stats),
                                sharded)


def _compile_shard_plan(plan: Plan, sharded: ShardedDatabase,
                        stats: StatsCatalog | None) -> ShardedPlan:
    node = plan
    shed: list[Plan] = []  # finishers shed on the way down, outermost first
    while True:
        try:
            scatter, dist = _rewrite(node, sharded, stats)
        except NotDistributable:
            scatter, dist = None, None
        if dist is not None:
            return _assemble(plan, node, scatter, None, dist, sharded, shed)
        if isinstance(node, AggregateP):
            try:
                inner, inner_dist = _rewrite(node.input, sharded, stats)
            except NotDistributable:
                inner, inner_dist = None, None
            if inner_dist is not None:
                split = split_aggregate(node, inner)
                if split is not None:
                    partial, combine = split
                    return _assemble(plan, node, partial, combine, inner_dist,
                                     sharded, shed)
        if isinstance(node, _FINISHERS):
            shed.append(node)
            node = node.input
            continue
        return ShardedPlan(plan, "fallback")


def _assemble(plan: Plan, core: Plan, scatter: Plan,
              combine: Callable[[list[list[Row]]], list[Row]] | None,
              dist: Distribution, sharded: ShardedDatabase,
              shed: list[Plan]) -> ShardedPlan:
    if not dist.partitioned:
        # Nothing is actually scattered (constant-only plans): single-node.
        return ShardedPlan(plan, "fallback")
    gather: Plan = core
    prereduced = False
    if combine is None:
        # Absorb row-deterministic finishers into the per-shard subplan so
        # shards gather finished rows instead of raw core rows.  FILTER and
        # PROJECT are per-row, so running them shard-side is exact and the
        # gather seeds at the highest absorbed node; a DISTINCT additionally
        # *pre-reduces* per shard (it must still replay globally over the
        # gather, since equal rows can straddle shards) — on a wide join the
        # gather then moves deduplicated projections, not the join's raw
        # cross-product, which is what keeps the process backend's IPC flat.
        for finisher in reversed(shed):
            if isinstance(finisher, FilterP):
                scatter = FilterP(scatter, finisher.condition)
                gather = finisher
            elif isinstance(finisher, ProjectP):
                scatter = ProjectP(scatter, finisher.exprs, finisher.names)
                gather = finisher
            elif isinstance(finisher, DistinctP):
                scatter = DistinctP(scatter)
                prereduced = True
                break
            else:  # SortLimitP: order/limit only hold over the global bag
                break
    index = _routed_shard(scatter, dist, sharded)
    return ShardedPlan(plan, "single" if index is not None else "scatter",
                       core=core, scatter=scatter, combine=combine,
                       partitioned=dist.partitioned, broadcast=dist.broadcast,
                       key=dist.key, shard_index=index, gather=gather,
                       prereduced=prereduced)


# ---------------------------------------------------------------------------
# Single-shard (point-query) routing
# ---------------------------------------------------------------------------

def _routed_shard(scatter: Plan, dist: Distribution,
                  sharded: ShardedDatabase) -> int | None:
    """The single shard that can produce rows, or ``None``.

    Routing applies when **every** occurrence of a scattered relation sits
    under a filter whose conjuncts pin the relation's full shard key to
    constants, and every pinned key hashes to the same shard.  (The
    optimizer pushes filters onto scans, so point queries reliably take
    this shape.)
    """
    shards: set[int] = set()
    exhaustive = _collect_pins(scatter, dist.partitioned, sharded, shards)
    if exhaustive and len(shards) == 1:
        return next(iter(shards))
    return None


def _collect_pins(node: Plan, partitioned: frozenset[str],
                  sharded: ShardedDatabase, shards: set[int]) -> bool:
    if isinstance(node, FilterP) and isinstance(node.input, ScanP):
        scan = node.input
        if scan.relation.lower() not in partitioned:
            return True
        index = _pinned_shard(node, scan, sharded)
        if index is None:
            return False
        shards.add(index)
        return True
    if isinstance(node, (ScanP, DeltaScanP)):
        return node.relation.lower() not in partitioned
    return all(_collect_pins(child, partitioned, sharded, shards)
               for child in node.children())


def _pinned_shard(filter_plan: FilterP, scan: ScanP,
                  sharded: ShardedDatabase) -> int | None:
    name = scan.relation.lower()
    schema = sharded.shard(0).relation(name).schema
    key_positions = [schema.index_of(a) for a in sharded.shard_key(name)]
    pinned: dict[int, Any] = {}
    for conjunct in e.conjuncts(filter_plan.condition):
        if not (isinstance(conjunct, e.Comparison) and conjunct.op == "="):
            continue
        for col, const in ((conjunct.left, conjunct.right),
                           (conjunct.right, conjunct.left)):
            position = _column_position(col, scan.columns)
            if position is not None and isinstance(const, e.Const) \
                    and const.value is not None:
                pinned.setdefault(position, const.value)
    if not all(p in pinned for p in key_positions):
        return None
    if len(key_positions) == 1:
        return sharded.shard_of_value(pinned[key_positions[0]])
    return sharded.shard_of_value(tuple(pinned[p] for p in key_positions))


# ---------------------------------------------------------------------------
# The backend object
# ---------------------------------------------------------------------------

class ShardedBackend:
    """:class:`ExecutorBackend` running plans scatter-gather over shards.

    Given a :class:`~repro.data.sharded.ShardedDatabase` the backend uses
    its layout directly; given a plain :class:`Database` it transparently
    hash-partitions a copy into ``n_shards`` (cached per database object
    and rebuilt when the source version moves), so
    ``run_query(..., backend="sharded")`` works on any database.  Compiled
    :class:`ShardedPlan` objects are cached per (plan, structure version)
    in one :class:`~repro.engine.cache.LRUCache` of 256 per database;
    per-shard subplans run inline on the calling thread, so concurrent
    queries each use their own thread.  ``get_backend("sharded")`` returns a
    process-wide singleton; construct instances directly to pin the shard
    count or keys for auto-sharded databases.
    """

    name = "sharded"

    _PLAN_CACHE_LIMIT = 256

    def __init__(self, n_shards: int = DEFAULT_N_SHARDS,
                 shard_keys: "dict[str, Any] | None" = None) -> None:
        if n_shards <= 0:
            raise ValueError(f"shard count must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.shard_keys = shard_keys
        self._auto: "WeakKeyDictionary[Database, tuple[int, ShardedDatabase]]" \
            = WeakKeyDictionary()
        self._plans: "WeakKeyDictionary[ShardedDatabase, LRUCache]" \
            = WeakKeyDictionary()
        self._lock = threading.Lock()
        self.counters = {"scatter": 0, "single_shard": 0, "fallback": 0,
                         "kernel_cache_hits": 0, "kernel_cache_misses": 0,
                         "kernel_cache_evictions": 0}

    # -- plumbing ----------------------------------------------------------

    def sharded_view(self, db: Database) -> ShardedDatabase:
        """``db`` itself when already sharded, else a cached partitioning."""
        if isinstance(db, ShardedDatabase):
            return db
        with self._lock:
            cached = self._auto.get(db)
            version = db.version
            if cached is not None and cached[0] == version:
                return cached[1]
            sharded = ShardedDatabase.from_database(
                db, self.n_shards, self.shard_keys)
            self._auto[db] = (version, sharded)
            return sharded

    def plan_for(self, plan: Plan, sharded: ShardedDatabase) -> ShardedPlan:
        """The cached scatter-gather compilation of one plan."""
        with self._lock:
            cache = self._plans.get(sharded)
            if cache is None:
                self._plans[sharded] = cache = LRUCache(self._PLAN_CACHE_LIMIT)
        key = (plan, sharded.structure_version)
        compiled = cache.get(key)
        if compiled is None:
            compiled = shard_plan(plan, sharded, StatsCatalog(sharded))
            cache.put(key, compiled)
        return compiled

    def execution_counts(self) -> dict[str, int]:
        """Routing counts plus this backend's kernel-cache traffic.

        ``scatter``/``single_shard``/``fallback`` count compiled-plan
        routing; ``kernel_cache_hits``/``_misses``/``_evictions`` count
        derived-structure cache traffic attributable to *this* backend's
        executors (the process-wide totals are
        :func:`repro.engine.kernels.cache_stats`).  Worker processes of the
        ``"process"`` backend keep their own in-process caches, so their
        traffic does not appear in the parent's counters.
        ``plans_verified``/``plans_failed`` report the process-wide static
        verifier tallies (see :mod:`repro.engine.verify`) so operators can
        confirm the ``REPRO_VERIFY_PLANS`` hooks actually ran; the
        ``probe_*``/``build_*``/``sel_converted``/``sort_*`` keys are the
        kernel layer's process-wide path counts, likewise the parent's only
        (the ``"process"`` backend adds its workers' as ``worker_*``).
        """
        with self._lock:
            counts = dict(self.counters)
        counts.update(verification_counts())
        counts.update(path_counts())
        return counts

    def _fold(self, sink: dict[str, int]) -> None:
        """Add one execution's counts to ``counters``, under the lock."""
        with self._lock:
            for key, n in sink.items():
                self.counters[key] = self.counters.get(key, 0) + n

    # -- ExecutorBackend ---------------------------------------------------

    def execute(self, plan: Plan, db: Database) -> list[Row]:
        """The one scatter-gather driver: compile, count, run parts, merge.

        Everything one execution counts — its mode, the kernel layer's
        cache traffic, the publisher's and the workers' work — goes to a
        sink of its own, folded into ``counters`` under the lock when it
        ends: concurrent requests never write the shared dict unlocked.
        """
        sharded = self.sharded_view(db)
        compiled = self.plan_for(plan, sharded)
        sink = {_MODE_COUNTERS[compiled.mode]: 1}
        # A fallback reads the source: an auto-sharded copy keeps no delta log.
        view = db if compiled.mode == "fallback" else sharded
        try:
            return compiled.finish(view, self._run_parts(compiled, view, sink),
                                   sink)
        finally:
            self._fold(sink)

    def _run_parts(self, compiled: ShardedPlan, sharded: ShardedDatabase,
                   sink: dict[str, int]) -> list[list[Row]]:
        """Where subplans run: here, inline on the calling thread.

        The one step :class:`~repro.engine.process.ProcessBackend`
        overrides.  Under the GIL a thread pool only interleaves the same
        row work, and measured slower than running the shards in turn.
        """
        return compiled.parts(sharded, sink)


#: ``ShardedPlan.mode`` → the ``execution_counts()`` key it bumps.
_MODE_COUNTERS = {"scatter": "scatter", "single": "single_shard",
                  "fallback": "fallback"}


#: The process-wide backend instance ``get_backend("sharded")`` serves.
SHARDED_BACKEND = ShardedBackend()
