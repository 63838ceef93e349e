"""Property-based differential fuzzing of the executor backends.

The hand-written catalog differentials (``test_vectorized.py``,
``test_sharded.py``, ``test_process.py``) pin the backends together over
a fixed workload; as the backend matrix grows, fixed suites stop covering
the input space.  Following the benchmark-management
argument for generated instance families over curated ones, this suite
*generates* the workload: a hypothesis strategy builds random logical plans
— scans, filters (IS NOT DISTINCT FROM among their comparisons), equi-
and semi/anti-joins, projections (named and positional picks), distinct,
set operations, group-bys, sorts — over small random relations, and asserts

    row ≡ vectorized ≡ kernel ≡ sharded (2 shards on rows; 2 and 3
        on the kernels) ≡ process (2 shards, 2 worker processes)

bag-for-bag on every generated (database, plan) pair, for both the raw and
the optimizer-rewritten plan — and for the plan the serving path would run
after perturbing its literals: a cached template bound to the new values
(bound ≡ fresh-compiled ≡ row).  Two more legs fuzz *histories*: sharded
and plain services' views against fresh recompute, and the process
backend across writes to one database (published run chains, the
workers' resident copies and their extended encodings — none of which a
fresh database per case ever reaches).  Shrinking then turns any divergence into a minimal
counterexample.

Generation invariants (so a failure is always a backend bug, not a
meaningless plan):

* column names are globally unique and encode their type (``c7_int``), so
  references resolve unambiguously and comparisons are always
  type-compatible (the reference semantics raise on mixed-type
  comparisons);
* aggregated columns are integers — partial→final aggregation sums partial
  sums, and integer sums are exact, so AVG division agrees bitwise across
  backends;
* ``LIMIT`` is never generated: without a total order it is legitimately
  nondeterministic across row orders, and the sharded gather permutes row
  order within the bag.

Profiles: the bounded ``ci`` profile (default) keeps the suite inside the
tier-1 budget; ``nightly`` runs an order of magnitude more examples (the
scheduled ``bench-full`` workflow sets ``REPRO_FUZZ_PROFILE=nightly``).
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gates import COLUMNAR, OnShards, pinned_gates, service_on
from repro.data.database import Database
from repro.data.relation import Relation, relation_from_rows
from repro.data.sharded import ShardedDatabase, reshard
from repro.engine import bind_plan, get_backend, optimize
from repro.engine.bind import attach_slots, sentinels_for
from repro.engine.plan import (
    AggregateP,
    DistinctP,
    FilterP,
    JoinP,
    Plan,
    PositionCol,
    ProjectP,
    ScanP,
    SetOpP,
    SortLimitP,
)
from repro.engine.process import ProcessBackend
from repro.engine.sharded import ShardedBackend
from repro.engine.verify import maybe_verify
from repro.expr import ast as e

_COMMON = dict(deadline=None,
               suppress_health_check=[HealthCheck.too_slow,
                                      HealthCheck.data_too_large,
                                      HealthCheck.filter_too_much])
settings.register_profile("ci", max_examples=40, **_COMMON)
settings.register_profile("nightly", max_examples=400, **_COMMON)
settings.load_profile(os.environ.get("REPRO_FUZZ_PROFILE", "ci"))

class _Gated:
    """A backend with the columnar executor's kernel gates pinned.

    Generated relations hold a handful of rows, far below
    ``KERNEL_MIN_ROWS``.  ``min_rows=0`` offers every batch to the numpy
    kernels (without numpy every kernel declines and the leg is the Python
    loops again — still a valid differential leg); ``sys.maxsize`` offers
    none.  Worker pools fork inside ``execute``, so they inherit the pin.
    """

    def __init__(self, backend, min_rows: int) -> None:
        self.backend = backend
        self.min_rows = min_rows

    def execute(self, plan, db, params=()):
        with pinned_gates(self.min_rows):
            return self.backend.execute(plan, db, params)


#: Every generated plan must agree across all of these.
BACKENDS = [
    ("row", get_backend("row")),
    # The one columnar executor, on the row implementations and on its kernels
    # (driven directly: the backend would run these few-row plans on rows).
    ("vectorized", _Gated(COLUMNAR, sys.maxsize)),
    ("kernel", _Gated(COLUMNAR, 0)),
    # The backend itself, its row/columnar decision included.
    ("vectorized-backend", get_backend("vectorized")),
    # Scatter-gather over the row implementations, and with kernels per shard.
    ("sharded-2-loop", _Gated(OnShards(ShardedBackend(), 2), sys.maxsize)),
    ("sharded-2", _Gated(OnShards(ShardedBackend(), 2), 0)),
    ("sharded-3", _Gated(OnShards(ShardedBackend(), 3), 0)),
    # Real worker processes over shared-memory pages; 2 workers keeps the
    # fork cost inside the ci profile's budget.
    ("process-2", _Gated(OnShards(ProcessBackend(workers=2), 2), 0)),
]

#: Int column profiles: the small shared domain (join keys usually match,
#: conditions usually select) three times in four, else one that is negative,
#: sparse and wider than one and two 16-bit digits — offset codes over a wide
#: span, two-pass radix orders, the ranking fallback past 2**32, lookup
#: tables that are not admitted.
_INT_POOLS = [list(range(7))] * 3 + [[-70000, -1, 0, 3, 6, 65536, 2**33]]
_INT_VALUES = st.one_of(st.sampled_from(_INT_POOLS[0]), st.none())
#: String column profiles: a small shared pool (join keys usually match), a
#: high-cardinality pool (dictionary codes dominate values), and a
#: heavy-duplicate pool (repeated entries skew sampling toward one value) —
#: each mixed with ``None`` so dictionary masks and NULL-key join/DISTINCT
#: semantics are exercised on every backend.
_SMALL_POOL = ["a", "b", "c"]
_HIGH_CARD_POOL = [f"s{i:02d}" for i in range(24)]
_HEAVY_DUP_POOL = ["k0"] * 6 + ["k1", "k2"]
_STR_POOLS = [_SMALL_POOL, _HIGH_CARD_POOL, _HEAVY_DUP_POOL]
_STR_CONSTS = ["a", "b", "c", "s03", "s17", "k0"]


class _Names:
    """Globally unique, type-tagged column names for one generated plan."""

    def __init__(self) -> None:
        self.counter = 0

    def fresh(self, dtype: str) -> str:
        self.counter += 1
        return f"c{self.counter}_{dtype}"


def _typed(columns: tuple[str, ...]) -> list[tuple[str, str]]:
    """``(name, dtype)`` pairs recovered from the type-tagged names."""
    return [(c, c.rsplit("_", 1)[1]) for c in columns]


@st.composite
def _relation(draw, names: _Names, index: int):
    arity = draw(st.integers(min_value=2, max_value=4))
    # The first column (the default shard key) is usually int but sometimes a
    # string, so hash-partitioning and point routing run over dictionary-coded
    # keys too.
    dtypes = [draw(st.sampled_from(["int", "int", "str"]))] + [
        draw(st.sampled_from(["int", "str"])) for _ in range(arity - 1)]
    pool = draw(st.sampled_from(_STR_POOLS))
    str_values = st.one_of(st.sampled_from(pool), st.none())
    int_values = st.one_of(st.sampled_from(draw(st.sampled_from(_INT_POOLS))),
                           st.none())
    n_rows = draw(st.integers(min_value=0, max_value=20))
    rows = []
    for _ in range(n_rows):
        rows.append(tuple(
            draw(int_values if d == "int" else str_values) for d in dtypes))
    columns = [(f"r{index}_a{j}", d) for j, d in enumerate(dtypes)]
    return relation_from_rows(f"R{index}", columns, rows), dtypes


@st.composite
def _condition(draw, columns: tuple[str, ...]):
    """A type-compatible boolean condition over ``columns``."""
    typed = _typed(columns)
    name, dtype = draw(st.sampled_from(typed))
    op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
    same_type = [n for n, d in typed if d == dtype and n != name]
    if same_type and draw(st.booleans()):
        other: e.Expr = e.Col(draw(st.sampled_from(same_type)))
        # Between columns, also the NULL-matching equality a calculus or
        # natural join's keys become when the optimizer flattens its tree.
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            op = e.NOT_DISTINCT
    else:
        other = e.Const(draw(st.integers(min_value=0, max_value=6)
                             if dtype == "int"
                             else st.sampled_from(_STR_CONSTS)))
    comparison: e.Expr = e.Comparison(e.Col(name), op, other)
    wrap = draw(st.integers(min_value=0, max_value=3))
    if wrap == 1:
        comparison = e.Not(comparison)
    elif wrap == 2:
        extra = e.Comparison(e.Col(name), "=", other)
        comparison = e.Or((comparison, extra))
    return comparison


@st.composite
def _plan(draw, names: _Names, relations, depth: int):
    """A random plan; returns ``(plan, dtypes_of_output_columns)``."""
    kind = draw(st.sampled_from(
        ["scan", "scan"] if depth <= 0 else
        ["scan", "filter", "project", "join", "semi", "distinct",
         "aggregate", "setop", "sort"]))

    if kind == "scan":
        which = draw(st.integers(min_value=0, max_value=len(relations) - 1))
        relation, dtypes = relations[which]
        columns = tuple(names.fresh(d) for d in dtypes)
        return ScanP(relation.schema.name, columns), tuple(dtypes)

    if kind == "filter":
        plan, dtypes = draw(_plan(names, relations, depth - 1))
        return FilterP(plan, draw(_condition(plan.columns))), dtypes

    if kind == "project":
        plan, dtypes = draw(_plan(names, relations, depth - 1))
        picks = draw(st.lists(
            st.integers(min_value=0, max_value=len(plan.columns) - 1),
            min_size=1, max_size=3))
        # Named picks and the positional ones calculus lowering emits: the
        # optimizer moves filters past both.
        exprs = tuple(PositionCol(p) if draw(st.booleans())
                      else e.Col(plan.columns[p]) for p in picks)
        out = tuple(names.fresh(dtypes[p]) for p in picks)
        return ProjectP(plan, exprs, out), tuple(dtypes[p] for p in picks)

    if kind in ("join", "semi"):
        left, left_dtypes = draw(_plan(names, relations, depth - 1))
        right, right_dtypes = draw(_plan(names, relations, depth - 1))
        pairs = [(lc, rc)
                 for lc, ld in zip(left.columns, left_dtypes)
                 for rc, rd in zip(right.columns, right_dtypes) if ld == rd]
        n_keys = draw(st.integers(min_value=0 if kind == "join" else 1,
                                  max_value=min(2, len(pairs)))) if pairs else 0
        keys = draw(st.permutations(pairs))[:n_keys] if n_keys else []
        null_matches = draw(st.booleans())
        if kind == "semi":
            join_kind = draw(st.sampled_from(["semi", "anti"]))
            if not keys:  # semi/anti need at least one key to be meaningful
                return left, tuple(left_dtypes)
            plan = JoinP(left, right, join_kind,
                         tuple(k for k, _ in keys), tuple(k for _, k in keys),
                         None, null_matches)
            return plan, tuple(left_dtypes)
        join_kind = "inner" if keys else "cross"
        plan = JoinP(left, right, join_kind,
                     tuple(k for k, _ in keys), tuple(k for _, k in keys),
                     None, null_matches)
        return plan, tuple(left_dtypes) + tuple(right_dtypes)

    if kind == "distinct":
        plan, dtypes = draw(_plan(names, relations, depth - 1))
        return DistinctP(plan), dtypes

    if kind == "aggregate":
        plan, dtypes = draw(_plan(names, relations, depth - 1))
        group_picks = draw(st.lists(
            st.integers(min_value=0, max_value=len(plan.columns) - 1),
            min_size=0, max_size=2, unique=True))
        int_columns = [c for c, d in zip(plan.columns, dtypes) if d == "int"]
        calls: list[tuple[e.FuncCall, str]] = [
            (e.FuncCall("count", (e.Star(),)), names.fresh("int"))]
        if int_columns:
            fn = draw(st.sampled_from(["sum", "min", "max", "avg", "count"]))
            target = draw(st.sampled_from(int_columns))
            calls.append((e.FuncCall(fn, (e.Col(target),)),
                          names.fresh("int")))
        agg = AggregateP(plan, tuple(e.Col(plan.columns[p])
                                     for p in group_picks), tuple(calls))
        # Project group keys + aggregate outputs, the columns SQL can
        # legally select; representative columns of straddling groups are
        # backend-dependent by design (documented in repro.engine.sharded).
        exprs = [e.Col(plan.columns[p]) for p in group_picks]
        out_names = [names.fresh(dtypes[p]) for p in group_picks]
        out_dtypes = [dtypes[p] for p in group_picks]
        for _call, agg_name in calls:
            exprs.append(e.Col(agg_name))
            out_names.append(names.fresh("int"))
            out_dtypes.append("int")
        return (ProjectP(agg, tuple(exprs), tuple(out_names)),
                tuple(out_dtypes))

    if kind == "setop":
        plan, dtypes = draw(_plan(names, relations, depth - 1))
        # A second operand over the same source shape keeps the sides
        # union-compatible by construction: re-derive a filtered variant.
        other = FilterP(plan, draw(_condition(plan.columns)))
        op = draw(st.sampled_from(["union", "intersect", "except"]))
        distinct = draw(st.booleans())
        return SetOpP(op, plan, other, distinct), dtypes

    # sort (keys over every column, ascending/descending; never LIMIT)
    plan, dtypes = draw(_plan(names, relations, depth - 1))
    keys = tuple((e.Col(c), draw(st.booleans())) for c in plan.columns)
    return SortLimitP(plan, keys, None), dtypes


@st.composite
def plan_and_database(draw):
    names = _Names()
    n_relations = draw(st.integers(min_value=1, max_value=3))
    relations = [draw(_relation(names, i)) for i in range(n_relations)]
    db = Database(rel for rel, _dtypes in relations)
    plan, _dtypes = draw(_plan(names, relations,
                               draw(st.integers(min_value=1, max_value=3))))
    return db, plan


def _bags(db: Database, plan: Plan) -> dict[str, Counter]:
    return {name: Counter(backend.execute(plan, db))
            for name, backend in BACKENDS}


@given(case=plan_and_database())
def test_backends_agree_on_random_plans(case):
    db, plan = case
    bags = _bags(db, plan)
    reference = bags["row"]
    for name, bag in bags.items():
        assert bag == reference, (
            f"{name} diverged from row on:\n{plan}\n"
            f"row={sorted(reference.items())}\n{name}={sorted(bag.items())}"
        )


@given(case=plan_and_database())
def test_backends_agree_on_optimized_plans(case):
    db, plan = case
    optimized = optimize(plan, db)
    reference = Counter(get_backend("row").execute(plan, db))
    bags = _bags(db, optimized)
    for name, bag in bags.items():
        assert bag == reference, (
            f"{name} diverged on the optimized plan:\n{optimized}\n"
            f"row(raw)={sorted(reference.items())}\n"
            f"{name}={sorted(bag.items())}"
        )


# ---------------------------------------------------------------------------
# Bound plans: a template bound to new literals ≡ the fresh compile
# ---------------------------------------------------------------------------
#
# The serving path caches one optimized plan per query *shape* and binds
# executes it with each request's literals as parameters
# (``repro.engine.bind``).  This leg treats a generated plan's constants, in
# traversal order, as the literals of its text: the slots are attached by
# the same two-point discovery the pipeline uses, the slotted plan is
# optimized once (for the first-seen literals), and then run with
# *perturbed* literals — bound into a plan of plain constants, and as the
# template itself with the literals as parameters — which must both give
# the rows of the perturbed plan compiled from scratch, on every backend.  ``_with_literals``
# is deliberately not the code under test: it rebuilds the handful of node
# types the generator emits.

def _literals_of(plan: Plan) -> list:
    out: list = []

    def expr(node: e.Expr) -> None:
        if isinstance(node, e.Const):
            out.append(node.value)
        for child in node.children():
            expr(child)

    def visit(node: Plan) -> None:
        if isinstance(node, FilterP):
            expr(node.condition)
        for child in node.children():
            visit(child)

    visit(plan)
    return out


def _with_literals(plan: Plan, values: list) -> Plan:
    """``plan`` with its constants replaced, in ``_literals_of`` order."""
    pending = iter(values)

    def expr(node: e.Expr) -> e.Expr:
        if isinstance(node, e.Const):
            return e.Const(next(pending))
        if isinstance(node, e.Comparison):
            return e.Comparison(expr(node.left), node.op, expr(node.right))
        if isinstance(node, e.Not):
            return e.Not(expr(node.operand))
        if isinstance(node, e.Or):
            return e.Or(tuple(expr(o) for o in node.operands))
        assert isinstance(node, e.Col), node
        return node

    def visit(node: Plan) -> Plan:
        if isinstance(node, FilterP):
            condition = expr(node.condition)   # before the input, as above
            return FilterP(visit(node.input), condition)
        return node.with_children([visit(child)
                                   for child in node.children()])

    return visit(plan)


@st.composite
def plan_database_and_literals(draw):
    db, plan = draw(plan_and_database())
    perturbed = [draw(st.integers(min_value=0, max_value=6))
                 if isinstance(value, int)
                 else draw(st.sampled_from(_STR_CONSTS))
                 for value in _literals_of(plan)]
    return db, plan, perturbed


_BOUND_BACKENDS = [item for item in BACKENDS
                   if item[0] in ("row", "vectorized", "kernel", "sharded-2")]


@given(case=plan_database_and_literals())
def test_bound_plans_agree_with_fresh_compiles(case):
    db, plan, perturbed = case
    first_seen = _literals_of(plan)
    sentinels = sentinels_for(first_seen)
    slotted = attach_slots(plan, _with_literals(plan, list(sentinels)),
                           first_seen, sentinels)
    assert slotted is not None, f"discovery refused a plain plan:\n{plan}"
    template = optimize(slotted, db)
    for values in (first_seen, perturbed):
        fresh = _with_literals(plan, values)
        assert _literals_of(fresh) == values
        bound = maybe_verify(bind_plan(template, values), db, rule="bind")
        reference = Counter(get_backend("row").execute(fresh, db))
        compiled = Counter(get_backend("row").execute(optimize(fresh, db), db))
        assert compiled == reference
        for name, backend in _BOUND_BACKENDS:
            bag = Counter(backend.execute(bound, db))
            assert bag == reference, (
                f"{name} diverged on the plan bound to {values}:\n{bound}\n"
                f"fresh(row)={sorted(reference.items())}\n"
                f"bound={sorted(bag.items())}")
            bag = Counter(backend.execute(template, db, tuple(values)))
            assert bag == reference, (
                f"{name} diverged on the template run with params "
                f"{values}:\n{template}\n"
                f"fresh(row)={sorted(reference.items())}\n"
                f"params={sorted(bag.items())}")


# ---------------------------------------------------------------------------
# Sharded materialized views: maintained ≡ freshly recomputed, always
# ---------------------------------------------------------------------------
#
# The leg above fuzzes *plans*; this one fuzzes *histories*.  A random
# subset of the catalog views plus one or two aggregate views is
# registered on a sharded service and on a plain one, then a random stream
# of routed inserts (single rows and batches) — with a reshard of the
# sharded service to a random shard count dropped mid-stream — is applied
# to both, and after every operation every view's maintained answer must
# be bag-equal to a fresh recompute of the same query over the same
# logical contents (a third, view-less service absorbing the identical
# write stream).
# Divergence at any version means a maintenance bug: a missed delta, a
# stale broadcast alias, a partial combined wrong, or a reshard that
# leaked old-layout state.

_SAILORS_WRITES = {
    "Sailors": lambda draw: (draw(st.integers(100, 140)),
                             draw(st.sampled_from(["uma", "viv", "wes"])),
                             draw(st.integers(1, 10)),
                             float(draw(st.integers(18, 60)))),
    "Reserves": lambda draw: (draw(st.integers(22, 95)),
                              draw(st.integers(101, 104)),
                              f"2025/08/{draw(st.integers(1, 28)):02d}"),
    "Boats": lambda draw: (draw(st.integers(105, 120)),
                           draw(st.sampled_from(["Lark", "Mist", "Gale"])),
                           draw(st.sampled_from(["red", "green", "blue"]))),
}


#: Aggregate views drawn beside the catalog's, none of which aggregates:
#: the sharded-write-mix workload's two, a grouped AVG / MIN(string) /
#: COUNT(x), an ungrouped aggregate whose filter starts empty, a HAVING,
#: and a COUNT(DISTINCT) (which rebuilds on refresh).
_AGGREGATE_VIEWS = (
    "SELECT R.bid, COUNT(*) AS n FROM Reserves R GROUP BY R.bid",
    "SELECT B.color, COUNT(*) AS n FROM Reserves R, Boats B "
    "WHERE R.bid = B.bid GROUP BY B.color",
    "SELECT S.rating, AVG(S.age) AS avg_age, MIN(S.sname) AS first_name, "
    "COUNT(R.day) AS n FROM Sailors S, Reserves R WHERE S.sid = R.sid "
    "GROUP BY S.rating",
    "SELECT COUNT(*) AS n, SUM(R.bid) AS total, MAX(R.day) AS last_day "
    "FROM Reserves R WHERE R.day > '2000'",
    "SELECT R.sid, COUNT(*) AS n FROM Reserves R GROUP BY R.sid "
    "HAVING COUNT(*) > 1",
    "SELECT S.rating, COUNT(DISTINCT S.age) AS n FROM Sailors S "
    "GROUP BY S.rating",
)


@st.composite
def view_history(draw):
    from repro.queries import CANONICAL_QUERIES

    picks = draw(st.lists(
        st.tuples(st.integers(0, len(CANONICAL_QUERIES) - 1),
                  st.sampled_from(["SQL", "RA", "Datalog"])),
        min_size=1, max_size=3, unique=True))
    views = [(CANONICAL_QUERIES[i].languages()[lang], lang.lower())
             for i, lang in picks]
    views += [(text, "sql") for text in draw(st.lists(
        st.sampled_from(_AGGREGATE_VIEWS), min_size=1, max_size=2,
        unique=True))]
    n_ops = draw(st.integers(min_value=3, max_value=6))
    ops = []
    for _ in range(n_ops):
        relation = draw(st.sampled_from(sorted(_SAILORS_WRITES)))
        make = _SAILORS_WRITES[relation]
        batch = draw(st.booleans())
        rows = [make(draw) for _ in range(draw(st.integers(2, 4)) if batch
                                          else 1)]
        ops.append((relation, rows, batch))
    reshard_at = draw(st.integers(min_value=0, max_value=n_ops))
    reshard_to = draw(st.integers(min_value=1, max_value=4))
    return views, ops, reshard_at, reshard_to


@settings(max_examples=max(8, settings().max_examples // 5), **_COMMON)
@given(case=view_history())
def test_sharded_views_track_fresh_recompute(case):
    from repro.core import QueryService, ShardedQueryService
    from repro.data import sailors_database

    views, ops, reshard_at, reshard_to = case
    fresh_service = QueryService(sailors_database())
    plain = service_on(sailors_database(), "vectorized")
    service = ShardedQueryService(sailors_database(), n_shards=2)
    handles = [(target.register_view(text, language=language), text,
                language) for target in (service, plain)
               for text, language in views]

    def check(moment):
        for view, text, language in handles:
            fresh = fresh_service.answer(text, language=language)
            assert view.answer().bag_equal(fresh), (
                f"view {text!r} ({language}, {view.strategy}) diverged "
                f"{moment}: maintained={sorted(view.answer().rows())} "
                f"fresh={sorted(fresh.rows())}")

    check("at registration")
    for step, (relation, rows, batch) in enumerate(ops):
        if step == reshard_at:
            service.reshard(reshard_to)
            check(f"after reshard to {reshard_to}")
        for target in (service, plain, fresh_service):
            if batch:
                target.add_rows(relation, rows)
            else:
                target.add_row(relation, rows[0])
        check(f"after write #{step} to {relation}")
    if reshard_at == len(ops):
        service.reshard(reshard_to)
        check(f"after trailing reshard to {reshard_to}")
    service.close()
    plain.close()
    fresh_service.close()


# ---------------------------------------------------------------------------
# Write histories on the process backend: process ≡ vectorized ≡ row, always
# ---------------------------------------------------------------------------
#
# Every ``process-2`` case above builds fresh relations, so each is
# published once, in full, and no worker ever extends anything.  This leg
# keeps ONE sharded database and ONE pool across a generated history of
# routed writes and checks a generated plan after every step.  The written
# values are chosen to break a chain of row-range runs where it is
# thinnest: a column's first ``None`` arriving in a tail, an int column
# turning mixed mid-chain (a float, a bool beside ints, an int beyond
# int64: ``q`` pages followed by ``o``/``E`` ones, a kernel encoding that
# must stop being extended), strings sorting before / between / after the
# base dictionary, an empty batch, writes to relations the plan reads as a
# broadcast alias (a full republish under a new lineage), and a
# ``reshard()`` or an ``add_relation`` replacement mid-history (new
# lineages, old runs unlinked).  All but the bool stay comparable with
# their column's type in the reference semantics; a plan that compares the
# column a bool landed in is a type error (``ExprError``) wherever a
# comparison is actually evaluated — a first ``col = const`` conjunct that
# either executor answers from a ``key_index`` bucket evaluates none, while
# a worker's frozen snapshot, holding no index, scans and raises — and the
# history stops at that step: what must agree is answers, not errors.

_WILD_INTS = st.sampled_from([True, 2.0, 2**70])
_WILD_STRS = st.sampled_from(["", "A", "bb", "s0", "zz"])


@st.composite
def write_history(draw):
    names = _Names()
    n_relations = draw(st.integers(min_value=1, max_value=3))
    relations = [draw(_relation(names, i)) for i in range(n_relations)]
    plan, _dtypes = draw(_plan(names, relations,
                               draw(st.integers(min_value=1, max_value=3))))
    pool = draw(st.sampled_from(_STR_POOLS))
    values = {
        "int": st.one_of(_INT_VALUES, _INT_VALUES, _WILD_INTS),
        "str": st.one_of(st.sampled_from(pool), st.none(), _WILD_STRS),
    }
    ops = []
    for _ in range(draw(st.integers(min_value=3, max_value=6))):
        kind = draw(st.sampled_from(["write"] * 6 + ["replace", "reshard"]))
        if kind == "reshard":
            ops.append((kind, draw(st.integers(min_value=1, max_value=3)),
                        None))
            continue
        relation, dtypes = draw(st.sampled_from(relations))
        rows = [tuple(draw(values[d]) for d in dtypes)
                for _ in range(draw(st.integers(min_value=0, max_value=4)))]
        ops.append((kind, relation.schema, rows))
    return [relation for relation, _dtypes in relations], plan, ops


#: One pool per kernel setting for the whole module, not per example:
#: kernels on is the ``process-2`` pool above; ``REPRO_KERNELS=0`` needs
#: workers forked under it (the flag is read from each process's environ).
_HISTORY_PROCESS = {
    True: dict(BACKENDS)["process-2"],
    False: _Gated(ProcessBackend(workers=2), 0),
}


@pytest.mark.parametrize("kernels_on", [True, False],
                         ids=["kernels", "REPRO_KERNELS=0"])
@settings(max_examples=max(8, settings().max_examples // 5), **_COMMON)
@given(case=write_history())
def test_process_tracks_write_histories(kernels_on, case):
    relations, plan, ops = case
    backends = [("vectorized", dict(BACKENDS)["vectorized"]),
                ("process", _HISTORY_PROCESS[kernels_on])]
    env = {} if kernels_on else {"REPRO_KERNELS": "0"}
    sharded = ShardedDatabase(
        (Relation(r.schema, r.rows(), validate=False) for r in relations),
        n_shards=2)

    def check(moment):
        try:
            reference = Counter(get_backend("row").execute(plan, sharded))
            bags = [(name, Counter(backend.execute(plan, sharded)))
                    for name, backend in backends]
        except e.ExprError:
            return False
        for name, bag in bags:
            assert bag == reference, (
                f"{name} diverged from row {moment} on:\n{plan}\n"
                f"row={sorted(reference.items(), key=repr)}\n"
                f"{name}={sorted(bag.items(), key=repr)}")
        return True

    with mock.patch.dict(os.environ, env):
        try:
            check("before any write")
            for step, (kind, target, rows) in enumerate(ops):
                if kind == "reshard":
                    wider = reshard(sharded, target)
                    sharded.close()
                    sharded = wider
                elif kind == "replace":
                    sharded.add_relation(
                        Relation(target, rows, validate=False))
                else:
                    sharded.add_rows(target.name, rows, validate=False)
                if not check(f"after #{step} {kind} {rows!r}"):
                    break
        finally:
            sharded.close()
