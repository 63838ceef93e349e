"""The sharded scatter-gather subsystem: storage, planner, backend, service.

Four surfaces:

* :class:`ShardedDatabase` — hash-partitioned storage whose merged read
  views agree with the source database and whose routed writes land on the
  owning shard;
* the shard-aware planner (:func:`repro.engine.sharded.shard_plan`) —
  co-partitioned scatter joins, broadcast of small non-co-partitioned
  sides, partial→final aggregation splits, single-shard point routing, and
  the single-node fallback;
* the ``"sharded"`` backend — bag-equal to ``"vectorized"`` over the whole
  canonical catalog at 1, 2, and 4 shards (the acceptance gate), with the
  kernels forced on per shard, and running every subplan inline on the
  calling thread;
* :class:`ShardedQueryService` — routed writes, the shard-version-vector
  result-cache key, and the point-query serving path.
"""

from __future__ import annotations

import threading
from unittest import mock

import pytest

import repro.engine.kernels as kernels
from gates import OnShards, pinned_gates
from repro.data import ShardedDatabase, reshard, sailors_database
from repro.data.database import Database
from repro.data.relation import RelationError, relation_from_rows
from repro.data.sailors import random_sailors_database
from repro.data.schema import SchemaError
from repro.engine import execute_plan, lower, optimize, run_query
from repro.engine.execute import Program
from repro.engine.sharded import ShardedBackend, shard_plan, split_aggregate
from repro.engine.stats import StatsCatalog
from repro.queries import CANONICAL_QUERIES, LANGUAGES

SHARD_COUNTS = (1, 2, 4)

PLAN_CELLS = [
    pytest.param(query, language, shards,
                 id=f"{query.id}-{language}-{shards}sh")
    for query in CANONICAL_QUERIES
    for language in LANGUAGES
    for shards in SHARD_COUNTS
]

KERNEL_CELLS = [
    pytest.param(query, language, id=f"{query.id}-{language}")
    for query in CANONICAL_QUERIES
    for language in LANGUAGES
]


class TestDifferentialSharded:
    """sharded == vectorized, whole catalog, at 1, 2, and 4 shards."""

    @pytest.mark.parametrize("query,language,shards", PLAN_CELLS)
    def test_catalog_agrees_with_vectorized(self, db, query, language, shards):
        text = query.languages()[language]
        plan = optimize(lower(text, db.schema, language.lower()), db)
        vectorized = execute_plan(plan, db, backend="vectorized")
        sharded = execute_plan(plan, ShardedDatabase.from_database(db, shards),
                               backend=ShardedBackend())
        assert vectorized.bag_equal(sharded), (
            f"{query.id}/{language}@{shards} shards: "
            f"vectorized {sorted(vectorized.rows())} "
            f"!= sharded {sorted(sharded.rows())}"
        )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_datalog_catalog_through_run_query(self, db, shards):
        # A Datalog program is one plan; the sharded database must serve it
        # like a plain database.
        sharded = ShardedDatabase.from_database(db, shards)
        for query in CANONICAL_QUERIES:
            want = run_query(query.datalog, db, "datalog")
            got = run_query(query.datalog, sharded, "datalog")
            assert want.bag_equal(got), query.id

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_a_fixpoint_runs_once_over_the_merged_relations(self, db, shards):
        # Joined with a scattered relation, the fixpoint may not become a
        # broadcast side: its rule bodies read working relations no shard
        # holds.
        from repro.datalog.evaluate import evaluate_datalog

        program = ("reach(X, Y) :- reserves(X, Y, D).\n"
                   "reach(X, Z) :- reach(X, Y), reserves(Y, Z, D).\n"
                   "ans(N, Z) :- sailors(X, N, R, A), reach(X, Z).")
        sharded = ShardedDatabase.from_database(db, shards)
        plan = optimize(lower(program, db.schema), db)
        assert shard_plan(plan, sharded).mode == "fallback"
        assert run_query(program, sharded, backend=ShardedBackend()
                         ).bag_equal(evaluate_datalog(program, db))

    def test_a_plain_database_is_refused(self, db):
        # The tier's one way in is a ShardedDatabase: nothing partitions a
        # plain database behind the caller's back.
        sql = "SELECT S.sname, R.bid FROM Sailors S, Reserves R WHERE S.sid = R.sid"
        with pytest.raises(TypeError, match="ShardedDatabase"):
            run_query(sql, db, "sql", backend=ShardedBackend())

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardedDatabase(n_shards=0)


class TestInlineScatter:
    """Per-shard subplans run inline, in turn, on the calling thread."""

    @pytest.mark.parametrize("query,language", KERNEL_CELLS)
    def test_catalog_with_kernels_per_shard_agrees(self, db, query, language):
        # The canonical instance is far below KERNEL_MIN_ROWS; a zero gate
        # offers every per-shard batch to the numpy kernels.
        text = query.languages()[language]
        plan = optimize(lower(text, db.schema, language.lower()), db)
        vectorized = execute_plan(plan, db, backend="vectorized")
        with pinned_gates(0):
            sharded = execute_plan(plan, ShardedDatabase.from_database(db, 2),
                                   backend=ShardedBackend())
        assert vectorized.bag_equal(sharded), (
            f"{query.id}/{language}: vectorized {sorted(vectorized.rows())} "
            f"!= sharded {sorted(sharded.rows())}"
        )

    def test_subplans_run_on_the_calling_thread(self, db):
        sql = ("SELECT S.rating, COUNT(*) AS n FROM Sailors S, Reserves R "
               "WHERE S.sid = R.sid GROUP BY S.rating")
        plan = optimize(lower(sql, db.schema, "sql"), db)
        sharded = ShardedDatabase.from_database(db, 4)
        backend = ShardedBackend()
        assert backend.plan_for(plan, sharded).mode == "scatter"
        call = Program.__call__
        threads: list[int] = []

        def spy(program, *args, **kwargs):
            threads.append(threading.get_ident())
            return call(program, *args, **kwargs)

        alive = threading.active_count()
        with mock.patch.object(Program, "__call__", spy):
            got = execute_plan(plan, sharded, backend=backend)
        assert len(threads) >= 4
        assert set(threads) == {threading.get_ident()}
        assert threading.active_count() == alive
        assert run_query(sql, db, "sql", backend="vectorized").bag_equal(got)

    def test_concurrent_callers_each_run_their_own_shards(self, db):
        sql = ("SELECT S.sname, R.bid FROM Sailors S, Reserves R "
               "WHERE S.sid = R.sid")
        plan = optimize(lower(sql, db.schema, "sql"), db)
        want = execute_plan(plan, db, backend="vectorized")
        backend = OnShards(ShardedBackend(), 3)
        call = Program.__call__
        callers: list[int] = []
        answers: dict[int, object] = {}
        start = threading.Barrier(4)

        def spy(program, *args, **kwargs):
            callers.append(threading.get_ident())
            return call(program, *args, **kwargs)

        def reader():
            start.wait()
            answers[threading.get_ident()] = execute_plan(plan, db,
                                                          backend=backend)

        with mock.patch.object(Program, "__call__", spy):
            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert len(answers) == 4
        # Every subplan ran on one of the four reader threads, and each
        # reader ran its own: no worker thread ever appears.
        assert set(callers) == set(answers)
        for got in answers.values():
            assert want.bag_equal(got)
        assert backend.execution_counts()["scatter"] == 4

    @pytest.mark.skipif(not kernels.kernels_enabled(),
                        reason="counts the numpy kernels' cache lookups")
    def test_concurrent_counts_fold_exactly(self, db):
        """Each execution counts into a sink of its own, folded under the
        backend's lock: N readers × M scatters lose no kernel-cache bump."""
        sql = ("SELECT S.sname, R.bid FROM Sailors S, Reserves R "
               "WHERE S.sid = R.sid")
        plan = optimize(lower(sql, db.schema, "sql"), db)
        sharded = ShardedDatabase.from_database(db, 2)
        backend = ShardedBackend()
        n_readers, n_scatters = 6, 25
        start = threading.Barrier(n_readers)

        def reader():
            start.wait()
            for _ in range(n_scatters):
                execute_plan(plan, sharded, backend=backend)

        with pinned_gates(0):
            before = kernels.cache_stats()
            threads = [threading.Thread(target=reader)
                       for _ in range(n_readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            after = kernels.cache_stats()
        counts = backend.execution_counts()
        lookups = (after["hits"] + after["misses"]) \
            - (before["hits"] + before["misses"])
        assert lookups >= n_readers * n_scatters
        assert counts["kernel_cache_hits"] + counts["kernel_cache_misses"] \
            == lookups
        assert counts["scatter"] == n_readers * n_scatters

    def test_the_driver_counts_each_mode(self, db):
        sharded = ShardedDatabase.from_database(db, 4)
        backend = ShardedBackend()
        shapes = {  # a routed point query compiles to a pinned scatter
            "scatter": "SELECT S.sname FROM Sailors S WHERE S.rating > 5",
            "single_shard": "SELECT S.sname FROM Sailors S WHERE S.sid = 22",
            "fallback": ("SELECT S.sname FROM Sailors S "
                         "EXCEPT SELECT B.bname FROM Boats B"),
        }
        for count, sql in shapes.items():
            plan = optimize(lower(sql, db.schema, "sql"), db)
            compiled = backend.plan_for(plan, sharded)
            assert compiled.mode == ("fallback" if count == "fallback"
                                     else "scatter")
            assert bool(compiled.pins) == (count == "single_shard")
            want = run_query(sql, db, "sql", backend="vectorized")
            assert want.bag_equal(execute_plan(plan, sharded, backend=backend))
        counts = backend.execution_counts()
        assert (counts["scatter"], counts["single_shard"],
                counts["fallback"]) == (1, 1, 1)

    def test_backend_at_scale(self):
        db = random_sailors_database(n_sailors=300, n_boats=20,
                                     n_reserves=3000, seed=13)
        shapes = [
            ("SELECT DISTINCT S.sname FROM Sailors S, Reserves R, Boats B "
             "WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = 'red'"),
            ("SELECT S.rating, COUNT(*) AS n, AVG(S.age) AS a "
             "FROM Sailors S, Reserves R WHERE S.sid = R.sid "
             "GROUP BY S.rating"),
            ("SELECT R.bid, COUNT(*) AS n FROM Reserves R GROUP BY R.bid"),
        ]
        for sql in shapes:
            vectorized = run_query(sql, db, "sql", backend="vectorized")
            sharded = run_query(sql, db, "sql",
                                backend=OnShards(ShardedBackend(), 4))
            assert vectorized.bag_equal(sharded), sql

    def test_multi_key_join_and_group(self, db):
        sql = ("SELECT R.sid, R.bid, COUNT(*) AS n FROM Reserves R "
               "GROUP BY R.sid, R.bid")
        vectorized = run_query(sql, db, "sql", backend="vectorized")
        sharded = execute_plan(
            optimize(lower(sql, db.schema, "sql"), db),
            ShardedDatabase.from_database(db, 3),
            backend=ShardedBackend())
        assert vectorized.bag_equal(sharded)

    def test_null_keys_never_match_in_scattered_probe(self):
        left = relation_from_rows("L", [("k", "int"), ("v", "str")],
                                  [(1, "a"), (None, "b"), (2, "c"), (1, "d")])
        right = relation_from_rows("R", [("k", "int"), ("w", "str")],
                                   [(1, "x"), (None, "y"), (3, "z")])
        db = Database([left, right])
        sql = "SELECT L.v, R.w FROM L, R WHERE L.k = R.k"
        vectorized = run_query(sql, db, "sql", backend="vectorized")
        sharded = execute_plan(
            optimize(lower(sql, db.schema, "sql"), db), db,
            backend=OnShards(ShardedBackend(), 3))
        assert vectorized.bag_equal(sharded)
        assert set(sharded.rows()) == {("a", "x"), ("d", "x")}


class TestShardedDatabase:
    def test_partitioning_respects_the_shard_key(self, db):
        sharded = ShardedDatabase.from_database(db, 3)
        for name in ("Sailors", "Boats", "Reserves"):
            attrs = sharded.shard_key(name)
            schema = sharded.shard(0).relation(name).schema
            positions = [schema.index_of(a) for a in attrs]
            for i in range(3):
                for row in sharded.shard(i).relation(name).rows():
                    key = row[positions[0]] if len(positions) == 1 \
                        else tuple(row[p] for p in positions)
                    assert sharded.shard_of_value(key) == i

    def test_merged_views_agree_with_the_source(self, db):
        sharded = ShardedDatabase.from_database(db, 4)
        for rel in db:
            merged = sharded.relation(rel.schema.name)
            assert merged.bag_equal(rel)
            assert merged.schema.attribute_names == rel.schema.attribute_names
        assert sharded.total_rows() == db.total_rows()
        assert sharded.active_domain() == db.active_domain()
        assert set(sharded.relation_names) == set(db.relation_names)

    def test_merged_views_are_frozen(self, db):
        sharded = ShardedDatabase.from_database(db, 2)
        with pytest.raises(RelationError):
            sharded.relation("Sailors").add((999, "x", 1, 20.0))

    def test_routed_write_lands_on_the_owning_shard(self, db):
        sharded = ShardedDatabase.from_database(db, 4)
        row = (999, 101, "2025-06-01")
        owner = sharded.shard_of_row("Reserves", row)
        before = [len(sharded.shard(i).relation("Reserves")) for i in range(4)]
        assert sharded.add_row("Reserves", row) == owner
        after = [len(sharded.shard(i).relation("Reserves")) for i in range(4)]
        assert after[owner] == before[owner] + 1
        assert sum(after) == sum(before) + 1
        assert row in sharded.relation("Reserves").row_set()

    def test_batch_writes_are_all_or_nothing_across_shards(self, db):
        # Regression: a validation failure anywhere in the batch must leave
        # no shard with a partial write, mirroring Relation.add_rows.
        sharded = ShardedDatabase.from_database(db, 4)
        before_total = sharded.total_rows()
        before_versions = sharded.shard_versions()
        rows = [(95, "good", 5, 30.0),
                (96, "bad", "not-an-int", 30.0)]  # invalid rating
        with pytest.raises(RelationError):
            sharded.add_rows("Sailors", rows)
        assert sharded.total_rows() == before_total
        assert sharded.shard_versions() == before_versions

    def test_batch_writes_route_and_bump_once_per_shard(self, db):
        sharded = ShardedDatabase.from_database(db, 4)
        before = sharded.shard_versions()
        rows = [(1000 + i, 101 + (i % 3), "2025-06-02") for i in range(12)]
        placed = sharded.add_rows("Reserves", rows)
        assert sum(placed.values()) == 12
        after = sharded.shard_versions()
        for i in range(4):
            assert after[i] - before[i] == (1 if i in placed else 0)

    def test_shard_version_vector_moves_one_component_per_write(self, db):
        sharded = ShardedDatabase.from_database(db, 4)
        v0 = sharded.shard_versions()
        version0 = sharded.version
        sharded.add_row("Sailors", (777, "zed", 5, 31.0))
        v1 = sharded.shard_versions()
        assert sum(1 for a, b in zip(v0, v1) if a != b) == 1
        assert sharded.version > version0

    def test_zero_arity_relations_shard_without_crashing(self):
        # The calculi's TRUE/FALSE tables are 0-ary; the empty default key
        # sends every row to one shard, which is exact.
        from repro.data.schema import RelationSchema
        from repro.data.relation import Relation

        dee = Relation(RelationSchema("Dee", ()), [(), ()])
        sharded = ShardedDatabase([dee], n_shards=3)
        assert sharded.shard_key("Dee") == ()
        merged = sharded.relation("Dee")
        assert merged.bag_equal(dee)
        owners = {i for i in range(3) if len(sharded.shard(i).relation("Dee"))}
        assert len(owners) == 1  # all rows co-located

    def test_custom_shard_keys(self, db):
        sharded = ShardedDatabase.from_database(
            db, 2, shard_keys={"Reserves": "bid", "Sailors": ("sid",)})
        assert sharded.shard_key("Reserves") == ("bid",)
        assert sharded.shard_key("Sailors") == ("sid",)
        assert sharded.shard_key("Boats") == ("bid",)  # default: first attr
        with pytest.raises(SchemaError):
            ShardedDatabase.from_database(
                db, 2, shard_keys={"Boats": "no_such_attr"})

    def test_drop_and_replace_relation(self, db):
        sharded = ShardedDatabase.from_database(db, 2)
        version = sharded.version
        sharded.drop_relation("Boats")
        assert "Boats" not in sharded
        assert sharded.version > version
        with pytest.raises(SchemaError):
            sharded.relation("Boats")
        extra = relation_from_rows("Extra", [("k", "int")], [(1,), (2,)])
        sharded.add_relation(extra)
        assert sharded.relation("Extra").bag_equal(extra)

    def test_copy_and_reshard_preserve_contents(self, db):
        sharded = ShardedDatabase.from_database(db, 2)
        copy = sharded.copy()
        assert copy.n_shards == 2
        assert copy.relation("Sailors").bag_equal(sharded.relation("Sailors"))
        resharded = reshard(sharded, 5)
        assert resharded.n_shards == 5
        assert resharded.relation("Sailors").bag_equal(
            sharded.relation("Sailors"))
        assert resharded.shard_key("Sailors") == sharded.shard_key("Sailors")


class TestPlannerShapes:
    @pytest.fixture
    def sharded(self, db):
        return ShardedDatabase.from_database(db, 4)

    def _plan(self, db, sql):
        return optimize(lower(sql, db.schema, "sql"), db)

    def test_co_partitioned_join_scatters_without_broadcast(self, db, sharded):
        sql = ("SELECT S.sname, R.bid FROM Sailors S, Reserves R "
               "WHERE S.sid = R.sid")
        compiled = shard_plan(self._plan(db, sql), sharded,
                              StatsCatalog(sharded))
        assert compiled.mode == "scatter"
        assert compiled.partitioned == {"sailors", "reserves"}
        assert not compiled.broadcast

    def test_non_co_partitioned_side_is_broadcast(self, db, sharded):
        sql = ("SELECT R.day, B.color FROM Reserves R, Boats B "
               "WHERE R.bid = B.bid")
        compiled = shard_plan(self._plan(db, sql), sharded,
                              StatsCatalog(sharded))
        assert compiled.mode == "scatter"
        # Reserves partitions on sid, Boats on bid: the smaller Boats side
        # is replicated to every shard.
        assert "boats" in compiled.broadcast
        assert "reserves" in compiled.partitioned

    def test_group_by_off_the_key_splits_partial_final(self, db, sharded):
        sql = ("SELECT S.rating, COUNT(*) AS n, AVG(S.age) AS a "
               "FROM Sailors S GROUP BY S.rating")
        compiled = shard_plan(self._plan(db, sql), sharded,
                              StatsCatalog(sharded))
        assert compiled.mode == "scatter"
        assert compiled.combine is not None
        assert "partial-aggregate" in compiled.describe()

    def test_group_by_on_the_key_needs_no_split(self, db, sharded):
        sql = "SELECT S.sid, COUNT(*) AS n FROM Sailors S GROUP BY S.sid"
        compiled = shard_plan(self._plan(db, sql), sharded,
                              StatsCatalog(sharded))
        assert compiled.mode == "scatter"
        assert compiled.combine is None

    def test_point_query_routes_to_one_shard(self, db, sharded):
        sql = "SELECT S.sname FROM Sailors S WHERE S.sid = 22"
        compiled = shard_plan(self._plan(db, sql), sharded,
                              StatsCatalog(sharded))
        assert compiled.mode == "scatter" and compiled.pins
        assert compiled.route(sharded) == sharded.shard_of_value(22)

    def test_limit_runs_globally_on_the_merge_step(self, db, sharded):
        # Per-shard LIMIT would drop the wrong rows; the planner sheds the
        # sort/limit onto the merge step, which applies it once over the
        # gathered bag.
        sql = "SELECT S.sname FROM Sailors S ORDER BY S.sname LIMIT 3"
        compiled = shard_plan(self._plan(db, sql), sharded,
                              StatsCatalog(sharded))
        assert compiled.mode == "scatter"
        assert "merge-finish" in compiled.describe()

    def test_order_by_without_limit_sorts_globally(self, db, sharded):
        # Regression: per-shard sorted runs must not be concatenated as-is;
        # the merge step replays the sort over the gathered bag, so the
        # output order (distinct keys) matches vectorized exactly.
        sql = "SELECT S.sname, S.sid FROM Sailors S ORDER BY S.sid DESC"
        plan = self._plan(db, sql)
        compiled = shard_plan(plan, sharded, StatsCatalog(sharded))
        assert compiled.mode == "scatter"
        assert "merge-finish" in compiled.describe()
        want = execute_plan(plan, db, backend="vectorized")
        got = execute_plan(plan, sharded, backend=ShardedBackend())
        assert want.rows() == got.rows()  # order-identical, not just bag

    def test_unalignable_set_difference_falls_back(self, db, sharded):
        # Both projections drop their partition keys, so equal rows could
        # straddle shards and EXCEPT cannot run per shard.
        sql = ("SELECT S.sname FROM Sailors S "
               "EXCEPT SELECT B.bname FROM Boats B")
        compiled = shard_plan(self._plan(db, sql), sharded,
                              StatsCatalog(sharded))
        assert compiled.mode == "fallback"
        want = run_query(sql, db, "sql", backend="vectorized")
        got = execute_plan(self._plan(db, sql), sharded,
                           backend=ShardedBackend())
        assert want.bag_equal(got)

    def test_distinct_aggregate_falls_back(self, db, sharded):
        sql = ("SELECT S.rating, COUNT(DISTINCT S.age) AS n "
               "FROM Sailors S GROUP BY S.rating")
        plan = self._plan(db, sql)
        compiled = shard_plan(plan, sharded, StatsCatalog(sharded))
        # COUNT(DISTINCT) cannot combine from partial states...
        assert compiled.combine is None
        # ...and split_aggregate says so directly.
        from repro.engine.plan import AggregateP

        agg = next(n for n in plan.walk() if isinstance(n, AggregateP))
        assert split_aggregate(agg) is None

    def test_execution_matches_vectorized_for_every_shape(self, db, sharded):
        shapes = [
            "SELECT S.sname, R.bid FROM Sailors S, Reserves R WHERE S.sid = R.sid",
            "SELECT R.day, B.color FROM Reserves R, Boats B WHERE R.bid = B.bid",
            "SELECT S.rating, COUNT(*) AS n, AVG(S.age) AS a "
            "FROM Sailors S GROUP BY S.rating",
            "SELECT S.sid, COUNT(*) AS n FROM Sailors S GROUP BY S.sid",
            "SELECT S.sname FROM Sailors S WHERE S.sid = 22",
            "SELECT S.sname FROM Sailors S ORDER BY S.sname LIMIT 3",
            "SELECT COUNT(*) AS n, MAX(S.age) AS m FROM Sailors S "
            "WHERE S.rating > 99",  # ungrouped aggregate over empty input
        ]
        backend = ShardedBackend()
        for sql in shapes:
            want = run_query(sql, db, "sql", backend="vectorized")
            got = execute_plan(self._plan(db, sql), sharded, backend=backend)
            assert want.bag_equal(got), sql


class TestShardedQueryService:
    @pytest.fixture
    def service(self):
        from repro.core import ShardedQueryService

        return ShardedQueryService(sailors_database(), n_shards=4)

    def test_answers_match_the_plain_service(self, service, db):
        from repro.core import QueryService

        plain = QueryService(sailors_database())
        for query in CANONICAL_QUERIES:
            for language, text in query.languages().items():
                want = plain.answer(text, language=language.lower())
                got = service.answer(text, language=language.lower())
                assert want.bag_equal(got), f"{query.id}/{language}"

    def test_result_cache_keys_on_the_shard_vector(self, service):
        sql = "SELECT DISTINCT S.sname FROM Sailors S, Reserves R WHERE S.sid = R.sid"
        service.answer(sql)
        service.answer(sql)
        assert service.cache_info()["result_hits"] == 1
        vector = service.db.version_token
        assert vector == (service.sharded_db.generation,
                          service.sharded_db.structure_version,
                          *service.sharded_db.shard_versions())
        service.add_row("Reserves", (58, 101, "2025-07-01"))
        moved = service.db.version_token
        assert sum(1 for a, b in zip(vector, moved) if a != b) == 1
        service.answer(sql)
        assert service.cache_info()["result_misses"] == 2  # vector moved

    def test_writes_route_to_owning_shards(self, service):
        row = (31, 102, "2025-07-02")
        owner = service.shard_for("Reserves", row)
        before = len(service.sharded_db.shard(owner).relation("Reserves"))
        service.add_row("Reserves", row)
        assert len(service.sharded_db.shard(owner).relation("Reserves")) \
            == before + 1
        assert row in service.answer(
            "SELECT R.sid, R.bid, R.day FROM Reserves R").row_set()

    def test_point_queries_take_the_single_shard_path(self, service):
        before = service.execution_counts()["single_shard"]
        service.answer("SELECT S.sname FROM Sailors S WHERE S.sid = 58")
        assert service.execution_counts()["single_shard"] == before + 1

    def test_execution_counts_are_per_service(self, service):
        # Regression: counters live on the service's private backend, so
        # another service's traffic never bleeds into them.  The
        # plans_verified / plans_failed tallies are the exception: the
        # static verifier is process-wide by design, so they are excluded,
        # and so is plan_compile, a process-wide path count the other
        # service's first query moves (it compiles its plan).
        from repro.core import ShardedQueryService
        from repro.engine.verify import verification_counts

        process_wide = set(verification_counts()) | {"plan_compile"}

        def private(counts):
            return {k: v for k, v in counts.items() if k not in process_wide}

        other = ShardedQueryService(sailors_database(), n_shards=2)
        baseline = private(service.execution_counts())
        for _ in range(3):
            other.answer("SELECT S.sname FROM Sailors S WHERE S.sid = 31")
        assert private(service.execution_counts()) == baseline
        assert other.execution_counts()["single_shard"] >= 1

    def test_answers_are_frozen(self, service):
        answers = service.answer("SELECT S.sname FROM Sailors S")
        assert answers.is_frozen
        with pytest.raises(RelationError):
            answers.add(("Mallory",))

    def test_views_register_and_serve(self, service):
        # The historical gap — register_view raised unsupported — is fixed:
        # views materialize as per-shard partials (tests/test_sharded_views.py
        # covers maintenance in depth).
        view = service.register_view("SELECT S.sname FROM Sailors S")
        assert view.strategy == "sharded-bag"
        assert len(view.answer()) == len(
            service.answer("SELECT S.sname FROM Sailors S"))

    def test_prepared_handles_serve_and_track_writes(self, service):
        handle = service.prepare(
            "SELECT COUNT(*) AS n FROM Reserves R")
        (before,) = handle.answer().rows()[0]
        service.add_row("Reserves", (22, 103, "2025-07-03"))
        (after,) = handle.answer().rows()[0]
        assert after == before + 1

    def test_plain_database_is_auto_partitioned(self):
        from repro.core import ShardedQueryService

        service = ShardedQueryService(sailors_database(), n_shards=2,
                                      shard_keys={"Reserves": "bid"})
        assert service.sharded_db.n_shards == 2
        assert service.sharded_db.shard_key("Reserves") == ("bid",)
        assert len(service.answer("SELECT S.sname FROM Sailors S")) > 0


class TestTemplatesRunWithParams:
    """Both scatter-gather backends run the service's cached template with
    each request's literals: one compilation per shape, no bound copy."""

    POINT = "SELECT R.bid, R.day FROM Reserves R WHERE R.sid = {}"
    SCATTER = ("SELECT S.rating, COUNT(*) AS n FROM Sailors S, Reserves R "
               "WHERE S.sid = R.sid AND S.age > {} GROUP BY S.rating")
    #: The literal is a slot of the group key: the gather that merges the
    #: shards' partial groups must key them by each call's value too.
    GROUPED = "SELECT COUNT(*) AS n FROM Sailors S GROUP BY S.age > {}"
    #: Pinned twice: routed when both literals hash to one shard, a
    #: scatter when they do not.
    TWICE_PINNED = ("SELECT S.sname, R.bid FROM Sailors S, Reserves R "
                    "WHERE S.sid = R.sid AND S.sid = {} AND R.sid = {}")

    @staticmethod
    def _service(backend):
        from repro.core import ShardedQueryService

        return ShardedQueryService(
            sailors_database(), backend=backend, n_shards=2,
            workers=1 if backend == "process" else None)

    @staticmethod
    def _calls(monkeypatch, module, name):
        """Count calls of ``module.name`` wherever it was imported."""
        import sys

        real, calls = getattr(module, name), []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for loaded in list(sys.modules.values()):
            if getattr(loaded, name, None) is real:
                monkeypatch.setattr(loaded, name, spy)
        return calls

    @pytest.mark.parametrize("backend", ["sharded", "process"])
    def test_one_compilation_per_shape(self, backend, monkeypatch):
        import repro.engine.bind as bind
        import repro.engine.sharded as sharded_module
        from repro.core import QueryService

        monkeypatch.setenv("REPRO_VERIFY_PLANS", "0")  # certificates bind
        shapes = {
            self.POINT: [str(sid) for sid in range(20, 100, 4)],
            self.SCATTER: [f"{age}.5" for age in range(20, 60, 2)],
            self.GROUPED: [f"{age}.5" for age in range(20, 60, 2)],
        }
        plain = QueryService(sailors_database())
        want = {text.format(value): plain.answer(text.format(value))
                for text, values in shapes.items() for value in values}
        service = self._service(backend)
        shard_plans = self._calls(monkeypatch, sharded_module, "shard_plan")
        binds = self._calls(monkeypatch, bind, "bind_plan")
        try:
            for text, values in shapes.items():
                first, *rest = values
                assert service.answer(text.format(first)).bag_equal(
                    want[text.format(first)])
                compiles = kernels.path_counts()["plan_compile"]
                for value in rest:
                    got = service.answer(text.format(value))
                    assert got.bag_equal(want[text.format(value)]), value
                assert kernels.path_counts()["plan_compile"] == compiles
            counts = service.execution_counts()
            grouped = shard_plans[2][0]
            split = service.backend.plan_for(grouped, service.sharded_db)
        finally:
            service.close()
        assert len(shard_plans) == 3 and binds == []
        assert "partial-aggregate" in split.describe()
        assert (counts["single_shard"], counts["scatter"]) == (20, 40)
        if backend == "process":  # one worker: it compiled each scatter once
            assert counts["worker_plan_compile"] == 2

    def test_a_routed_call_leaves_the_scatter_to_the_pool(self):
        service = self._service("process")
        try:
            routed = service.answer(self.TWICE_PINNED.format(22, 22))
            assert sorted(routed.rows())[0] == ("Dustin", 101)
            counts = service.execution_counts()
            assert (counts["single_shard"], counts["worker_plan_compile"]) \
                == (1, 0)
            # 22 and 31 live on different shards: the same template
            # scatters, and its subplan, compiled here by the routed call,
            # still crosses to the pool.
            assert service.shard_for("Sailors", (22,)) \
                != service.shard_for("Sailors", (31,))
            assert len(service.answer(self.TWICE_PINNED.format(22, 31))) == 0
            counts = service.execution_counts()
        finally:
            service.close()
        assert counts["scatter"] == 1 and counts["worker_plan_compile"] >= 1
        assert counts["stale_manifest"] == counts["pool_recovery"] == 0


class TestConcurrentShardedServing:
    def test_readers_race_a_routing_writer(self):
        import threading

        from repro.core import ShardedQueryService
        from repro.data.sailors import random_sailors_database

        service = ShardedQueryService(
            random_sailors_database(n_sailors=60, n_boats=10, n_reserves=600,
                                    seed=7),
            n_shards=4)
        count_sql = "SELECT COUNT(*) AS n FROM Reserves R"
        handle = service.prepare(count_sql)
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader():
            last = -1
            while not stop.is_set():
                try:
                    (n,) = handle.answer().rows()[0]
                    assert n >= last, (n, last)  # appends only: monotone
                    last = n
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for i in range(120):
            service.add_row("Reserves", (i % 60 + 1, 101 + (i % 10), "2025-01-01"),
                            validate=False)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert not errors, errors[0]
        (final,) = service.answer(count_sql).rows()[0]
        assert final == 720
