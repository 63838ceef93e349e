"""The columnar executor stack: storage, vectorized backend, statistics.

Three layers under differential test:

* **storage** — ``ColumnStore`` / ``Relation.version`` / positional
  ``key_index`` caches stay consistent under interleaved mutation;
* **executor** — the ``"vectorized"`` backend is bag-equal to the ``"row"``
  reference backend and to all five reference interpreters over the whole
  canonical catalog, with and without the optimizer;
* **optimizer** — table statistics drive selectivity and join-order
  decisions (and the delta-first semi-join reduction of a Datalog
  fixpoint's delta variants).
"""

from __future__ import annotations

import pytest

from gates import COLUMNAR, pinned_gates

from repro.data.database import Database
from repro.data.relation import ColumnStore, relation_from_rows
from repro.data.sailors import random_sailors_database, sailors_database
from repro.engine import (
    AggregateP,
    DistinctP,
    FilterP,
    JoinP,
    ProjectP,
    ScanP,
    StatsCatalog,
    collect_table_stats,
    execute_plan,
    explain,
    get_backend,
    lower,
    optimize,
    run_query,
)
from repro.engine import kernels
from repro.engine.kernels import kernels_enabled
from repro.engine.stats import DELTA_ESTIMATE, KERNEL_MIN_ROWS
from repro.expr import ast as e
from repro.expr.eval import ExprError
from repro.queries import CANONICAL_QUERIES, LANGUAGES
from repro.translate.equivalence import answer_relation, standard_database_battery

ALL_CELLS = [
    pytest.param(query, language, id=f"{query.id}-{language}")
    for query in CANONICAL_QUERIES
    for language in LANGUAGES
]


class TestDifferentialVectorized:
    """Vectorized backend == row backend == reference, whole catalog."""

    @pytest.mark.parametrize("query,language", ALL_CELLS)
    def test_backends_agree_optimized_and_not(self, db, query, language):
        text = query.languages()[language]
        for use_optimizer in (True, False):
            plan = lower(text, db.schema, language.lower())
            if use_optimizer:
                plan = optimize(plan, db)
            row = execute_plan(plan, db, backend="row")
            vectorized = execute_plan(plan, db, backend=COLUMNAR)
            assert row.bag_equal(vectorized), (
                f"{query.id}/{language} optimizer={use_optimizer}: "
                f"row {sorted(row.rows())} != vectorized {sorted(vectorized.rows())}"
            )

    @pytest.mark.parametrize("query,language", ALL_CELLS)
    def test_vectorized_matches_reference(self, db, query, language):
        text = query.languages()[language]
        engine = run_query(text, db, language.lower(), backend=COLUMNAR)
        reference = answer_relation(text, db)
        assert engine.bag_equal(reference), f"{query.id}/{language} disagrees"

    @pytest.mark.parametrize("query,language", ALL_CELLS)
    def test_vectorized_matches_reference_on_random_instances(self, query, language):
        text = query.languages()[language]
        for instance in standard_database_battery(extra_random=2, rows=8):
            engine = run_query(text, instance, language.lower(),
                               backend=COLUMNAR)
            reference = answer_relation(text, instance)
            assert engine.bag_equal(reference), f"{query.id}/{language} disagrees"

    def test_backends_agree_on_extra_sql_shapes(self, db):
        shapes = [
            "SELECT B.color, COUNT(*) AS n FROM Boats B GROUP BY B.color",
            "SELECT S.sname FROM Sailors S WHERE S.rating > 7 ORDER BY S.sname LIMIT 3",
            "SELECT S.sid FROM Sailors S EXCEPT SELECT R.sid FROM Reserves R",
            "SELECT R.sid FROM Reserves R UNION ALL SELECT R2.sid FROM Reserves R2",
            "SELECT MAX(S.age) AS m, MIN(S.rating) AS lo FROM Sailors S",
            "SELECT AVG(S.age) AS a FROM Sailors S WHERE S.rating > 100",
            "SELECT S.sname FROM Sailors S WHERE S.sname LIKE 'H%'",
            "SELECT S.sname FROM Sailors S WHERE S.rating IN (9, 10)",
        ]
        for sql in shapes:
            row = run_query(sql, db, "sql", backend="row")
            vectorized = run_query(sql, db, "sql", backend=COLUMNAR)
            assert row.bag_equal(vectorized), sql

    def test_backend_order_matches_row_backend_exactly(self, db):
        # Not just bag-equal: the vectorized operators emit rows in the same
        # order as the row executor, so LIMIT without ORDER BY agrees too.
        sql = ("SELECT S.sname, B.color FROM Sailors S, Reserves R, Boats B "
               "WHERE S.sid = R.sid AND R.bid = B.bid")
        plan = optimize(lower(sql, db.schema, "sql"), db)
        assert get_backend("row").execute(plan, db) \
            == COLUMNAR.execute(plan, db)

    def test_unknown_backend_rejected(self, db):
        from repro.engine import PlanError

        with pytest.raises(PlanError):
            get_backend("gpu")

    def test_retired_parallel_name_rejected(self):
        from repro.engine import PlanError

        with pytest.raises(PlanError, match="'row' or 'vectorized'"):
            get_backend("parallel")

    def test_error_raising_conjunct_behaves_like_row_backend(self, db):
        # Conjuncts are evaluated in the conjunction's order on both
        # backends: the int+str arithmetic raises before the (row-emptying)
        # fast comparison may hide it.
        sql = ("SELECT S.sname FROM Sailors S "
               "WHERE S.age + S.sname > 0 AND S.sid < 0")
        plan = lower(sql, db.schema, "sql")
        with pytest.raises(TypeError):
            execute_plan(plan, db, backend="row")
        with pytest.raises(TypeError):
            execute_plan(plan, db, backend=COLUMNAR)


class TestColumnStore:
    def test_lazy_materialization_and_incremental_append(self):
        rel = relation_from_rows("R", [("a", "int"), ("b", "str")],
                                 [(1, "x"), (2, "y")])
        store = rel.column_store()
        assert store.arrays == ([1, 2], ["x", "y"])
        rel.add((3, "z"))  # store already built: maintained incrementally
        assert store.arrays == ([1, 2, 3], ["x", "y", "z"])
        assert rel.column_store() is store
        assert store.to_rows() == rel.rows()
        assert store.row(1) == (2, "y")

    def test_from_rows_empty(self):
        store = ColumnStore.from_rows(("a", "b"), [])
        assert len(store) == 0
        assert store.to_rows() == []

    def test_column_uses_store_when_built(self):
        rel = relation_from_rows("R", [("a", "int")], [(1,), (2,)])
        assert rel.column("a") == [1, 2]
        rel.column_store()
        rel.add((3,))
        assert rel.column("a") == [1, 2, 3]


class TestVersioning:
    def test_version_bumps_once_per_add(self):
        rel = relation_from_rows("R", [("a", "int")], [(1,), (2,)])
        assert rel.version == 2
        rel.add((3,))
        assert rel.version == 3

    def test_database_version_tracks_rows_and_structure(self):
        db = Database([relation_from_rows("R", [("a", "int")], [(1,)])])
        before = db.version
        db.relation("R").add((2,))
        assert db.version == before + 1
        db.add_relation(relation_from_rows("S", [("b", "int")], []))
        assert db.version > before + 1
        grew = db.version
        db.drop_relation("S")
        assert db.version > grew  # dropping is a change, never a rollback

    def test_key_index_maintained_across_adds(self):
        rel = relation_from_rows("R", [("a", "int"), ("b", "int")],
                                 [(1, 10), (2, 20), (1, 30)])
        index = rel.key_index((0,))
        assert index == {1: [0, 2], 2: [1]}
        assert rel.key_index((0,)) is index  # cached while unchanged
        rel.add((2, 40))
        fresh = rel.key_index((0,))
        # Appends maintain the cached index in place (O(1) per add) instead
        # of invalidating it — incremental view refresh depends on this.
        assert fresh is index
        assert fresh[2] == [1, 3]
        rel.add_rows([(3, 50), (1, 60)])
        assert rel.key_index((0,)) is index
        assert index[3] == [4] and index[1] == [0, 2, 5]
        pair = rel.key_index((0, 1))
        assert pair[(1, 30)] == [2]

    def test_key_index_maintained_across_adds_interleaved_with_reads(self):
        rel = relation_from_rows("R", [("a", "int"), ("b", "str")],
                                 [(1, "x"), (2, "y")])
        index = rel.key_index((0,))
        assert rel._column_store is None  # read off the rows, not transposed
        rel.add((1, "z"))
        assert [rel[p][1] for p in index[1]] == ["x", "z"]
        rel.add((3, "w"))
        assert [rel[p] for p in rel.key_index((0,))[3]] == [(3, "w")]
        # distinct caches stay exact across the same interleaving
        assert rel.distinct_rows() == [(1, "x"), (2, "y"), (1, "z"), (3, "w")]
        rel.add((1, "x"))  # duplicate: bag grows, set view does not
        assert rel.cardinality() == 5
        assert rel.cardinality(distinct=True) == 4
        assert (1, "x") in rel
        assert rel.key_index((0,)) is index and index[1] == [0, 2, 4]

    def test_key_index_null_handling(self):
        rel = relation_from_rows("R", [("a", "int")], [(1,), (None,), (1,)])
        assert None not in rel.key_index((0,), skip_nulls=True)
        assert rel.key_index((0,), skip_nulls=False)[None] == [1]


class TestCompileOnce:
    @pytest.mark.parametrize("backend", ["row", COLUMNAR], ids=["row", "columnar"])
    def test_same_plan_executed_twice_compiles_each_expression_once(
            self, db, backend, monkeypatch):
        """A plan compiles to its program on its first execution, kept on
        the node: executing it again compiles no expression and no plan."""
        import repro.engine.execute as execute_module
        from repro.engine.cache import path_counts

        sql = ("SELECT S.sname, S.age + 1 AS next_age FROM Sailors S, Reserves R "
               "WHERE S.sid = R.sid AND S.rating > 3 AND S.age < S.rating * 9")
        plan = optimize(lower(sql, db.schema, "sql"), db)
        calls = []
        original = execute_module.compile_expr

        def counting(expr, columns):
            calls.append(expr)
            return original(expr, columns)

        monkeypatch.setattr(execute_module, "compile_expr", counting)
        compiles = path_counts()["plan_compile"]
        first = execute_plan(plan, db, backend=backend)
        after_first = len(calls)
        assert after_first > 0, "the plan should compile something"
        assert path_counts()["plan_compile"] == compiles + 1
        second = execute_plan(plan, db, backend=backend)
        assert len(calls) == after_first, (
            "re-executing the same Plan must call its compiled program, "
            f"but {len(calls) - after_first} expression(s) were recompiled")
        assert path_counts()["plan_compile"] == compiles + 1
        assert first.bag_equal(second)


class TestStats:
    def test_collect_table_stats_profiles_columns(self):
        db = sailors_database()
        stats = collect_table_stats(db.relation("Sailors"))
        assert stats.row_count == len(db.relation("Sailors"))
        sid = stats.columns[0]
        assert sid.distinct == stats.row_count  # sids are unique
        assert sid.null_count == 0
        rating = stats.columns[2]
        assert rating.min_value is not None and rating.max_value is not None
        assert 1 <= rating.min_value <= rating.max_value <= 10
        sname = stats.columns[1]
        assert sname.min_value is None  # strings carry no numeric range

    def test_catalog_caches_until_version_changes(self):
        db = sailors_database()
        catalog = StatsCatalog(db)
        first = catalog.table("Sailors")
        assert catalog.table("Sailors") is first
        db.relation("Sailors").add((99, "Zed", 5, 30.0))
        second = catalog.table("Sailors")
        assert second is not first
        assert second.row_count == first.row_count + 1
        assert catalog.table("NoSuchTable") is None

    # -- the profile is a cache of the relation, not of a catalog ----------

    @pytest.fixture()
    def profiled(self, monkeypatch):
        """Names of the relations ``collect_table_stats`` scans, in order."""
        import repro.engine.stats as stats_module

        scanned: list[str] = []
        collect = stats_module.collect_table_stats

        def spy(relation):
            scanned.append(relation.name)
            return collect(relation)

        monkeypatch.setattr(stats_module, "collect_table_stats", spy)
        return scanned

    JOIN_SQL = ("SELECT S.sname, B.bname FROM Sailors S, Reserves R, Boats B "
                "WHERE S.sid = R.sid AND R.bid = B.bid AND S.age > 30")

    def test_bare_optimize_profiles_each_relation_once(self, profiled):
        db = sailors_database()
        plan = lower(self.JOIN_SQL, db.schema, "sql")
        plans = {optimize(plan, db) for _ in range(20)}  # no stats=
        assert len(plans) == 1
        assert sorted(profiled) == ["Boats", "Reserves", "Sailors"]
        # Any other catalog over the same relations shares the profiles.
        assert StatsCatalog(db).table("Sailors") is \
            StatsCatalog(db).table("Sailors")
        from repro.engine.optimize import estimate_rows
        estimate_rows(plan, db)
        assert len(profiled) == 3

    def test_add_rows_reprofiles_exactly_the_written_relation(self, profiled):
        db = sailors_database()
        plan = lower(self.JOIN_SQL, db.schema, "sql")
        optimize(plan, db)
        del profiled[:]
        db.relation("Reserves").add_rows([(22, 101, "2025-01-01"),
                                          (31, 102, "2025-01-02")])
        optimize(plan, db)
        optimize(plan, db)
        assert profiled == ["Reserves"]
        assert StatsCatalog(db).table("Reserves").row_count == \
            len(db.relation("Reserves"))

    def test_write_racing_a_profile_is_never_filed_under_its_version(
            self, monkeypatch):
        import repro.engine.stats as stats_module

        db = sailors_database()
        sailors = db.relation("Sailors")
        collect = stats_module.collect_table_stats

        def racing(relation):
            stats = collect(relation)            # scans the old state ...
            relation.add((99, "Zed", 5, 30.0))   # ... a writer lands ...
            return stats                         # ... before it is published

        monkeypatch.setattr(stats_module, "collect_table_stats", racing)
        before = len(sailors)
        stale = StatsCatalog(db).table("Sailors")
        assert stale.row_count == before         # served, for this one call
        cached = sailors.profile_cache
        assert cached is None or cached[0] != sailors.version
        monkeypatch.setattr(stats_module, "collect_table_stats", collect)
        fresh = StatsCatalog(db).table("Sailors")
        assert fresh.row_count == before + 1 == len(sailors)
        assert sailors.profile_cache == (sailors.version, fresh)

    def test_concurrent_optimizers_share_one_profiling_pass(self, profiled):
        import threading

        db = random_sailors_database(n_sailors=300, n_boats=20,
                                     n_reserves=3000, seed=5)
        plan = lower(self.JOIN_SQL, db.schema, "sql")
        start = threading.Barrier(8)
        plans = []

        def work():
            start.wait(timeout=30)
            plans.append(optimize(plan, db))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(plans) == 8 and len(set(plans)) == 1
        assert sorted(profiled) == ["Boats", "Reserves", "Sailors"]

    def test_sharded_merged_view_reprofiles_after_a_routed_write(
            self, profiled):
        from repro.data import ShardedDatabase

        sharded = ShardedDatabase.from_database(sailors_database(), 3)
        catalog = StatsCatalog(sharded)
        first = catalog.table("Reserves")
        sailors = catalog.table("Sailors")
        assert catalog.table("Reserves") is first
        assert first.row_count == sharded.total_rows() - len(
            sharded.relation("Sailors")) - len(sharded.relation("Boats"))
        del profiled[:]
        sharded.add_row("Reserves", (22, 104, "2025-03-03"))
        second = StatsCatalog(sharded).table("Reserves")
        assert second.row_count == first.row_count + 1
        assert second.columns[2].distinct == first.columns[2].distinct + 1
        assert StatsCatalog(sharded).table("Reserves") is second
        assert StatsCatalog(sharded).table("Sailors") is sailors  # untouched
        assert profiled == ["Reserves"]

    def test_equality_selectivity_uses_distinct_counts(self):
        db = sailors_database()
        catalog = StatsCatalog(db)
        boats = ScanP("Boats", ("bid", "bname", "color"))
        from repro.expr.ast import Col, Comparison, Const

        filtered = FilterP(boats, Comparison(Col("color"), "=", Const("red")))
        colors = catalog.table("Boats").columns[2].distinct
        assert catalog.estimate(filtered) == pytest.approx(
            len(db.relation("Boats")) / colors)

    def test_range_selectivity_interpolates_min_max(self):
        rel = relation_from_rows("T", [("v", "int")], [(i,) for i in range(100)])
        db = Database([rel])
        catalog = StatsCatalog(db)
        from repro.expr.ast import Col, Comparison, Const

        scan = ScanP("T", ("v",))
        low = catalog.estimate(FilterP(scan, Comparison(Col("v"), ">", Const(90))))
        high = catalog.estimate(FilterP(scan, Comparison(Col("v"), ">", Const(10))))
        assert low < high  # a tighter range keeps fewer rows
        assert low == pytest.approx(100 * (1 - 90 / 99), rel=0.1)

    def test_join_estimate_divides_by_key_distincts(self):
        db = sailors_database()
        catalog = StatsCatalog(db)
        join = JoinP(ScanP("Sailors", ("sid", "sname", "rating", "age")),
                     ScanP("Reserves", ("rsid", "bid", "day")),
                     "inner", left_keys=("sid",), right_keys=("rsid",))
        sailors = len(db.relation("Sailors"))
        reserves = len(db.relation("Reserves"))
        estimate = catalog.estimate(join)
        assert estimate <= sailors * reserves / max(sailors, 1) + 1
        assert estimate >= 1.0

    def test_delta_relations_estimated_tiny(self):
        db = Database()
        catalog = StatsCatalog(db)
        assert catalog.estimate(ScanP("tc@delta", ("a", "b"))) == DELTA_ESTIMATE
        assert catalog.estimate(ScanP("mystery", ("a",))) > DELTA_ESTIMATE

    def test_cost_based_ordering_seeds_at_selective_filter(self):
        db = random_sailors_database(n_sailors=60, n_boats=4, n_reserves=240,
                                     seed=3)
        sql = ("SELECT DISTINCT S.sname FROM Reserves R, Sailors S, Boats B "
               "WHERE S.sid = R.sid AND R.bid = B.bid AND B.bid = 101")
        plan = optimize(lower(sql, db.schema, "sql"), db)
        joins = [n for n in plan.walk() if isinstance(n, JoinP)]
        assert joins
        # The unique-key equality on Boats is the most selective leaf; the
        # cost-based greedy order must start from it, so the deepest join of
        # the (left-deep) tree reads Boats — not the big Reserves table alone.
        seed_scans = {n.relation.lower() for n in joins[-1].walk()
                      if isinstance(n, ScanP)}
        assert "boats" in seed_scans
        result = execute_plan(plan, db, backend="vectorized")
        assert result.bag_equal(answer_relation(sql, db))

    def test_semi_naive_still_matches_naive_with_stats(self):
        from repro.datalog.evaluate import evaluate_datalog

        edges = [(i, i + 1) for i in range(1, 20)] + [(10, 2), (18, 5)]
        db = Database([relation_from_rows(
            "edge", [("src", "int"), ("dst", "int")], edges)])
        program = ("tc(X, Y) :- edge(X, Y).\n"
                   "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
                   "ans(X, Y) :- tc(X, Y).")
        assert run_query(program, db, "datalog").bag_equal(
            evaluate_datalog(program, db))


class TestVectorizedPlanStructure:
    def test_hand_built_plan_on_vectorized_backend(self, db):
        from repro.expr.ast import Col, Comparison, Const

        plan = DistinctP(ProjectP(
            FilterP(ScanP("Boats", ("bid", "bname", "color")),
                    Comparison(Col("color"), "=", Const("red"))),
            (Col("bid"),),
            ("bid",),
        ))
        result = execute_plan(plan, db, backend=COLUMNAR)
        assert {row[0] for row in result.rows()} == {102, 104}

    def test_scan_arity_mismatch_raises(self, db):
        from repro.engine import PlanError

        with pytest.raises(PlanError):
            execute_plan(ScanP("Boats", ("bid", "color")), db,
                         backend=COLUMNAR)


# ---------------------------------------------------------------------------
# The analytic shapes at benchmark size: cost as counts, not timings
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def analytic_db():
    """The ``analytic-cold`` dataset (4800 sailors, 100 boats, 48k reserves)."""
    return random_sailors_database(n_sailors=4800, n_boats=100,
                                   n_reserves=48000, seed=9)


@pytest.mark.skipif(not kernels_enabled(), reason="numpy kernels disabled")
class TestAnalyticShapesStayNumpy:
    """Fan-out probe, filtered build side, small-domain group-by, bounded-int
    DISTINCT: from the gate up no template builds a Python hash table,
    comparison-sorts, or converts a selection more than once."""

    @staticmethod
    def _plans(db, k, a):
        from test_plan_shapes import ANALYTIC_TEMPLATES

        return [optimize(lower(template.format(k=k, a=a), db.schema, "sql"),
                         db) for template in ANALYTIC_TEMPLATES]

    @staticmethod
    def _counted(plan, db):
        from repro.engine.vectorized import compile_batches

        before = kernels.path_counts()
        rows = compile_batches(plan)(db).rows()
        after = kernels.path_counts()
        return rows, {key: after[key] - before[key] for key in after}

    def test_counts_per_template(self, analytic_db, monkeypatch):
        """Every probe takes the kernel — ``chain4``'s last one reads
        ~1.8k rows, under ``KERNEL_MIN_ROWS``, but with the rows it emits
        into a relation's cached structure has more at stake — and the
        group-bys of ``minmax`` and ``joinavg``
        (100 and 5 groups over ~46k rows) address their domains: no sort."""
        sorts: list[int] = []
        aggregate = kernels.kernel_aggregate

        def spy(*args):
            before = kernels.path_counts()
            result = aggregate(*args)
            after = kernels.path_counts()
            sorts.append(sum(after[key] - before[key]
                             for key in ("sort_radix", "sort_compare")))
            return result

        for plan in self._plans(analytic_db, 230, "19.250"):
            self._counted(plan, analytic_db)          # encodings, indexes
        monkeypatch.setattr(kernels, "kernel_aggregate", spy)
        # age > 21.5 leaves chain4's last probe ~1.7k rows: under 2048.
        for plan in self._plans(analytic_db, 17, "21.500"):
            joins = sum(isinstance(node, JoinP) for node in plan.walk())
            groups = sum(isinstance(node, AggregateP) for node in plan.walk())
            del sorts[:]
            rows, bumped = self._counted(plan, analytic_db)
            assert bumped["build_dict"] == 0 and bumped["sort_compare"] == 0
            assert bumped["sel_converted"] <= joins
            assert bumped["probe_kernel"] == joins and bumped["probe_loop"] == 0
            assert bumped["build_lowered"] <= joins
            assert bumped["group_direct"] == len(sorts) == groups
            assert sorts == [0] * groups and bumped["group_sorted"] == 0
            assert sorted(rows) == sorted(
                execute_plan(plan, analytic_db, backend="row").rows())

    def test_a_first_probe_leaves_no_index_on_its_build_relation(self):
        """``chain4``'s first execution on a fresh database probes 48k-row
        ``Reserves`` with the red boats (22 rows).  ``Reserves`` holds
        neither a ``bid`` index nor a kernel structure yet, so its rows are
        at stake: the kernel probes, caching its structure, and the
        relation is left without a ``key_index`` it would keep for good."""
        db = random_sailors_database(n_sailors=4800, n_boats=100,
                                     n_reserves=48000, seed=9)
        chain4 = self._plans(db, 230, "19.250")[1]
        rows, bumped = self._counted(chain4, db)
        assert bumped["probe_loop"] == 0
        assert db.relation("Reserves").held_key_index((1,)) is None
        assert sorted(rows) == sorted(
            execute_plan(chain4, db, backend="row").rows())

    def test_a_write_to_the_build_relation_profiles_nothing(self, analytic_db,
                                                            monkeypatch):
        """The probe's fan-out is read off the maintained key index, never
        off a table profile — which a write invalidates (measured: 660 → 420
        req/s on ``sharded-write-mix`` when it was)."""
        import repro.engine.stats as stats

        db = analytic_db.copy()
        joinavg = self._plans(db, 17, "21.500")[2]
        first, _bumped = self._counted(joinavg, db)
        profiled = []
        monkeypatch.setattr(
            stats, "collect_table_stats",
            lambda relation: profiled.append(relation.name))
        sailor = next(row for row in db.relation("Sailors").rows()
                      if row[3] > 30)
        boat = db.relation("Boats").rows()[0]
        db.relation("Reserves").add((sailor[0], boat[0], "2031/01/01"))
        second, bumped = self._counted(joinavg, db)
        assert profiled == []
        assert bumped["probe_kernel"] == 2 and bumped["build_dict"] == 0
        assert sum(row[-1] for row in second) \
            == sum(row[-1] for row in first) + 1


# ---------------------------------------------------------------------------
# The backend's executor choice: rows below the kernels' crossover
# ---------------------------------------------------------------------------

def _plan_paths(run):
    """``(result, plan_rows, plan_columnar)``: the executor choices ``run``
    made."""
    before = kernels.path_counts()
    result = run()
    after = kernels.path_counts()
    return result, *(after[key] - before[key]
                     for key in ("plan_rows", "plan_columnar"))


class TestExecutorChoice:
    """The ``"vectorized"`` backend runs a plan none of whose operators has
    ``KERNEL_MIN_ROWS`` rows at stake on the row executor, any other on
    the columnar one, priced at the root on each execution."""

    def test_the_tutorial_catalog_runs_on_rows(self):
        from repro.core import QueryVisualizationPipeline
        from test_plan_shapes import catalog_texts, oracle

        pipeline = QueryVisualizationPipeline(sailors_database())
        texts = catalog_texts()
        assert len(texts) == 25
        for language, text in texts:
            answers, rows, columnar = _plan_paths(
                lambda: pipeline.answer(text, language=language))
            assert (rows, columnar) == (1, 0), (language, text)
            assert answers.bag_equal(oracle(text, language, pipeline.db))

    def test_the_analytic_templates_run_columnar(self, analytic_db):
        """With the kernels on; off (numpy absent), on rows."""
        backend = get_backend("vectorized")
        want = (0, 1) if kernels_enabled() else (1, 0)
        for plan in TestAnalyticShapesStayNumpy._plans(analytic_db, 17,
                                                       "21.500"):
            _rows, rows, columnar = _plan_paths(
                lambda: backend.execute(plan, analytic_db))
            assert (rows, columnar) == want, explain(plan)

    def test_a_cached_plan_crosses_the_gate_with_its_relation(self):
        from repro.core import QueryVisualizationPipeline

        db = random_sailors_database(n_sailors=40, n_boats=10,
                                     n_reserves=KERNEL_MIN_ROWS - 1,
                                     seed=5)
        pipeline = QueryVisualizationPipeline(db)
        text = ("SELECT R.bid, COUNT(*) AS n FROM Reserves R "
                "WHERE R.sid > 3 GROUP BY R.bid")
        sailor = db.relation("Sailors")[-1][0]
        boat = db.relation("Boats")[0][0]
        seen = []
        for step in range(2):
            answers, rows, columnar = _plan_paths(lambda: pipeline.answer(text))
            assert answers.bag_equal(answer_relation(text, db))
            seen.append((len(db.relation("Reserves")), rows, columnar))
            if step == 0:
                db.relation("Reserves").add((sailor, boat, "2031/01/01"))
        crossed = (0, 1) if kernels_enabled() else (1, 0)  # numpy absent
        assert seen == [(KERNEL_MIN_ROWS - 1, 1, 0),
                        (KERNEL_MIN_ROWS, *crossed)]
        assert pipeline.cache_info()["plan_hits"] == 1

    def test_a_point_lookup_is_priced_at_its_bucket(self):
        """``R.sid = 17`` reads one bucket of the ``Reserves(sid)`` index
        (``scan_lookup``): about 10 of 48k rows are at stake, so the row
        executor runs it once the relation holds the index."""
        from repro.core import QueryVisualizationPipeline
        from repro.engine.vectorized import rows_at_stake

        db = random_sailors_database(n_sailors=4800, n_boats=100,
                                     n_reserves=48000, seed=9)
        pipeline = QueryVisualizationPipeline(db)
        text = "SELECT R.day FROM Reserves R WHERE R.sid = 17"
        pipeline.answer(text)            # a live relation builds the index
        answers, rows, columnar = _plan_paths(lambda: pipeline.answer(text))
        assert (rows, columnar) == (1, 0)
        assert answers.bag_equal(answer_relation(text, db))
        reserves = db.relation("Reserves")
        per_key = len(reserves) / len(reserves.held_key_index((0,)))
        plan = pipeline.prepare_plan(text, "sql")
        assert rows_at_stake(plan, db) == per_key < KERNEL_MIN_ROWS

    def test_kernels_off_runs_the_analytic_templates_on_rows(
            self, analytic_db, monkeypatch):
        """With the kernels off every columnar operator would run its row
        implementation, so the backend runs the row executor, at any size."""
        monkeypatch.setenv("REPRO_KERNELS", "0")
        backend = get_backend("vectorized")
        for plan in TestAnalyticShapesStayNumpy._plans(analytic_db, 17,
                                                       "21.500"):
            _rows, rows, columnar = _plan_paths(
                lambda: backend.execute(plan, analytic_db))
            assert (rows, columnar) == (1, 0), explain(plan)

    def test_the_backend_is_one_object(self):
        assert get_backend("vectorized") is get_backend("vectorized")


# ---------------------------------------------------------------------------
# A declined kernel runs the one row implementation
# ---------------------------------------------------------------------------

SAILORS = ScanP("Sailors", ("sid", "sname", "rating", "age"))
RESERVES = ScanP("Reserves", ("rsid", "bid", "day"))


def _gt(column, value):
    return e.Comparison(e.Col(column), ">", e.Const(value))


class TestDeclinedKernels:
    """Where a kernel declines, the columnar program runs the row
    executor's operator: each conjunct is its row test (compiled by
    ``execute._row_test``), each inner probe the row join
    (``execute.join_rows``)."""

    @pytest.fixture()
    def spied(self, monkeypatch):
        from repro.engine import execute, vectorized

        calls = dict.fromkeys(("_row_test", "join_rows"), 0)

        def row_test(plan, conjuncts):
            make = execute._row_test(plan, conjuncts)

            def made(params):
                calls["_row_test"] += 1
                return make(params)
            return made

        def join_rows(*args):
            calls["join_rows"] += 1
            return execute.join_rows(*args)

        monkeypatch.setattr(vectorized, "_row_test", row_test)
        monkeypatch.setattr(vectorized, "join_rows", join_rows)
        return calls

    def test_selection_and_probe_reach_the_row_implementation(self, spied):
        db = sailors_database()
        plan = JoinP(FilterP(SAILORS, e.conjunction([_gt("rating", 6),
                                                     _gt("age", 30.0)])),
                     RESERVES, "inner", ("sid",), ("rsid",), None, False)
        with pinned_gates(None):
            got = execute_plan(plan, db, backend=COLUMNAR)
        assert spied == {"_row_test": 2, "join_rows": 1}
        assert got.rows() and got.bag_equal(
            execute_plan(plan, db, backend="row"))

    def test_a_type_error_in_a_second_conjunct_raises_alike(self):
        db = sailors_database()
        plan = FilterP(SAILORS, e.conjunction([_gt("rating", 0),
                                               _gt("sname", 5)]))
        messages = []
        for backend in ("row", COLUMNAR):
            with pinned_gates(None), pytest.raises(ExprError) as caught:
                execute_plan(plan, db, backend=backend)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("gate", [None, 0])
    def test_a_null_operand_matches_nothing(self, gate):
        db = Database([relation_from_rows(
            "t", [("a", "int"), ("b", "int")],
            [(1, None), (None, 2), (3, 4), (None, None)])])
        scan = ScanP("t", ("a", "b"))
        for condition, want in (
                (e.Comparison(e.Col("a"), "<", e.Col("b")), [(3, 4)]),
                (e.Comparison(e.Col("a"), "<>", e.Const(1)), [(3, 4)]),
                (e.Comparison(e.Col("a"), "=", e.Const(None)), [])):
            plan = FilterP(scan, condition)
            with pinned_gates(gate):
                got = execute_plan(plan, db, backend=COLUMNAR).rows()
            assert got == execute_plan(plan, db, backend="row").rows() == want
