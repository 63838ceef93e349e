"""The static plan verifier and the repo invariant lint.

Positive direction: every canonical-catalog query, in every language that
expresses it, verifies in all four plan forms (raw lowering, optimized,
delta terms, sharded compilation).  Negative direction: hand-built broken
plans draw precise :class:`PlanVerificationError` diagnostics naming the
offending node.  Plus the ``REPRO_VERIFY_PLANS`` gating/counters and the
``tools/check_invariants.py`` lint rules over synthetic violation fixtures.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import textwrap
from dataclasses import replace

import pytest

from repro.data.sharded import ShardedDatabase
from repro.expr import ast as e
from repro.engine import (
    AggregateP,
    DeltaScanP,
    DistinctP,
    FilterP,
    JoinP,
    PlanVerificationError,
    ProjectP,
    ScanP,
    ShardedPlan,
    SortLimitP,
    StatsCatalog,
    find_core,
    lower,
    optimize,
    run_query,
    shard_plan,
    verify_plan,
    verify_sharded_plan,
    verify_view_terms,
)
from repro.engine.delta import DeltaRewriteError, anchor, delta_terms
from repro.engine.verify import (
    maybe_verify,
    reset_verification_counts,
    verification_counts,
    verification_enabled,
)
from repro.queries import CANONICAL_QUERIES

SAILORS = ("sid", "sname", "rating", "age")
RESERVES = ("sid", "bid", "day")

_PLAN_LANGUAGES = ("sql", "ra", "trc", "drc")


def _lowered_plans(query, db):
    """(language, plan) for every statically-lowerable language of a query."""
    plans = []
    for language in _PLAN_LANGUAGES:
        text = getattr(query, language, None)
        if text:
            plans.append((language, lower(text, db.schema,
                                          language=language)))
    return plans


class TestCatalogVerifies:
    """All catalog queries × languages × plan forms pass verification."""

    def test_raw_plans_verify(self, db, canonical_query):
        for _language, plan in _lowered_plans(canonical_query, db):
            verify_plan(plan, db)

    def test_optimized_plans_verify(self, db, canonical_query):
        for _language, plan in _lowered_plans(canonical_query, db):
            verify_plan(optimize(plan, db), db)

    def test_delta_terms_verify(self, db, canonical_query):
        anchors = {name.lower(): 0 for name in db.relation_names}
        for _language, plan in _lowered_plans(canonical_query, db):
            try:
                terms = delta_terms(plan)
            except DeltaRewriteError:
                continue  # not bag-maintainable: no delta form exists
            for term in terms:
                verify_plan(term, db)  # template: windows unanchored
                verify_plan(anchor(term, anchors), db,
                            require_anchored=True)

    def test_sharded_plans_verify(self, db, canonical_query):
        sharded = ShardedDatabase.from_database(db, n_shards=2)
        for _language, plan in _lowered_plans(canonical_query, db):
            compiled = shard_plan(optimize(plan, db), sharded)
            verify_sharded_plan(compiled, sharded)

    def test_datalog_catalog_verifies_under_hooks(self, db, canonical_query,
                                                  monkeypatch):
        # Datalog has no single static plan; its per-rule and fixpoint
        # plans flow through the optimizer hook, so a run with the flag on
        # and zero failures is the verification.
        if not canonical_query.datalog:
            pytest.skip("no datalog form")
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        reset_verification_counts()
        run_query(canonical_query.datalog, db, language="datalog")
        counts = verification_counts()
        assert counts["plans_verified"] > 0
        assert counts["plans_failed"] == 0

    def test_full_catalog_clean_run(self, db):
        # The ISSUE's "nothing latent flagged" regression: every language
        # form of every catalog query executes end-to-end with the hooks on
        # and not one plan fails verification.
        reset_verification_counts()
        for query in CANONICAL_QUERIES:
            for language in (*_PLAN_LANGUAGES, "datalog"):
                text = getattr(query, language, None)
                if text:
                    run_query(text, db, language=language)
        counts = verification_counts()
        assert counts["plans_verified"] > 0
        assert counts["plans_failed"] == 0


class TestNegativeDiagnostics:
    """Hand-built broken plans draw precise diagnostics."""

    def test_unresolved_column(self, db):
        plan = FilterP(ScanP("Sailors", SAILORS),
                       e.Comparison(e.Col("colour"), ">", e.Const(1)))
        with pytest.raises(PlanVerificationError) as exc:
            verify_plan(plan, db)
        assert "FilterP" in str(exc.value)
        assert "unresolved column reference 'colour'" in str(exc.value)
        assert exc.value.node is plan

    def test_unresolved_join_key(self, db):
        plan = JoinP(ScanP("Sailors", SAILORS), ScanP("Reserves", RESERVES),
                     "inner", ("boat",), ("bid",))
        with pytest.raises(PlanVerificationError) as exc:
            verify_plan(plan, db)
        assert "left join key 'boat'" in str(exc.value)

    def test_type_inconsistent_predicate(self, db):
        plan = FilterP(ScanP("Sailors", SAILORS),
                       e.Comparison(e.Col("sname"), ">", e.Const(7)))
        with pytest.raises(PlanVerificationError) as exc:
            verify_plan(plan, db)
        assert "FilterP" in str(exc.value)
        assert "type-inconsistent comparison: string > int" in str(exc.value)

    def test_type_inconsistent_join_keys(self, db):
        plan = JoinP(ScanP("Sailors", SAILORS), ScanP("Reserves", RESERVES),
                     "inner", ("sname",), ("bid",))
        with pytest.raises(PlanVerificationError) as exc:
            verify_plan(plan, db)
        assert "not comparable" in str(exc.value)

    def test_arithmetic_on_strings(self, db):
        plan = ProjectP(ScanP("Sailors", SAILORS),
                        (e.BinOp("*", e.Col("sname"), e.Const(2)),),
                        ("twice",))
        with pytest.raises(PlanVerificationError,
                           match="non-numeric \\(string\\)"):
            verify_plan(plan, db)

    def test_sum_over_string_column(self, db):
        plan = AggregateP(ScanP("Sailors", SAILORS), (),
                          ((e.FuncCall("sum", (e.Col("sname"),)), "total"),))
        with pytest.raises(PlanVerificationError,
                           match="sum\\(\\) over non-numeric"):
            verify_plan(plan, db)

    def test_aggregate_outside_aggregation(self, db):
        plan = FilterP(ScanP("Sailors", SAILORS),
                       e.Comparison(e.FuncCall("count", (e.Star(),)),
                                    ">", e.Const(1)))
        with pytest.raises(PlanVerificationError,
                           match="aggregate count\\(\\) outside"):
            verify_plan(plan, db)

    def test_projection_rename_collision(self, db):
        plan = ProjectP(ScanP("Sailors", SAILORS),
                        (e.Col("sid"), e.Col("sname")), ("x", "X"))
        with pytest.raises(PlanVerificationError,
                           match="collide on 'X'"):
            verify_plan(plan, db)

    def test_scan_arity_mismatch(self, db):
        plan = ScanP("Sailors", ("sid", "sname"))
        with pytest.raises(PlanVerificationError, match="arity"):
            verify_plan(plan, db)
        # Without a database there is nothing to check arity against.
        verify_plan(plan)

    def test_unanchored_delta_template(self, db):
        plan = DeltaScanP("Sailors", SAILORS, None, "delta")
        verify_plan(plan, db)  # templates are legal at rest...
        with pytest.raises(PlanVerificationError, match="unanchored"):
            verify_plan(plan, db, require_anchored=True)  # ...not at exec

    def test_unknown_function(self, db):
        plan = ProjectP(ScanP("Sailors", SAILORS),
                        (e.FuncCall("sqrt", (e.Col("age"),)),), ("r",))
        with pytest.raises(PlanVerificationError,
                           match="unknown function 'sqrt'"):
            verify_plan(plan, db)

    def test_negative_limit(self, db):
        plan = SortLimitP(ScanP("Sailors", SAILORS), (), -3)
        with pytest.raises(PlanVerificationError, match="negative LIMIT"):
            verify_plan(plan, db)

    def test_rule_name_in_message(self, db):
        plan = FilterP(ScanP("Sailors", SAILORS),
                       e.Comparison(e.Col("colour"), "=", e.Const(1)))
        with pytest.raises(PlanVerificationError) as exc:
            verify_plan(plan, db, rule="push_down_filters")
        assert str(exc.value).startswith("[push_down_filters]")
        assert exc.value.rule == "push_down_filters"


class TestShardedDiagnostics:
    @pytest.fixture()
    def sharded(self, db):
        return ShardedDatabase.from_database(db, n_shards=2)

    def test_verifying_a_plan_never_merges_sharded_relations(self, sharded):
        # Schemas come from the schema view (shard 0), not from
        # ``relation(name)``: the merged view copies every shard's rows,
        # which made verify_plan on a sharded database ~400x a plain one.
        plan = optimize(lower(
            "SELECT S.sname, R.bid FROM Sailors S, Reserves R "
            "WHERE S.sid = R.sid AND S.rating > 7", sharded.schema, "sql"))
        assert sharded._merged == {}
        verify_plan(plan, sharded)
        assert sharded._merged == {}
        # ... and the lookup still sees the real schemas: a wrong-arity scan
        # is caught on the sharded database exactly as on a plain one.
        with pytest.raises(PlanVerificationError):
            verify_plan(ScanP("Reserves", ("sid", "bid")), sharded)
        assert sharded._merged == {}

    def test_distribution_unsafe_scatter(self, sharded):
        # DISTINCT over a projection that drops the shard key (sid): equal
        # rows can straddle shards, so per-shard DISTINCT is not exact.
        scan = ScanP("Reserves", RESERVES)
        project = ProjectP(scan, (e.Col("bid"),), ("bid",))
        scatter = DistinctP(project)
        compiled = ShardedPlan(scatter, "scatter", core=scatter,
                               scatter=scatter,
                               partitioned=frozenset({"reserves"}))
        with pytest.raises(PlanVerificationError) as exc:
            verify_sharded_plan(compiled, sharded)
        assert "DistinctP" in str(exc.value)
        assert "distribution-unsafe scatter" in str(exc.value)

    def test_distribution_unsafe_join(self, sharded):
        # Both sides scattered but joined on non-shard-key columns.
        plan = JoinP(ScanP("Sailors", SAILORS), ScanP("Reserves", RESERVES),
                     "inner", ("rating",), ("bid",))
        compiled = ShardedPlan(plan, "scatter", core=plan, scatter=plan,
                               partitioned=frozenset({"sailors", "reserves"}))
        with pytest.raises(PlanVerificationError) as exc:
            verify_sharded_plan(compiled, sharded)
        assert "do not pair the shard keys" in str(exc.value)

    def test_mispaired_avg_split(self, sharded):
        # An AVG split whose partial states are not the SUM+COUNT pair.
        scan = ScanP("Sailors", SAILORS)
        core = AggregateP(scan, (),
                          ((e.FuncCall("avg", (e.Col("age"),)), "a"),))
        partial = AggregateP(scan, (), (
            (e.FuncCall("avg", (e.Col("age"),)), "__p0_sum"),
            (e.FuncCall("count", (e.Col("age"),)), "__p0_cnt"),
            (e.FuncCall("count", (e.Star(),)), "__rows")))
        compiled = ShardedPlan(core, "scatter", core=core, scatter=partial,
                               combine=lambda parts: [],
                               partitioned=frozenset({"sailors"}),
                               gather=core)
        with pytest.raises(PlanVerificationError) as exc:
            verify_sharded_plan(compiled, sharded)
        assert "mispaired AVG split" in str(exc.value)
        assert "AVG must split into SUM + COUNT" in str(exc.value)

    def test_missing_presence_counter(self, sharded):
        scan = ScanP("Sailors", SAILORS)
        core = AggregateP(scan, (),
                          ((e.FuncCall("sum", (e.Col("age"),)), "t"),))
        partial = AggregateP(scan, (), (
            (e.FuncCall("sum", (e.Col("age"),)), "__p0"),))
        compiled = ShardedPlan(core, "scatter", core=core, scatter=partial,
                               combine=lambda parts: [],
                               partitioned=frozenset({"sailors"}),
                               gather=core)
        with pytest.raises(PlanVerificationError,
                           match="__rows presence counter"):
            verify_sharded_plan(compiled, sharded)

    def test_delta_scan_in_scatter(self, sharded):
        scatter = DeltaScanP("Sailors", SAILORS, 0, "delta")
        compiled = ShardedPlan(scatter, "scatter", core=scatter,
                               scatter=scatter,
                               partitioned=frozenset({"sailors"}))
        with pytest.raises(PlanVerificationError,
                           match="delta scans cannot appear"):
            verify_sharded_plan(compiled, sharded)

    def test_view_delta_term_on_broadcast_alias(self, sharded):
        # Every shard maintains a view recipe's scatter, and a refresh runs
        # the delta terms of the relations the recipe holds shard-local.  A
        # recipe claiming the Boats alias as shard-local would run a delta
        # window over a merged copy, which keeps no log.
        plan = optimize(lower(
            "SELECT B.color, COUNT(*) AS n FROM Reserves R, Boats B "
            "WHERE R.bid = B.bid GROUP BY B.color", sharded.schema), sharded)
        core, _kind = find_core(plan)
        compiled = shard_plan(core, sharded, StatsCatalog(sharded))
        assert compiled.broadcast == {"boats"}
        verify_view_terms(compiled, sharded)
        broken = replace(compiled, partitioned=compiled.partitioned
                         | {"boats@broadcast"})
        with pytest.raises(PlanVerificationError) as exc:
            verify_view_terms(broken, sharded)
        assert "DeltaScanP(Boats@broadcast)" in str(exc.value)
        assert "delta window on a broadcast alias" in str(exc.value)
        assert isinstance(exc.value.node, DeltaScanP)

    def test_sort_inside_broadcast_subtree_certifies(self, sharded):
        # A sort/limit whose whole subtree reads broadcast aliases is
        # computed identically on every shard — legal in scatter (the
        # fuzzer produces this shape via sorted join inputs).
        sort = SortLimitP(ScanP("Reserves@broadcast", RESERVES),
                          ((e.Col("bid"), True),), None)
        scatter = JoinP(ScanP("Sailors", SAILORS), sort, "inner",
                        ("sid",), ("sid",))
        compiled = ShardedPlan(scatter, "scatter", core=scatter,
                               scatter=scatter,
                               partitioned=frozenset({"sailors"}),
                               broadcast=frozenset({"reserves"}))
        verify_sharded_plan(compiled, sharded)

    def test_sort_over_scattered_data_rejected(self, sharded):
        # Per-shard sorted runs interleave on gather and per-shard LIMIT
        # drops the wrong rows; the compiler never scatters these.
        scatter = SortLimitP(ScanP("Sailors", SAILORS),
                             ((e.Col("age"), True),), 3)
        compiled = ShardedPlan(scatter, "scatter", core=scatter,
                               scatter=scatter,
                               partitioned=frozenset({"sailors"}))
        with pytest.raises(PlanVerificationError,
                           match="sort/limit over scattered data"):
            verify_sharded_plan(compiled, sharded)

    def test_compiled_plans_certify(self, sharded):
        # What shard_plan actually emits passes certification, across the
        # scatter / split-aggregate / routed / fallback modes.
        for sql in (
            "SELECT S.sname FROM Sailors S WHERE S.rating > 7",
            "SELECT S.rating, AVG(S.age) FROM Sailors S GROUP BY S.rating",
            "SELECT S.sname FROM Sailors S WHERE S.sid = 58",
            "SELECT S.sname, S.age FROM Sailors S ORDER BY S.age",
            "SELECT S.sname FROM Sailors S, Reserves R "
            "WHERE S.sid = R.sid AND R.bid = 103",
        ):
            plan = optimize(lower(sql, sharded.schema), sharded)
            compiled = shard_plan(plan, sharded)
            verify_sharded_plan(compiled, sharded)


class TestHooksAndCounters:
    def test_verification_enabled_parsing(self, monkeypatch):
        for value, expected in (("1", True), ("true", True), ("on", True),
                                ("0", False), ("off", False), ("", False),
                                ("no", False), ("false", False)):
            monkeypatch.setenv("REPRO_VERIFY_PLANS", value)
            assert verification_enabled() is expected
        monkeypatch.delenv("REPRO_VERIFY_PLANS")
        assert verification_enabled() is False

    def test_maybe_verify_counts_and_raises(self, db, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        reset_verification_counts()
        good = ScanP("Sailors", SAILORS)
        assert maybe_verify(good, db) is good
        assert verification_counts() == {"plans_verified": 1,
                                         "plans_failed": 0}
        bad = FilterP(good, e.Comparison(e.Col("colour"), "=", e.Const(1)))
        with pytest.raises(PlanVerificationError):
            maybe_verify(bad, db, rule="unit-test")
        assert verification_counts() == {"plans_verified": 1,
                                         "plans_failed": 1}

    def test_maybe_verify_disabled_is_passthrough(self, db, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "0")
        reset_verification_counts()
        bad = FilterP(ScanP("Sailors", SAILORS),
                      e.Comparison(e.Col("colour"), "=", e.Const(1)))
        assert maybe_verify(bad, db) is bad  # gate off: no check, no count
        assert verification_counts() == {"plans_verified": 0,
                                         "plans_failed": 0}

    def test_optimizer_hook_names_the_rule(self, db, monkeypatch):
        # A rewrite that breaks a plan is attributed to its rule.  Breaking
        # push_down_filters from outside is hard (it is correct!), so this
        # goes through the public hook exactly as optimize() calls it.
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        bad = FilterP(ScanP("Sailors", SAILORS),
                      e.Comparison(e.Col("colour"), "=", e.Const(1)))
        with pytest.raises(PlanVerificationError,
                           match="\\[push_down_filters\\]"):
            maybe_verify(bad, db, rule="push_down_filters")

    def test_sharded_backend_exports_verifier_counts(self, db, monkeypatch):
        from repro.engine.sharded import ShardedBackend

        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        reset_verification_counts()
        backend = ShardedBackend(n_shards=2)
        plan = lower("SELECT S.sname FROM Sailors S WHERE S.rating > 7",
                     db.schema)
        backend.execute(plan, db)
        counts = backend.execution_counts()
        assert counts["plans_verified"] > 0
        assert counts["plans_failed"] == 0

    def test_verification_error_is_plan_error(self):
        # The serving pipeline catches PlanError to fall back to the
        # reference interpreter; verification failures must degrade the
        # same way rather than hard-failing a request.
        from repro.engine import PlanError

        assert issubclass(PlanVerificationError, PlanError)


class TestUntypedRelations:
    def test_generic_datalog_schema_is_not_type_checked(self):
        # The Datalog fixpoint materializes IDB relations under an
        # all-string col1..colN schema while holding ints; their declared
        # types must not be trusted (would flag e.g. col1 > 3).
        from repro.data import Database, Relation, RelationSchema
        from repro.data.types import DataType

        schema = RelationSchema("reach", tuple(
            __import__("repro.data.schema", fromlist=["Attribute"])
            .Attribute(f"col{i + 1}", DataType.STRING) for i in range(2)))
        db = Database([Relation(schema, [(1, 2)], validate=False)])
        plan = FilterP(ScanP("reach", ("col1", "col2")),
                       e.Comparison(e.Col("col1"), ">", e.Const(3)))
        verify_plan(plan, db)  # untyped: comparison passes as unknown


# ---------------------------------------------------------------------------
# tools/check_invariants.py
# ---------------------------------------------------------------------------

def _load_invariants_module():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tools", "check_invariants.py")
    spec = importlib.util.spec_from_file_location("check_invariants", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass string annotations need this
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def invariants():
    return _load_invariants_module()


@pytest.fixture()
def fixture_repo(tmp_path):
    """A minimal repo tree the lint rules run over."""
    def write(rel_path, source):
        path = tmp_path / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return str(tmp_path)
    return write


class TestInvariantLint:
    def test_real_repo_is_clean(self, invariants):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        assert invariants.run_checks(root) == []

    def test_unguarded_module_cache_mutation(self, invariants, fixture_repo):
        root = fixture_repo("src/repro/engine/kernels.py", """\
            import threading
            _PATH_TOTALS = {"probe_kernel": 0}
            _PATH_LOCK = threading.Lock()

            def count_path(key):
                _PATH_TOTALS[key] += 1

            def kernel_demo(x):
                return None
            """)
        rules = [v.rule for v in invariants.run_checks(root)
                 if v.path.endswith("kernels.py")]
        assert "lock-guarded-cache" in rules

    def test_guarded_mutation_is_clean(self, invariants, fixture_repo):
        root = fixture_repo("src/repro/engine/kernels.py", """\
            import threading
            _PATH_TOTALS = {"probe_kernel": 0}
            _PATH_LOCK = threading.Lock()

            def count_path(key):
                with _PATH_LOCK:
                    _PATH_TOTALS[key] += 1

            def kernel_demo(x):
                return None
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "lock-guarded-cache"] == []

    def test_unlocked_byte_total_in_the_cache_class(self, invariants,
                                                    fixture_repo):
        root = fixture_repo("src/repro/engine/cache.py", """\
            import threading

            class LRUCache:
                def __init__(self, capacity):
                    self._data = {}
                    self._bytes = 0
                    self._lock = threading.Lock()

                def put(self, key, value, nbytes):
                    with self._lock:
                        self._data[key] = (value, nbytes)
                    self._bytes += nbytes

                def clear(self):
                    with self._lock:
                        self._data.clear()
                        self._bytes = 0
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "lock-guarded-cache"]
        assert [(v.line, "_bytes" in v.message) for v in violations] \
            == [(12, True)]

    def test_unguarded_lru_and_stats_mutations(self, invariants,
                                               fixture_repo):
        fixture_repo("src/repro/engine/cache.py", """\
            import threading

            class LRUCache:
                def __init__(self, capacity):
                    self._data = {}
                    self._lock = threading.Lock()

                def put(self, key, value):
                    self._data[key] = value
            """)
        root = fixture_repo("src/repro/engine/stats.py", """\
            import threading

            _PROFILE_LOCK = threading.Lock()

            def table_profile(relation):
                stats = object()
                relation.profile_cache = (relation.version, stats)
                return stats
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "lock-guarded-cache"]
        assert {v.path for v in violations} == {
            os.path.join("src", "repro", "engine", "cache.py"),
            os.path.join("src", "repro", "engine", "stats.py")}

    def test_profile_published_under_its_lock_is_clean(self, invariants,
                                                       fixture_repo):
        root = fixture_repo("src/repro/engine/stats.py", """\
            import threading

            _PROFILE_LOCK = threading.Lock()

            def table_profile(relation):
                cached = relation.profile_cache      # reads need no lock
                with _PROFILE_LOCK:
                    stats = object()
                    relation.profile_cache = (relation.version, stats)
                return stats
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "lock-guarded-cache"] == []

    def test_publisher_slots_mutated_outside_the_lock(self, invariants,
                                                      fixture_repo):
        root = fixture_repo("src/repro/data/sharded.py", """\
            import threading
            import weakref
            from multiprocessing import shared_memory

            class SharedPagePublisher:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._slots = {}
                    self._finalizer = weakref.finalize(self, print)

                def publish(self, slot, relation):
                    with self._lock:
                        entry = self._slots.get(slot)     # reads are free
                        self._slots[slot] = entry = object()
                    return entry

                def forget(self, slot):
                    self._slots.pop(slot, None)
                    shared_memory.SharedMemory(create=True, size=1).unlink()
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.path.endswith("sharded.py")]
        assert [(v.rule, v.line) for v in violations] \
            == [("lock-guarded-cache", 18)]
        assert "_slots" in violations[0].message

    def test_shared_memory_without_release_path(self, invariants,
                                                fixture_repo):
        root = fixture_repo("src/repro/data/pages.py", """\
            from multiprocessing import shared_memory

            def publish(nbytes):
                return shared_memory.SharedMemory(create=True, size=nbytes)
            """)
        messages = [v.message for v in invariants.run_checks(root)
                    if v.rule == "shm-finalizer"]
        assert len(messages) == 2
        assert any("finalize" in m for m in messages)
        assert any("unlink" in m for m in messages)

    def test_kernel_without_decline_path(self, invariants, fixture_repo):
        root = fixture_repo("src/repro/engine/kernels.py", """\
            def kernel_filter(conjunct, batch):
                return [1]
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "kernel-fallback"]
        assert len(violations) == 1
        assert "kernel_filter" in violations[0].message

    def test_silent_except_needs_comment(self, invariants, fixture_repo):
        root = fixture_repo("src/repro/core/service.py", """\
            def uncommented():
                try:
                    work()
                except Exception:
                    pass

            def commented():
                try:
                    work()
                except Exception:
                    pass  # best effort: failure here must not block exit
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "silent-except"]
        assert [v.line for v in violations] == [4]

    def test_blocking_service_call_in_async_handler(self, invariants,
                                                    fixture_repo):
        root = fixture_repo("src/repro/server/app.py", """\
            class App:
                def __init__(self, service):
                    self.service = service

                async def handle_query(self, text):
                    return self.service.query(text)
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "server-nonblocking"]
        assert len(violations) == 1
        assert ".query()" in violations[0].message

    def test_executor_offload_is_clean(self, invariants, fixture_repo):
        root = fixture_repo("src/repro/server/app.py", """\
            import asyncio
            from functools import partial

            class App:
                def __init__(self, service):
                    self.service = service

                async def handle_query(self, text):
                    loop = asyncio.get_running_loop()
                    return await loop.run_in_executor(
                        None, partial(self.service.query, text))

                async def handle_metrics(self):
                    def collect():
                        return self.service.stats_snapshot()
                    loop = asyncio.get_running_loop()
                    return await loop.run_in_executor(None, collect)

                async def handle_lambda(self, text):
                    loop = asyncio.get_running_loop()
                    return await loop.run_in_executor(
                        None, lambda: self.service.answer(text))
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "server-nonblocking"] == []

    def test_bare_service_name_call_flagged(self, invariants, fixture_repo):
        root = fixture_repo("src/repro/server/worker.py", """\
            async def flush(service, relation, rows):
                return service.add_rows(relation, rows)
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "server-nonblocking"]
        assert len(violations) == 1
        assert ".add_rows()" in violations[0].message

    def test_try_lock_guards_a_cache_mutation(self, invariants, fixture_repo):
        root = fixture_repo("src/repro/engine/cache.py", """\
            import threading

            class LRUCache:
                def __init__(self, capacity):
                    self._data = {}
                    self._lock = threading.Lock()

                def peek(self, key):
                    if self._lock.acquire(blocking=False):
                        try:
                            self._data.move_to_end(key)
                        finally:
                            self._lock.release()

                def racy_peek(self, key):
                    if self._lock.acquire(blocking=False):
                        self._lock.release()
                    self._data.move_to_end(key)
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "lock-guarded-cache"]
        assert [v.line for v in violations] == [18]

    def test_try_hit_is_the_one_service_call_on_the_loop(self, invariants,
                                                         fixture_repo):
        root = fixture_repo("src/repro/server/app.py", """\
            class App:
                def __init__(self, service):
                    self.service = service

                async def handle_query(self, text):
                    return self.service.try_hit(text)

                async def handle_other(self, text):
                    return self.service.try_something_new(text)
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "server-nonblocking"]
        assert [v.line for v in violations] == [9]
        assert ".try_something_new()" in violations[0].message

    def test_try_hit_and_the_helpers_it_names_never_wait(self, invariants,
                                                         fixture_repo):
        fixture_repo("src/repro/engine/cache.py", """\
            class LRUCache:
                def __init__(self):
                    self._data = {}

                def get(self, key):
                    with self._lock:
                        return self._data.get(key)

                def peek(self, key):
                    if self._lock.acquire(blocking=False):
                        try:
                            return self._data.get(key)
                        finally:
                            self._lock.release()
            """)
        root = fixture_repo("src/repro/core/service.py", """\
            class Stats:
                def try_bump(self, name):
                    self._lock.acquire()
                    self._lock.release()

            class Service:
                def __init__(self):
                    self._views = {}

                def try_hit(self, text):
                    with self._write_lock:
                        pass
                    view = self._views.get(text)   # a dict: not LRUCache.get
                    return self._peek(text)

                def _peek(self, key):
                    self.stats.try_bump("requests")
                    return self._results.peek(key)

                def query(self, text):             # not on the loop: may wait
                    with self._write_lock:
                        return self._results.get(text)
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "server-nonblocking"]
        assert sorted((os.path.basename(v.path), v.line)
                      for v in violations) == [("service.py", 3),
                                               ("service.py", 11)]
        assert "try_bump()" in violations[0].message
        assert "blocking=False" in violations[0].message

        # One blocking helper away: calling the cache's get() from the peek.
        root = fixture_repo("src/repro/core/service.py", """\
            class Service:
                def try_hit(self, text):
                    return self._peek(text)

                def _peek(self, key):
                    return self._results.get(key)
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "server-nonblocking"]
        assert [(os.path.basename(v.path), v.line)
                for v in violations] == [("cache.py", 6)]
        assert "get()" in violations[0].message

    def test_rule_scoped_to_server_package(self, invariants, fixture_repo):
        # The same shape outside src/repro/server is not this rule's business.
        root = fixture_repo("src/repro/core/other.py", """\
            async def helper(service):
                return service.query("SELECT 1")
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "server-nonblocking"] == []
