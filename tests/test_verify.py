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
    bind_plan,
    find_core,
    lower,
    optimize,
    run_query,
    shard_plan,
    verify_plan,
    verify_sharded_plan,
    verify_view_terms,
)
from repro.engine.delta import DeltaRewriteError, delta_terms
from repro.engine.verify import (
    maybe_verify,
    reset_verification_counts,
    verification_counts,
    verification_enabled,
)
from repro.queries import CANONICAL_QUERIES

SAILORS = ("sid", "sname", "rating", "age")
RESERVES = ("sid", "bid", "day")

_PLAN_LANGUAGES = ("sql", "ra", "trc", "drc", "datalog")


def _lowered_plans(query, db):
    """(language, plan) for every language of a query."""
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
        for _language, plan in _lowered_plans(canonical_query, db):
            try:
                terms = delta_terms(plan)
            except DeltaRewriteError:
                continue  # not bag-maintainable: no delta form exists
            anchors = (0,) * len(plan.base_relations)
            for term in terms:
                verify_plan(term, db)  # template: windows anchored at slots
                verify_plan(bind_plan(term, anchors), db)  # ...at versions

    def test_sharded_plans_verify(self, db, canonical_query):
        sharded = ShardedDatabase.from_database(db, n_shards=2)
        for _language, plan in _lowered_plans(canonical_query, db):
            compiled = shard_plan(optimize(plan, db), sharded)
            verify_sharded_plan(compiled, sharded)

    def test_datalog_catalog_verifies_under_hooks(self, db, canonical_query,
                                                  monkeypatch):
        # A Datalog program is one plan: the optimizer hook certifies each
        # rewrite of it, and it verifies directly like any other plan.
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        reset_verification_counts()
        plan = optimize(lower(canonical_query.datalog, db.schema, "datalog"),
                        db)
        assert verify_plan(plan, db) == ("string",)
        counts = verification_counts()
        assert counts["plans_verified"] > 0
        assert counts["plans_failed"] == 0

    def test_full_catalog_clean_run(self, db):
        # The ISSUE's "nothing latent flagged" regression: every language
        # form of every catalog query executes end-to-end with the hooks on
        # and not one plan fails verification.
        reset_verification_counts()
        for query in CANONICAL_QUERIES:
            for language in _PLAN_LANGUAGES:
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
        plan = DeltaScanP("Sailors", SAILORS, e.Const(None, 0), "delta")
        verify_plan(plan, db)  # a template at rest: its anchor is a slot...
        verify_plan(bind_plan(plan, (3,)), db)  # ...bound to a version
        for since in (None, -1):  # an unbound window, a negative anchor
            with pytest.raises(PlanVerificationError,
                               match="neither a slot nor a version"):
                verify_plan(DeltaScanP("Sailors", SAILORS, since, "delta"),
                            db)

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


    def test_routed_pins_must_cover_the_shard_key(self, sharded):
        # A call routes on its pins alone: a scattered read they miss, a
        # pin off the shard key, or a constant the filter does not equate
        # would send the call to a shard missing rows.
        plan = optimize(lower("SELECT S.sname, R.bid FROM Sailors S, "
                              "Reserves R WHERE S.sid = R.sid AND S.sid = 58 "
                              "AND R.sid = 58", sharded.schema), sharded)
        compiled = shard_plan(plan, sharded)
        assert len(compiled.pins) == 2
        verify_sharded_plan(compiled, sharded)
        (const,) = compiled.pins[0]
        second = compiled.pins[1]
        for pins, message in (
                ((second,), "1 pins for 2 reads"),
                (((const, const), second), "does not equate the shard key"),
                (((e.Const(31),), second), "does not equate the shard key")):
            broken = replace(compiled, pins=pins)
            with pytest.raises(PlanVerificationError, match=message):
                verify_sharded_plan(broken, sharded)


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
        backend = ShardedBackend()
        plan = lower("SELECT S.sname FROM Sailors S WHERE S.rating > 7",
                     db.schema)
        backend.execute(plan, ShardedDatabase.from_database(db, 2))
        counts = backend.execution_counts()
        assert counts["plans_verified"] > 0
        assert counts["plans_failed"] == 0

    def test_verification_error_is_plan_error(self):
        # The serving pipeline catches PlanError to fall back to the
        # reference interpreter; verification failures must degrade the
        # same way rather than hard-failing a request.
        from repro.engine import PlanError

        assert issubclass(PlanVerificationError, PlanError)


class TestFixpointWorkingRelations:
    """A fixpoint's working relations are typed from its own facts and rule
    bodies, so a comparison over a recursive predicate is checked."""

    EDGES = ("tc(X, Y) :- edge(X, Y).\n"
             "tc(X, Z) :- tc(X, Y), edge(Y, Z).\n")

    @pytest.fixture()
    def edge_db(self):
        from repro.data import Database
        from repro.data.relation import relation_from_rows

        return Database([relation_from_rows(
            "edge", [("src", "int"), ("dst", "int")], [(1, 2), (2, 3)])])

    def test_working_relations_take_their_bodies_types(self, edge_db):
        plan = lower(self.EDGES + "ans(X, Y) :- tc(X, Y), Y > 2.",
                     edge_db.schema)
        assert verify_plan(optimize(plan, edge_db), edge_db) == ("int", "int")

    def test_facts_widen_a_working_relation(self, edge_db):
        plan = lower(self.EDGES + "tc(1, 2.5).\nans(X, Y) :- tc(X, Y).",
                     edge_db.schema)
        assert verify_plan(plan, edge_db) == ("int", "float")

    @pytest.mark.parametrize("rule", [
        "tc(X, Z) :- tc(X, Y), edge(Y, Z), X > 'a'.\nans(X) :- tc(X, Y).",
        "ans(X) :- tc(X, Y), Y > 'a'.",
    ], ids=["in-a-rule-body", "over-the-output"])
    def test_ill_typed_comparison_is_flagged(self, edge_db, rule):
        plan = lower(self.EDGES + rule, edge_db.schema)
        with pytest.raises(PlanVerificationError,
                           match="type-inconsistent comparison"):
            verify_plan(plan, edge_db)


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
        root = fixture_repo("src/repro/engine/cache.py", """\
            import threading
            _PATH_TOTALS = {"probe_kernel": 0}
            _PATH_LOCK = threading.Lock()

            class LRUCache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}

            def count_path(key):
                _PATH_TOTALS[key] += 1
            """)
        found = [(v.rule, v.line) for v in invariants.run_checks(root)
                 if v.path.endswith("cache.py")]
        assert found == [("lock-guarded-cache", 11)]  # the += line

    def test_guarded_mutation_is_clean(self, invariants, fixture_repo):
        root = fixture_repo("src/repro/engine/cache.py", """\
            import threading
            _PATH_TOTALS = {"probe_kernel": 0}
            _PATH_LOCK = threading.Lock()

            class LRUCache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}

            def count_path(key):
                with _PATH_LOCK:
                    _PATH_TOTALS[key] += 1
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

    def test_blocking_call_in_a_protocol_callback(self, invariants,
                                                  fixture_repo):
        # data_received is synchronous, yet it runs on the loop.
        root = fixture_repo("src/repro/server/app.py", """\
            import asyncio

            class Connection(asyncio.Protocol):
                def __init__(self, app):
                    self.app = app

                def data_received(self, data):
                    return self.app.service.query(data.decode())
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "server-nonblocking"]
        assert [v.line for v in violations] == [8]
        assert ".query()" in violations[0].message

    def test_identify_and_try_hit_in_a_protocol_callback_are_clean(
            self, invariants, fixture_repo):
        root = fixture_repo("src/repro/server/app.py", """\
            import asyncio

            class Connection(asyncio.Protocol):
                def __init__(self, app):
                    self.app = app

                def data_received(self, data):
                    handle = self.app.service.identify(data.decode())
                    return handle.try_hit() or self.app.service.try_hit(data)
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "server-nonblocking"] == []

    def test_app_methods_a_callback_reaches_run_on_the_loop(self, invariants,
                                                           fixture_repo):
        root = fixture_repo("src/repro/server/app.py", """\
            import asyncio

            class ServingApp:
                def answer(self, text):
                    return self._hit(text)

                def _hit(self, text):
                    return self.service.identify(text).try_hit()

                def _slow(self, text):
                    return self.service.query(text)

                def metrics(self):                  # reached by no callback
                    return self.service.cache_info()

            class Connection(asyncio.Protocol):
                def data_received(self, data):
                    return self.app.answer(data) or self.app._slow(data)
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "server-nonblocking"]
        assert [v.line for v in violations] == [11]
        assert ".query()" in violations[0].message

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

    def test_token_rules_compiled_outside_syntax_module(self, invariants,
                                                       fixture_repo):
        root = fixture_repo("src/repro/ra/parser.py", """\
            import re

            _TOKEN_RE = re.compile(
                r"(?P<ws>\\s+)|(?P<name>[A-Za-z_]+)|(?P<op>[()])")
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "one-lexer"]
        assert [(v.path, v.line) for v in violations] == [
            (os.path.join("src", "repro", "ra", "parser.py"), 3)]

    def test_token_rules_in_the_syntax_module_are_clean(self, invariants,
                                                        fixture_repo):
        fixture_repo("src/repro/syntax.py", """\
            import re

            WS = re.compile(r"(?P<ws>\\s+)")
            """)
        root = fixture_repo("src/repro/engine/bind.py", """\
            import re

            _LITERAL_RE = re.compile(r"'(?:[^']|'')*'|\\d+")
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "one-lexer"] == []

    def test_key_index_read_outside_the_access_path_rule(self, invariants,
                                                       fixture_repo):
        root = fixture_repo("src/repro/engine/vectorized.py", """\
            class VectorizedExecutor:
                def _filter(self, relation, position):
                    return relation.key_index((position,))

                def _hash_table(self, relation, idx):
                    return relation.held_key_index(idx)
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "one-access-path"]
        assert [(v.path, v.line) for v in violations] == [
            (os.path.join("src", "repro", "engine", "vectorized.py"), 3),
            (os.path.join("src", "repro", "engine", "vectorized.py"), 6)]

    def test_a_plan_executor_outside_the_compiler(self, invariants,
                                                   fixture_repo):
        fixture_repo("src/repro/engine/execute.py", """\
            from repro.engine.cache import LRUCache

            _closures = LRUCache(8192)
            OPERATORS = {"=": 1}


            class _Compiler:
                def _operator(self, plan):
                    return plan
            """)
        root = fixture_repo("src/repro/engine/vectorized.py", """\
            from repro.engine.execute import _Compiler


            class Walker:
                def __init__(self):
                    self._memo = {}

                def _compute(self, plan):
                    return plan


            class _BatchCompiler(_Compiler):
                def _compute(self, plan):
                    return self._memo


            class _Deeper(_BatchCompiler):
                def _compute(self, plan):
                    return plan


            def finish(executor, seed, rows):
                executor._memo[seed] = rows
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "one-compile"]
        execute = os.path.join("src", "repro", "engine", "execute.py")
        vectorized = os.path.join("src", "repro", "engine", "vectorized.py")
        assert [(v.path, v.line) for v in violations] == [
            (execute, 3), (vectorized, 6), (vectorized, 8),
            (vectorized, 23)]

    def test_window_read_outside_the_resolver(self, invariants,
                                              fixture_repo):
        root = fixture_repo("src/repro/engine/vectorized.py", """\
            class VectorizedExecutor:
                def _delta_scan(self, relation, plan):
                    count = relation.delta_count_since(plan.version)
                    if plan.mode == "asof":
                        return relation.rows_at(plan.version)
                    return relation.delta_since(plan.version)
            """)
        fixture_repo("src/repro/engine/execute.py", """\
            def scan_lookup(plan, source):
                relation, keep = source
                return relation.rows_at(keep)

            def resolve_window(db, plan, params):
                return db.relation(plan.relation).delta_since(plan.version)
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "one-access-path"]
        assert [(v.path, v.line) for v in violations] == [
            (os.path.join("src", "repro", "engine", "execute.py"), 3),
            (os.path.join("src", "repro", "engine", "vectorized.py"), 3),
            (os.path.join("src", "repro", "engine", "vectorized.py"), 5),
            (os.path.join("src", "repro", "engine", "vectorized.py"), 6)]

    def test_key_index_read_by_the_access_path_rule_is_clean(
            self, invariants, fixture_repo):
        fixture_repo("src/repro/engine/execute.py", """\
            def resolve_window(db, plan, params):
                relation = db.relation(plan.relation)
                count = relation.delta_count_since(plan.version)
                return relation, len(relation) - count

            def scan_lookup(plan, source):
                return source[0].key_index((0,))

            def join_table(source, idx, skip_nulls, build):
                return source[0].key_index(idx)
            """)
        fixture_repo("src/repro/engine/kernels.py", """\
            class RelationBuild:
                def table(self):
                    return self.relation.key_index(self.idx)
            """)
        root = fixture_repo("src/repro/data/relation.py", """\
            def warm(relation):
                return relation.key_index((0,))   # not the engine's business
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "one-access-path"] == []

    def test_operator_loop_outside_the_execute_module(self, invariants,
                                                      fixture_repo):
        root = fixture_repo("src/repro/engine/vectorized.py", """\
            from repro.engine.execute import fold

            def _fold_aggregate(name, members, arg):
                return [fold(name, (arg[i] for i in g)) for g in members]

            def _sort_limit(rows, key):
                from repro.sql.evaluate import _sort_key
                return sorted(rows, key=lambda r: _sort_key(key(r), True))
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule in ("one-operator", "no-oracle-imports")]
        assert [(v.path, v.line, v.rule) for v in violations] == [
            (os.path.join("src", "repro", "engine", "vectorized.py"), 4,
             "one-operator"),
            (os.path.join("src", "repro", "engine", "vectorized.py"), 7,
             "no-oracle-imports")]

    def test_operator_functions_called_from_the_executors_are_clean(
            self, invariants, fixture_repo):
        fixture_repo("src/repro/engine/execute.py", """\
            from repro.data.relation import dedupe_rows
            from repro.expr.eval import sort_key

            def aggregate_rows(plan, rows):
                return [fold(call.name, rows) for call in plan.aggregates]
            """)
        fixture_repo("src/repro/engine/sharded.py", """\
            def merge(state, parts):
                state.fold(row for part in parts for row in part)
            """)
        root = fixture_repo("src/repro/engine/vectorized.py", """\
            from repro.engine.execute import aggregate_rows, sort_limit_rows

            def _aggregate(plan, batch):
                return aggregate_rows(plan, batch.rows())
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule in ("one-operator", "no-oracle-imports")] == []

    def test_engine_importing_an_interpreter(self, invariants, fixture_repo):
        fixture_repo("src/repro/engine/lower.py", """\
            from repro.drc.ast import DRCError
            from repro.drc.evaluate import evaluate_drc
            import repro.sql.evaluate
            from repro.datalog import ast, evaluate
            """)
        root = fixture_repo("src/repro/core/service.py", """\
            from repro.trc.evaluate import evaluate_trc
            from repro.trc.evaluate import _compare, evaluate_trc_boolean
            """)
        violations = [(v.path, v.line) for v in invariants.run_checks(root)
                      if v.rule == "no-oracle-imports"]
        assert violations == [
            (os.path.join("src", "repro", "core", "service.py"), 2),
            (os.path.join("src", "repro", "engine", "lower.py"), 2),
            (os.path.join("src", "repro", "engine", "lower.py"), 3),
            (os.path.join("src", "repro", "engine", "lower.py"), 4)]

    def test_helpers_from_their_neutral_homes_are_clean(self, invariants,
                                                        fixture_repo):
        fixture_repo("src/repro/engine/execute.py", """\
            from repro.data.relation import result_relation, unique_names
            from repro.datalog.ast import names_from_heads
            from repro.logic.transform import to_existential_nnf
            """)
        fixture_repo("src/repro/sql/evaluate.py", """\
            from repro.sql.evaluate import _eval_query   # its own module
            """)
        root = fixture_repo("src/repro/translate/equivalence.py", """\
            from repro.sql.evaluate import evaluate_sql
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "no-oracle-imports"] == []

    def test_join_planning_outside_the_optimizer(self, invariants,
                                                 fixture_repo):
        root = fixture_repo("src/repro/engine/delta.py", """\
            from repro.engine.optimize import (
                optimize,
                reorder_joins,
            )

            def plan_terms(plan, db):
                return [optimize(reorder_joins(term, db), db)
                        for term in delta_terms(plan)]
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "one-join-planner"]
        assert [(v.path, v.line) for v in violations] == [
            (os.path.join("src", "repro", "engine", "delta.py"), 3),
            (os.path.join("src", "repro", "engine", "delta.py"), 7)]

    def test_join_planning_inside_the_optimizer_is_clean(self, invariants,
                                                         fixture_repo):
        fixture_repo("src/repro/engine/optimize.py", """\
            def hoist_projections(plan):
                return plan

            def optimize(plan, db):
                return reorder_joins(hoist_projections(plan), db)
            """)
        fixture_repo("src/repro/engine/__init__.py", """\
            from repro.engine.optimize import optimize, reorder_joins
            """)
        root = fixture_repo("src/repro/engine/delta.py", """\
            from repro.engine.optimize import optimize

            def plan_terms(plan, db):
                return [optimize(term, db) for term in delta_terms(plan)]
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "one-join-planner"] == []

    def test_delta_relation_named_outside_the_fixpoint(self, invariants,
                                                       fixture_repo):
        root = fixture_repo("src/repro/engine/verify.py", """\
            from repro.engine.stats import DELTA_SUFFIX
            from repro.engine import stats

            def working(name):
                \"\"\"Docstrings may say pred@delta.\"\"\"
                if name.endswith("@delta"):
                    return name.removesuffix(DELTA_SUFFIX)
                return name.removesuffix(stats.DELTA_SUFFIX)
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "one-fixpoint"]
        path = os.path.join("src", "repro", "engine", "verify.py")
        assert [(v.path, v.line) for v in violations] == [
            (path, 1), (path, 6), (path, 7), (path, 8)]

    def test_delta_relation_named_by_the_fixpoint_is_clean(self, invariants,
                                                           fixture_repo):
        fixture_repo("src/repro/engine/stats.py", """\
            DELTA_SUFFIX = "@delta"

            def working_predicate(relation):
                return relation.lower().removesuffix(DELTA_SUFFIX)
            """)
        fixture_repo("src/repro/engine/lower.py", """\
            from repro.engine.stats import DELTA_SUFFIX
            """)
        root = fixture_repo("src/repro/engine/verify.py", """\
            \"\"\"Working relations: ``pred`` and ``pred@delta``.\"\"\"
            from repro.engine.stats import working_predicate

            def working(name):
                return working_predicate(name)
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "one-fixpoint"] == []

    def test_slot_read_outside_bind(self, invariants, fixture_repo):
        root = fixture_repo("src/repro/core/pipeline.py", """\
            def literal(const, values):
                if const.slot is None:
                    return const.value
                return values[const.slot]
            """)
        fixture_repo("src/repro/engine/vectorized.py", """\
            def bound(node, params):
                return params[getattr(node, "right").slot]
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "one-bind"]
        core = os.path.join("src", "repro", "core", "pipeline.py")
        engine = os.path.join("src", "repro", "engine", "vectorized.py")
        assert sorted((v.path, v.line) for v in violations) == sorted([
            (core, 2), (core, 4), (engine, 2)])

    def test_slot_read_in_bind_is_clean(self, invariants, fixture_repo):
        fixture_repo("src/repro/engine/bind.py", """\
            def bind_const(const, values):
                return const if const.slot is None else values[const.slot]
            """)
        fixture_repo("src/repro/server/app.py", """\
            async def handle(app):
                async with app.admission.slot():
                    pass
            """)
        root = fixture_repo("src/repro/engine/execute.py", """\
            from repro.engine.bind import bind_node

            def rows(plan, params):
                return bind_node(plan, params)
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "one-bind"] == []

    def test_an_executor_binding_a_whole_plan(self, invariants,
                                              fixture_repo):
        # The scatter-gather driver as it was: every request bound the
        # template before compiling it.  The pipeline's and the delta
        # certificate's calls are the cold consumers, allowed.
        root = fixture_repo("src/repro/engine/sharded.py", """\
            from repro.engine.bind import bind_plan

            class ShardedBackend:
                def execute(self, plan, db, params=()):
                    if params:
                        plan = bind_plan(plan, params)
                    return self.plan_for(plan, db)
            """)
        fixture_repo("src/repro/core/pipeline.py", """\
            from repro.engine.bind import bind_plan

            def result_plan(template, literals):
                return bind_plan(template, literals)
            """)
        fixture_repo("src/repro/engine/delta.py", """\
            from repro.engine import bind

            def certify(union, params):
                return bind.bind_plan(union, params)
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "one-bind"]
        sharded = os.path.join("src", "repro", "engine", "sharded.py")
        assert [(v.path, v.line) for v in violations] == [(sharded, 6)]
        assert "params" in violations[0].message
        real = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        assert [v for v in invariants.run_checks(real)
                if v.rule == "one-bind"] == []

    def test_anchor_replaced_into_a_window(self, invariants, fixture_repo):
        root = fixture_repo("src/repro/engine/delta.py", """\
            from dataclasses import replace

            def anchored(plan, anchors):
                return replace(plan, since=anchors[plan.relation])
            """)
        fixture_repo("src/repro/core/service.py", """\
            import dataclasses

            def reanchor(window, version):
                return dataclasses.replace(window, mode="asof", since=version)
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "one-bind"]
        delta = os.path.join("src", "repro", "engine", "delta.py")
        service = os.path.join("src", "repro", "core", "service.py")
        assert sorted((v.path, v.line) for v in violations) == [
            (service, 4), (delta, 4)]
        assert "slot" in violations[0].message

    def test_windows_bound_as_params_are_clean(self, invariants,
                                               fixture_repo):
        root = fixture_repo("src/repro/engine/delta.py", """\
            from dataclasses import replace

            from repro.engine.bind import bind_plan

            def refresh(backend, union, db, params):
                return backend.execute(union, db, params)

            def certify(union, params):
                return bind_plan(union, params)

            def renamed(plan, name):
                return replace(plan, relation=name)
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "one-bind"] == []

    def test_expr_rebuilt_outside_the_rewriter(self, invariants,
                                               fixture_repo):
        root = fixture_repo("src/repro/engine/lower.py", """\
            from repro.expr import ast as e

            def replace(expr, fn):
                if isinstance(expr, e.Between):
                    return e.Between(fn(expr.operand), fn(expr.low),
                                     fn(expr.high), expr.negated)
                return expr
            """)
        fixture_repo("src/repro/sql/evaluate.py", """\
            from repro.expr.ast import InList, Like

            def replace(expr, fn):
                if isinstance(expr, Like):
                    return Like(fn(expr.operand), expr.pattern, expr.negated)
                return InList(fn(expr.operand), expr.items, expr.negated)
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "one-expr-rewriter"]
        lower = os.path.join("src", "repro", "engine", "lower.py")
        evaluate = os.path.join("src", "repro", "sql", "evaluate.py")
        assert sorted((v.path, v.line) for v in violations) == sorted([
            (lower, 5), (evaluate, 5), (evaluate, 6)])
        assert "map_children" in violations[0].message

    def test_expr_built_by_the_tree_and_the_parser_is_clean(self, invariants,
                                                           fixture_repo):
        fixture_repo("src/repro/expr/ast.py", """\
            def map_children(expr, fn):
                return Like(fn(expr.operand), expr.pattern, expr.negated)
            """)
        fixture_repo("src/repro/expr/parser.py", """\
            def parse_like(left, text, negated):
                return Like(left, text, negated)
            """)
        root = fixture_repo("src/repro/engine/lower.py", """\
            from repro.expr import ast as e

            def replace(expr, mapping):
                if isinstance(expr, (e.Like, e.InList, e.Between)):
                    return e.map_children(expr, mapping.get)
                return expr
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "one-expr-rewriter"] == []

    def test_gates_tuned_outside_the_price_are_flagged(self, invariants,
                                                       fixture_repo):
        """The five-rule tree the one price replaced: two gate constants
        and a method-level gate in ``kernels.py``, comparisons against
        them, one through an alias, in ``vectorized.py``, and the
        optimizer's leaf-count guard and a literal row gate."""
        fixture_repo("src/repro/engine/kernels.py", """\
            KERNEL_MIN_ROWS = 2048
            CACHED_PROBE_MIN_ROWS = 512

            class RelationBuild:
                def min_rows(self):
                    return CACHED_PROBE_MIN_ROWS
            """)
        fixture_repo("src/repro/engine/optimize.py", """\
            def reorder_joins(flat, batch):
                if len(flat[0]) < 3:
                    return None
                return 2048 <= len(batch)
            """)
        root = fixture_repo("src/repro/engine/vectorized.py", """\
            from repro.engine import kernels

            def distinct(batch):
                return batch.length >= kernels.KERNEL_MIN_ROWS

            def runs_on_rows(plan, db):
                gate = kernels.KERNEL_MIN_ROWS
                return all(len(db.relation(n)) < gate
                           for n in plan.base_relations)

            def probe(side, left):
                return side.rows_at_stake(left.length) < side.min_rows()
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "one-cost-model"]
        kernels = os.path.join("src", "repro", "engine", "kernels.py")
        optimize = os.path.join("src", "repro", "engine", "optimize.py")
        vectorized = os.path.join("src", "repro", "engine", "vectorized.py")
        assert {(v.path, v.line) for v in violations} == {
            (kernels, 1), (kernels, 2), (kernels, 5), (kernels, 6),
            (optimize, 2), (optimize, 4),
            (vectorized, 4), (vectorized, 7), (vectorized, 12)}
        sized = sorted(v.message.split(" outside")[0] for v in violations
                       if "size gate" in v.message)
        assert sized == ["size gate 2048 <= len(batch)",
                         "size gate batch.length >= kernels.KERNEL_MIN_ROWS",
                         "size gate len(flat[0]) < 3"]
        assert all("reaches_kernels" in v.message for v in violations)

    def test_gates_read_through_the_price_are_clean(self, invariants,
                                                    fixture_repo):
        """The price module may compare sizes with its crossover, and a
        count of none, one or two is no gate."""
        fixture_repo("src/repro/engine/stats.py", """\
            KERNEL_MIN_ROWS = 2048

            def reaches_kernels(rows):
                return rows >= KERNEL_MIN_ROWS
            """)
        root = fixture_repo("src/repro/engine/vectorized.py", """\
            from repro.engine.stats import probe_at_stake, reaches_kernels

            def distinct(batch):
                return reaches_kernels(batch.length)

            def probe(left, fan_out, indexed):
                return reaches_kernels(probe_at_stake(left.length, fan_out,
                                                      indexed))

            def plural(parts, flat):
                return len(parts) >= 2 and len(flat[0]) == 3
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "one-cost-model"] == []

    def test_trc_formula_walked_outside_the_pattern_reader(self, invariants,
                                                          fixture_repo):
        root = fixture_repo("src/repro/diagrams/common.py", """\
            from repro.logic.formula import (
                And,
                Atom,
            )
            from repro.logic import formula

            def boxes(node):
                if isinstance(node, Atom):
                    return [node.terms[0].name]
                return isinstance(node, formula.Compare)
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "one-pattern-walker"]
        path = os.path.join("src", "repro", "diagrams", "common.py")
        assert [(v.path, v.line) for v in violations] == [
            (path, 3), (path, 8), (path, 10)]

    def test_attribute_reference_read_by_a_logic_drawer(self, invariants,
                                                       fixture_repo):
        root = fixture_repo("src/repro/diagrams/peirce_beta.py", """\
            from repro.logic.formula import Atom, Compare
            from repro.logic.terms import AttrRef

            def spot(node):
                return isinstance(node, (Atom, Compare, AttrRef))
            """)
        violations = [v for v in invariants.run_checks(root)
                      if v.rule == "one-pattern-walker"]
        path = os.path.join("src", "repro", "diagrams", "peirce_beta.py")
        assert [(v.path, v.line) for v in violations] == [(path, 2), (path, 5)]
        assert "AttrRef" in violations[0].message

    def test_trc_formula_walked_in_the_pattern_reader_is_clean(
            self, invariants, fixture_repo):
        fixture_repo("src/repro/core/patterns.py", """\
            from repro.logic.formula import Atom, Compare
            from repro.logic.terms import AttrRef

            def visit(node):
                return isinstance(node, (Atom, Compare, AttrRef))
            """)
        fixture_repo("src/repro/trc/evaluate.py", """\
            from repro.logic.formula import Atom
            from repro.logic.terms import AttrRef
            """)
        fixture_repo("src/repro/diagrams/peirce_beta.py", """\
            from repro.logic.formula import Atom, Compare

            def spot(node):
                return isinstance(node, (Atom, Compare))
            """)
        root = fixture_repo("src/repro/diagrams/common.py", """\
            from repro.core.patterns import pattern_of

            def build_query_graph(query):
                return pattern_of(query).variables
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "one-pattern-walker"] == []

    def test_rule_scoped_to_server_package(self, invariants, fixture_repo):
        # The same shape outside src/repro/server is not this rule's business.
        root = fixture_repo("src/repro/core/other.py", """\
            async def helper(service):
                return service.query("SELECT 1")
            """)
        assert [v for v in invariants.run_checks(root)
                if v.rule == "server-nonblocking"] == []
