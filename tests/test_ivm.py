"""Incremental view maintenance: delta logs, delta plans, materialized views.

Three layers of coverage:

* storage — the bounded per-version delta log on :class:`Relation` (window
  queries, batch version bumps, overflow detection);
* engine — insert-delta rewriting (:mod:`repro.engine.delta`) and the
  :class:`~repro.engine.plan.DeltaScanP` windows on all three backends;
* service — :meth:`QueryService.register_view` semantics (strategies,
  lazy/eager refresh, rebuild triggers, serving integration), capped by the
  ISSUE's differential suite: **every catalog query in every language,
  registered as a view, stays bag-equal to from-scratch recomputation across
  randomized insert sequences, on all three executor backends** — driven by
  hypothesis.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MaterializedView, QueryService, QueryVisualizationPipeline
from repro.data.relation import Relation, relation_from_rows
from repro.data.sailors import random_sailors_database, sailors_database
from repro.engine import (
    DeltaRewriteError,
    DeltaScanP,
    DeltaUnavailable,
    anchor,
    asof_plan,
    base_relations,
    delta_terms,
    execute_plan,
    find_core,
    lower,
    optimize,
)
from repro.engine.delta import term_delta_relation
from repro.queries.catalog import CANONICAL_QUERIES

BACKENDS = ("row", "vectorized", "sharded")

JOIN_SQL = ("SELECT DISTINCT S.sname FROM Sailors S, Boats B, Reserves R "
            "WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = 'red'")
AGG_SQL = ("SELECT S.rating, COUNT(*) AS n, AVG(S.age) AS avg_age "
           "FROM Sailors S, Reserves R WHERE S.sid = R.sid GROUP BY S.rating")
RECURSIVE_DATALOG = (
    "reach(X, Y) :- reserves(X, Y, D). "
    "reach(X, Z) :- reach(X, Y), reserves(Y, Z, D). "
    "ans(X, Z) :- reach(X, Z)."
)
ANTI_SQL = ("SELECT S.sname FROM Sailors S WHERE NOT EXISTS "
            "(SELECT R.sid FROM Reserves R WHERE R.sid = S.sid)")


def fresh_answers(db, text, language=None):
    return QueryVisualizationPipeline(db).answer(text, language=language)


# ---------------------------------------------------------------------------
# Storage: the bounded delta log
# ---------------------------------------------------------------------------

class TestDeltaLog:
    def rel(self):
        return relation_from_rows(
            "T", [("k", "int"), ("v", "string")], [(1, "a"), (2, "b")])

    def test_delta_since_returns_appends_in_order(self):
        rel = self.rel()
        v = rel.version
        rel.add((3, "c"))
        rel.add((4, "d"))
        assert rel.delta_since(v) == [(3, "c"), (4, "d")]
        assert rel.delta_since(rel.version) == []
        assert rel.delta_count_since(v) == 2

    def test_rows_at_is_the_old_prefix(self):
        rel = self.rel()
        v = rel.version
        rel.add((3, "c"))
        assert rel.rows_at(v) == [(1, "a"), (2, "b")]
        assert rel.rows_at(rel.version) == rel.rows()

    def test_batch_add_publishes_a_single_version_bump(self):
        rel = self.rel()
        v = rel.version
        rel.add_rows([(5, "e"), (6, "f"), (7, "g")])
        assert rel.version == v + 1
        assert rel.delta_since(v) == [(5, "e"), (6, "f"), (7, "g")]

    def test_empty_batch_does_not_bump(self):
        rel = self.rel()
        v = rel.version
        rel.add_rows([])
        assert rel.version == v

    def test_overflow_is_detected_not_truncated(self, monkeypatch):
        monkeypatch.setattr(Relation, "DELTA_LOG_LIMIT", 4)
        rel = self.rel()
        v = rel.version
        for i in range(6):
            rel.add((10 + i, "x"))
        assert rel.delta_since(v) is None
        assert rel.rows_at(v) is None
        # A recent-enough anchor still answers exactly.
        recent = rel.version - 2
        assert rel.delta_since(recent) == [(14, "x"), (15, "x")]

    def test_batch_log_entries_share_the_published_version(self):
        rel = self.rel()
        rel.add_rows([(8, "h"), (9, "i")])
        v = rel.version
        rel.add((10, "j"))
        assert rel.delta_since(v) == [(10, "j")]
        assert rel.delta_since(v - 1) == [(8, "h"), (9, "i"), (10, "j")]

    def test_failed_batch_applies_nothing(self):
        # Regression: a mid-batch validation failure must not leave already-
        # appended rows visible without a version bump (version-keyed caches
        # and delta windows would silently exclude them).
        rel = self.rel()
        v = rel.version
        with pytest.raises(Exception):
            rel.add_rows([(8, "h"), ("not-an-int", "i")])
        assert rel.version == v
        assert rel.rows() == [(1, "a"), (2, "b")]
        assert rel.delta_since(v) == []

    def test_racing_reader_built_key_index_is_not_double_appended(self):
        # Regression for the lock-free interleaving: a reader builds a key
        # index AFTER the writer appended a row but BEFORE the version bump
        # — the table already contains the new position, tagged with the
        # pre-bump version.  The writer's maintenance must not append the
        # position again and re-tag the entry as current.
        rel = self.rel()
        rel.column_store()
        key = ((0,), True)
        # Simulate the racing build's published state: position 2 (the row
        # the concurrent add is appending) is already in the table, but the
        # tag is the version the reader observed (pre-bump).
        rel._key_indexes[key] = (rel.version, {1: [0], 2: [1], 3: [2]})
        rel.add((3, "c"))
        assert rel.key_index((0,)) == {1: [0], 2: [1], 3: [2]}


# ---------------------------------------------------------------------------
# Engine: delta windows and delta terms
# ---------------------------------------------------------------------------

class TestDeltaScan:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_windows_on_all_backends(self, backend):
        db = sailors_database()
        rel = db.relation("Reserves")
        v = rel.version
        rel.add((29, 101, "2025-01-01"))
        cols = tuple(rel.schema.attribute_names)
        delta = execute_plan(DeltaScanP("Reserves", cols, v, "delta"), db,
                             backend=backend)
        asof = execute_plan(DeltaScanP("Reserves", cols, v, "asof"), db,
                            backend=backend)
        assert delta.rows() == [(29, 101, "2025-01-01")]
        assert len(asof) == len(rel) - 1

    def test_unanchored_template_refuses_to_execute(self):
        db = sailors_database()
        cols = tuple(db.relation("Reserves").schema.attribute_names)
        from repro.engine import PlanError

        with pytest.raises(PlanError):
            execute_plan(DeltaScanP("Reserves", cols, None, "delta"), db)

    def test_uncovered_window_raises_delta_unavailable(self, monkeypatch):
        monkeypatch.setattr(Relation, "DELTA_LOG_LIMIT", 2)
        db = sailors_database()
        rel = db.relation("Reserves")
        v = rel.version
        for i in range(4):
            rel.add((29, 101, f"2025-02-{i + 1:02d}"))
        cols = tuple(rel.schema.attribute_names)
        with pytest.raises(DeltaUnavailable):
            execute_plan(DeltaScanP("Reserves", cols, v, "delta"), db)


class TestDeltaTerms:
    def test_one_term_per_base_occurrence(self):
        db = sailors_database()
        plan = optimize(lower(JOIN_SQL, db.schema, "sql"), db)
        core, kind = find_core(plan)
        assert kind == "distinct"
        terms = delta_terms(core.input)
        # Sailors, Boats, Reserves: one delta term per occurrence.
        assert sorted(term_delta_relation(t) for t in terms) == \
            ["boats", "reserves", "sailors"]

    def test_terms_sum_to_the_exact_delta(self):
        db = random_sailors_database(n_sailors=30, n_boats=6, n_reserves=120,
                                     seed=13)
        plan = optimize(lower(JOIN_SQL, db.schema, "sql"), db)
        core, _kind = find_core(plan)
        bag = core.input
        anchors = {r: db.relation(r).version for r in base_relations(bag)}
        before = execute_plan(bag, db)
        db.relation("Reserves").add_rows(
            [(1, 101, "x"), (2, 102, "y")], validate=False)
        db.relation("Sailors").add((99, "Zed", 5, 30.0))
        after = execute_plan(bag, db)
        delta_rows: list = []
        for term in delta_terms(bag):
            delta_rows.extend(execute_plan(anchor(term, anchors), db).rows())
        combined = before.rows() + delta_rows
        assert sorted(map(repr, combined)) == sorted(map(repr, after.rows()))

    def test_asof_plan_reproduces_the_old_output(self):
        db = random_sailors_database(n_sailors=20, n_boats=5, n_reserves=80,
                                     seed=17)
        plan = optimize(lower(JOIN_SQL, db.schema, "sql"), db)
        core, _kind = find_core(plan)
        bag = core.input
        anchors = {r: db.relation(r).version for r in base_relations(bag)}
        before = execute_plan(bag, db)
        db.relation("Reserves").add((3, 103, "z"), validate=False)
        old = execute_plan(anchor(asof_plan(bag), anchors), db)
        assert old.bag_equal(before)

    def test_non_monotone_plans_are_rejected(self):
        db = sailors_database()
        plan = optimize(lower(ANTI_SQL, db.schema, "sql"), db)
        with pytest.raises(DeltaRewriteError):
            find_core(plan)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bag_union_of_asof_windows_respects_the_window(self, backend):
        # Regression: the vectorized bag-union concatenated the *full*
        # shared arrays of length-limited as-of batches, splicing
        # out-of-window rows into the output.
        db = sailors_database()
        rel = db.relation("Reserves")
        v = rel.version
        rel.add_rows([(29, 101, "new-1"), (31, 102, "new-2")])
        cols = tuple(rel.schema.attribute_names)
        from repro.engine import SetOpP

        union = SetOpP("union", DeltaScanP("Reserves", cols, v, "asof"),
                       DeltaScanP("Reserves", cols, v, "asof"),
                       distinct=False)
        result = execute_plan(union, db, backend=backend)
        old_rows = rel.rows_at(v)
        assert sorted(result.rows()) == sorted(old_rows + old_rows)


# ---------------------------------------------------------------------------
# Service: materialized views
# ---------------------------------------------------------------------------

class TestMaterializedViews:
    def test_register_and_serve(self):
        service = QueryService(sailors_database())
        view = service.register_view(JOIN_SQL, name="red")
        assert isinstance(view, MaterializedView)
        assert service.view("red") is view
        assert view.strategy == "distinct"
        assert view.answer().bag_equal(fresh_answers(service.db, JOIN_SQL))
        # answer() for the same text is served from the view.
        before = service.cache_info()["view_hits"]
        service.answer(JOIN_SQL)
        assert service.cache_info()["view_hits"] == before + 1

    def test_registration_is_idempotent(self):
        service = QueryService(sailors_database())
        view = service.register_view(AGG_SQL)
        assert service.register_view(AGG_SQL) is view
        assert len(service.views()) == 1

    def test_reregistration_with_conflicting_options_raises(self):
        # Regression: a second register_view for the same query must not
        # silently discard a different requested name or refresh policy.
        service = QueryService(sailors_database())
        view = service.register_view(AGG_SQL, refresh="lazy")
        with pytest.raises(ValueError):
            service.register_view(AGG_SQL, name="dashboard")
        with pytest.raises(ValueError):
            service.register_view(AGG_SQL, refresh="eager")
        assert service.register_view(AGG_SQL, name=view.name) is view

    def test_duplicate_name_rejected(self):
        service = QueryService(sailors_database())
        service.register_view(AGG_SQL, name="v")
        with pytest.raises(ValueError):
            service.register_view(JOIN_SQL, name="v")

    def test_lazy_refresh_absorbs_writes_incrementally(self):
        service = QueryService(sailors_database())
        view = service.register_view(JOIN_SQL)
        rebuilds_before = view.rebuilds
        service.add_row("Reserves", (32, 102, "2025-03-01"))
        assert view.answer().bag_equal(fresh_answers(service.db, JOIN_SQL))
        assert view.rebuilds == rebuilds_before
        assert view.incremental_refreshes == 1
        assert view.version == service.db.version

    def test_eager_views_are_current_after_every_write(self):
        service = QueryService(sailors_database())
        view = service.register_view(AGG_SQL, refresh="eager")
        service.add_rows("Reserves", [(29, 103, "a"), (31, 104, "b")])
        assert view.info()["current"]
        assert view.answer().bag_equal(fresh_answers(service.db, AGG_SQL))

    def test_aggregate_strategy_maintains_accumulators(self):
        service = QueryService(sailors_database())
        view = service.register_view(AGG_SQL)
        assert view.strategy == "aggregate"
        for i in range(3):
            service.add_row("Reserves", (58, 101 + i, f"2025-04-{i + 1:02d}"))
            assert view.answer().bag_equal(fresh_answers(service.db, AGG_SQL))
        assert view.incremental_refreshes == 3

    @pytest.mark.parametrize("text, language", [
        (ANTI_SQL, "sql"), (RECURSIVE_DATALOG, "datalog"),
    ], ids=["anti-join", "recursive-datalog"])
    def test_non_maintainable_query_rebuilds_but_stays_correct(self, text,
                                                               language):
        service = QueryService(sailors_database())
        view = service.register_view(text, language=language)
        assert view.strategy == "rebuild"
        service.add_rows("Reserves", [(22, 58, "d"), (58, 999, "e")],
                         validate=False)
        assert view.answer().bag_equal(
            fresh_answers(service.db, text, language))
        assert view.rebuilds >= 2  # initial + the refresh
        assert view.strategy == "rebuild"

    def test_log_overflow_triggers_rebuild(self, monkeypatch):
        monkeypatch.setattr(Relation, "DELTA_LOG_LIMIT", 8)
        service = QueryService(sailors_database())
        view = service.register_view(JOIN_SQL)
        rebuilds = view.rebuilds
        with service.writing() as db:
            reserves = db.relation("Reserves")
            for i in range(20):  # far past the log bound
                reserves.add((22, 101, f"2025-06-{(i % 28) + 1:02d}"))
        assert view.answer().bag_equal(fresh_answers(service.db, JOIN_SQL))
        assert view.rebuilds == rebuilds + 1

    def test_structure_change_triggers_rebuild(self):
        service = QueryService(sailors_database())
        view = service.register_view(JOIN_SQL)
        rebuilds = view.rebuilds
        with service.writing() as db:
            extra = relation_from_rows("Extra", [("x", "int")], [(1,)])
            db.add_relation(extra)
        assert view.answer().bag_equal(fresh_answers(service.db, JOIN_SQL))
        assert view.rebuilds == rebuilds + 1

    def test_views_answer_at_a_single_version(self):
        service = QueryService(sailors_database())
        view = service.register_view(JOIN_SQL)
        answers = view.answer()
        assert answers.is_frozen
        assert view.version == service.db.version
        service.add_row("Reserves", (71, 102, "2025-07-01"))
        # The old snapshot is untouched; a new answer absorbs the write.
        assert view.answer() is not answers

    def test_unregister_restores_normal_serving(self):
        service = QueryService(sailors_database())
        view = service.register_view(JOIN_SQL, name="gone")
        service.unregister_view("gone")
        assert not service.views()
        hits = service.cache_info()["view_hits"]
        service.answer(JOIN_SQL)
        assert service.cache_info()["view_hits"] == hits
        assert view.answer().bag_equal(fresh_answers(service.db, JOIN_SQL))

    def test_fallback_view_surfaces_warnings(self):
        service = QueryService(sailors_database())
        fallback = ("SELECT S.sname FROM Sailors S LEFT JOIN Reserves R "
                    "ON S.sid = R.sid WHERE R.sid IS NULL")
        service.register_view(fallback)
        warnings: list[str] = []
        service.answer(fallback, warnings=warnings)
        assert warnings and "fallback" in warnings[0]


class TestViewConcurrency:
    """Readers on materialized views racing a writer: frozen answers, no
    exceptions, and a cache that equals a fresh evaluation once settled."""

    def test_view_storm(self):
        import threading

        service = QueryService(
            random_sailors_database(n_sailors=60, n_boats=8, n_reserves=300,
                                    seed=23))
        views = [service.register_view(JOIN_SQL, name="join"),
                 service.register_view(AGG_SQL, name="agg", refresh="eager")]
        errors: list[BaseException] = []
        gate = threading.Barrier(5)

        def reader() -> None:
            try:
                gate.wait()
                for _ in range(40):
                    for view in views:
                        answers = view.answer()
                        assert answers.is_frozen
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        def writer() -> None:
            try:
                gate.wait()
                for i in range(60):
                    service.add_rows(
                        "Reserves",
                        [(i % 60 + 1, i % 8 + 101, f"2025-08-{i % 28 + 1:02d}")],
                        validate=False)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "storm hung"
        assert not errors, f"exceptions under concurrency: {errors!r}"
        for view, text in ((views[0], JOIN_SQL), (views[1], AGG_SQL)):
            assert view.answer().bag_equal(fresh_answers(service.db, text))


class TestServiceBatchVersioning:
    """Regression: batch writes publish a single version bump (ISSUE 4)."""

    def test_add_rows_bumps_once(self):
        service = QueryService(sailors_database())
        v = service.db.version
        new_version = service.add_rows(
            "Reserves", [(22, 101, "a"), (31, 102, "b"), (64, 103, "c")])
        assert new_version == v + 1
        assert service.db.version == v + 1
        assert len(service.db.relation("Reserves")) == 13

    def test_add_row_still_bumps_per_call(self):
        service = QueryService(sailors_database())
        v = service.db.version
        service.add_row("Reserves", (22, 101, "a"))
        service.add_row("Reserves", (31, 102, "b"))
        assert service.db.version == v + 2


# ---------------------------------------------------------------------------
# The differential suite: every catalog query, randomized inserts, 3 backends
# ---------------------------------------------------------------------------

def _catalog_texts():
    texts = []
    for query in CANONICAL_QUERIES:
        for language, text in (("sql", query.sql), ("ra", query.ra),
                               ("trc", query.trc), ("drc", query.drc),
                               ("datalog", query.datalog)):
            texts.append((query.id, language, text))
    return texts


_SAILOR_IDS = list(range(1, 40))
_BOAT_IDS = list(range(101, 110))
_COLORS = ["red", "green", "blue"]

_insert_step = st.tuples(
    st.sampled_from(["sailors", "boats", "reserves", "reserves", "reserves"]),
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),  # batch (add_rows) vs single-row writes
)


def _apply_step(service, step, counter):
    """Turn one strategy draw into valid rows for the chosen relation."""
    relation, seed, batch = step
    if relation == "sailors":
        rows = [(200 + counter, f"gen{counter}", seed % 11, 18.0 + seed % 40)]
    elif relation == "boats":
        rows = [(300 + counter, f"boat{counter}", _COLORS[seed % 3])]
    else:
        rows = [(_SAILOR_IDS[(seed + i) % len(_SAILOR_IDS)],
                 _BOAT_IDS[(seed * 7 + i) % len(_BOAT_IDS)],
                 f"2025-01-{(seed + i) % 28 + 1:02d}")
                for i in range(1 + seed % 3)]
    if batch:
        service.add_rows(relation, rows, validate=False)
    else:
        for row in rows:
            service.add_row(relation, row, validate=False)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(_insert_step, min_size=1, max_size=4))
def test_catalog_views_stay_bag_equal_under_random_inserts(backend, steps):
    service = QueryService(sailors_database(), backend=backend)
    views = []
    for qid, language, text in _catalog_texts():
        views.append((service.register_view(
            text, language=language, name=f"{qid}-{language}"), language, text))
    for counter, step in enumerate(steps):
        _apply_step(service, step, counter)
        reference = QueryVisualizationPipeline(service.db, backend=backend)
        for view, language, text in views:
            got = view.answer()
            want = reference.answer(text, language=language)
            assert got.bag_equal(want), (
                f"view {view.name} ({view.strategy}) diverged after "
                f"{counter + 1} step(s) on backend {backend}"
            )
