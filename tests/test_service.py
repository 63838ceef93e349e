"""QueryService: thread-safe serving under concurrent readers and writers.

The centerpiece is the hammer test the ISSUE asks for: N reader threads
serving a query mix while a writer thread appends rows, with the invariant
that **every answer matches a single-threaded evaluation at some database
version ≥ the request's start** — checked via a monotone COUNT(*) query
whose only valid answers are row counts between the count observed at
request start and the count observed at return — plus no exceptions and no
cache poisoning once the storm settles.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import sys
import threading
import time
import tracemalloc

import pytest

import repro.core.service as service_module
from gates import OnShards
from repro.core import PreparedQuery, QueryService, QueryVisualizationPipeline
from repro.core.service import RESULT_CACHE_BYTES, answer_footprint
from repro.core.sharded_service import ShardedQueryService
from repro.data.relation import RelationError
from repro.data.sailors import random_sailors_database, sailors_database
from repro.engine.execute import RowBackend
from repro.engine.sharded import ShardedBackend

JOIN_SQL = "SELECT DISTINCT S.sname FROM Sailors S, Reserves R WHERE S.sid = R.sid"
COUNT_SQL = "SELECT COUNT(*) AS n FROM Reserves R"
GROUP_SQL = ("SELECT S.rating, COUNT(*) AS n FROM Sailors S, Reserves R "
             "WHERE S.sid = R.sid GROUP BY S.rating")
FALLBACK_SQL = ("SELECT S.sname FROM Sailors S LEFT JOIN Reserves R "
                "ON S.sid = R.sid WHERE R.sid IS NULL")
PAGE_SQL = "SELECT R.sid, R.bid, R.day FROM Reserves R WHERE R.sid > {k}"


def _e2e_workloads():
    """``benchmarks/e2e/workloads.py``: the served datasets and texts."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "benchmarks", "e2e", "workloads.py")
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def service():
    return QueryService(sailors_database())


@pytest.fixture(params=["plain", "sharded"])
def any_service(request):
    """Both service classes: where rows land and what the version token is
    are the database's business, so the one write path serves both."""
    if request.param == "plain":
        return QueryService(sailors_database())
    return ShardedQueryService(sailors_database(), n_shards=2)


class TestServing:
    def test_answers_match_the_pipeline(self, service):
        reference = QueryVisualizationPipeline(sailors_database())
        for sql in (JOIN_SQL, COUNT_SQL, GROUP_SQL):
            assert service.answer(sql).bag_equal(reference.answer(sql))

    def test_answers_are_frozen_and_copyable(self, service):
        answers = service.answer(JOIN_SQL)
        assert answers.is_frozen
        with pytest.raises(RelationError):
            answers.add(("Mallory",))
        copy = answers.copy()
        copy.add(("Mallory",))
        assert ("Mallory",) not in service.answer(JOIN_SQL).row_set()

    def test_warm_requests_hit_the_result_cache(self, service):
        service.answer(JOIN_SQL)
        again = service.answer(JOIN_SQL)
        info = service.cache_info()
        assert info["result_hits"] == 1 and info["result_misses"] == 1
        assert again.is_frozen

    def test_writes_through_the_service_invalidate(self, any_service):
        before = any_service.answer(JOIN_SQL)
        any_service.add_row("Reserves", (29, 101, "2025-05-05"))
        after = any_service.answer(JOIN_SQL)
        assert after.row_set() - before.row_set() == {("Brutus",)}

    def test_a_batch_is_one_write_and_moves_the_token(self, any_service):
        token = any_service.db.version_token
        version = any_service.add_rows(
            "Reserves", [(29, 101, "2025-05-05"), (29, 102, "2025-05-06")])
        assert version == any_service.db.version
        assert any_service.answer(COUNT_SQL).rows() == [(12,)]
        moved = any_service.db.version_token
        assert moved != token and moved > token

    def test_the_version_token_is_the_databases(self, any_service):
        db = any_service.db
        if isinstance(any_service, ShardedQueryService):
            assert db.version_token == (db.generation, db.structure_version,
                                        *db.shard_versions())
        else:
            assert db.version_token == db.version
        assert any_service.query(COUNT_SQL).version == db.version_token
        any_service.add_row("Reserves", (29, 101, "2025-05-05"))
        assert any_service.query(COUNT_SQL).version == db.version_token

    def test_writing_context_manager_is_exclusive(self, service):
        with service.writing() as db:
            db.relation("Reserves").add((29, 103, "2025-05-06"))
        assert service.answer(COUNT_SQL).rows() == [(11,)]

    def test_fallback_reason_is_surfaced(self, service):
        warnings: list[str] = []
        service.answer(FALLBACK_SQL, warnings=warnings)
        assert len(warnings) == 1
        assert warnings[0].startswith("engine fallback to the SQL interpreter:")
        assert warnings[0].removeprefix(
            "engine fallback to the SQL interpreter:").strip()

    def test_warm_hits_replay_the_fallback_reason_without_duplicates(self, service):
        service.answer(FALLBACK_SQL)  # populate the cache, no out-list
        warnings: list[str] = []
        service.answer(FALLBACK_SQL, warnings=warnings)  # warm hit
        assert service.cache_info()["result_hits"] == 1
        assert len(warnings) == 1 and "fallback" in warnings[0]

    def test_unknown_language_rejected(self, service):
        with pytest.raises(ValueError):
            service.answer("SELECT 1", language="cypher")
        with pytest.raises(ValueError):
            service.prepare("SELECT 1", language="cypher")

    def test_sharded_backend_service(self):
        service = QueryService(sailors_database(),
                               backend=OnShards(ShardedBackend()))
        reference = QueryVisualizationPipeline(sailors_database())
        assert service.answer(GROUP_SQL).bag_equal(reference.answer(GROUP_SQL))

    def test_a_backend_instance_is_the_one_that_runs(self):
        class Spy(RowBackend):
            calls = 0

            def execute(self, plan, db, params=()):
                self.calls += 1
                return super().execute(plan, db, params)

        spy = Spy()
        service = QueryService(sailors_database(), backend=spy)
        assert service.backend is spy and service.pipeline.backend is spy
        service.answer(GROUP_SQL)
        QueryVisualizationPipeline(backend=spy).answer(JOIN_SQL)
        assert spy.calls == 2


class TestPreparedQueries:
    def test_prepare_seeds_the_plan_cache(self, service):
        handle = service.prepare(JOIN_SQL)
        assert isinstance(handle, PreparedQuery)
        assert service.cache_info()["plan_entries"] == 1
        first = handle.answer()
        assert service.cache_info()["plan_hits"] == 1  # compiled at prepare
        assert first.bag_equal(service.answer(JOIN_SQL))

    def test_prepare_makes_every_literal_variant_a_plan_hit(self, service):
        sql = "SELECT S.sname FROM Sailors S WHERE S.rating > {}"
        service.prepare(sql.format(7))
        above_8 = service.answer(sql.format(8))
        info = service.cache_info()
        assert (info["plan_hits"], info["plan_misses"]) == (1, 1)
        assert info["plan_binds"] == 1 and info["plan_entries"] == 1
        reference = QueryVisualizationPipeline(sailors_database(),
                                               plan_cache_size=0)
        assert above_8.bag_equal(reference.answer(sql.format(8)))
        assert len(above_8) < len(service.answer(sql.format(7)))

    def test_prepare_raises_on_syntax_errors(self, service):
        with pytest.raises(Exception):
            service.prepare("SELEC oops FROM")

    def test_prepared_fallback_query_still_serves(self, service):
        handle = service.prepare(FALLBACK_SQL)
        from repro.sql.evaluate import evaluate_sql

        warnings: list[str] = []
        answers = handle.answer(warnings=warnings)
        assert answers.bag_equal(evaluate_sql(FALLBACK_SQL, service.db))
        assert warnings and "fallback" in warnings[0]

    def test_prepared_handle_tracks_writes(self, any_service):
        handle = any_service.prepare(COUNT_SQL)
        assert handle.answer().rows() == [(10,)]
        any_service.add_row("Reserves", (29, 104, "2025-05-07"))
        assert handle.answer().rows() == [(11,)]

    def test_prepare_autodetects_language(self, service):
        handle = service.prepare("project[sname](Sailors)")
        assert handle.language == "ra"
        assert ("Dustin",) in handle.answer().row_set()


class TestTryHit:
    """The non-blocking twin of ``query``: cached envelopes, never a wait."""

    def test_none_until_published_then_the_envelope_query_returns(
            self, service):
        assert service.try_hit(JOIN_SQL) is None
        assert service.cache_info()["requests"] == 0  # declined: not counted
        served = service.query(JOIN_SQL)
        hit = service.try_hit(JOIN_SQL, "sql")
        assert hit is not None and hit == served
        assert service.query(JOIN_SQL) is hit  # one envelope per entry
        assert service.prepare(JOIN_SQL).try_hit() is hit
        assert service.try_hit(JOIN_SQL, "klingon") is None

    def test_a_hit_resolves_and_fingerprints_once(self, service, monkeypatch):
        import repro.core.pipeline as pipeline_module
        import repro.core.service as service_module

        service.query(JOIN_SQL)
        calls = {"resolve": 0, "fingerprint": 0}
        fingerprint_query = service_module.fingerprint_query
        resolve = service._resolve_language

        def counting_fingerprint(text, language):
            calls["fingerprint"] += 1
            return fingerprint_query(text, language)

        def counting_resolve(text, language):
            calls["resolve"] += 1
            return resolve(text, language)

        monkeypatch.setattr(service_module, "fingerprint_query",
                            counting_fingerprint)
        monkeypatch.setattr(pipeline_module, "fingerprint_query",
                            counting_fingerprint)
        monkeypatch.setattr(service, "_resolve_language", counting_resolve)
        service.query(JOIN_SQL)
        assert calls == {"resolve": 1, "fingerprint": 1}
        service.try_hit(JOIN_SQL)
        assert calls == {"resolve": 2, "fingerprint": 2}
        # A miss, the way the HTTP tier serves it: the handle that declined
        # runs the query, and the pipeline (result cache off) identifies
        # nothing of its own.
        handle = service.identify(COUNT_SQL)
        assert handle.try_hit() is None
        assert handle.query().rows == ((10,),)
        assert calls == {"resolve": 3, "fingerprint": 3}
        info = service.cache_info()
        assert info["requests"] == 4
        assert (info["result_hits"] + info["view_hits"]
                + info["result_misses"]) == info["requests"]

    def test_hits_count_exactly_once_and_counters_balance(self, service):
        service.register_view(GROUP_SQL, name="per_rating")
        for sql in (JOIN_SQL, COUNT_SQL, GROUP_SQL, JOIN_SQL, FALLBACK_SQL):
            if service.try_hit(sql) is None:   # declined, then the real call
                service.query(sql)
        assert service.try_hit(JOIN_SQL) is not None
        assert service.try_hit(GROUP_SQL) is not None
        info = service.cache_info()
        assert info["requests"] == 7
        assert (info["result_hits"], info["view_hits"],
                info["result_misses"]) == (2, 2, 3)

    def test_encoded_body_is_the_payload_dumped_once(self, service):
        service.query(FALLBACK_SQL)
        hit = service.try_hit(FALLBACK_SQL)
        assert hit.warnings and hit.encoded is None
        body = hit.encode()
        assert body == json.dumps(hit.to_payload()).encode("utf-8")
        assert hit.encode() is body and service.try_hit(FALLBACK_SQL).encoded is body

    def test_an_answer_never_read_again_keeps_no_envelope(self, service):
        service.query(JOIN_SQL)
        ((published, _nbytes),) = service._results._data.values()
        assert published._result is None
        service.query(JOIN_SQL)
        assert published._result is not None

    def test_a_write_between_two_reads_declines(self, any_service):
        service = any_service
        before = service.query(COUNT_SQL)
        assert service.try_hit(COUNT_SQL) == before
        service.add_row("Reserves", (29, 101, "2025-05-05"))
        assert service.try_hit(COUNT_SQL) is None
        after = service.query(COUNT_SQL)
        assert after.rows == ((11,),) and after.version > before.version
        assert service.try_hit(COUNT_SQL).rows == ((11,),)

    def test_a_stale_lazy_view_declines_until_it_caught_up(self, any_service):
        service = any_service
        service.register_view(COUNT_SQL, name="n_reserves")
        fresh = service.try_hit(COUNT_SQL)
        assert fresh.rows == ((10,),)
        fresh.encode()
        service.add_row("Reserves", (29, 101, "2025-05-05"))
        assert service.try_hit(COUNT_SQL) is None
        caught_up = service.query(COUNT_SQL)
        assert caught_up.rows == ((11,),) and caught_up.encoded is None
        assert service.try_hit(COUNT_SQL) is caught_up
        # A write the view does not read moves only the version it is at.
        service.add_row("Boats", (199, "Dinghy", "grey"))
        assert service.try_hit(COUNT_SQL) is None
        elsewhere = service.query(COUNT_SQL)
        assert elsewhere.rows == ((11,),)
        assert elsewhere.version == service.db.version_token \
            > caught_up.version

    def test_an_eager_view_stays_hittable_across_writes(self, any_service):
        any_service.register_view(COUNT_SQL, name="n_reserves",
                                  refresh="eager")
        any_service.add_row("Reserves", (29, 101, "2025-05-05"))
        assert any_service.try_hit(COUNT_SQL).rows == ((11,),)

    def test_unregister_view_declines(self, service):
        service.register_view(COUNT_SQL, name="n_reserves")
        assert service.try_hit(COUNT_SQL) is not None
        service.unregister_view("n_reserves")
        assert service.try_hit(COUNT_SQL) is None
        assert service.query(COUNT_SQL).rows == ((10,),)
        assert service.cache_info()["result_misses"] == 1

    def test_reshard_declines_and_the_next_reply_is_the_new_layout(self):
        with ShardedQueryService(sailors_database(), n_shards=2) as service:
            service.register_view(GROUP_SQL, name="per_rating")
            old = service.query(COUNT_SQL)
            old_view = service.try_hit(GROUP_SQL)
            assert service.try_hit(COUNT_SQL) == old
            service.reshard(3)
            assert service.try_hit(COUNT_SQL) is None
            new = service.query(COUNT_SQL)
            assert new.rows == old.rows
            assert new.version[0] == old.version[0] + 1  # the generation
            assert len(new.version) == len(old.version) + 1
            # Views were rematerialized under the lock: fresh, but new.
            new_view = service.try_hit(GROUP_SQL)
            assert new_view is not old_view
            assert new_view.version == service.db.version_token
            assert sorted(new_view.rows) == sorted(old_view.rows)

    @pytest.mark.parametrize("lock_of", [
        pytest.param(lambda service: service._results._lock, id="cache"),
        pytest.param(lambda service: service.stats._lock, id="counters"),
    ])
    def test_a_held_lock_declines_without_waiting(self, service, lock_of):
        service.query(JOIN_SQL)
        before = service.cache_info()
        holding, release = threading.Event(), threading.Event()

        def hold():
            with lock_of(service):
                holding.set()
                release.wait(timeout=30)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert holding.wait(timeout=30)
            start = time.monotonic()
            assert service.try_hit(JOIN_SQL) is None
            assert time.monotonic() - start < 5
        finally:
            release.set()
            holder.join(timeout=30)
        assert not holder.is_alive()
        assert service.cache_info() == before  # declined: nothing counted
        assert service.try_hit(JOIN_SQL) is service.query(JOIN_SQL)

    def test_try_hit_keeps_hot_entries_recent(self):
        service = QueryService(sailors_database(), result_cache_size=2)
        service.query(JOIN_SQL)
        service.query(COUNT_SQL)
        assert service.try_hit(JOIN_SQL) is not None   # JOIN is now newest
        service.query(GROUP_SQL)                        # evicts COUNT
        assert service.try_hit(JOIN_SQL) is not None
        assert service.try_hit(COUNT_SQL) is None


class TestResultCache:
    """The service's result cache, the only one on the serving path."""

    def test_result_cache_is_bounded_lru(self):
        service = QueryService(sailors_database(), result_cache_size=2)
        queries = [f"SELECT S.sname FROM Sailors S WHERE S.rating > {n}"
                   for n in (1, 2, 3)]
        for sql in queries:
            service.answer(sql)
        assert service.cache_info()["result_entries"] == 2
        service.answer(queries[0])  # evicted: misses again
        assert service.cache_info()["result_misses"] == 4

    def test_datalog_results_are_cached_too(self, service):
        program = "ans(N) :- sailors(S, N, R, A), reserves(S, B, D)."
        first = service.answer(program, language="datalog")
        second = service.answer(program, language="datalog")
        assert second is first
        assert service.cache_info()["result_hits"] == 1

    def test_answers_over_the_byte_budget_are_evicted_by_bytes(self):
        """Eight ~2.7 MB answers outgrow :data:`RESULT_CACHE_BYTES` long
        before the 1024-entry cap: the least recent go, the held total
        stays inside the budget, and the newest answer is still a hit."""
        service = QueryService(random_sailors_database(
            n_sailors=100, n_boats=10, n_reserves=20000, seed=5))
        texts = [PAGE_SQL.format(k=k) for k in range(8)]
        footprints = [answer_footprint(service.answer(text))
                      for text in texts]
        assert sum(footprints) > RESULT_CACHE_BYTES
        info = service.cache_info()
        assert info["result_budget_bytes"] == RESULT_CACHE_BYTES
        assert info["result_bytes"] <= RESULT_CACHE_BYTES
        held = info["result_entries"]
        assert 0 < held < len(texts)
        assert info["result_evictions"] == len(texts) - held
        assert info["result_bytes"] == sum(footprints[-held:])
        service.answer(texts[-1])
        assert service.cache_info()["result_hits"] == 1
        service.answer(texts[0])
        assert service.cache_info()["result_misses"] == len(texts) + 1

    def test_an_answer_over_the_whole_budget_is_served_and_not_kept(
            self, monkeypatch):
        monkeypatch.setattr(service_module, "RESULT_CACHE_BYTES", 64 * 1024)
        service = QueryService(random_sailors_database(
            n_sailors=100, n_boats=10, n_reserves=3000, seed=5))
        service.answer(COUNT_SQL)
        large = PAGE_SQL.format(k=0)
        answers = [service.answer(large) for _ in range(3)]
        assert answer_footprint(answers[0]) > 64 * 1024
        assert all(answer.bag_equal(answers[0]) for answer in answers)
        info = service.cache_info()
        # Refused alone: COUNT stays, and the large answer misses each time.
        assert info["result_entries"] == 1
        assert info["result_evictions"] == 3
        assert info["result_misses"] == 4
        service.answer(COUNT_SQL)
        assert service.cache_info()["result_hits"] == 1

    @pytest.fixture(scope="class")
    def served(self):
        """The analytic-cold and hot-read services, each with its texts by
        tag: one per analytic template, and hot-read's eight."""
        workloads = _e2e_workloads()
        analytic = workloads.WORKLOADS["analytic-cold"]
        hot = workloads.WORKLOADS["hot-read"]
        hot_db = hot.build_db()
        return {
            "analytic-cold": (
                QueryService(analytic.build_db(), backend="vectorized"),
                [(tag, template.format(k=230, a="19.250"))
                 for tag, template in workloads.ANALYTIC_TEMPLATES]),
            "hot-read": (
                QueryService(hot_db),
                [(request.tag, request.body["text"]) for request
                 in hot.build_sequence(hot_db, 13, 8).distinct]),
        }

    @staticmethod
    def _retained(service, text):
        """(declared footprint, bytes tracemalloc sees the entry free) for
        ``text``'s entry after a miss, a hit and the hit's JSON body."""
        service.answer(text)               # plans, kernel structures: warm
        service._results.clear()
        gc.collect()
        tracemalloc.start()
        try:
            service.query(text)            # the miss publishes the entry
            service.query(text).encode()   # a hit memoizes envelope + body
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            declared = service.cache_info()["result_bytes"]
            service._results.clear()
            gc.collect()
            return declared, held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("workload", ["analytic-cold", "hot-read"])
    def test_the_footprint_is_within_2x_of_what_an_entry_retains(
            self, served, workload):
        """Every analytic-cold answer, and hot-read's two large pages."""
        service, texts = served[workload]
        measured = [text for tag, text in texts
                    if workload == "analytic-cold" or tag == "page"]
        assert len(measured) == {"analytic-cold": 4, "hot-read": 2}[workload]
        for text in measured:
            declared, retained = self._retained(service, text)
            assert 0.5 * retained <= declared <= 2 * retained, (
                text, declared, retained)

    def test_every_hot_read_answer_fits_with_4x_headroom(self, served):
        service, texts = served["hot-read"]
        assert len(texts) == 8
        total = sum(answer_footprint(service.answer(text))
                    for _tag, text in texts)
        assert 4 * total <= RESULT_CACHE_BYTES

    def test_replacing_a_relation_with_fewer_rows_still_invalidates(
            self, service):
        # Database.version must be monotonic: swapping a relation for a
        # smaller one may not reproduce an earlier version value, or the
        # result cache would serve the old relation's answers.
        from repro.data.relation import Relation

        sql = "SELECT S.sname FROM Sailors S"
        before = service.answer(sql)
        with service.writing() as db:
            sailors = db.relation("Sailors")
            db.add_relation(Relation(sailors.schema, sailors.rows()[:-1],
                                     validate=False))
        assert len(service.answer(sql)) == len(before) - 1


class TestErrorPaths:
    """The failure surfaces a serving layer must keep well-defined."""

    def test_unregister_view_on_an_unknown_name_raises(self, service):
        with pytest.raises(KeyError):
            service.unregister_view("no_such_view")
        # ...and a failed unregister must not have disturbed real views.
        view = service.register_view(JOIN_SQL, name="real")
        with pytest.raises(KeyError):
            service.unregister_view("still_not_there")
        assert service.view("real") is view
        service.unregister_view("real")
        with pytest.raises(KeyError):
            service.view("real")

    def test_mutating_a_frozen_cached_relation_raises_and_does_not_poison(
            self, service):
        first = service.answer(JOIN_SQL)
        with pytest.raises(RelationError):
            first.add(("Mallory",))
        with pytest.raises(RelationError):
            first.add_rows([("Mallory",), ("Trudy",)])
        # The failed mutations must not have reached the shared cache: the
        # warm hit serves the identical, untainted bag.
        again = service.answer(JOIN_SQL)
        assert service.cache_info()["result_hits"] >= 1
        assert again.bag_equal(first)
        assert ("Mallory",) not in again.row_set()
        # The documented escape hatch: a private mutable copy.
        private = first.copy()
        private.add(("Mallory",))
        assert ("Mallory",) not in service.answer(JOIN_SQL).row_set()

    def test_prepared_handle_survives_a_benign_schema_change(self, service):
        from repro.data.relation import relation_from_rows

        handle = service.prepare(COUNT_SQL)
        assert handle.answer().rows() == [(10,)]
        plan_misses = service.cache_info()["plan_misses"]
        with service.writing() as db:
            db.add_relation(relation_from_rows(
                "Audit", [("event", "str")], [("created",)]))
        # The structure version moved, so the handle's plan recompiles
        # under the new schema instead of serving a stale compilation.
        assert handle.answer().rows() == [(10,)]
        assert service.cache_info()["plan_misses"] > plan_misses

    def test_prepared_handle_reflects_a_widened_relation(self, service):
        from repro.data.relation import Relation, relation_from_rows

        handle = service.prepare("SELECT S.sname FROM Sailors S WHERE S.rating > 9")
        before = handle.answer().row_set()
        assert before == {("Rusty",), ("Zorba",)}
        with service.writing() as db:
            old = db.relation("Sailors")
            widened = relation_from_rows(
                "Sailors",
                [("sid", "int"), ("sname", "str"), ("rating", "int"),
                 ("age", "float"), ("shoe_size", "int")],
                [row + (42,) for row in old.rows()])
            assert isinstance(widened, Relation)
            db.add_relation(widened)
        # Same query text, new schema: the recompiled plan still resolves
        # S.sname / S.rating and the answers are unchanged.
        assert handle.answer().row_set() == before

    def test_prepared_handle_raises_cleanly_when_its_relation_is_dropped(
            self, service):
        from repro.data.schema import SchemaError

        handle = service.prepare(COUNT_SQL)
        handle.answer()
        with service.writing() as db:
            db.drop_relation("Reserves")
        with pytest.raises(SchemaError):
            handle.answer()
        # The service stays usable for queries over the surviving schema.
        assert len(service.answer("SELECT S.sname FROM Sailors S")) == 10


    def test_a_malformed_ra_condition_is_a_parse_error(self):
        from repro.core.service_api import QueryParseError

        with pytest.raises(QueryParseError) as caught:
            QueryService().query(
                "project[sname](select[<rating > 7](Sailors))", language="ra")
        assert caught.value.http_status == 400
        assert caught.value.detail["exception"] == "RAError"


class TestStatsSnapshots:
    def test_snapshot_is_version_consistent(self, any_service):
        service = any_service
        version, snapshot = service.stats_snapshot()
        assert version == service.db.version
        assert snapshot["Reserves"].row_count == 10
        service.add_row("Reserves", (29, 101, "2025-06-01"))
        version2, snapshot2 = service.stats_snapshot()
        assert version2 > version
        assert snapshot2["Reserves"].row_count == 11

    def test_table_stats_follow_versions(self, any_service):
        service = any_service
        first = service.table_stats("Sailors")
        assert service.table_stats("Sailors") is first  # cached
        service.add_row("Sailors", (99, "Zed", 5, 30.0))
        assert service.table_stats("Sailors").row_count == first.row_count + 1
        assert service.table_stats("NoSuchTable") is None


class TestSharedRowProgram:
    """Threads hitting one cached shape share its one compiled program, row
    or columnar; what a call resolves lives in the call, so no answer sees
    another's literals."""

    THREADS = 8
    SHAPE = ("SELECT S.sname, R.day FROM Sailors S, Reserves R "
             "WHERE S.sid = R.sid AND R.bid = {} AND S.age > {}")
    #: On two shards: every read pinned, each call routed by its own sid
    #: (22 and 31 live on different shards).
    ROUTED = ("SELECT S.sname, R.day FROM Sailors S, Reserves R "
              "WHERE S.sid = R.sid AND S.sid = {0} AND R.sid = {0} "
              "AND S.age > {1}")

    @pytest.mark.parametrize("backend", ["row", "vectorized", "sharded"])
    def test_threads_share_one_compiled_program(self, backend):
        from gates import service_on
        from repro.engine.cache import path_counts
        from repro.translate.equivalence import answer_relation

        service = service_on(sailors_database(), backend)
        shape, keys = (self.ROUTED, (22, 31, 58, 64)) \
            if backend == "sharded" else (self.SHAPE, (101, 102, 103, 104))
        service.query(shape.format(keys[0], "20.5"))   # the miss compiles
        literals = [[(key, f"{age}.{thread}")
                     for key in keys
                     for age in (16, 25, 35, 45)]
                    for thread in range(self.THREADS)]
        expected = {values: answer_relation(shape.format(*values),
                                            service.db)
                    for mine in literals for values in mine}
        gate = threading.Barrier(self.THREADS)
        wrong: list = []
        errors: list[BaseException] = []

        def reader(mine) -> None:
            try:
                gate.wait(timeout=30)
                for values in mine:
                    got = service.query(shape.format(*values)).relation
                    if not got.bag_equal(expected[values]):
                        wrong.append(values)
            except BaseException as exc:  # reported below
                errors.append(exc)

        compiles = path_counts()["plan_compile"]
        threads = [threading.Thread(target=reader, args=(mine,))
                   for mine in literals]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and wrong == []
        assert path_counts()["plan_compile"] == compiles
        info = service.cache_info()
        assert info["plan_misses"] == 1
        assert info["plan_hits"] == self.THREADS * 16
        if backend == "sharded":
            counts = service.execution_counts()
            assert counts["single_shard"] == 1 + self.THREADS * 16


class TestConcurrencyHammer:
    """N readers over the catalog + a writer appending rows: no stale or
    torn answers, no exceptions (the ISSUE's satellite test)."""

    READERS = 4
    ITERATIONS = 30
    WRITES = 120

    def _run_storm(self, service):
        sailor_ids = [row[0] for row in service.db.relation("Sailors").rows()]
        boat_ids = [row[0] for row in service.db.relation("Boats").rows()]
        handles = [service.prepare(sql)
                   for sql in (COUNT_SQL, JOIN_SQL, GROUP_SQL)]
        errors: list[BaseException] = []
        violations: list[str] = []
        start_gate = threading.Barrier(self.READERS + 1)
        # Every write is exactly one Reserves row and bumps the database
        # version by exactly one, so the reserve count at version v is
        # ``base_count + (v - base_version)`` — the map that lets a reader
        # turn "the answer matches evaluation at some version ≥ my request
        # start" into a checkable row-count window.
        base_version = service.db.version
        base_count = len(service.db.relation("Reserves"))

        def reader() -> None:
            try:
                start_gate.wait()
                for _ in range(self.ITERATIONS):
                    version_lo = service.db.version
                    n = handles[0].answer().rows()[0][0]
                    version_hi = service.db.version
                    lo = base_count + (version_lo - base_version)
                    # +1: at most one write can be in flight (writes hold the
                    # write lock), and the storage layer publishes its row
                    # before its version bump.
                    hi = base_count + (version_hi - base_version) + 1
                    if not lo <= n <= hi:
                        violations.append(
                            f"COUNT answered {n}, outside [{lo}, {hi}]"
                        )
                    for handle in handles[1:]:
                        answers = handle.answer()
                        if not answers.is_frozen:
                            violations.append("served a mutable relation")
                    # Unprepared path too, under the same storm.
                    service.answer(COUNT_SQL)
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        def writer() -> None:
            try:
                start_gate.wait()
                for i in range(self.WRITES):
                    service.add_row(
                        "Reserves",
                        (sailor_ids[i % len(sailor_ids)],
                         boat_ids[i % len(boat_ids)],
                         f"2025-07-{(i % 28) + 1:02d}"))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(self.READERS)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads), "storm hung"
        assert not errors, f"exceptions under concurrency: {errors!r}"
        assert not violations, violations
        return handles

    def test_storm_leaves_no_stale_or_torn_answers(self):
        service = QueryService(
            random_sailors_database(n_sailors=60, n_boats=8, n_reserves=300,
                                    seed=21))
        handles = self._run_storm(service)
        info = service.cache_info()
        expected = self.READERS * self.ITERATIONS * (1 + len(handles))
        assert info["requests"] == expected
        assert info["result_hits"] + info["result_misses"] \
            + info["validation_retries"] >= expected
        # The storm is over: every served answer must now equal a fresh
        # single-threaded evaluation of the final database — i.e. the cache
        # holds no poisoned or torn entries for the final version.
        fresh = QueryVisualizationPipeline(service.db)
        for handle in handles:
            assert handle.answer().bag_equal(fresh.answer(handle.text)), (
                f"stale cache entry for {handle.text!r}"
            )

    def test_storm_under_byte_evictions(self, monkeypatch):
        """The storm with the result cache's budget patched down to about
        two answers: publishing one pushes another out by bytes while the
        readers look entries up, so evictions race hits and writes."""
        monkeypatch.setattr(service_module, "RESULT_CACHE_BYTES", 8 * 1024)
        service = QueryService(
            random_sailors_database(n_sailors=60, n_boats=8, n_reserves=300,
                                    seed=24))
        handles = self._run_storm(service)
        info = service.cache_info()
        assert info["result_budget_bytes"] == 8 * 1024
        assert info["result_evictions"] > 0
        assert info["result_bytes"] <= 8 * 1024
        fresh = QueryVisualizationPipeline(service.db)
        for handle in handles:
            assert handle.answer().bag_equal(fresh.answer(handle.text)), (
                f"stale cache entry for {handle.text!r}"
            )

    def test_storm_above_the_kernel_gate(self):
        """The same storm with every scan above ``KERNEL_MIN_ROWS``: readers
        run the numpy kernels while the writer grows the columns under
        them, so length-tagged encodings, cached build structures and
        table profiles are rebuilt mid-storm instead of sitting unused."""
        from repro.engine.stats import KERNEL_MIN_ROWS

        service = QueryService(
            random_sailors_database(n_sailors=KERNEL_MIN_ROWS + 50, n_boats=8,
                                    n_reserves=KERNEL_MIN_ROWS + 300, seed=23))
        handles = self._run_storm(service)
        fresh = QueryVisualizationPipeline(service.db, backend="row")
        for handle in handles:
            assert handle.answer().bag_equal(fresh.answer(handle.text)), (
                f"stale cache entry for {handle.text!r}"
            )

    def test_storm_with_sharded_backend(self):
        service = QueryService(
            random_sailors_database(n_sailors=60, n_boats=8, n_reserves=300,
                                    seed=22),
            backend=OnShards(ShardedBackend()))
        self._run_storm(service)
