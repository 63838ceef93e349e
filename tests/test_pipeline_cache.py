"""Pipeline-layer serving features: plan cache, backends, fallback.

The pipeline keys its plan cache on a query's shape and the structure
version, so writes keep plans; it caches no answers (the service's result
cache, ``tests/test_service.py``, does).  The engine→interpreter fallback
path is pinned here too: structured warning, interpreter answers, timings.
"""

from __future__ import annotations

import pytest

from repro.core import QueryVisualizationPipeline, answer_any, fingerprint_query
from repro.data.sailors import sailors_database
from repro.queries import CANONICAL_QUERIES

JOIN_SQL = "SELECT DISTINCT S.sname FROM Sailors S, Reserves R WHERE S.sid = R.sid"


@pytest.fixture
def pipeline():
    return QueryVisualizationPipeline(sailors_database())


class TestFingerprint:
    def test_strips_outer_whitespace_only(self):
        a = fingerprint_query("  SELECT S.sname FROM Sailors S\n", "sql")
        b = fingerprint_query("SELECT S.sname FROM Sailors S", "sql")
        c = fingerprint_query("SELECT S.sid FROM Sailors S", "sql")
        assert a == b
        assert a != c

    def test_interior_whitespace_is_significant(self):
        # 'a  b' and 'a b' are different string literals; collapsing interior
        # whitespace would alias two semantically different queries.
        a = fingerprint_query("SELECT S.sname FROM Sailors S WHERE S.sname = 'a  b'",
                              "sql")
        b = fingerprint_query("SELECT S.sname FROM Sailors S WHERE S.sname = 'a b'",
                              "sql")
        assert a != b

    def test_language_is_part_of_the_key(self):
        assert fingerprint_query("Sailors", "ra") != fingerprint_query("Sailors", "sql")


class TestPlanCache:
    """The pipeline caches plans, never answers (the service does that)."""

    def test_every_run_executes_on_a_cached_plan(self, pipeline):
        first = pipeline.run(JOIN_SQL)
        second = pipeline.run(JOIN_SQL)
        assert first.answers.bag_equal(second.answers)
        assert first.answers is not second.answers
        assert second.used_engine
        assert pipeline.cache_info()["plan_hits"] == 1

    def test_write_keeps_plans(self, pipeline):
        before = pipeline.answer(JOIN_SQL)
        pipeline.db.relation("Reserves").add((29, 101, "2025-05-05"))
        after = pipeline.answer(JOIN_SQL)
        assert pipeline.cache_info()["plan_hits"] == 1  # the plan was reused
        assert after.row_set() - before.row_set() == {("Brutus",)}

    def test_plan_cache_can_be_disabled(self):
        pipeline = QueryVisualizationPipeline(
            sailors_database(), plan_cache_size=0)
        pipeline.answer(JOIN_SQL)
        pipeline.answer(JOIN_SQL)
        info = pipeline.cache_info()
        assert info["plan_hits"] == 0
        assert info["plan_entries"] == 0

    def test_clear_caches_resets_everything(self, pipeline):
        pipeline.answer(JOIN_SQL)
        stats = pipeline.cache_stats
        pipeline.clear_caches()
        assert pipeline.cache_stats is stats  # reset in place
        assert pipeline.cache_info() == {
            "plan_entries": 0, "plan_hits": 0, "plan_misses": 0,
            "plan_binds": 0, "plan_refused": 0}

    def test_schema_change_invalidates_cached_plans(self, pipeline):
        # add_relation can change column layout under the same name; plans
        # resolve columns positionally, so they must not outlive the schema.
        from repro.data.relation import Relation, relation_from_rows

        sql = "SELECT T.b FROM T"
        pipeline.db.add_relation(relation_from_rows(
            "T", [("a", "int"), ("b", "str")], [(1, "x")]))
        assert pipeline.answer(sql).rows() == [("x",)]
        swapped = relation_from_rows("T", [("b", "str"), ("a", "int")],
                                     [("y", 2)])
        pipeline.db.add_relation(swapped)
        assert pipeline.answer(sql).rows() == [("y",)]

    def test_answers_are_private_and_mutable(self, pipeline):
        # Nothing is shared, so mutating one's answers is allowed.
        answers = pipeline.answer(JOIN_SQL)
        answers.add(("Mallory",))
        assert ("Mallory",) not in pipeline.answer(JOIN_SQL).row_set()


class TestAnswerFallbackWarnings:
    """Regression: ``answer()`` swallowed the engine-fallback reason that
    ``run()`` surfaces; the serving path now reports it too."""

    FALLBACK_SQL = ("SELECT S.sname FROM Sailors S LEFT JOIN Reserves R "
                    "ON S.sid = R.sid WHERE R.sid IS NULL")

    def test_answer_surfaces_the_fallback_reason(self, pipeline):
        warnings: list[str] = []
        pipeline.answer(self.FALLBACK_SQL, warnings=warnings)
        assert len(warnings) == 1
        assert warnings[0].startswith("engine fallback to the SQL interpreter:")
        assert warnings[0].removeprefix(
            "engine fallback to the SQL interpreter:").strip()

    def test_answer_logs_the_fallback_reason(self, pipeline, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro.core.pipeline"):
            pipeline.answer(self.FALLBACK_SQL)
        assert any("engine fallback to the SQL interpreter" in record.message
                   for record in caplog.records)

    def test_engine_path_leaves_warnings_empty(self, pipeline):
        warnings: list[str] = []
        pipeline.answer(JOIN_SQL, warnings=warnings)
        assert warnings == []


class TestAnswerServingPath:
    def test_answer_matches_run_for_all_languages(self, pipeline):
        for query in CANONICAL_QUERIES[:2]:
            for key, language in (("SQL", "sql"), ("RA", "ra"), ("TRC", "trc"),
                                  ("DRC", "drc"), ("Datalog", "datalog")):
                text = query.languages()[key]
                served = pipeline.answer(text, language=language)
                full = pipeline.run(text, language=language)
                assert full.answers is not None
                assert served.bag_equal(full.answers)

    def test_answer_autodetects_language(self, pipeline):
        names = {row[0] for row in
                 pipeline.answer("project[sname](Sailors)").distinct_rows()}
        assert "Dustin" in names

    def test_answer_falls_back_outside_the_fragment(self, pipeline):
        sql = ("SELECT S.sname FROM Sailors S LEFT JOIN Reserves R "
               "ON S.sid = R.sid WHERE R.sid IS NULL")
        from repro.sql.evaluate import evaluate_sql

        assert pipeline.answer(sql).bag_equal(evaluate_sql(sql, pipeline.db))

    def test_answer_rejects_unknown_language(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.answer("SELECT 1", language="cypher")

    def test_answer_any_uses_the_serving_path(self):
        result = answer_any(JOIN_SQL, sailors_database())
        assert {row[0] for row in result.distinct_rows()} >= {"Dustin"}


class TestBackendSelection:
    @pytest.mark.parametrize("backend", ["row", "vectorized"])
    def test_both_backends_serve_the_catalog(self, backend):
        pipeline = QueryVisualizationPipeline(sailors_database(), backend=backend)
        for query in CANONICAL_QUERIES:
            result = pipeline.run(query.sql)
            assert result.answers is not None
            assert {row[0] for row in result.answers.distinct_rows()} == set(
                query.expected_names), f"{query.id} on {backend}"

    @pytest.mark.parametrize("backend", ["quantum", "parallel"])
    def test_unknown_backend_rejected_eagerly(self, backend):
        # "parallel" is a retired name: a service built on it fails at
        # construction, not at its first query.
        from repro.core import QueryService
        from repro.engine import PlanError

        with pytest.raises(PlanError):
            QueryVisualizationPipeline(sailors_database(), backend=backend)
        with pytest.raises(PlanError):
            QueryService(sailors_database(), backend=backend)


class TestInterpreterFallback:
    """Satellite coverage for ``QueryVisualizationPipeline._evaluate``."""

    FALLBACK_SQL = ("SELECT S.sname FROM Sailors S LEFT JOIN Reserves R "
                    "ON S.sid = R.sid WHERE R.sid IS NULL")

    def test_structured_warning_is_emitted(self, pipeline):
        result = pipeline.run(self.FALLBACK_SQL, formalism="sqlvis")
        assert not result.used_engine
        fallback_warnings = [w for w in result.warnings
                             if w.startswith("engine fallback to the SQL interpreter:")]
        assert len(fallback_warnings) == 1
        # The warning names the concrete reason, not just the fact
        assert fallback_warnings[0].removeprefix(
            "engine fallback to the SQL interpreter:").strip()

    def test_interpreter_answer_is_returned(self, pipeline):
        from repro.sql.evaluate import evaluate_sql

        result = pipeline.run(self.FALLBACK_SQL, formalism="sqlvis")
        assert result.answers is not None
        assert result.answers.bag_equal(evaluate_sql(self.FALLBACK_SQL, pipeline.db))

    def test_timings_record_evaluate_but_not_failed_engine_stages(self, pipeline):
        result = pipeline.run(self.FALLBACK_SQL, formalism="sqlvis")
        assert "evaluate" in result.timings
        assert result.timings["evaluate"] >= 0.0
        for stage in ("lower", "optimize", "execute"):
            assert stage not in result.timings, (
                f"{stage} belongs to the failed engine attempt and must be dropped"
            )

    def test_engine_path_still_records_all_stages(self, pipeline):
        result = pipeline.run(CANONICAL_QUERIES[0].sql)
        assert result.used_engine
        assert {"parse", "lower", "optimize", "execute", "evaluate"} <= set(
            result.timings)
