"""Shard-aware incremental view maintenance.

The composition gap this closes: materialized views (delta-plan
maintenance) and scatter-gather sharding used to be mutually exclusive —
``ShardedQueryService.register_view`` raised unsupported.  Now
:class:`~repro.core.service.MaterializedView` maintains one part per
shard over the shard's live relations (whose delta logs work) and gathers
the parts at refresh time; on the plain service it has one part.  These
tests pin down:

* the whole canonical catalog — every query in every language — registers
  and answers identically to the single-node service at 1, 2, and 4
  shards, before and after routed writes;
* absorbed writes refresh *incrementally* (counters prove no rebuild);
* a view's recipe is the ``ShardedPlan`` that ``shard_plan`` compiles for
  its core: the ``sharded-write-mix`` views' recipes are pinned, and a core
  co-partitioned on the shard key keeps its whole aggregate or DISTINCT on
  every shard, with no combine;
* views with no maintainable core, recursive Datalog included, and
  DISTINCT aggregates (no partial→final combine rule) rebuild on every
  refresh on the plain and the sharded service alike;
* one hot shard overflowing its bounded delta log rebuilds that shard's
  part only, never poisoning siblings — and on the plain service and at
  one shard the one part recomputes, not the whole view;
* a write to a broadcast-read relation invalidates every shard's partial;
* :meth:`~repro.core.sharded_service.ShardedQueryService.reshard` under
  live views never serves a wrong or stale-aliased answer, and the
  generation epoch makes cache-version vectors from different layouts
  incomparable (the raw shard-version vector demonstrably collides).
"""

from __future__ import annotations

import pytest

from gates import service_on
from repro.core import (
    QueryService,
    QueryVisualizationPipeline,
    ShardedQueryService,
)
from repro.data import sailors_database
from repro.data.relation import Relation
from repro.queries import CANONICAL_QUERIES

SHARD_COUNTS = (1, 2, 4)

RECURSIVE_DATALOG = (
    "reach(X, Y) :- reserves(X, Y, D). "
    "reach(X, Z) :- reach(X, Y), reserves(Y, Z, D). "
    "ans(X, Z) :- reach(X, Z)."
)

#: The plain and the sharded service, each over a database of its own.
SERVICES = {
    "plain": QueryService,
    "sharded": lambda db: ShardedQueryService(db, n_shards=2),
}

#: Services whose views have one part (the plain service, on two
#: backends, and one shard) or two (two shards).
PART_SERVICES = {
    "plain-row": lambda db: service_on(db, "row"),
    "plain-vectorized": lambda db: service_on(db, "vectorized"),
    "sharded-1": lambda db: ShardedQueryService(db, n_shards=1),
    "sharded-2": lambda db: ShardedQueryService(db, n_shards=2),
}

#: ``view.info()`` keys on every service, and those only a sharded one adds.
INFO_KEYS = {"name", "language", "strategy", "refresh_policy", "version",
             "current", "rows", "refreshes", "incremental_refreshes",
             "rebuilds", "base_relations"}
SHARDED_INFO_KEYS = {"n_shards", "shard_rebuilds", "generation"}

#: The two views the ``sharded-write-mix`` workload serves, with the recipe
#: ``shard_plan`` compiles for each one's core (Reserves is sharded on sid,
#: Boats on bid, so neither groups on its own partition key).
MIX_VIEW_RECIPES = (
    ("SELECT R.bid, COUNT(*) AS n FROM Reserves R GROUP BY R.bid",
     "scatter(reserves) + partial-aggregate"),
    ("SELECT B.color, COUNT(*) AS n FROM Reserves R, Boats B "
     "WHERE R.bid = B.bid GROUP BY B.color",
     "scatter(reserves) + broadcast(boats) + partial-aggregate"),
)

#: Cores co-partitioned on Reserves' shard key: whole on every shard.
CO_PARTITIONED = (
    ("SELECT R.sid, COUNT(*) AS n FROM Reserves R GROUP BY R.sid",
     "sharded-aggregate"),
    ("SELECT DISTINCT R.sid FROM Reserves R", "sharded-distinct"),
)

#: Routed writes used by the refresh tests: single rows and a batch, on
#: the two relations every catalog join reads through a partitioned scan.
WRITE_ROUNDS = (
    ("add_row", "Reserves", (64, 101, "2025/07/01")),
    ("add_row", "Sailors", (97, "tracy", 6, 31.0)),
    ("add_rows", "Sailors", [(96, "quinn", 9, 27.5), (95, "pia", 3, 44.0)]),
    ("add_rows", "Reserves", [(31, 102, "2025/07/02"),
                              (58, 103, "2025/07/03")]),
)


def _apply(service, round_):
    kind, relation, payload = round_
    getattr(service, kind)(relation, payload)


def _part_of(service, row):
    """The view part a routed write of Sailors ``row`` lands in."""
    if isinstance(service, ShardedQueryService):
        return service.shard_for("Sailors", row)
    return 0


def _register_catalog(service):
    views = []
    for query in CANONICAL_QUERIES:
        for language, text in query.languages().items():
            views.append((f"{query.id}/{language}",
                          service.register_view(text,
                                                language=language.lower())))
    return views


class TestCatalogViewsDifferential:
    """All 25 catalog views × {1, 2, 4} shards ≡ the single-node service."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_catalog_views_track_the_plain_service(self, shards):
        plain = QueryService(sailors_database())
        sharded = ShardedQueryService(sailors_database(), n_shards=shards)
        want = dict(_register_catalog(plain))
        got = _register_catalog(sharded)
        assert len(got) == 25
        for label, view in got:
            assert view.answer().bag_equal(want[label].answer()), label
        for round_ in WRITE_ROUNDS:
            _apply(plain, round_)
            _apply(sharded, round_)
            for label, view in got:
                assert view.answer().bag_equal(want[label].answer()), \
                    f"{label} after {round_[:2]}"

    def test_partitioned_writes_refresh_incrementally(self):
        service = ShardedQueryService(sailors_database(), n_shards=2)
        view = service.register_view(
            "SELECT S.rating, COUNT(*), AVG(S.age) FROM Sailors S "
            "GROUP BY S.rating")
        view.answer()
        assert view.strategy == "sharded-aggregate"
        assert view.rebuilds == 1  # the initial materialization
        service.add_row("Sailors", (90, "nova", 7, 23.0))
        view.answer()
        assert view.incremental_refreshes == 1
        assert view.rebuilds == 1
        assert view.shard_rebuilds == 0

    def test_untouched_shards_skip_delta_work(self):
        service = ShardedQueryService(sailors_database(), n_shards=4)
        view = service.register_view("SELECT DISTINCT R.sid FROM Reserves R")
        view.answer()
        assert view.strategy == "sharded-distinct"
        anchors_before = [dict(part.anchors) for part in view._parts]
        row = (88, 104, "2025/07/04")
        owner = service.shard_for("Reserves", row)
        service.add_row("Reserves", row)
        view.answer()
        assert view.incremental_refreshes == 1
        for i, (before, after) in enumerate(zip(anchors_before,
                                                [part.anchors for part
                                                 in view._parts])):
            if i == owner:
                assert after["reserves"] > before["reserves"]
            else:
                assert after == before  # untouched shard: anchor untouched

    @pytest.mark.parametrize("service_kind", sorted(SERVICES))
    @pytest.mark.parametrize("text, language", [
        ("SELECT S.sname FROM Sailors S ORDER BY S.age LIMIT 3", "sql"),
        (RECURSIVE_DATALOG, "datalog"),
    ], ids=["limit", "recursive-datalog"])
    def test_unmaintainable_views_degrade_to_rebuild(self, service_kind,
                                                     text, language,
                                                     monkeypatch):
        # LIMIT leaves no maintainable core, and neither does a recursive
        # program's fixpoint.  Both rebuild on every refresh, on either
        # service.
        monkeypatch.setattr(Relation, "DELTA_LOG_LIMIT", 4)
        service = SERVICES[service_kind](sailors_database())
        view = service.register_view(text, language=language)

        def check(moment):
            fresh = QueryVisualizationPipeline(service.db).answer(
                text, language=language)
            assert view.answer().bag_equal(fresh), moment
            assert view.strategy == "rebuild", moment

        check("at registration")
        for round_ in WRITE_ROUNDS:
            _apply(service, round_)
            check(f"after {round_[:2]}")
        # More writes than the delta log keeps, then one refresh; the rows
        # chain bids back to sailors, so the closure grows a level deeper.
        for i in range(6):
            service.add_row("Reserves", (101 + i % 4, 22, f"2025/07/{10 + i}"))
        check("after a delta-log overflow")
        assert view.incremental_refreshes == 0

    @pytest.mark.parametrize("service_kind", sorted(SERVICES))
    def test_distinct_aggregate_views_rebuild(self, service_kind):
        # A DISTINCT aggregate has no partial→final combine rule: its view
        # rebuilds on refresh, on the plain and the sharded service alike.
        sql = ("SELECT S.rating, COUNT(DISTINCT S.age) AS n FROM Sailors S "
               "GROUP BY S.rating")
        service = SERVICES[service_kind](sailors_database())
        view = service.register_view(sql)
        writes = (
            ("add_row", "Sailors", (97, "tracy", 7, 45.0)),
            ("add_row", "Sailors", (98, "ursa", 7, 50.0)),
            ("add_rows", "Sailors", [(96, "quinn", 4, 27.5),
                                     (99, "pia", 4, 27.5)]),
        )
        for round_ in writes:
            assert view.strategy == "rebuild", round_[:2]
            _apply(service, round_)
            fresh = QueryVisualizationPipeline(service.db).answer(sql)
            assert view.answer().bag_equal(fresh), round_[:2]
        assert view.strategy == "rebuild"
        assert view.incremental_refreshes == 0


class TestViewRecipes:
    """A view's recipe is the ``ShardedPlan`` ``shard_plan`` compiles."""

    @pytest.mark.parametrize("shards", (2, 4))
    @pytest.mark.parametrize("sql, recipe", MIX_VIEW_RECIPES)
    def test_write_mix_view_recipes(self, shards, sql, recipe):
        service = ShardedQueryService(sailors_database(), n_shards=shards)
        view = service.register_view(sql)
        assert view.strategy == "sharded-aggregate"
        assert view._recipe.compiled.describe() == recipe

    @pytest.mark.parametrize("shards", (2, 4))
    @pytest.mark.parametrize("sql, strategy", CO_PARTITIONED)
    def test_co_partitioned_cores_need_no_combine(self, shards, sql,
                                                  strategy, monkeypatch):
        monkeypatch.setattr(Relation, "DELTA_LOG_LIMIT", 4)
        plain = QueryService(sailors_database())
        service = ShardedQueryService(sailors_database(), n_shards=shards)
        view = service.register_view(sql)
        baseline = plain.register_view(sql)
        assert view.strategy == strategy
        assert view._recipe.compiled.describe() == "scatter(reserves)"
        assert view._recipe.compiled.combine is None
        for round_ in WRITE_ROUNDS:
            _apply(plain, round_)
            _apply(service, round_)
            assert view.answer().bag_equal(baseline.answer()), round_[:2]
        assert view.incremental_refreshes == 2  # the two Reserves rounds
        # The hot-shard path: more single-row writes to one shard than its
        # delta log keeps, so that shard recomputes its own part.
        target = service.shard_for("Reserves", (22, 102, "2025/07/09"))
        hot = [row for row in ((sid, 102, "2025/07/09")
                               for sid in range(22, 200))
               if service.shard_for("Reserves", row) == target][:6]
        for row in hot:
            service.add_row("Reserves", row)
            plain.add_row("Reserves", row)
        assert view.answer().bag_equal(baseline.answer())
        assert view.shard_rebuilds == 1
        assert view.rebuilds == 1
        assert view.strategy == strategy


class TestDegradationPaths:
    @pytest.mark.parametrize("service_kind", sorted(PART_SERVICES))
    def test_hot_shard_overflow_rebuilds_that_shard_only(self, service_kind,
                                                         monkeypatch):
        monkeypatch.setattr(Relation, "DELTA_LOG_LIMIT", 4)
        plain = QueryService(sailors_database())
        service = PART_SERVICES[service_kind](sailors_database())
        sharded = isinstance(service, ShardedQueryService)
        sql = "SELECT S.rating, COUNT(*) FROM Sailors S GROUP BY S.rating"
        view = service.register_view(sql)
        baseline = plain.register_view(sql)
        view.answer()
        # Route > DELTA_LOG_LIMIT single-row writes to ONE part (each a
        # version bump), plus one small write to another part if the view
        # has more than one.
        n_parts = view.info().get("n_shards", 1)
        target = _part_of(service, (2000, "x", 0, 20.0))
        hot, cold, sid = [], None, 2000
        while len(hot) < 6 or (cold is None and n_parts > 1):
            row = (sid, f"s{sid}", sid % 10, 20.0 + sid % 7)
            if _part_of(service, row) == target:
                if len(hot) < 6:
                    hot.append(row)
            elif cold is None:
                cold = row
            sid += 1
        for row in hot + ([cold] if cold is not None else []):
            service.add_row("Sailors", row)
            plain.add_row("Sailors", row)
        assert view.answer().bag_equal(baseline.answer())
        # The hot part fell behind its log and recomputed itself; the view
        # as a whole never rematerialized, and any cold part's delta
        # applied incrementally.
        assert view.shard_rebuilds == 1
        assert view.rebuilds == 1
        assert view.incremental_refreshes >= 1
        # Strategy strings and info() keys are each service's own.
        assert view.strategy == ("sharded-aggregate" if sharded
                                 else "aggregate")
        assert set(view.info()) == (INFO_KEYS | SHARDED_INFO_KEYS if sharded
                                    else INFO_KEYS)

    def test_broadcast_write_invalidates_every_shard(self):
        plain = QueryService(sailors_database())
        service = ShardedQueryService(sailors_database(), n_shards=3)
        sql = ("SELECT S.sname, B.bname FROM Sailors S, Reserves R, Boats B "
               "WHERE S.sid = R.sid AND R.bid = B.bid")
        view = service.register_view(sql)
        baseline = plain.register_view(sql)
        view.answer()
        assert "boats" in view._recipe.compiled.broadcast
        service.add_row("Boats", (200, "Ark", "gold"))
        plain.add_row("Boats", (200, "Ark", "gold"))
        service.add_row("Reserves", (22, 200, "2025/07/06"))
        plain.add_row("Reserves", (22, 200, "2025/07/06"))
        assert view.answer().bag_equal(baseline.answer())
        # Every partial joined against the full old copy of Boats, so all
        # three shards reinitialized.
        assert view.shard_rebuilds == 3

    def test_eager_views_catch_up_inside_the_write(self):
        service = ShardedQueryService(sailors_database(), n_shards=2)
        view = service.register_view(
            "SELECT COUNT(*) FROM Reserves R", refresh="eager")
        view.answer()
        service.add_row("Reserves", (22, 104, "2025/07/07"))
        # Already current: the write refreshed it under the lock.
        assert view.version == service.db.version
        assert view.incremental_refreshes == 1


class TestReshardUnderViews:
    def test_reshard_rematerializes_live_views(self):
        plain = QueryService(sailors_database())
        service = ShardedQueryService(sailors_database(), n_shards=2)
        views = _register_catalog(service)
        want = dict(_register_catalog(plain))
        for label, view in views:
            view.answer()
        new_db = service.reshard(4)
        assert new_db.n_shards == 4
        assert service.sharded_db is new_db
        for label, view in views:
            assert view.answer().bag_equal(want[label].answer()), label
            assert view.info()["current"], label
        # Writes keep refreshing against the new layout.
        for round_ in WRITE_ROUNDS:
            _apply(plain, round_)
            _apply(service, round_)
        for label, view in views:
            assert view.answer().bag_equal(want[label].answer()), label

    def test_reshard_changes_shard_keys_under_views(self):
        plain = QueryService(sailors_database())
        service = ShardedQueryService(sailors_database(), n_shards=2)
        sql = ("SELECT S.sname, B.bname FROM Sailors S, Reserves R, Boats B "
               "WHERE S.sid = R.sid AND R.bid = B.bid")
        view = service.register_view(sql)
        baseline = plain.register_view(sql)
        view.answer()
        service.reshard(shard_keys={"Reserves": "bid"})
        assert service.sharded_db.shard_key("Reserves") == ("bid",)
        assert view.answer().bag_equal(baseline.answer())
        service.add_row("Reserves", (31, 103, "2025/07/08"))
        plain.add_row("Reserves", (31, 103, "2025/07/08"))
        assert view.answer().bag_equal(baseline.answer())

    def test_generation_epoch_prevents_vector_aliasing(self):
        """The regression the epoch exists for.

        A reshard rebuilds every shard from per-row copies, so the raw
        ``(structure, v0, ..., vn-1)`` vector of the *new* layout can equal
        the old layout's vector exactly (same shard count: every component
        collides).  Today the colliding entries happen to hold identical
        bytes — per-row rebuilds make each new component the shard's row
        count, which add-only histories cannot shrink past — but that is
        an accident of the rebuild strategy, not a guarantee: a batch-built
        reshard (one version bump per shard) would reopen old vectors with
        *different* contents.  The generation epoch in ``version_token``
        makes the key sound by construction instead.
        """
        service = ShardedQueryService(sailors_database(), n_shards=2)
        sql = "SELECT DISTINCT R.sid FROM Reserves R"
        service.answer(sql)
        raw_before = (service.sharded_db.structure_version,
                      *service.sharded_db.shard_versions())
        keyed_before = service.db.version_token
        service.reshard(2)  # same count, same keys: maximal aliasing
        raw_after = (service.sharded_db.structure_version,
                     *service.sharded_db.shard_versions())
        # The raw vector aliases across the reshard...
        assert raw_before == raw_after
        # ...the epoch-prefixed cache key does not.
        assert keyed_before != service.db.version_token
        assert service.db.version_token[0] == keyed_before[0] + 1
        # And no stale entry survives to be served: the reshard cleared
        # the cache, so the next answer is a recorded miss, not a hit.
        misses = service.cache_info()["result_misses"]
        assert service.cache_info()["result_entries"] == 0
        service.answer(sql)
        assert service.cache_info()["result_misses"] == misses + 1

    def test_racing_reader_never_sees_a_stale_layout_view(self):
        import threading

        service = ShardedQueryService(sailors_database(), n_shards=2)
        plain = QueryService(sailors_database())
        sql = "SELECT S.rating, COUNT(*) FROM Sailors S GROUP BY S.rating"
        view = service.register_view(sql)
        baseline = plain.register_view(sql)
        stop = threading.Event()
        errors: list[Exception] = []

        def reader():
            try:
                while not stop.is_set():
                    if not view.answer().bag_equal(baseline.answer()):
                        raise AssertionError("stale or wrong view answer")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for count in (4, 1, 3, 2):
                service.reshard(count)
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert errors == []
        assert service.cache_info()["generation"] == 4
