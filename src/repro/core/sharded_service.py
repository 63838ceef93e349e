"""Thread-safe serving over a hash-partitioned database.

:class:`ShardedQueryService` is :class:`~repro.core.service.QueryService`
pointed at a :class:`~repro.data.sharded.ShardedDatabase` and the
``"sharded"`` scatter-gather backend (:mod:`repro.engine.sharded`).  Four
things change relative to the base service:

* **Writes route to owning shards.**  :meth:`add_row` / :meth:`add_rows`
  hash each row's shard-key values and append to the one shard that owns
  it (under the service write lock, like every service write).  The merged
  read views the pipeline and interpreters see are frozen, so an
  accidental un-routed write raises instead of silently unbalancing a
  shard.
* **The result cache keys on the shard-version vector.**  Where the base
  service keys answers on the scalar database version, this service keys
  on ``(generation, structure version, v₀, v₁, ..., vₙ₋₁)`` — one
  component per shard, prefixed by a reshard generation epoch.
  Invalidation behaviour is identical (any routed write moves its shard's
  component), but the key now records exactly which shard states an answer
  was computed against, and the epoch makes keys from different shard
  *layouts* incomparable (see :meth:`reshard`).
* **Materialized views are maintained per shard.**
  :class:`ShardedMaterializedView` scatters a view's maintainable core
  into one delta-maintained partial per shard (over the shard's live
  relations, whose delta logs work) and combines the partials at refresh
  time — ``DISTINCT`` re-deduplicates globally, split aggregates
  (AVG = SUM + COUNT, presence counters) re-combine globally.  A write
  refreshes only the shards it touched; a shard that falls behind its
  bounded delta log recomputes *its* partial only.  Non-distributable
  plans degrade to rebuild-on-refresh, never a wrong answer.
* **The cluster reshapes under live views.**  :meth:`reshard`
  re-partitions the database onto a new shard count/key layout atomically
  under the write lock, bumping the generation epoch and rematerializing
  every registered view against the new layout before any reader can
  observe it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.service import MaterializedView, QueryService, _Answer
from repro.data.database import Database
from repro.data.sharded import (
    DEFAULT_N_SHARDS,
    ShardedDatabase,
    ShardKeySpec,
    reshard as reshard_database,
)

if TYPE_CHECKING:
    from repro.data.relation import Relation

#: Backend used for per-shard partial-view maintenance.  Shard-local plans
#: run single-node over one shard's (small) relations — routing them back
#: through the scatter-gather backend would re-shard the already-sharded.
_SHARD_LOCAL_BACKEND = "vectorized"


class ShardedMaterializedView(MaterializedView):
    """A materialized view maintained as one partial per shard.

    The registered plan's maintainable core (see
    :func:`~repro.engine.delta.find_core`) is compiled by
    :func:`~repro.engine.sharded.compile_view_scatter` into a per-shard
    scatter plan plus a gather-side combine, and each shard gets its own
    :class:`~repro.engine.delta.ViewMaintainer` running over a shard-local
    execution database (the shard's live relations plus frozen broadcast
    aliases).  Refresh semantics:

    * a routed write moves one shard's version component; only that
      shard's maintainer absorbs a delta, then the partials are
      re-combined and the finishing operators re-applied;
    * a shard whose bounded delta log no longer covers its window
      recomputes its own partial from scratch (siblings keep their
      incremental state) — counted in :attr:`shard_rebuilds`;
    * a write to a relation the plan reads via a **broadcast alias**
      invalidates every shard's partial (each partial joined against the
      full old copy), so all shards reinitialize;
    * recursive Datalog views keep one semi-naive maintainer over the
      merged database, fed per-predicate deltas gathered from the
      shard-local logs (merged views are rebuilt frozen copies with no
      usable logs of their own);
    * anything non-distributable or non-maintainable falls back to
      rebuild-on-refresh via the scatter-gather pipeline — correct, never
      incremental.

    A service :meth:`~ShardedQueryService.reshard` bumps the service
    generation; views stamped with an older generation refuse the
    lock-free fast path and rematerialize against the new layout.
    """

    def __init__(self, service: "ShardedQueryService", name: str, text: str,
                 language: str, fingerprint: str, refresh: str) -> None:
        super().__init__(service, name, text, language, fingerprint, refresh)
        self.shard_rebuilds = 0
        self._compiled: Any = None            # ShardedViewPlan | None
        self._shard_maintainers: list[Any] | None = None
        self._exec_dbs: list[Database] | None = None
        #: per shard: relation -> shard-local version last absorbed
        self._shard_anchors: list[dict[str, int]] = []
        #: broadcast-read relation -> merged version last captured
        self._broadcast_anchors: dict[str, int] = {}
        #: broadcast alias name -> alias version (as-of anchors for deltas)
        self._alias_anchors: dict[str, int] = {}
        self._generation = -1

    # -- serving -----------------------------------------------------------

    @property
    def strategy(self) -> str:
        """``"sharded-bag"`` / ``"sharded-distinct"`` /
        ``"sharded-aggregate"`` / ``"sharded-datalog"`` / ``"rebuild"``."""
        if self._shard_maintainers is not None and self._compiled is not None:
            return f"sharded-{self._compiled.kind}"
        if self._maintainer is not None:
            return f"sharded-{self._maintainer.kind}"
        return "rebuild"

    def _peek(self) -> _Answer | None:
        service = self.service
        # Version first, then generation: a reshard bumps the generation
        # before swapping any state, and a refresh publishes the answer
        # before the version, so observing a current (version, generation)
        # pair guarantees the answer read afterwards matches the layout.
        if self._version == service.db.version \
                and self._generation == service._generation:
            return self._published
        return None

    def info(self) -> dict[str, Any]:
        info = super().info()
        info["current"] = (info["current"]
                           and self._generation == self.service._generation)
        info["n_shards"] = self.service.sharded_db.n_shards
        info["shard_rebuilds"] = self.shard_rebuilds
        info["generation"] = self._generation
        return info

    # -- maintenance (service write lock held) ------------------------------

    def _refresh_locked(self) -> _Answer:
        service = self.service
        db = service.sharded_db
        if self._published is not None and self._version == db.version \
                and self._generation == service._generation:
            return self._published
        self.refreshes += 1
        if self._generation != service._generation \
                or self._structure_version != db.structure_version:
            # Resharded or schema changed: per-shard state describes a
            # layout that no longer exists.
            return self._rebuild_locked()
        if self._shard_maintainers is not None:
            return self._refresh_sharded_locked(db)
        if self._maintainer is not None and self._maintainer.kind == "datalog":
            return self._refresh_datalog_locked(db)
        return self._rebuild_locked()

    def _rebuild_locked(self) -> _Answer:
        from repro.engine.delta import (
            DatalogMaintainer,
            DeltaRewriteError,
            base_relations,
            find_core,
        )
        from repro.engine.lower import LoweringError
        from repro.engine.plan import PlanError
        from repro.engine.sharded import (
            NotDistributable,
            compile_view_scatter,
            shard_execution_database,
        )

        service = self.service
        db = service.sharded_db
        self.rebuilds += 1
        self._maintainer = None
        self._plan = self._core = None
        self._compiled = None
        self._shard_maintainers = None
        self._exec_dbs = None
        self._shard_anchors = []
        self._broadcast_anchors = {}
        self._alias_anchors = {}
        self._base_rels = ()
        warnings: list[str] = []
        pipeline = service.pipeline
        if self.language == "datalog":
            from repro.core.pipeline import _parse

            if self._program is None:
                self._program = _parse(self.text, "datalog")
            try:
                maintainer = DatalogMaintainer(self._program, db)
                maintainer.initialize(db, _SHARD_LOCAL_BACKEND)
            except DeltaRewriteError:
                maintainer = None
            if maintainer is not None:
                self._maintainer = maintainer
                self._base_rels = maintainer.base_relations()
                self._record_anchors(db, self._base_rels, ())
                return self._finish_publish(db, maintainer.result_relation())
            relation = pipeline.answer(self.text, language="datalog",
                                       warnings=warnings)
            return self._finish_publish(db, relation, tuple(warnings))
        plan = pipeline.prepare_plan(self.text, self.language)
        if plan is not None:
            self._plan = plan
            try:
                core, kind = find_core(plan)
                compiled = compile_view_scatter(core, kind, db,
                                                service.table_statistics)
                exec_dbs = [
                    shard_execution_database(db, i, compiled.partitioned,
                                             compiled.broadcast)
                    for i in range(db.n_shards)
                ]
                maintainers = [self._shard_maintainer(compiled, exec_db)
                               for exec_db in exec_dbs]
                for maintainer, exec_db in zip(maintainers, exec_dbs):
                    maintainer.initialize(exec_db, _SHARD_LOCAL_BACKEND)
                self._core = core
                self._compiled = compiled
                self._exec_dbs = exec_dbs
                self._shard_maintainers = maintainers
                self._base_rels = base_relations(core)
                self._record_anchors(db, compiled.partitioned,
                                     compiled.broadcast)
                return self._publish_sharded(db)
            except (DeltaRewriteError, NotDistributable, LoweringError,
                    PlanError):
                # Unmaintainable core or no safe scatter: serve by rebuild
                # (full scatter-gather recompute on every refresh).
                self._compiled = None
                self._shard_maintainers = None
                self._exec_dbs = None
        relation = pipeline.answer(self.text, language=self.language,
                                   warnings=warnings)
        return self._finish_publish(db, relation, tuple(warnings))

    @staticmethod
    def _shard_maintainer(compiled: Any, exec_db: Database) -> Any:
        from repro.engine.delta import (
            AggregateMaintainer,
            BagMaintainer,
            DistinctMaintainer,
        )

        if compiled.kind == "bag":
            return BagMaintainer(compiled.scatter, exec_db)
        if compiled.kind == "distinct":
            return DistinctMaintainer(compiled.scatter, exec_db)
        return AggregateMaintainer(compiled.scatter, exec_db)

    def _refresh_sharded_locked(self, db: ShardedDatabase) -> _Answer:
        from repro.engine.delta import DeltaRewriteError
        from repro.engine.lower import LoweringError
        from repro.engine.plan import DeltaUnavailable, PlanError

        compiled = self._compiled
        for rel in sorted(compiled.broadcast):
            if db.relation_version(rel) != self._broadcast_anchors.get(rel, -1):
                # A broadcast-read relation grew somewhere: every shard's
                # partial joined against the full old copy, so every
                # shard's state is stale at once.
                return self._reinitialize_all_shards_locked(db)
        touched = False
        for i, maintainer in enumerate(self._shard_maintainers):
            anchors = self._shard_anchors[i]
            shard = db.shard(i)
            changed = {rel for rel in compiled.partitioned
                       if shard.relation(rel).version > anchors.get(rel, -1)}
            if not changed:
                continue
            touched = True
            window = dict(anchors)
            window.update(self._alias_anchors)
            try:
                maintainer.apply_delta(self._exec_dbs[i], window, changed,
                                       _SHARD_LOCAL_BACKEND)
            except (DeltaUnavailable, DeltaRewriteError, LoweringError,
                    PlanError):
                # This shard fell behind its bounded delta log: recompute
                # its partial only; sibling shards keep their state.
                maintainer.initialize(self._exec_dbs[i], _SHARD_LOCAL_BACKEND)
                self.shard_rebuilds += 1
            for rel in compiled.partitioned:
                anchors[rel] = shard.relation(rel).version
        if not touched:
            return self._republish(db)
        self.incremental_refreshes += 1
        return self._publish_sharded(db)

    def _reinitialize_all_shards_locked(self, db: ShardedDatabase) -> _Answer:
        from repro.engine.sharded import shard_execution_database

        compiled = self._compiled
        self._exec_dbs = [
            shard_execution_database(db, i, compiled.partitioned,
                                     compiled.broadcast)
            for i in range(db.n_shards)
        ]
        for maintainer, exec_db in zip(self._shard_maintainers,
                                       self._exec_dbs):
            maintainer.initialize(exec_db, _SHARD_LOCAL_BACKEND)
            self.shard_rebuilds += 1
        self._record_anchors(db, compiled.partitioned, compiled.broadcast)
        return self._publish_sharded(db)

    def _refresh_datalog_locked(self, db: ShardedDatabase) -> _Answer:
        deltas: dict[str, list[tuple]] = {}
        for pred in self._base_rels:
            rows: list[tuple] = []
            pred_changed = False
            for i in range(db.n_shards):
                rel = db.shard(i).relation(pred)
                since = self._shard_anchors[i].get(pred, -1)
                if rel.version <= since:
                    continue
                pred_changed = True
                delta = rel.delta_since(since)
                if delta is None:
                    # One shard's log fell behind; the merged fixpoint
                    # cannot be resumed exactly — start over.
                    return self._rebuild_locked()
                rows.extend(delta)
            if pred_changed:
                deltas[pred] = rows
        if not deltas:
            return self._republish(db)
        # The union of per-shard appends is the merged delta (facts are
        # sets); db supplies the full current relations the resumed
        # fixpoint joins against.
        self._maintainer.apply_edb_deltas(db, deltas)
        self._record_anchors(db, self._base_rels, ())
        self.incremental_refreshes += 1
        return self._finish_publish(db, self._maintainer.result_relation())

    def _publish_sharded(self, db: ShardedDatabase) -> _Answer:
        from repro.engine.delta import finish_rows, view_result_relation

        parts = [maintainer.rows() for maintainer in self._shard_maintainers]
        rows = self._compiled.gather(parts)
        rows = finish_rows(db, self._plan, self._core, rows)
        return self._finish_publish(db, view_result_relation(self._plan, rows))

    def _record_anchors(self, db: ShardedDatabase,
                        partitioned: Iterable[str],
                        broadcast: Iterable[str]) -> None:
        from repro.data.sharded import BROADCAST_SUFFIX

        names = sorted(partitioned)
        self._shard_anchors = [
            {rel: db.shard(i).relation(rel).version for rel in names}
            for i in range(db.n_shards)
        ]
        self._broadcast_anchors = {}
        self._alias_anchors = {}
        for rel in sorted(broadcast):
            self._broadcast_anchors[rel] = db.relation_version(rel)
            # Broadcast aliases are frozen copies: anchoring an as-of scan
            # at the alias's own (current) version reads its full rows.
            alias = db.broadcast_relation(rel)
            self._alias_anchors[rel + BROADCAST_SUFFIX] = alias.version

    def _finish_publish(self, db: Database, relation: "Relation",
                        warnings: tuple[str, ...] = ()) -> _Answer:
        # Generation before version: the lock-free fast path trusts the
        # pair only when both are current.
        self._generation = self.service._generation
        return super()._finish_publish(db, relation, warnings)


class ShardedQueryService(QueryService):
    """Serve the five-language pipeline over a sharded database.

    Parameters mirror :class:`QueryService`; additionally ``n_shards`` and
    ``shard_keys`` control the partitioning when ``db`` is a plain
    :class:`~repro.data.database.Database` (it is re-partitioned into a
    fresh :class:`ShardedDatabase`).  Pass an existing
    :class:`ShardedDatabase` to keep its layout.  ``backend`` selects the
    scatter-gather execution tier: ``"sharded"`` (default) runs shard
    subplans inline on the request's thread, ``"process"`` runs them in
    worker processes over shared-memory column pages
    (:mod:`repro.engine.process`; ``workers`` pins that pool's width).
    Call :meth:`close` — or use the service as a context manager — to shut
    the worker pool down and unlink the page segments promptly.

    :meth:`register_view` works here: views materialize as per-shard
    partials (see :class:`ShardedMaterializedView`), and :meth:`reshard`
    re-partitions the cluster under live views without ever serving a
    stale-layout answer.
    """

    def __init__(self, db: Database | None = None, *,
                 backend: str = "sharded",
                 n_shards: int = DEFAULT_N_SHARDS,
                 shard_keys: ShardKeySpec | None = None,
                 workers: int | None = None,
                 plan_cache_size: int = 256,
                 result_cache_size: int = 1024,
                 max_retries: int = 4) -> None:
        if db is None:
            from repro.data.sailors import sailors_database

            db = sailors_database()
        if not isinstance(db, ShardedDatabase):
            db = ShardedDatabase.from_database(db, n_shards, shard_keys)
        super().__init__(db, backend="sharded",
                         plan_cache_size=plan_cache_size,
                         result_cache_size=result_cache_size,
                         max_retries=max_retries)
        self.sharded_db: ShardedDatabase = db
        #: Reshard epoch: bumped (under the write lock) every time the
        #: shard layout is replaced, so cache keys and view stamps from
        #: different layouts can never alias.
        self._generation = 0
        self._backend_kind = backend
        self._workers = workers
        self._sharded_backend = self._build_backend(db.n_shards)
        self.pipeline.backend = self._sharded_backend
        self.backend = self._sharded_backend

    def _build_backend(self, n_shards: int) -> Any:
        """A private backend instance for ``n_shards`` shards.

        Private (not the process-wide singleton) so ``execution_counts()``
        reports this service's traffic only, the compiled-plan cache is
        not shared with unrelated consumers, and ``close()`` tears down
        only this service's worker pool.
        """
        if self._backend_kind == "process":
            from repro.engine.process import ProcessBackend

            return ProcessBackend(n_shards, workers=self._workers)
        if self._backend_kind == "sharded":
            from repro.engine.sharded import ShardedBackend

            return ShardedBackend(n_shards)
        raise ValueError(
            f"unknown sharded-service backend {self._backend_kind!r}; "
            "expected 'sharded' or 'process'")

    # -- cache keying ------------------------------------------------------

    def _cache_version(self) -> tuple[int, ...]:
        """``(generation, structure version, per-shard versions...)``.

        A routed write bumps exactly one shard component; schema changes
        bump the structural component; :meth:`reshard` bumps the leading
        generation epoch.  The epoch is what makes the key sound: without
        it, two *layouts* (same shard count, different shard keys) can
        present identical version vectors while partitioning rows — and
        gathering answers — differently, so a cached answer from the old
        layout could validate against the new one.  Equality of vectors is
        the snapshot validation the base service's optimistic read path
        performs.
        """
        return (self._generation,
                self.sharded_db.structure_version,
                *self.sharded_db.shard_versions())

    # -- views -------------------------------------------------------------

    def _make_view(self, name: str, text: str, language: str,
                   fingerprint: str, refresh: str) -> MaterializedView:
        return ShardedMaterializedView(self, name, text, language,
                                       fingerprint, refresh)

    # -- routed writes -----------------------------------------------------

    def add_row(self, relation: str, row: Sequence[Any], *,
                validate: bool = True) -> int:
        """Append one row to its owning shard; returns the new db version."""
        with self._write_lock:
            self.sharded_db.add_row(relation, row, validate=validate)
            self._refresh_eager_views_locked()
            return self.db.version

    def add_rows(self, relation: str, rows: Iterable[Sequence[Any]], *,
                 validate: bool = True) -> int:
        """Append a batch, each row routed to its owning shard.

        Each touched shard absorbs its sub-batch as one version bump, so
        the cache-key vector moves by at most one per shard per batch.
        """
        with self._write_lock:
            self.sharded_db.add_rows(relation, rows, validate=validate)
            self._refresh_eager_views_locked()
            return self.db.version

    # -- elasticity --------------------------------------------------------

    def reshard(self, n_shards: int | None = None, *,
                shard_keys: ShardKeySpec | None = None) -> ShardedDatabase:
        """Re-partition the database onto a new shard layout, atomically.

        Runs entirely under the write lock: the merged contents are
        re-hashed into a fresh :class:`ShardedDatabase` (``n_shards``
        defaults to the current count; ``shard_keys`` overrides carry over
        otherwise), a new private backend sized for the new count replaces
        the old one, the result cache is cleared, and **every registered
        view is rematerialized against the new layout** before the lock is
        released.  The generation epoch is bumped *first*, so a lock-free
        reader that races the swap fails its generation check and
        serializes behind the lock instead of trusting a stale vector or a
        stale-layout view — the cache-version vector may change length or
        meaning across a reshard, and without the epoch equal-looking
        vectors from different layouts could alias.

        Returns the new database (also reachable as :attr:`sharded_db`).
        """
        with self._write_lock:
            old_db = self.sharded_db
            old_backend = self._sharded_backend
            count = n_shards if n_shards is not None else old_db.n_shards
            new_db = reshard_database(old_db, count, shard_keys)
            self._generation += 1
            self.sharded_db = new_db
            self.db = new_db
            self.pipeline.db = new_db
            from repro.engine.stats import StatsCatalog

            self.table_statistics = StatsCatalog(new_db)
            self._sharded_backend = self._build_backend(new_db.n_shards)
            self.pipeline.backend = self._sharded_backend
            self.backend = self._sharded_backend
            # Old-layout entries can never validate again (the generation
            # moved); clear them rather than let them age out.
            self._results.clear()
            for view in self._views.values():
                view.refreshes += 1
                view._rebuild_locked()
            if old_backend is not self._sharded_backend:
                close_backend = getattr(old_backend, "close", None)
                if callable(close_backend):
                    close_backend()
            old_db.close()
            return new_db

    # -- sharding introspection --------------------------------------------

    def shard_for(self, relation: str, row: Sequence[Any]) -> int:
        """The shard that owns (or would own) ``row`` of ``relation``."""
        return self.sharded_db.shard_of_row(relation, row)

    def execution_counts(self) -> dict[str, int]:
        """This service's backend counters: scatter / single-shard / fallback.

        Counted on the service's private backend instance, so concurrent
        services (or direct ``run_query(..., backend="sharded")`` calls
        elsewhere in the process) never bleed into the numbers.
        """
        return self._sharded_backend.execution_counts()

    def cache_info(self) -> dict[str, int]:
        info = super().cache_info()
        info["n_shards"] = self.sharded_db.n_shards
        info["generation"] = self._generation
        return info


__all__ = ["ShardedMaterializedView", "ShardedQueryService"]
