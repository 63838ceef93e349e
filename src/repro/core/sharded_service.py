"""Thread-safe serving over a hash-partitioned database.

:class:`ShardedQueryService` is :class:`~repro.core.service.QueryService`
pointed at a :class:`~repro.data.sharded.ShardedDatabase` and the
``"sharded"`` scatter-gather backend (:mod:`repro.engine.sharded`).  Writes
and the result cache's version token are the database's business, so the
base service's one write path and one token serve here unchanged: a
routed write lands on the shard that owns each row, and the token is
``(generation, structure version, v₀, v₁, ..., vₙ₋₁)`` — one component
per shard, prefixed by the layout epoch (see
:attr:`~repro.data.sharded.ShardedDatabase.version_token`).  Two things
change relative to the base service:

* **Materialized views are maintained per shard.**
  :class:`ShardedMaterializedView` compiles a view's maintainable core
  with :func:`~repro.engine.sharded.shard_plan`, the compiler every
  scatter-gather request goes through, and keeps the compiled plan's
  scatter subplan delta-maintained on every shard (over the shard's live
  relations, whose delta logs work).  A refresh gathers the per-shard
  parts with the compiled plan's own merge step: a ``DISTINCT``
  pre-reduced per shard re-deduplicates globally, a split aggregate
  (AVG = SUM + COUNT, presence counters) re-combines, and a core
  co-partitioned on the shard key just concatenates.  A write refreshes
  only the shards it touched; a shard that falls behind its bounded delta
  log recomputes *its* part only.  Non-distributable plans and Datalog
  programs rebuild on refresh, never a wrong answer.
* **The cluster reshapes under live views.**  :meth:`reshard`
  re-partitions the database onto a new shard count/key layout atomically
  under the write lock, under a new generation epoch, rematerializing
  every registered view against the new layout before any reader can
  observe it.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.service import MaterializedView, QueryService, _Answer
from repro.data.database import Database
from repro.data.sharded import (
    DEFAULT_N_SHARDS,
    ShardedDatabase,
    ShardKeySpec,
    reshard as reshard_database,
)

#: Backend used for per-shard partial-view maintenance.  Shard-local plans
#: run single-node over one shard's (small) relations — routing them back
#: through the scatter-gather backend would re-shard the already-sharded.
_SHARD_LOCAL_BACKEND = "vectorized"


class ShardedMaterializedView(MaterializedView):
    """A materialized view maintained as one part per shard.

    The view's recipe is the :class:`~repro.engine.sharded.ShardedPlan`
    that :func:`~repro.engine.sharded.shard_plan` compiles for the
    registered plan's maintainable core (see
    :func:`~repro.engine.delta.find_core`).  Its ``scatter`` subplan is a
    maintainable core in turn — a bag, a ``DISTINCT`` over one, or an
    aggregate (whole when co-partitioned, else the partial half of a
    split) — so every shard maintains it with the
    :class:`~repro.engine.delta.ViewMaintainer` that
    :func:`~repro.engine.delta.build_maintainer` picks, over a shard-local
    execution database (the shard's live relations plus frozen broadcast
    aliases), and a refresh hands the maintained parts to the recipe's
    :meth:`~repro.engine.sharded.ShardedPlan.finish`, exactly as a request
    hands it executed ones.  Refresh semantics:

    * a routed write moves one shard's version component; only that
      shard's maintainer absorbs a delta, then the parts are re-gathered
      and the finishing operators re-applied;
    * a shard whose bounded delta log no longer covers its window
      recomputes its own part from scratch (siblings keep their
      incremental state) — counted in :attr:`shard_rebuilds`;
    * a write to a relation the plan reads via a **broadcast alias**
      invalidates every shard's part (each part joined against the full
      old copy), so all shards reinitialize;
    * a plan with no maintainable core, a core ``shard_plan`` cannot
      scatter, and every Datalog program rebuild on refresh via the
      scatter-gather pipeline — correct, never incremental.

    A service :meth:`~ShardedQueryService.reshard` replaces the database,
    so every view is stale until it has rematerialized against the new
    layout.
    """

    def __init__(self, service: "ShardedQueryService", name: str, text: str,
                 language: str, fingerprint: str, refresh: str) -> None:
        super().__init__(service, name, text, language, fingerprint, refresh)
        self.shard_rebuilds = 0
        self._compiled: Any = None            # ShardedPlan | None
        self._shard_maintainers: list[Any] | None = None
        self._exec_dbs: list[Database] | None = None
        #: per shard: relation -> shard-local version last absorbed
        self._shard_anchors: list[dict[str, int]] = []
        #: broadcast-read relation -> merged version last captured
        self._broadcast_anchors: dict[str, int] = {}
        #: broadcast alias name -> alias version (as-of anchors for deltas)
        self._alias_anchors: dict[str, int] = {}

    # -- serving -----------------------------------------------------------

    @property
    def strategy(self) -> str:
        """``"sharded-bag"`` / ``"sharded-distinct"`` /
        ``"sharded-aggregate"`` / ``"rebuild"``."""
        if self._shard_maintainers is None:
            return "rebuild"
        return f"sharded-{self._shard_maintainers[0].kind}"

    def info(self) -> dict[str, Any]:
        info = super().info()
        info["n_shards"] = self.service.sharded_db.n_shards
        info["shard_rebuilds"] = self.shard_rebuilds
        info["generation"] = self._db.generation
        return info

    # -- maintenance (service write lock held) ------------------------------

    def _rebuild_locked(self) -> _Answer:
        self._compiled = self._shard_maintainers = self._exec_dbs = None
        return super()._rebuild_locked()

    def _maintain(self, db: ShardedDatabase) -> bool:
        """One maintainer per shard over the scatter subplan that
        :func:`~repro.engine.sharded.shard_plan` compiles for the core."""
        from repro.engine.delta import (
            DeltaRewriteError,
            base_relations,
            build_maintainer,
            find_core,
        )
        from repro.engine.lower import LoweringError
        from repro.engine.plan import PlanError
        from repro.engine.sharded import shard_plan
        from repro.engine.verify import maybe_verify_view_terms

        try:
            core, _kind = find_core(self._plan)
            compiled = shard_plan(core, db, self.service.table_statistics)
            if compiled.mode == "fallback":
                return False  # nothing to scatter: rebuild on refresh
            maybe_verify_view_terms(compiled, db)
            exec_dbs = self._exec_databases(db, compiled)
            maintainers = [build_maintainer(compiled.scatter, exec_db)[0]
                           for exec_db in exec_dbs]
            for maintainer, exec_db in zip(maintainers, exec_dbs):
                maintainer.initialize(exec_db, _SHARD_LOCAL_BACKEND)
        except (DeltaRewriteError, LoweringError, PlanError):
            # Unmaintainable core or an uncertified recipe: serve by
            # rebuild (full scatter-gather recompute on every refresh).
            return False
        self._core = core
        self._compiled = compiled
        self._exec_dbs = exec_dbs
        self._shard_maintainers = maintainers
        self._base_rels = base_relations(core)
        self._record_anchors(db)
        return True

    @staticmethod
    def _exec_databases(db: ShardedDatabase, compiled: Any) -> list[Database]:
        """Per shard: its live relations plus frozen broadcast aliases."""
        from repro.engine.sharded import shard_execution_database

        return [shard_execution_database(db, i, compiled.partitioned,
                                         compiled.broadcast)
                for i in range(db.n_shards)]

    def _catch_up_locked(self, db: ShardedDatabase) -> _Answer:
        if self._shard_maintainers is None:
            return self._rebuild_locked()
        from repro.engine.delta import DeltaRewriteError
        from repro.engine.lower import LoweringError
        from repro.engine.plan import DeltaUnavailable, PlanError

        compiled = self._compiled
        for rel in sorted(compiled.broadcast):
            if db.relation_version(rel) != self._broadcast_anchors.get(rel, -1):
                # A broadcast-read relation grew somewhere: every shard's
                # part joined against the full old copy, so every shard's
                # state is stale at once.
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
                # its part only; sibling shards keep their state.
                maintainer.initialize(self._exec_dbs[i], _SHARD_LOCAL_BACKEND)
                self.shard_rebuilds += 1
            for rel in compiled.partitioned:
                anchors[rel] = shard.relation(rel).version
        if not touched:
            return self._republish(db)
        self.incremental_refreshes += 1
        return self._publish(db)

    def _reinitialize_all_shards_locked(self, db: ShardedDatabase) -> _Answer:
        self._exec_dbs = self._exec_databases(db, self._compiled)
        for maintainer, exec_db in zip(self._shard_maintainers,
                                       self._exec_dbs):
            maintainer.initialize(exec_db, _SHARD_LOCAL_BACKEND)
            self.shard_rebuilds += 1
        self._record_anchors(db)
        return self._publish(db)

    def _publish(self, db: ShardedDatabase) -> _Answer:
        from repro.engine.delta import finish_rows, view_result_relation

        parts = [maintainer.rows() for maintainer in self._shard_maintainers]
        rows = finish_rows(db, self._plan, self._core,
                           self._compiled.finish(db, parts))
        return self._finish_publish(db, view_result_relation(self._plan, rows))

    def _record_anchors(self, db: ShardedDatabase) -> None:
        from repro.data.sharded import BROADCAST_SUFFIX

        names = sorted(self._compiled.partitioned)
        self._shard_anchors = [
            {rel: db.shard(i).relation(rel).version for rel in names}
            for i in range(db.n_shards)
        ]
        self._broadcast_anchors = {}
        self._alias_anchors = {}
        for rel in sorted(self._compiled.broadcast):
            self._broadcast_anchors[rel] = db.relation_version(rel)
            # Broadcast aliases are frozen copies: anchoring an as-of scan
            # at the alias's own (current) version reads its full rows.
            alias = db.broadcast_relation(rel)
            self._alias_anchors[rel + BROADCAST_SUFFIX] = alias.version


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

    # -- views -------------------------------------------------------------

    def _make_view(self, name: str, text: str, language: str,
                   fingerprint: str, refresh: str) -> MaterializedView:
        return ShardedMaterializedView(self, name, text, language,
                                       fingerprint, refresh)

    # -- elasticity --------------------------------------------------------

    def reshard(self, n_shards: int | None = None, *,
                shard_keys: ShardKeySpec | None = None) -> ShardedDatabase:
        """Re-partition the database onto a new shard layout, atomically.

        Runs entirely under the write lock: the merged contents are
        re-hashed into a fresh :class:`ShardedDatabase` one generation past
        the old (``n_shards`` defaults to the current count; ``shard_keys``
        overrides carry over otherwise), a new private backend sized for
        the new count replaces the old one, the result cache is cleared,
        and **every registered view is rematerialized against the new
        layout** before the lock is released.  A lock-free reader racing
        the swap finds its view stamped with a database no longer served
        and serializes behind the lock; the generation keeps the two
        layouts' version tokens from ever aliasing.

        Returns the new database (also reachable as :attr:`sharded_db`).
        """
        with self._write_lock:
            old_db = self.sharded_db
            old_backend = self._sharded_backend
            count = n_shards if n_shards is not None else old_db.n_shards
            new_db = reshard_database(old_db, count, shard_keys)
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
        info["generation"] = self.sharded_db.generation
        return info


__all__ = ["ShardedMaterializedView", "ShardedQueryService"]
