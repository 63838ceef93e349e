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

* **Materialized views are maintained per shard.**  The service's view
  recipe (:meth:`ShardedQueryService._view_recipe`) compiles a view's
  maintainable core with :func:`~repro.engine.sharded.shard_plan`, the
  compiler every scatter-gather request goes through, and the one
  :class:`~repro.core.service.MaterializedView` class keeps the compiled
  plan's scatter subplan delta-maintained as one part per shard (over the
  shard's live relations, whose delta logs work).  A refresh gathers the
  parts with the compiled plan's own merge step: a ``DISTINCT``
  pre-reduced per shard re-deduplicates globally, a split aggregate
  (AVG = SUM + COUNT, presence counters) re-combines, and a core
  co-partitioned on the shard key just concatenates.  A write refreshes
  only the shards it touched; a shard that falls behind its bounded delta
  log recomputes *its* part only.  Non-distributable plans, recursive
  Datalog programs among them, rebuild on refresh, never a wrong answer.
* **The cluster reshapes under live views.**  :meth:`reshard`
  re-partitions the database onto a new shard count/key layout atomically
  under the write lock, under a new generation epoch, rematerializing
  every registered view against the new layout before any reader can
  observe it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Sequence

from repro.core.service import QueryService, ViewRecipe
from repro.data.database import Database
from repro.data.sharded import (
    DEFAULT_N_SHARDS,
    ShardedDatabase,
    ShardKeySpec,
    reshard as reshard_database,
)
from repro.engine.plan import Plan


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
    parts (see :meth:`_view_recipe`), and :meth:`reshard`
    re-partitions the cluster under live views without ever serving a
    stale-layout answer.
    """

    def __init__(self, db: Database | None = None, *,
                 backend: str = "sharded",
                 n_shards: int = DEFAULT_N_SHARDS,
                 shard_keys: ShardKeySpec | None = None,
                 workers: int | None = None,
                 plan_cache_size: int = 256,
                 result_cache_size: int = 1024) -> None:
        if db is None:
            from repro.data.sailors import sailors_database

            db = sailors_database()
        if not isinstance(db, ShardedDatabase):
            db = ShardedDatabase.from_database(db, n_shards, shard_keys)
        self._backend_kind = backend
        self._workers = workers
        super().__init__(db, backend=self._build_backend(),
                         plan_cache_size=plan_cache_size,
                         result_cache_size=result_cache_size)
        self.sharded_db: ShardedDatabase = db

    def _build_backend(self) -> Any:
        """A backend instance of this service's own.

        Its own, so ``execution_counts()`` reports this service's traffic
        only and ``close()`` tears down only this service's worker pool.
        """
        from repro.engine.process import ProcessBackend
        from repro.engine.sharded import ShardedBackend

        if self._backend_kind == "process":
            return ProcessBackend(self._workers)
        if self._backend_kind == "sharded":
            return ShardedBackend()
        raise ValueError(
            f"unknown sharded-service backend {self._backend_kind!r}; "
            "expected 'sharded' or 'process'")

    # -- views -------------------------------------------------------------

    def _view_recipe(self, core: Plan) -> ViewRecipe | None:
        """One part per shard, as :func:`~repro.engine.sharded.shard_plan`
        compiles ``core``.

        Each shard maintains the compiled ``scatter`` subplan on
        ``"vectorized"`` over its live relations plus frozen broadcast
        aliases (re-scattering an already-sharded plan would shard it
        again), and the compiled plan's ``finish`` gathers the parts as it
        gathers a request's.  ``None`` when ``shard_plan`` cannot scatter
        the core.
        """
        from repro.engine.sharded import shard_execution_database, shard_plan
        from repro.engine.verify import maybe_verify_view_terms

        db = self.sharded_db
        compiled = shard_plan(core, db, self.table_statistics)
        if compiled.mode == "fallback":
            return None
        maybe_verify_view_terms(compiled, db)
        return ViewRecipe(
            compiled.scatter,
            lambda: [shard_execution_database(db, i, compiled.partitioned,
                                              compiled.broadcast)
                     for i in range(db.n_shards)],
            "vectorized",
            partial(compiled.finish, db),
            compiled.broadcast,
            compiled,
        )

    # -- elasticity --------------------------------------------------------

    def reshard(self, n_shards: int | None = None, *,
                shard_keys: ShardKeySpec | None = None) -> ShardedDatabase:
        """Re-partition the database onto a new shard layout, atomically.

        Runs entirely under the write lock: the merged contents are
        re-hashed into a fresh :class:`ShardedDatabase` one generation past
        the old (``n_shards`` defaults to the current count; ``shard_keys``
        overrides carry over otherwise), a new backend of the service's own
        replaces the old one, the result cache is cleared,
        and **every registered view is rematerialized against the new
        layout** before the lock is released.  A lock-free reader racing
        the swap finds its view stamped with a database no longer served
        and serializes behind the lock; the generation keeps the two
        layouts' version tokens from ever aliasing.

        Returns the new database (also reachable as :attr:`sharded_db`).
        """
        with self._write_lock:
            old_db = self.sharded_db
            old_backend = self.backend
            count = n_shards if n_shards is not None else old_db.n_shards
            new_db = reshard_database(old_db, count, shard_keys)
            self.sharded_db = new_db
            self.db = new_db
            self.pipeline.db = new_db
            from repro.engine.stats import StatsCatalog

            self.table_statistics = StatsCatalog(new_db)
            self.backend = self.pipeline.backend = self._build_backend()
            # Old-layout entries can never validate again (the generation
            # moved); clear them rather than let them age out.
            self._results.clear()
            for view in self._views.values():
                view.refreshes += 1
                view._rebuild_locked()
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

        Counted on the service's own backend instance, so concurrent
        services never bleed into the numbers.
        """
        return self.backend.execution_counts()

    def cache_info(self) -> dict[str, int]:
        info = super().cache_info()
        info["n_shards"] = self.sharded_db.n_shards
        info["generation"] = self.sharded_db.generation
        return info


__all__ = ["ShardedQueryService"]
