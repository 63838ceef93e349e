"""Multi-process scatter-gather over shared-memory column pages
(the ``"process"`` backend).

The sharded backend (:mod:`repro.engine.sharded`) already proves which
plans decompose into independent per-shard subplans plus a gather step —
but its shards execute on *threads*, so CPU-bound row work serializes on
the GIL.  This backend reuses the same compilation (it subclasses
:class:`~repro.engine.sharded.ShardedBackend`, inheriting the distribution
analysis, plan cache, finisher absorption, and gather-side combine) and
moves the per-shard execution into **worker processes**:

* **transport**: each shard's relations are serialized once into
  ``multiprocessing.shared_memory`` column pages
  (:meth:`~repro.data.relation.ColumnStore.encode_pages` — a compact
  per-column encoding for int/float/str with exact ``None``/``bool``/mixed
  round-trip; string and low-cardinality mixed columns ship as a sorted
  value dictionary plus an int32/int64 code array, so the transport moves
  codes, not strings, and the workers' kernels compute on the codes
  directly) through the database's
  :class:`~repro.data.sharded.SharedPagePublisher`.  Segments are
  versioned by the relation version, so an unchanged shard is **never
  re-serialized**: steady-state reads publish nothing and ship only a
  pickled subplan and a manifest of segment names per query.  Broadcast
  relations are published once and attached by every worker;
* **workers** attach each manifest segment read-only, rebuild the relation
  around the decoded store (zero-copy page views for int/float columns),
  cache the attachment by segment name — names are never reused, so a
  version bump naturally invalidates — and execute the scatter subplan
  with the engine's one columnar executor
  (:class:`~repro.engine.vectorized.VectorizedExecutor`: numpy kernels over
  the zero-copy pages).  Only the gathered result rows cross the pipe back;
* **gather** runs in the parent via :meth:`ShardedPlan.finish` — partial
  aggregates combine, absorbed finishers replay — identically to the
  threaded backend, so ``tests/test_fuzz_differential.py`` pins the whole
  stack bag-equal to ``"vectorized"``;
* **resilience**: a crashed worker breaks the pool; the backend shuts the
  broken pool down, re-executes the query in-process (always correct),
  and restarts the pool lazily on the next query.
  :func:`~repro.data.sharded.reap_stale_segments` runs at every pool
  startup so segments leaked by a previous crashed publisher are removed.

``"single"`` (routed point queries) and ``"fallback"`` plans run in the
parent process — the row counts involved never repay process IPC.

Environment knobs: ``REPRO_PROCESS_WORKERS`` pins the pool width (default:
CPU count, clamped to [1, 16]); ``REPRO_PROCESS_START_METHOD`` overrides
the ``multiprocessing`` start method (default: ``fork`` where available —
workers then inherit the parent's modules without re-import);
``REPRO_KERNELS`` (see :mod:`repro.engine.kernels`) controls the compiled
kernels in both parent and workers.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.sharded import (
    DEFAULT_N_SHARDS,
    PageSegment,
    attach_segment,
    detach_segment,
    reap_stale_segments,
)
from repro.engine.execute import Row
from repro.engine.plan import Plan
from repro.engine.sharded import ShardedBackend
from repro.engine.vectorized import VectorizedExecutor

__all__ = [
    "PROCESS_BACKEND",
    "ProcessBackend",
    "default_process_workers",
]


def default_process_workers() -> int:
    """Pool width: ``REPRO_PROCESS_WORKERS`` or CPU count, clamped [1, 16]."""
    env = os.environ.get("REPRO_PROCESS_WORKERS", "").strip()
    if env:
        try:
            return max(1, min(16, int(env)))
        except ValueError:
            pass
    return max(1, min(16, os.cpu_count() or 1))


def _default_start_method() -> str | None:
    """``fork`` where supported (fast, inherits modules), else the default."""
    env = os.environ.get("REPRO_PROCESS_START_METHOD", "").strip()
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else None


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Attached segments this worker keeps mapped, keyed by segment name.
#: Segment names embed a publisher-side sequence number and are never
#: reused, so a republished (version-bumped) relation arrives under a new
#: name and the stale entry simply ages out of the LRU.
_ATTACH_LIMIT = 64
_attached: "OrderedDict[str, tuple[Relation, Any]]" = OrderedDict()


def _attached_relation(segment: PageSegment) -> Relation:
    cached = _attached.get(segment.name)
    if cached is not None:
        _attached.move_to_end(segment.name)
        return cached[0]
    relation, shm = attach_segment(segment)
    _attached[segment.name] = (relation, shm)
    while len(_attached) > _ATTACH_LIMIT:
        _, (old_relation, old_shm) = _attached.popitem(last=False)
        del old_relation  # release page views before unmapping
        detach_segment(old_shm)
    return relation


def _run_subplans(plan_blob: bytes,
                  manifests: "list[list[PageSegment]]") -> list[list[Row]]:
    """Execute the scatter subplan against each shard manifest in turn.

    One task carries *several* shard manifests: the parent chunks the
    shards over at most ``workers`` tasks, so a query costs
    ``min(n_shards, workers)`` pool round-trips instead of one per shard
    (the dominant overhead when the subplan itself is kernel-fast).

    The executor (and its per-relation caches) is rebuilt per shard; the
    expensive state — the attached column stores — persists in the
    segment cache above, so repeated queries over an unchanged shard skip
    both deserialization and attachment.
    """
    plan: Plan = pickle.loads(plan_blob)
    parts: list[list[Row]] = []
    for manifest in manifests:
        db = Database()
        for segment in manifest:
            db.add_relation(_attached_relation(segment))
        parts.append(VectorizedExecutor(db).batch(plan).rows())
    return parts


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------

class ProcessBackend(ShardedBackend):
    """:class:`ExecutorBackend` running shard subplans in worker processes.

    ``get_backend("process")`` returns a process-wide singleton whose
    worker pool is shared across executions and shut down at interpreter
    exit (:mod:`repro.engine.lifecycle`); construct instances directly to
    pin the shard count, worker count, or start method.  ``close()``
    terminates the pool; the next execution recreates it.
    """

    name = "process"

    def __init__(self, n_shards: int = DEFAULT_N_SHARDS,
                 shard_keys: "dict[str, Any] | None" = None,
                 workers: int | None = None,
                 start_method: str | None = None) -> None:
        super().__init__(n_shards, shard_keys)
        self.workers = workers if workers is not None \
            else default_process_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._start_method = start_method if start_method is not None \
            else _default_start_method()
        self._exec_pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self.counters["pool_recovery"] = 0

    # -- pool lifecycle ----------------------------------------------------

    def pool(self) -> ProcessPoolExecutor:
        pool = self._exec_pool
        if pool is None:
            with self._pool_lock:
                pool = self._exec_pool
                if pool is None:
                    # Audit /dev/shm for segments leaked by dead publishers
                    # before adding our own workers to the mix.
                    reap_stale_segments()
                    context = multiprocessing.get_context(self._start_method) \
                        if self._start_method else multiprocessing.get_context()
                    pool = ProcessPoolExecutor(
                        max_workers=self.workers, mp_context=context)
                    self._exec_pool = pool
            from repro.engine import lifecycle

            lifecycle.register(self)
        return pool

    def close(self) -> None:
        """Shut the worker pool down and unlink published page segments.

        Both are recreated lazily by the next execution.  Covers the
        sharded views this backend built itself for plain databases —
        user-owned :class:`~repro.data.sharded.ShardedDatabase` instances
        are closed by their owner (or their publisher's exit hook).
        """
        with self._pool_lock:
            pool, self._exec_pool = self._exec_pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        with self._lock:
            views = [cached[1] for cached in self._auto.values()]
        for view in views:
            view.close()

    def _discard_pool(self) -> None:
        """Drop a broken pool without waiting on its dead workers."""
        with self._pool_lock:
            pool, self._exec_pool = self._exec_pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- execution ---------------------------------------------------------

    def execute(self, plan: Plan, db: Database) -> list[Row]:
        sharded = self.sharded_view(db)
        compiled = self.plan_for(plan, sharded)
        self._bump({"scatter": "scatter", "single": "single_shard",
                    "fallback": "fallback"}[compiled.mode])
        if compiled.mode != "scatter":
            # Routed point queries and fallbacks: a handful of rows (or a
            # plan that cannot scatter) never repays process IPC.
            return compiled.execute(sharded, None, self.counters)
        assert compiled.scatter is not None
        try:
            plan_blob = pickle.dumps(compiled.scatter,
                                     protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # A plan that cannot cross the process boundary still has exact
            # in-process semantics.
            return compiled.execute(sharded, None, self.counters)
        manifests = self._publish(compiled, sharded)
        # Chunk the shards over at most ``workers`` tasks (round-robin so
        # every chunk stays balanced): the per-task pool round-trip is the
        # dominant overhead once the subplans are kernel-fast, so a
        # 1-worker pool pays one round-trip for the whole scatter, not one
        # per shard.
        n_tasks = max(1, min(self.workers, len(manifests)))
        chunks = [manifests[i::n_tasks] for i in range(n_tasks)]
        try:
            pool = self.pool()
            futures = [pool.submit(_run_subplans, plan_blob, chunk)
                       for chunk in chunks]
            grouped = [future.result() for future in futures]
        except (BrokenProcessPool, OSError, RuntimeError):
            # A worker died (or the pool could not start): recover by
            # discarding the pool and re-executing in-process — same plan,
            # same semantics, no parallelism.  The next query restarts the
            # pool (reaping any segments the dead workers pinned).
            self._discard_pool()
            self._bump("pool_recovery")
            return compiled.execute(sharded, None, self.counters)
        # Undo the round-robin chunking so parts line up with shard order
        # (combine functions are order-insensitive, but a deterministic
        # gather keeps row order reproducible run to run).
        parts: list[list[Row]] = [[] for _ in manifests]
        for i, group in enumerate(grouped):
            for j, part in enumerate(group):
                parts[i + j * n_tasks] = part
        return compiled.finish(sharded, parts, self.counters)

    def _publish(self, compiled: Any, sharded: Any
                 ) -> "list[list[PageSegment]]":
        """Per-shard segment manifests for a scatter plan's relations.

        Publication is version-keyed inside the publisher: unchanged
        relations reuse their live segment, so this is a dictionary probe
        per relation on the steady-state path.  Broadcast relations use a
        shard-independent slot and appear in every manifest.
        """
        publisher = sharded.page_publisher()
        broadcast = [publisher.publish(f"@/{name}",
                                       sharded.broadcast_relation(name))
                     for name in sorted(compiled.broadcast)]
        manifests: list[list[PageSegment]] = []
        for i in range(sharded.n_shards):
            shard = sharded.shard(i)
            manifest = [publisher.publish(f"{i}/{name}", shard.relation(name))
                        for name in sorted(compiled.partitioned)]
            manifest.extend(broadcast)
            manifests.append(manifest)
        return manifests


#: The process-wide backend instance ``get_backend("process")`` serves.
PROCESS_BACKEND = ProcessBackend()
