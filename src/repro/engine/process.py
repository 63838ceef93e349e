"""Multi-process scatter-gather over shared-memory column pages
(the ``"process"`` backend).

The sharded backend (:mod:`repro.engine.sharded`) already proves which
plans decompose into independent per-shard subplans plus a gather step —
but it runs its shards one after another on the calling thread, inside one
GIL.  This backend reuses the same driver (it subclasses
:class:`~repro.engine.sharded.ShardedBackend`, inheriting the distribution
analysis, plan cache, mode counting, finisher absorption, and gather-side
combine) and overrides only the step that runs the per-shard subplans,
moving it into **worker processes**:

* **transport**: each shard's relations are published as
  ``multiprocessing.shared_memory`` column pages
  (:meth:`~repro.data.relation.ColumnStore.encode_pages` — a compact
  per-column encoding for int/float/str with exact ``None``/``bool``/mixed
  round-trip; string and low-cardinality mixed columns ship as a sorted
  value dictionary plus an int32/int64 code array, so the transport moves
  codes, not strings, and the workers' kernels compute on the codes
  directly) through the database's
  :class:`~repro.data.sharded.SharedPagePublisher`.  A publication is a
  chain of immutable row-range *runs*: an unchanged shard publishes
  nothing, and a write publishes the rows it appended (merged with the
  trailing runs no longer than them — at most log2 *n* runs, no constant
  to tune), so steady-state reads ship only the template's scatter subplan
  (pickled once per compilation, :attr:`ShardedPlan.blob`), the request's
  ``params`` and, per shard relation, the newest run of its chain.
  Broadcast relations are published once per version and attached by
  every worker;
* **workers** keep one resident relation per *lineage* — a (slot,
  relation object) pair, however many versions it goes through.  Given a
  manifest a worker attaches read-only and decodes only the runs beyond
  the rows it already has, and appends them through
  :meth:`~repro.data.relation.Relation.add_rows`: the column store (zero-
  copy page views for the first run's int/float columns), key indexes and
  kernel encodings are extended, not rebuilt, and a superseded version is
  never retained.  A task sees exactly the rows its manifest names — a
  manifest older than the resident copy is served from a throw-away
  rebuild of the runs it names.  A worker compiles a template's scatter
  subplan once, to its columnar program
  (:func:`~repro.engine.vectorized.compile_batches`: numpy kernels over
  the resident columns), kept under the pickled bytes every task of the
  template carries; the program runs with each task's ``params`` on every
  manifest the task carries.  Only the gathered result rows cross the pipe
  back;
* **gather** runs in the parent via :meth:`ShardedPlan.finish` — partial
  aggregates combine, absorbed finishers replay — identically to the
  ``"sharded"`` backend, so ``tests/test_fuzz_differential.py`` pins the
  whole stack bag-equal to ``"vectorized"``;
* **resilience**: a crashed worker breaks the pool; the backend shuts the
  broken pool down, re-executes the query in-process (always correct),
  and restarts the pool lazily on the next query (``pool_recovery``).  A
  worker that finds a named run already unlinked — its manifest raced a
  write — fails that one task with :class:`StaleManifest`; the query is
  answered in-process and the healthy pool is kept (``stale_manifest``).
  :func:`~repro.data.sharded.reap_stale_segments` runs at every pool
  startup so segments leaked by a previous crashed publisher are removed.

Routed calls (point queries) and ``"fallback"`` plans run in the parent
process — the row counts involved never repay process IPC.

Environment knobs: ``REPRO_PROCESS_WORKERS`` pins the pool width (default:
CPU count, clamped to [1, 16]); ``REPRO_KERNELS`` (see :mod:`repro.engine.kernels`) controls the compiled
kernels in both parent and workers.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.sharded import (
    PageSegment,
    SharedPagePublisher,
    ShardedDatabase,
    attach_chain,
    detach_segment,
    extend_attached,
    reap_stale_segments,
)
from repro.engine.cache import LRUCache
from repro.engine.execute import Row
from repro.engine.kernels import path_counts
from repro.engine.sharded import ShardedBackend, ShardedPlan
from repro.engine.vectorized import compile_batches

__all__ = [
    "ProcessBackend",
    "StaleManifest",
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


#: ``fork`` where supported (fast, inherits modules), else the default.
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() \
    else None


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class StaleManifest(Exception):
    """A task's manifest names a run that is no longer linked.

    The publisher absorbed or replaced it after the manifest was built (a
    reader that raced a write).  Nothing is wrong with the worker or the
    pool: the parent answers that one query in-process.
    """


#: Relations this worker keeps resident, keyed by lineage — one copy per
#: (slot, relation object) however many versions it has gone through: a
#: newer manifest extends the copy in place, so a superseded version is
#: never retained.  A lineage whose relation object was replaced (reshard,
#: ``add_relation``, a rebuilt broadcast alias) simply ages out of the LRU.
_ATTACH_LIMIT = 64
_attached: "OrderedDict[str, tuple[Relation, Any]]" = OrderedDict()


def _attached_relation(segment: PageSegment) -> "tuple[Relation, int]":
    """The relation holding exactly the rows ``segment``'s chain names.

    Normally the lineage's resident copy, after decoding only the runs (or
    the suffix of a merged run) beyond the rows it already has.  A chain
    naming *fewer* rows than the resident copy — its reader raced a write
    another task has since brought here — is served from a throw-away
    rebuild of the named runs (unmapped with its last page view), never
    from the longer relation.  Also returns the rows decoded on the way.
    """
    cached = _attached.get(segment.lineage)
    try:
        if cached is not None and len(cached[0]) > segment.stop:
            relation, _mapping, decoded = attach_chain(segment)
            return relation, decoded
        if cached is None:
            relation, mapping, decoded = attach_chain(segment)
            cached = relation, mapping
        else:
            # (Half-extended by a failure, the copy still holds a prefix.)
            decoded = extend_attached(cached[0], segment)
    except FileNotFoundError as exc:
        raise StaleManifest(str(exc)) from None
    _attached[segment.lineage] = cached
    _attached.move_to_end(segment.lineage)
    while len(_attached) > _ATTACH_LIMIT:
        _, (old_relation, old_mapping) = _attached.popitem(last=False)
        del old_relation  # release page views before unmapping
        detach_segment(old_mapping)
    return cached[0], decoded


#: The scatter programs this worker compiled, keyed by the pickled subplan:
#: a template's blob is the same bytes on every task, so a worker compiles
#: each template once, and a task leaves no compiled plan behind as garbage.
_programs = LRUCache(64)


def _run_subplans(plan_blob: bytes, params: Sequence[Any],
                  manifests: "list[list[PageSegment]]"
                  ) -> "tuple[list[list[Row]], int, dict[str, int], int, int]":
    """Execute the scatter subplan against each shard manifest in turn.

    One task carries *several* shard manifests: the parent chunks the
    shards over at most ``workers`` tasks, so a query costs
    ``min(n_shards, workers)`` pool round-trips instead of one per shard
    (the dominant overhead when the subplan itself is kernel-fast).

    The subplan's program (compiled on the template's first task here,
    then kept in ``_programs``) runs on each shard with the request's
    ``params``; the expensive
    state — the resident relations with their column stores,
    encodings and indexes — persists above, so a query over an unchanged
    shard attaches nothing and one after a write decodes the write.

    Returns ``(parts, rows decoded, path counts, pid, resident lineages)``
    — the path counts being what this task added to the worker's
    :func:`~repro.engine.kernels.path_counts` (a worker runs one task at a
    time); the parent folds the counts into ``execution_counts()``.
    """
    before = path_counts()
    program = _programs.get(plan_blob)
    if program is None:
        program = compile_batches(pickle.loads(plan_blob))
        _programs.put(plan_blob, program)
    parts: list[list[Row]] = []
    rows_decoded = 0
    for manifest in manifests:
        db = Database()
        for segment in manifest:
            relation, decoded = _attached_relation(segment)
            rows_decoded += decoded
            db.add_relation(relation)
        parts.append(program(db, params).rows())
    paths = {key: n - before[key] for key, n in path_counts().items()
             if n != before[key]}
    return parts, rows_decoded, paths, os.getpid(), len(_attached)


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------

class ProcessBackend(ShardedBackend):
    """:class:`ExecutorBackend` running shard subplans in worker processes.

    The worker pool (``workers`` wide, :func:`default_process_workers` by
    default) is shared across the backend's executions and shut down at
    interpreter exit (:mod:`repro.engine.lifecycle`).  ``close()``
    terminates the pool; the next execution recreates it.
    """

    name = "process"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__()
        self.workers = workers if workers is not None \
            else default_process_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._exec_pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self.counters.update(
            pool_recovery=0, stale_manifest=0, publish_full=0, publish_tail=0,
            rows_encoded=0, runs_absorbed=0, rows_decoded=0,
            **{f"worker_{key}": 0 for key in path_counts()})
        #: Publishers this backend published through (their live runs are
        #: the ``page_*_live`` gauges) and, per worker pid, the lineages it
        #: last reported resident.
        self._publishers: "weakref.WeakSet[SharedPagePublisher]" \
            = weakref.WeakSet()
        self._resident: dict[int, int] = {}

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
                    pool = ProcessPoolExecutor(
                        max_workers=self.workers,
                        mp_context=multiprocessing.get_context(_START_METHOD))
                    self._exec_pool = pool
            from repro.engine import lifecycle

            lifecycle.register(self)
        return pool

    def close(self) -> None:
        """Shut the worker pool down; the next execution recreates it.

        The page segments belong to the
        :class:`~repro.data.sharded.ShardedDatabase` that published them,
        and are unlinked by its owner (or its publisher's exit hook).
        """
        with self._pool_lock:
            pool, self._exec_pool = self._exec_pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        with self._lock:
            self._resident.clear()

    def _discard_pool(self) -> None:
        """Drop a broken pool without waiting on its dead workers."""
        with self._pool_lock:
            pool, self._exec_pool = self._exec_pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        with self._lock:
            self._resident.clear()

    def execution_counts(self) -> dict[str, int]:
        """The sharded counts plus what publishing and attaching cost.

        Counted reasons a scatter left the pool: ``pool_recovery`` (a
        broken pool, discarded) and ``stale_manifest`` (one task's manifest
        superseded; pool kept).  Counted work: ``publish_full`` /
        ``publish_tail`` runs cut from row 0 / from later, ``rows_encoded``
        into them, ``runs_absorbed`` by the merge, and ``rows_decoded`` by
        the workers (piggy-backed on their results, like ``worker_*``: the
        kernel path counts — ``worker_build_lowered``,
        ``worker_build_extended``, ``worker_probe_kernel``, … — of the
        workers' scatter tasks).  Gauges:
        ``page_runs_live`` / ``page_bytes_live`` over the publishers this
        backend used, ``resident_lineages`` summed over its workers.
        """
        counts = super().execution_counts()
        live = [segment for publisher in list(self._publishers)
                for segment in publisher.live_runs()]
        counts["page_runs_live"] = len(live)
        counts["page_bytes_live"] = sum(segment.nbytes for segment in live)
        with self._lock:
            counts["resident_lineages"] = sum(self._resident.values())
        return counts

    # -- execution ---------------------------------------------------------

    def _run_parts(self, compiled: ShardedPlan, sharded: ShardedDatabase,
                   params: Sequence[Any], shard: int | None,
                   sink: dict[str, int]) -> list[list[Row]]:
        """Run a scatter's per-shard subplans in the worker pool.

        Everything else — and every way out of the pool — runs the parts
        inline, exactly as the base class does.
        """
        if compiled.mode == "fallback" or shard is not None:
            # Routed point queries and fallbacks: a handful of rows (or a
            # plan that cannot scatter) never repays process IPC.
            return super()._run_parts(compiled, sharded, params, shard, sink)
        manifests = self._publish(compiled, sharded, sink)
        # Chunk the shards over at most ``workers`` tasks (round-robin so
        # every chunk stays balanced): the per-task pool round-trip is the
        # dominant overhead once the subplans are kernel-fast, so a
        # 1-worker pool pays one round-trip for the whole scatter, not one
        # per shard.
        n_tasks = max(1, min(self.workers, len(manifests)))
        chunks = [manifests[i::n_tasks] for i in range(n_tasks)]
        # Either way out of the pool re-executes in-process — same plan,
        # same semantics, no workers — under its own counted reason.
        try:
            pool = self.pool()
            futures = [pool.submit(_run_subplans, compiled.blob,
                                   tuple(params), chunk)
                       for chunk in chunks]
        except (BrokenProcessPool, OSError, RuntimeError):
            # Could not submit.
            return self._recover(compiled, sharded, params, sink)
        try:
            results = [future.result() for future in futures]
        except BrokenProcessPool:  # a worker died
            return self._recover(compiled, sharded, params, sink)
        except StaleManifest:
            # A write republished between building a manifest and a worker
            # attaching it.  The pool is healthy: keep it.
            _count(sink, "stale_manifest")
            return super()._run_parts(compiled, sharded, params, None, sink)
        # Undo the round-robin chunking so parts line up with shard order
        # (combine functions are order-insensitive, but a deterministic
        # gather keeps row order reproducible run to run).
        parts: list[list[Row]] = [[] for _ in manifests]
        for i, (group, decoded, paths, pid, lineages) in enumerate(results):
            for j, part in enumerate(group):
                parts[i + j * n_tasks] = part
            _count(sink, "rows_decoded", decoded)
            for key, n in paths.items():
                _count(sink, f"worker_{key}", n)
            with self._lock:
                self._resident[pid] = lineages
        return parts

    def _recover(self, compiled: ShardedPlan, sharded: ShardedDatabase,
                 params: Sequence[Any],
                 sink: dict[str, int]) -> list[list[Row]]:
        """Discard a broken pool and run the parts in-process.

        The next query restarts the pool (reaping any segments the dead
        workers pinned).
        """
        self._discard_pool()
        _count(sink, "pool_recovery")
        return super()._run_parts(compiled, sharded, params, None, sink)

    def _publish(self, compiled: ShardedPlan, sharded: ShardedDatabase,
                 sink: dict[str, int]) -> "list[list[PageSegment]]":
        """Per-shard segment manifests for a scatter plan's relations.

        Publication is version-keyed inside the publisher: an unchanged
        relation reuses its chain (a dictionary probe on the steady-state
        path), a grown one gets a tail run.  Each entry is the newest run
        of its chain.  Broadcast relations use a shard-independent slot and
        appear in every manifest; their alias is a new relation object per
        write, so they still republish in full.
        """
        publisher = sharded.page_publisher()
        self._publishers.add(publisher)
        broadcast = [publisher.publish(f"@/{name}",
                                       sharded.broadcast_relation(name),
                                       sink)
                     for name in sorted(compiled.broadcast)]
        manifests: list[list[PageSegment]] = []
        for i in range(sharded.n_shards):
            shard = sharded.shard(i)
            manifest = [publisher.publish(f"{i}/{name}", shard.relation(name),
                                          sink)
                        for name in sorted(compiled.partitioned)]
            manifest.extend(broadcast)
            manifests.append(manifest)
        return manifests


def _count(sink: dict[str, int], key: str, n: int = 1) -> None:
    sink[key] = sink.get(key, 0) + n
