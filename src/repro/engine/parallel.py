"""Partitioned parallel plan execution (the ``"parallel"`` backend).

This backend runs the same columnar operators as
:mod:`repro.engine.vectorized` — it *is* a :class:`VectorizedExecutor` — but
splits the two heaviest Python inner loops across a worker pool (where the
executor's numpy kernels take a probe or a group-by, there is no Python loop
left to split, and the kernel's answer stands):

* **hash-join probes**: the build side still becomes one shared, read-only
  hash table (reusing the storage layer's cached
  :meth:`~repro.data.relation.Relation.key_index` when it is a base-table
  scan); the *probe side* is partitioned into contiguous spans, one per
  worker.  Each span probes independently and emits its own selection-vector
  pair; concatenating the pairs in span order reproduces the sequential
  probe's output order exactly, so the backend stays not just bag-equal but
  row-order-identical to ``"vectorized"`` (LIMIT without ORDER BY agrees).
* **group-by**: the aggregation input is *hash-partitioned* on the group
  key (the same discipline as :meth:`Relation.partition_by`), so no group
  ever straddles two workers.  Each worker groups its partition into
  ``(first_occurrence_index, member_indices)`` pairs; the merge concatenates
  the partial results and sorts by first-occurrence index, restoring the
  sequential backend's group order.

Both loops fall back to the sequential code below
:data:`DEFAULT_MIN_PARTITION_ROWS` rows — partitioning a small input costs
more in task overhead than it saves.  Workers are plain threads sharing the
process (CPython threads interleave row work under the GIL; the partitioned
structure is what a free-threaded build or a process pool would scale with,
and ``benchmarks/bench_e3_parallel.py`` records the measured throughput
honestly either way).

The backend registers as the third :class:`repro.engine.execute.ExecutorBackend`
(``backend="parallel"``) and is pinned bag-equal to ``"vectorized"`` over the
whole canonical catalog by ``tests/test_parallel.py``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.data.database import Database
from repro.engine.execute import Row
from repro.engine.plan import Plan
from repro.engine.vectorized import Batch, VectorizedExecutor, _key_columns

#: Inputs smaller than this run the sequential vectorized loops: the
#: per-task submit/result overhead would dominate the row work saved.
DEFAULT_MIN_PARTITION_ROWS = 1024


def default_workers() -> int:
    """Worker-pool width: the machine's cores, clamped to [2, 8].

    At least 2 so the partitioned code paths actually run (they are the
    correctness surface under test) even on single-core containers.
    """
    return max(2, min(8, os.cpu_count() or 1))


def _spans(length: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(length)`` into at most ``parts`` contiguous spans."""
    parts = max(1, min(parts, length))
    step = -(-length // parts)  # ceil
    return [(lo, min(lo + step, length)) for lo in range(0, length, step)]


def _probe_span(key_columns: list[list[Any]], lo: int, hi: int,
                table: dict[Any, list[int]], single: bool,
                check_nulls: bool) -> tuple[list[int], list[int]]:
    """One worker's share of the probe: rows ``[lo, hi)`` of the probe side.

    Mirrors :func:`repro.engine.vectorized._probe` over a span, emitting
    span-local output in ascending probe order so span-order concatenation
    equals the sequential probe.
    """
    left_sel: list[int] = []
    right_sel: list[int] = []
    lappend = left_sel.append
    lextend = left_sel.extend
    rappend = right_sel.append
    rextend = right_sel.extend
    get = table.get
    if single:
        keys = key_columns[0]
        for i in range(lo, hi):
            key = keys[i]
            if check_nulls and key is None:
                continue
            matches = get(key)
            if matches:
                if len(matches) == 1:
                    lappend(i)
                    rappend(matches[0])
                else:
                    lextend([i] * len(matches))
                    rextend(matches)
        return left_sel, right_sel
    for i in range(lo, hi):
        key = tuple(column[i] for column in key_columns)
        if check_nulls and None in key:
            continue
        matches = get(key)
        if matches:
            if len(matches) == 1:
                lappend(i)
                rappend(matches[0])
            else:
                lextend([i] * len(matches))
                rextend(matches)
    return left_sel, right_sel


def _group_partition(key_arrays: list[list[Any]],
                     indices: list[int]) -> list[tuple[int, list[int]]]:
    """Group one hash partition's row indices by key.

    Returns ``(first_occurrence_index, member_indices)`` pairs; members keep
    ascending row order because ``indices`` is ascending.  Keys are raw
    values for single-key grouping — value hashing means a partition owns
    *all* rows of each of its keys, so the pairs are complete groups.
    """
    groups: dict[Any, list[int]] = {}
    out: list[tuple[int, list[int]]] = []
    if len(key_arrays) == 1:
        array = key_arrays[0]
        for i in indices:
            key = array[i]
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
                out.append((i, bucket))
            bucket.append(i)
        return out
    for i in indices:
        key = tuple(array[i] for array in key_arrays)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = bucket = []
            out.append((i, bucket))
        bucket.append(i)
    return out


class ParallelExecutor(VectorizedExecutor):
    """A vectorized executor whose probe and group loops run partitioned."""

    def __init__(self, db: Database, pool: ThreadPoolExecutor, workers: int,
                 min_partition_rows: int) -> None:
        super().__init__(db)
        self._pool = pool
        self._workers = workers
        self._min_rows = min_partition_rows

    # -- hash-join probe ---------------------------------------------------

    def _probe_rows(self, batch: Batch, idx: list[int],
                    table: dict[Any, list[int]],
                    null_matches: bool) -> tuple[list[int], list[int]]:
        if batch.length < self._min_rows or self._workers < 2 or not idx:
            return super()._probe_rows(batch, idx, table, null_matches)
        key_columns = _key_columns(batch, idx)
        single = len(idx) == 1
        check_nulls = (not null_matches) and any(
            None in column for column in key_columns)
        futures = [
            self._pool.submit(_probe_span, key_columns, lo, hi, table,
                              single, check_nulls)
            for lo, hi in _spans(batch.length, self._workers)
        ]
        left_sel: list[int] = []
        right_sel: list[int] = []
        for future in futures:
            span_left, span_right = future.result()
            left_sel.extend(span_left)
            right_sel.extend(span_right)
        return left_sel, right_sel

    # -- group-by ----------------------------------------------------------

    def _group_members(self, key_arrays: list[list[Any]], n: int
                       ) -> tuple[list[int], list[list[int]]]:
        if not key_arrays or n < self._min_rows or self._workers < 2:
            return super()._group_members(key_arrays, n)
        parts: list[list[int]] = [[] for _ in range(self._workers)]
        workers = self._workers
        if len(key_arrays) == 1:
            array = key_arrays[0]
            for i in range(n):
                parts[hash(array[i]) % workers].append(i)
        else:
            for i, key in enumerate(zip(*key_arrays)):
                parts[hash(key) % workers].append(i)
        futures = [self._pool.submit(_group_partition, key_arrays, indices)
                   for indices in parts if indices]
        merged: list[tuple[int, list[int]]] = []
        for future in futures:
            merged.extend(future.result())
        # Partitions own disjoint key sets, so this sort by first-occurrence
        # index is the whole merge: it restores the sequential group order.
        merged.sort(key=lambda pair: pair[0])
        return [rep for rep, _ in merged], [members for _, members in merged]


class ParallelBackend:
    """:class:`ExecutorBackend` running plans with partitioned parallelism.

    One backend owns one lazily created worker pool, shared across all its
    ``execute`` calls (and across the serving layer's concurrent requests —
    ``submit`` is thread-safe).  ``get_backend("parallel")`` returns a
    process-wide singleton so warm serving paths never pay pool start-up;
    construct instances directly to pin ``workers`` or the partition
    threshold (tests use ``min_partition_rows=1`` to force the partitioned
    paths on tiny catalogs).
    """

    name = "parallel"

    def __init__(self, workers: int | None = None,
                 min_partition_rows: int = DEFAULT_MIN_PARTITION_ROWS) -> None:
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.min_partition_rows = min_partition_rows
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def pool(self) -> ThreadPoolExecutor:
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="repro-parallel")
                    self._pool = pool
            # Outside the lock: lifecycle.close_all may call close(), which
            # takes the same lock from the atexit thread.
            from repro.engine import lifecycle

            lifecycle.register(self)
        return pool

    def close(self) -> None:
        """Shut the worker pool down (a later ``pool()`` call recreates it).

        Idempotent.  Registered with :mod:`repro.engine.lifecycle` on first
        pool creation, so interpreter exit always joins the worker threads.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def execute(self, plan: Plan, db: Database) -> list[Row]:
        executor = ParallelExecutor(db, self.pool(), self.workers,
                                    self.min_partition_rows)
        return executor.batch(plan).rows()


#: The process-wide backend instance ``get_backend("parallel")`` serves.
PARALLEL_BACKEND = ParallelBackend()
