"""The background write worker: many clients, one version bump per flush.

``Relation.add_rows`` publishes a *single* version bump per batch (PR 4's
write path), but that amortization only helps a caller who already holds a
batch.  Concurrent HTTP clients each send one small write; applied
per-request they would bump the version once per row, invalidating the
result caches and view anchors once per row.  This worker funnels every
``POST /write`` through one queue; a flush takes everything queued, groups
it by relation and applies one
:meth:`~repro.core.service_api.ServiceAPI.add_rows` call per relation — so
N concurrent writers share one version bump per relation per flush, and
downstream caches see batch-granularity invalidation under any client mix.

The batching window is a response to pressure, not a cost every write
pays.  A flush waits ``flush_interval`` for companions only when the
previous flush carried more than one client's writes: a lone writer (a
closed-loop client never has a second write queued) is flushed at once,
and a burst after idle flushes its first write alone, then batches the
rest — writes that queue while a flush is in flight share the next one,
and from there each flush waits the window until one comes back alone.

Failure isolation: a flush applies rows from many clients, and one
malformed row must not fail its batch-mates.  On a batched-call error the
worker falls back to applying each client's rows individually, so good
writes land and each bad write gets its own structured error.

The worker runs on the event loop; the blocking ``add_rows`` calls run in
the executor (never on the loop).  ``counts()`` exposes the
requests-vs-flushes ratio the E9 benchmark gates (≥5x fewer version bumps
than per-request writes under concurrent load).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.core.service_api import ServiceAPI, ServiceError, wrap_service_error


@dataclass
class _PendingWrite:
    relation: str
    rows: list[list[Any]]
    future: "asyncio.Future[int]" = field(repr=False, default=None)  # type: ignore[assignment]


class WriteWorker:
    """Batch concurrent writes into shared flushes (see module docs).

    ``flush_interval`` is the batching window in seconds: after the first
    write of a flush arrives, the worker waits this long for companions
    before applying — only while under pressure, i.e. when the previous
    flush carried more than one client's writes (``write_windows`` counts
    the waits).  ``0`` disables the wait (drain-only batching: writes
    already queued still share a flush).  ``max_batch`` bounds one flush.
    """

    def __init__(self, service: ServiceAPI, *, flush_interval: float = 0.002,
                 max_batch: int = 4096) -> None:
        self.service = service
        self.flush_interval = flush_interval
        self.max_batch = max_batch
        self._queue: "asyncio.Queue[_PendingWrite | None]" = asyncio.Queue()
        self._task: "asyncio.Task[None] | None" = None
        self.write_requests = 0
        self.rows_written = 0
        self.batched_calls = 0    # add_rows invocations == version bumps
        self.flushes = 0
        self.windows = 0          # flushes that waited the batching window
        self.write_errors = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the flush loop on the running event loop (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def close(self) -> None:
        """Flush everything queued, then stop the loop task."""
        if self._task is None:
            return
        await self._queue.put(None)  # shutdown sentinel, after queued writes
        await self._task
        self._task = None

    # -- submission ---------------------------------------------------------

    async def submit(self, relation: str, rows: list[list[Any]]) -> int:
        """Enqueue one client's rows; resolves to the post-flush version.

        Raises the structured :class:`ServiceError` for this client's rows
        if they fail to apply (batch-mates are unaffected).
        """
        loop = asyncio.get_running_loop()
        pending = _PendingWrite(relation, rows, loop.create_future())
        self.write_requests += 1
        await self._queue.put(pending)
        return await pending.future

    # -- the flush loop -----------------------------------------------------

    async def _run(self) -> None:
        shutting_down = False
        pressure = False  # the previous flush carried several clients' writes
        while not shutting_down:
            head = await self._queue.get()
            if head is None:
                break
            batch = [head]
            if pressure and self.flush_interval > 0:
                # The batching window: let concurrent writers catch up.
                self.windows += 1
                await asyncio.sleep(self.flush_interval)
            while len(batch) < self.max_batch:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is None:
                    shutting_down = True
                    break
                batch.append(item)
            pressure = len(batch) > 1
            await self._flush(batch)

    async def _flush(self, batch: list[_PendingWrite]) -> None:
        loop = asyncio.get_running_loop()
        grouped: dict[str, list[_PendingWrite]] = {}
        for item in batch:
            grouped.setdefault(item.relation, []).append(item)
        self.flushes += 1
        for relation, items in grouped.items():
            rows = [row for item in items for row in item.rows]
            try:
                self.batched_calls += 1
                version = await loop.run_in_executor(
                    None, partial(self.service.add_rows, relation, rows))
            except Exception:
                # One client's bad row poisoned the shared batch: re-apply
                # per client so the good writes land and only the bad
                # client sees its (structured) error.
                await self._flush_individually(loop, items)
            else:
                self.rows_written += len(rows)
                for item in items:
                    if not item.future.done():
                        item.future.set_result(version)

    async def _flush_individually(self, loop: asyncio.AbstractEventLoop,
                                  items: list[_PendingWrite]) -> None:
        for item in items:
            try:
                self.batched_calls += 1
                version = await loop.run_in_executor(
                    None,
                    partial(self.service.add_rows, item.relation, item.rows))
            except Exception as exc:
                self.write_errors += 1
                error: ServiceError = wrap_service_error(exc)
                if not item.future.done():
                    item.future.set_exception(error)
            else:
                self.rows_written += len(item.rows)
                if not item.future.done():
                    item.future.set_result(version)

    # -- introspection ------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Flat counters for metrics and the E9 batching gate."""
        return {
            "write_requests": self.write_requests,
            "write_rows": self.rows_written,
            "write_flushes": self.flushes,
            "write_windows": self.windows,
            "write_batched_calls": self.batched_calls,
            "write_errors": self.write_errors,
        }


__all__ = ["WriteWorker"]
