"""Admission control: bounded concurrency with queue-depth shedding.

A serving tier that queues unboundedly converts overload into unbounded
latency and memory; the production-correct behaviour is to *shed*: admit
up to ``max_concurrent`` requests into the executor, let at most
``max_queue_depth`` more wait, and answer everyone past that with 503 +
``Retry-After`` immediately.  Clients with backoff then spread the load;
clients without it fail fast instead of timing out.

The controller lives entirely on the event loop (asyncio is
single-threaded), so the counters need no lock; the semaphore provides
the actual FIFO wait.  :meth:`AdmissionController.slot` is the whole API:

    async with app.admission.slot():
        ... run the handler ...

raising :class:`~repro.core.service_api.OverloadedError` instead of
entering when the server is saturated.  A request the loop answers
without yielding — a cached read framed in ``data_received`` — never
holds a slot another request could see; when one is free it is counted
with :meth:`AdmissionController.admit_now` instead.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from typing import AsyncIterator

from repro.core.service_api import OverloadedError


class AdmissionController:
    """Semaphore-bounded admission with queue-depth shedding (see module)."""

    def __init__(self, max_concurrent: int = 8, max_queue_depth: int = 32,
                 retry_after: float = 0.5) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        self.max_concurrent = max_concurrent
        self.max_queue_depth = max_queue_depth
        self.retry_after = retry_after
        self._semaphore = asyncio.Semaphore(max_concurrent)
        self.active = 0
        self.waiting = 0
        self.admitted = 0
        self.shed = 0
        self.peak_active = 0
        self.peak_waiting = 0

    @asynccontextmanager
    async def slot(self) -> AsyncIterator[None]:
        """Hold one admission slot; shed with 503 when saturated."""
        if self.active >= self.max_concurrent \
                and self.waiting >= self.max_queue_depth:
            self.shed += 1
            raise OverloadedError(
                f"server saturated: {self.active} active requests and "
                f"{self.waiting} queued (limit {self.max_queue_depth}); "
                "retry later",
                retry_after=self.retry_after,
                detail={"active": self.active, "waiting": self.waiting,
                        "max_concurrent": self.max_concurrent,
                        "max_queue_depth": self.max_queue_depth},
            )
        self.waiting += 1
        self.peak_waiting = max(self.peak_waiting, self.waiting)
        try:
            await self._semaphore.acquire()
        finally:
            self.waiting -= 1
        self.active += 1
        self.admitted += 1
        self.peak_active = max(self.peak_active, self.active)
        try:
            yield
        finally:
            self.active -= 1
            self._semaphore.release()

    def has_free_slot(self) -> bool:
        """Whether a request admitted now would run without waiting."""
        return self.active < self.max_concurrent

    def admit_now(self) -> None:
        """Count one request answered inside a free slot without yielding:
        it holds the slot for no time any other request can observe."""
        self.admitted += 1
        self.peak_active = max(self.peak_active, self.active + 1)

    def snapshot(self) -> dict[str, int]:
        """Flat counters for the metrics endpoint."""
        return {
            "admission_active": self.active,
            "admission_waiting": self.waiting,
            "admission_admitted": self.admitted,
            "admission_shed": self.shed,
            "admission_peak_active": self.peak_active,
            "admission_peak_waiting": self.peak_waiting,
            "admission_max_concurrent": self.max_concurrent,
            "admission_max_queue_depth": self.max_queue_depth,
        }


__all__ = ["AdmissionController"]
