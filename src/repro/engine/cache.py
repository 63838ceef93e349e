"""The one bounded cache class, and the engine's process-wide path counters.

Every cache that outlives a request is an :class:`LRUCache`: the
pipeline's plan cache, the service's result cache, the HTTP tier's
prepared handles, each database's compiled scatter plans, and the kernel
layer's derived-structure cache.  The result cache and the kernel cache
are byte-budgeted as well as entry-capped.

The path counters (:func:`count_path`, :func:`path_counts`) record which
side of each run-time choice the executors and their kernels took.  They
live here, below both :mod:`repro.engine.execute` and
:mod:`repro.engine.kernels`, because both count.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``capacity`` caps the entries (0 stores nothing); ``max_bytes``, when
    given, caps the sum of the ``nbytes`` each :meth:`put` declares.  Both
    bounds evict from the least recent end.  An entry larger than the whole
    byte budget is refused on its own: it is returned and counted as
    evicted, and the entries already held stay.

    Thread-safe: every operation holds one internal lock.  ``get`` tells a
    miss from a cached falsy value by the ``default`` argument (pass a
    private sentinel), and counts ``hits`` / ``misses``; ``evictions``
    counts the entries the bounds pushed out.
    """

    def __init__(self, capacity: int, max_bytes: int | None = None) -> None:
        self.capacity = capacity
        self.max_bytes = max_bytes
        #: key -> (value, nbytes), least recent first.
        self._data: OrderedDict[Any, tuple[Any, int]] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return entry[0]

    def peek(self, key: Any, default: Any = None) -> Any:
        """:meth:`get` for a caller that must not wait (the event loop):
        the lock is only *tried*, and while another thread holds it the
        lookup reads as a miss.  Nothing is counted."""
        if self._lock.acquire(blocking=False):
            try:
                entry = self._data.get(key)
                if entry is not None:
                    self._data.move_to_end(key)
                    return entry[0]
            finally:
                self._lock.release()
        return default

    def put(self, key: Any, value: Any,
            nbytes: int = 0) -> list[tuple[Any, Any]]:
        """Store ``value`` as the most recent entry; returns the
        ``(key, value)`` pairs the bounds evicted to make room."""
        if self.capacity <= 0:
            return []
        evicted: list[tuple[Any, Any]] = []
        with self._lock:
            old = self._data.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            if self.max_bytes is not None and nbytes > self.max_bytes:
                self.evictions += 1
                return [(key, value)]
            self._data[key] = (value, nbytes)
            self._bytes += nbytes
            while self._data and (
                    len(self._data) > self.capacity
                    or (self.max_bytes is not None
                        and self._bytes > self.max_bytes)):
                gone, (gone_value, cost) = self._data.popitem(last=False)
                self._bytes -= cost
                self.evictions += 1
                evicted.append((gone, gone_value))
        return evicted

    def pop_where(self, match: Callable[[Any, Any], bool]
                  ) -> list[tuple[Any, Any, int]]:
        """Remove every entry ``match(key, value)`` accepts; returns them
        as ``(key, value, nbytes)`` so a caller can file some anew."""
        with self._lock:
            popped = [(key, value, cost)
                      for key, (value, cost) in self._data.items()
                      if match(key, value)]
            for key, _value, cost in popped:
                del self._data[key]
                self._bytes -= cost
        return popped

    def stats(self) -> dict[str, int]:
        """Occupancy and counters, read together under the lock."""
        with self._lock:
            return {"entries": len(self._data), "bytes": self._bytes,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._bytes = 0


#: Counted reasons (process-wide, :func:`path_counts`): which side of each
#: run-time choice the executors and the kernels took.
_PATH_TOTALS = dict.fromkeys(
    ("probe_kernel", "probe_loop", "build_lowered", "build_extended",
     "build_relowered", "build_dict", "sel_converted", "sort_radix",
     "sort_compare", "group_direct", "group_sorted", "distinct_positions",
     "scan_lookup", "plan_rows", "plan_columnar", "plan_compile"),
    0)
_PATH_LOCK = threading.Lock()


def count_path(key: str) -> None:
    """Count one ``probe_kernel`` or ``probe_loop`` (a hash-join probe took
    the numpy kernel, or declined to the row executor's probe) /
    ``build_*`` / ``sel_converted`` / ``sort_*`` / ``group_*`` /
    ``distinct_positions`` (the kernels' internal choices:
    :mod:`repro.engine.kernels`) / ``scan_lookup`` (an equality filter read
    one ``key_index`` bucket: :func:`repro.engine.execute.scan_lookup`) /
    ``plan_rows`` or ``plan_columnar`` (which executor the ``"vectorized"``
    backend ran a plan on: :func:`repro.engine.vectorized.rows_at_stake`) /
    ``plan_compile`` (a plan compiled to a program of either target, once
    per plan, compiler and ``given``: :func:`repro.engine.execute.compile_rows`,
    :func:`repro.engine.vectorized.compile_batches`; a fixpoint's rule
    program counts too)."""
    with _PATH_LOCK:
        _PATH_TOTALS[key] += 1


def path_counts() -> dict[str, int]:
    """The process-wide path counters (``exec_*`` on ``/metrics``)."""
    with _PATH_LOCK:
        return dict(_PATH_TOTALS)


def sink_bump(sink: "dict[str, int] | None", key: str) -> None:
    """Count ``key`` in a caller's own ``sink``, if it keeps one."""
    if sink is not None:
        sink[key] = sink.get(key, 0) + 1
