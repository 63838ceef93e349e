"""The one cache class: entry and byte bounds, falsy values, the never-wait
peek, counted and returned evictions, capacity 0."""

from __future__ import annotations

import sys
import threading

from repro.engine.cache import LRUCache

MISS = object()


def test_entry_bound_evicts_the_least_recent():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a", MISS) == 1       # "a" is now the most recent
    assert cache.put("c", 3) == [("b", 2)]
    assert cache.get("b", MISS) is MISS
    assert (cache.get("a", MISS), cache.get("c", MISS)) == (1, 3)


def test_byte_bound_evicts_until_the_total_fits():
    cache = LRUCache(10, max_bytes=100)
    cache.put("a", "A", 40)
    cache.put("b", "B", 40)
    assert cache.put("c", "C", 50) == [("a", "A")]
    assert cache.stats()["bytes"] == 90
    cache.put("b", "B2", 10)               # a replacement re-costs the entry
    assert cache.stats()["bytes"] == 60
    # An entry over the whole budget is refused alone: it does not stay,
    # and it flushes nothing to make room it could never have.
    assert cache.put("huge", "H", 101) == [("huge", "H")]
    assert cache.get("huge", MISS) is MISS
    assert (cache.get("b", MISS), cache.get("c", MISS)) == ("B2", "C")
    assert cache.stats()["bytes"] == 60
    assert cache.evictions == 2


def test_none_and_falsy_values_are_hits():
    """Regression: ``None`` as the miss marker re-missed legitimately
    falsy entries forever and miscounted hits; the caller's sentinel
    tells them apart."""
    cache = LRUCache(4)
    cache.put("none", None)
    cache.put("empty", ())
    cache.put("zero", 0)
    assert cache.get("none", MISS) is None
    assert cache.get("empty", MISS) == ()
    assert cache.get("zero", MISS) == 0
    assert cache.get("absent", MISS) is MISS
    assert len(cache) == 3
    assert (cache.hits, cache.misses) == (3, 1)


def test_none_values_count_as_recency():
    cache = LRUCache(2)
    cache.put("a", None)
    cache.put("b", 1)
    assert cache.get("a", MISS) is None    # refreshes recency despite None
    cache.put("c", 2)                      # evicts "b", not "a"
    assert cache.get("a", MISS) is None
    assert cache.get("b", MISS) is MISS


def test_peek_declines_while_the_lock_is_held():
    cache = LRUCache(2)
    cache.put("a", 1)
    holding, release = threading.Event(), threading.Event()

    def hold():
        with cache._lock:
            holding.set()
            release.wait(timeout=30)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert holding.wait(timeout=30)
        assert cache.peek("a", MISS) is MISS
    finally:
        release.set()
        holder.join(timeout=30)
    assert cache.peek("a", MISS) == 1
    assert (cache.hits, cache.misses) == (0, 0)  # peeks are not counted


def test_peek_refreshes_recency():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.peek("a") == 1
    cache.put("c", 3)
    assert cache.peek("b", MISS) is MISS and cache.peek("a") == 1


def test_evictions_are_counted_and_returned():
    cache = LRUCache(1)
    assert cache.put("a", 1) == []
    assert cache.put("b", 2) == [("a", 1)]
    assert cache.put("c", 3) == [("b", 2)]
    assert cache.evictions == cache.stats()["evictions"] == 2
    cache.clear()
    assert len(cache) == 0 and cache.evictions == 2  # clearing is not evicting


def test_capacity_zero_stores_nothing():
    cache = LRUCache(0)
    assert cache.put("a", 1, 8) == []
    assert cache.get("a", MISS) is MISS
    assert cache.stats() == {"entries": 0, "bytes": 0, "hits": 0,
                             "misses": 1, "evictions": 0}


def test_concurrent_puts_keep_the_bounds_and_the_byte_total():
    """Threads racing put/get/pop_where under a short switch interval: a
    lost update would leave the byte total off the entries' sum."""
    cache = LRUCache(16, max_bytes=200)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def worker(seed):
        for i in range(2000):
            key = (seed * 7 + i) % 40
            cache.put(key, i, 1 + key % 13)
            cache.get((key + 3) % 40)
            if i % 97 == 0:
                cache.pop_where(lambda k, _v: k % 5 == seed % 5)

    try:
        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    stats = cache.stats()
    assert stats["entries"] <= 16 and stats["bytes"] <= 200
    assert stats["bytes"] == sum(cost for _v, cost in cache._data.values())


def test_pop_where_removes_and_returns_matches():
    cache = LRUCache(4, max_bytes=100)
    cache.put("a", 1, 10)
    cache.put("b", 2, 20)
    cache.put("c", 3, 30)
    popped = cache.pop_where(lambda key, value: value % 2 == 1)
    assert popped == [("a", 1, 10), ("c", 3, 30)]
    assert len(cache) == 1 and cache.stats()["bytes"] == 20
