"""The multi-process backend: column pages, publisher, workers, lifecycle.

Five surfaces:

* the column-page codec (:meth:`ColumnStore.encode_pages` /
  :meth:`decode_pages`) — exact round-trip for every column shape,
  including ``None`` masks, ``bool`` vs ``int``, mixed-type columns, and
  integers beyond int64;
* :class:`SharedPagePublisher` — version-keyed republish-on-write, segment
  unlink on supersede/close, stale-segment reaping;
* the ``"process"`` backend — bag-equal to ``"vectorized"`` over the
  canonical catalog with real worker processes, point queries routed
  without touching the pool, recovery from killed workers;
* writers racing process readers across version bumps (segments republish,
  answers stay consistent);
* pool lifecycle — explicit ``close()`` on the parallel and process
  backends, the shared :mod:`repro.engine.lifecycle` registry, and a
  subprocess leg asserting the whole stack is clean under
  ``-W error::ResourceWarning``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from unittest import mock

import pytest

from repro.data import ShardedDatabase, sailors_database
from repro.data.relation import ColumnStore, Relation, RelationError
from repro.data.schema import RelationSchema
from repro.data.sharded import (
    SEGMENT_PREFIX,
    SharedPagePublisher,
    attach_segment,
    detach_segment,
    reap_stale_segments,
)
from repro.core.sharded_service import ShardedQueryService
from repro.engine import get_backend, lower, optimize, execute_plan
from repro.engine.kernels import kernels_enabled
from repro.engine.parallel import ParallelBackend
from repro.engine.process import ProcessBackend, default_process_workers
from repro.engine.vectorized import VectorizedExecutor
from repro.queries import CANONICAL_QUERIES

#: One shared backend for the catalog differential: real worker processes,
#: forked once, reused by every cell (pool startup is the expensive part).
_CATALOG_BACKEND = ProcessBackend(n_shards=2, workers=2)


@pytest.fixture(scope="module", autouse=True)
def _kernels_on_catalog_sized_pages():
    """Open the executor's kernel gate for this module.

    What is pinned here is worker processes computing with numpy kernels
    over zero-copy page views; the catalog's ten-row shards are far below
    ``KERNEL_MIN_ROWS`` and would otherwise take the Python loops.  Pools
    fork on first use, inside a test, so the workers inherit the open gate.
    """
    import repro.engine.kernels as kernels

    with mock.patch.object(kernels, "KERNEL_MIN_ROWS", 0):
        yield


def _segments() -> set[str]:
    try:
        return {f for f in os.listdir("/dev/shm")
                if f.startswith(SEGMENT_PREFIX)}
    except OSError:  # pragma: no cover - non-Linux fallback
        return set()


# ---------------------------------------------------------------------------
# Column-page codec
# ---------------------------------------------------------------------------

class TestColumnPages:
    def _round_trip(self, names, arrays):
        store = ColumnStore(names, [list(a) for a in arrays])
        decoded = ColumnStore.decode_pages(store.encode_pages())
        assert list(decoded.names) == list(names)
        for want, got in zip(arrays, decoded.arrays):
            assert len(want) == len(got)
            for w, g in zip(want, got):
                # Exactness including type: 1 vs 1.0 vs True must survive.
                assert type(w) is type(g) or (w is None and g is None), (w, g)
                if isinstance(w, float) and w != w:  # NaN
                    assert g != g
                else:
                    assert w == g and repr(w) == repr(g), (w, g)
        return decoded

    def test_int_column(self):
        self._round_trip(["a"], [[0, -1, 2**62, -(2**62), 5]])

    def test_int_with_nulls(self):
        self._round_trip(["a"], [[1, None, 3, None]])

    def test_float_column_edge_values(self):
        self._round_trip(
            ["f"], [[1.5, float("inf"), float("-inf"), float("nan"),
                     -0.0, None]])

    def test_string_column(self):
        self._round_trip(["s"], [["", "abc", "naïve ünïcode", None, "x" * 500]])

    def test_bool_column_stays_bool(self):
        decoded = self._round_trip(["b"], [[True, False, None, True]])
        assert decoded.arrays[0][0] is True

    def test_all_null_column(self):
        self._round_trip(["n"], [[None, None, None]])

    def test_mixed_column_uses_pickle_fallback(self):
        self._round_trip(["m"], [[1, "two", 3.0, None, True]])

    def test_int_beyond_int64_uses_pickle_fallback(self):
        self._round_trip(["big"], [[2**70, -(2**100), 7]])

    def test_empty_store(self):
        decoded = self._round_trip(["a", "b"], [[], []])
        assert decoded.to_rows() == []

    def test_multi_column_round_trip(self):
        self._round_trip(
            ["i", "s", "f"],
            [[1, 2, None], ["x", None, "z"], [0.5, 1.5, 2.5]])

    def test_kernel_pages_are_retained(self):
        store = ColumnStore(["i", "f", "s", "m"],
                            [[1, 2, 3], [0.5, None, 2.5], ["a", "b", "c"],
                             [1, "two", None]])
        decoded = ColumnStore.decode_pages(store.encode_pages())
        # int, float, and dictionary-coded string columns keep raw page
        # views for the kernel layer; mixed pickle columns do not.
        assert set(decoded.pages) == {0, 1, 2}
        assert decoded.pages[0][0] == "q"
        assert decoded.pages[1][0] == "d"
        assert decoded.pages[2][0] == "D"
        # Pages carry the row count so the kernels can verify freshness.
        assert all(page[3] == 3 for page in decoded.pages.values())

    def test_garbage_buffer_rejected(self):
        with pytest.raises(RelationError):
            ColumnStore.decode_pages(b"not a page buffer")


# ---------------------------------------------------------------------------
# Publisher
# ---------------------------------------------------------------------------

_SCHEMA = RelationSchema("t", (("a", "int"), ("b", "string")))


class TestSharedPagePublisher:
    def test_attach_round_trip(self):
        rel = Relation(_SCHEMA, [(1, "x"), (2, None), (None, "z")])
        publisher = SharedPagePublisher()
        try:
            segment = publisher.publish("0/t", rel)
            attached, shm = attach_segment(segment)
            try:
                assert attached.rows() == rel.rows()
                assert attached.schema == _SCHEMA
                assert attached.version == rel.version == segment.version
            finally:
                del attached
                detach_segment(shm)
        finally:
            publisher.close()

    def test_attach_without_a_shm_directory(self, monkeypatch, tmp_path):
        """No ``/dev/shm`` (macOS): attach by name through SharedMemory."""
        import repro.data.sharded as sharded_data

        rel = Relation(_SCHEMA, [(1, "x"), (2, None), (None, "z")])
        publisher = SharedPagePublisher()
        try:
            segment = publisher.publish("0/t", rel)
            monkeypatch.setattr(sharded_data, "_SHM_DIR",
                                str(tmp_path / "absent"))
            attached, shm = attach_segment(segment)
            try:
                assert attached.rows() == rel.rows()
                assert attached.version == segment.version
            finally:
                del attached
                detach_segment(shm)
        finally:
            publisher.close()

    def test_unchanged_relation_reuses_the_segment(self):
        rel = Relation(_SCHEMA, [(1, "x")])
        publisher = SharedPagePublisher()
        try:
            first = publisher.publish("0/t", rel)
            assert publisher.publish("0/t", rel) is first
        finally:
            publisher.close()

    def test_version_bump_republishes_and_unlinks(self):
        rel = Relation(_SCHEMA, [(1, "x")])
        publisher = SharedPagePublisher()
        try:
            first = publisher.publish("0/t", rel)
            rel.add((2, "y"))
            second = publisher.publish("0/t", rel)
            assert second.name != first.name
            assert second.version > first.version
            live = _segments()
            assert second.name in live and first.name not in live
        finally:
            publisher.close()

    def test_close_unlinks_everything_and_is_idempotent(self):
        publisher = SharedPagePublisher()
        segment = publisher.publish("0/t", Relation(_SCHEMA, [(1, "x")]))
        assert segment.name in _segments()
        publisher.close()
        publisher.close()
        assert publisher.closed
        assert segment.name not in _segments()
        with pytest.raises(RuntimeError):
            publisher.publish("0/t", Relation(_SCHEMA, [(1, "x")]))

    def test_database_close_unlinks_published_segments(self, db):
        sharded = ShardedDatabase.from_database(db, 2)
        publisher = sharded.page_publisher()
        segment = publisher.publish("0/sailors",
                                    sharded.shard(0).relation("Sailors"))
        assert segment.name in _segments()
        sharded.close()
        assert segment.name not in _segments()
        # Reusable: a fresh publisher is created lazily.
        assert not sharded.page_publisher().closed

    def test_reap_removes_dead_publishers_segments_only(self):
        publisher = SharedPagePublisher()
        try:
            live = publisher.publish("0/t", Relation(_SCHEMA, [(1, "x")]))
            # Forge a segment whose embedded pid does not exist.
            dead_pid = 2 ** 22 + 12345  # beyond default pid_max
            dead_name = f"{SEGMENT_PREFIX}-{dead_pid}-0"
            with open(os.path.join("/dev/shm", dead_name), "wb") as f:
                f.write(b"stale")
            reaped = reap_stale_segments()
            assert dead_name in reaped
            assert dead_name not in _segments()
            assert live.name in _segments()  # our own pid: untouched
        finally:
            publisher.close()


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------

class TestProcessBackendDifferential:
    @pytest.mark.parametrize("query", CANONICAL_QUERIES,
                             ids=[q.id for q in CANONICAL_QUERIES])
    def test_catalog_agrees_with_vectorized(self, db, query):
        plan = optimize(lower(query.sql, db.schema, "sql"), db)
        want = execute_plan(plan, db, backend="vectorized")
        got = execute_plan(plan, ShardedDatabase.from_database(db, 2),
                           backend=_CATALOG_BACKEND)
        assert want.bag_equal(got), query.id

    def test_registry_backend_is_a_singleton(self):
        assert get_backend("process") is get_backend("process")
        assert get_backend("process").name == "process"

    def test_point_query_routes_without_the_pool(self, db):
        backend = ProcessBackend(n_shards=4, workers=2)
        try:
            plan = optimize(lower(
                "SELECT S.sname FROM Sailors S WHERE S.sid = 22",
                db.schema, "sql"), db)
            want = execute_plan(plan, db, backend="vectorized")
            got = execute_plan(plan, db, backend=backend)
            assert want.bag_equal(got)
            counts = backend.execution_counts()
            assert counts["single_shard"] == 1 and counts["scatter"] == 0
            # The routed path never started worker processes.
            assert backend._exec_pool is None
        finally:
            backend.close()

    def test_recovers_from_killed_workers(self, db):
        backend = ProcessBackend(n_shards=2, workers=2)
        try:
            plan = optimize(lower(
                "SELECT S.sname, R.bid FROM Sailors S, Reserves R "
                "WHERE S.sid = R.sid", db.schema, "sql"), db)
            want = execute_plan(plan, db, backend="vectorized")
            assert want.bag_equal(execute_plan(plan, db, backend=backend))
            pool = backend._exec_pool
            assert pool is not None
            for process in pool._processes.values():
                process.kill()
            # The broken pool is discarded and the query re-runs in-process.
            assert want.bag_equal(execute_plan(plan, db, backend=backend))
            assert backend.execution_counts()["pool_recovery"] >= 1
            # The next execution restarts the pool and goes parallel again.
            assert want.bag_equal(execute_plan(plan, db, backend=backend))
        finally:
            backend.close()

    def test_worker_count_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESS_WORKERS", "3")
        assert default_process_workers() == 3
        monkeypatch.setenv("REPRO_PROCESS_WORKERS", "900")
        assert default_process_workers() == 16  # clamped
        monkeypatch.setenv("REPRO_PROCESS_WORKERS", "not-a-number")
        assert default_process_workers() >= 1
        monkeypatch.delenv("REPRO_PROCESS_WORKERS")
        assert 1 <= default_process_workers() <= 16
        with pytest.raises(ValueError):
            ProcessBackend(workers=0)

    def test_kernel_toggle_equivalence(self, db, monkeypatch, kernel_gate):
        plan = optimize(lower(
            "SELECT S.rating, COUNT(*), AVG(S.age) FROM Sailors S "
            "GROUP BY S.rating", db.schema, "sql"), db)
        kernel_gate(0)  # ten sailors: far below the production gate
        monkeypatch.setenv("REPRO_KERNELS", "off")
        assert not kernels_enabled()
        off = VectorizedExecutor(db).batch(plan).rows()
        monkeypatch.delenv("REPRO_KERNELS")
        on = VectorizedExecutor(db).batch(plan).rows()
        assert off == on  # bit-identical, not just bag-equal


class TestWriterRacesProcessReaders:
    def test_republish_after_version_bump(self, db):
        backend = ProcessBackend(n_shards=2, workers=2)
        sharded = ShardedDatabase.from_database(db, 2)
        try:
            plan = optimize(lower(
                "SELECT S.sname, R.bid FROM Sailors S, Reserves R "
                "WHERE S.sid = R.sid", db.schema, "sql"), db)
            before = execute_plan(plan, sharded, backend=backend)
            sharded.add_row("Reserves", (22, 104, "1998/12/12"))
            after = execute_plan(plan, sharded, backend=backend)
            assert len(after) == len(before) + 1
            want = execute_plan(plan, sharded, backend="vectorized")
            assert want.bag_equal(after)
        finally:
            backend.close()
            sharded.close()

    def test_concurrent_writer_and_process_readers(self, db):
        service = ShardedQueryService(db, backend="process", n_shards=2,
                                      workers=2)
        query = ("SELECT S.sname, COUNT(*) FROM Sailors S, Reserves R "
                 "WHERE S.sid = R.sid GROUP BY S.sname")
        errors: list[BaseException] = []
        stop = threading.Event()

        def writer():
            try:
                for i in range(20):
                    service.add_row("Reserves", (22, 101 + (i % 4),
                                                 f"2025/01/{i + 1:02d}"))
            except BaseException as exc:  # pragma: no cover - fail the test
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    service.answer(query)
            except BaseException as exc:  # pragma: no cover - fail the test
                errors.append(exc)

        try:
            threads = [threading.Thread(target=writer)] + \
                [threading.Thread(target=reader) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors, errors
            # Quiesced: the final answer equals a single-node evaluation.
            final = service.answer(query)
            reference = execute_plan(
                optimize(lower(query, service.db.schema, "sql"), service.db),
                service.db, backend="vectorized")
            assert reference.bag_equal(final)
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_parallel_backend_close_and_reuse(self, db):
        backend = ParallelBackend(workers=2, min_partition_rows=1)
        plan = optimize(lower(
            "SELECT S.sname FROM Sailors S WHERE S.rating > 5",
            db.schema, "sql"), db)
        first = execute_plan(plan, db, backend=backend)
        assert backend._pool is not None
        backend.close()
        assert backend._pool is None
        backend.close()  # idempotent
        again = execute_plan(plan, db, backend=backend)  # pool recreated
        assert first.bag_equal(again)
        backend.close()

    def test_lifecycle_registry_close_all(self):
        from repro.engine import lifecycle

        class Probe:
            closed = 0

            def close(self):
                Probe.closed += 1

        probe = Probe()
        lifecycle.register(probe)
        lifecycle.register(probe)  # idempotent
        lifecycle.close_all()
        assert Probe.closed == 1
        lifecycle.close_all()  # drained
        assert Probe.closed == 1
        lifecycle.register(probe)
        lifecycle.unregister(probe)
        lifecycle.close_all()
        assert Probe.closed == 1

    def test_detach_under_live_page_views_is_silent(self):
        """A superseded segment whose zero-copy views are still referenced
        (kernel encodings outlive the worker's attachment LRU) must unmap
        when the last view dies — not print a ``BufferError`` traceback
        from a finalizer, as every republishing write used to."""
        code = """
from repro.data import sailors_database
from repro.data.sharded import (SharedPagePublisher, attach_segment,
                                detach_segment)

relation = sailors_database().relation("Reserves")
publisher = SharedPagePublisher()
segment = publisher.publish("0/reserves", relation)
attached, mapping = attach_segment(segment)
view = attached.column_store().pages[0][2]      # zero-copy int64 payload
detach_segment(mapping)                          # views alive: deferred
assert attached.rows() == relation.rows()
assert bytes(view[:8]) == relation.rows()[0][0].to_bytes(8, "little")
del attached, mapping
assert len(view) == 8 * len(relation)            # the view keeps it mapped
del view
publisher.close()
print("SILENT")
"""
        env = dict(os.environ, PYTHONPATH="src")
        result = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", code],
            capture_output=True, text=True, timeout=60,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env)
        assert result.returncode == 0, result.stderr
        assert "SILENT" in result.stdout
        assert result.stderr == ""

    def test_clean_under_resource_warning_errors(self):
        """The whole stack leaves no pools/segments behind at exit."""
        code = """
import warnings
from repro.core.sharded_service import ShardedQueryService
from repro.data import sailors_database
from repro.engine import run_query

db = sailors_database()
run_query("SELECT S.sname FROM Sailors S WHERE S.rating > 5", db,
          backend="parallel")
with ShardedQueryService(backend="process", n_shards=2, workers=2) as svc:
    svc.answer("SELECT S.sname, R.bid FROM Sailors S, Reserves R "
               "WHERE S.sid = R.sid")
import os
leftover = [f for f in os.listdir("/dev/shm") if f.startswith("repro-pg")]
assert not leftover, leftover
print("CLEAN")
"""
        env = dict(os.environ, PYTHONPATH="src")
        result = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", code],
            capture_output=True, text=True, timeout=180,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env)
        assert result.returncode == 0, result.stderr
        assert "CLEAN" in result.stdout
        assert "ResourceWarning" not in result.stderr
