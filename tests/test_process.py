"""The multi-process backend: column pages, publisher, workers, lifecycle.

Five surfaces:

* the column-page codec (:meth:`ColumnStore.encode_pages` /
  :meth:`decode_pages`) — exact round-trip for every column shape,
  including ``None`` masks, ``bool`` vs ``int``, mixed-type columns, and
  integers beyond int64;
* :class:`SharedPagePublisher` — version-keyed chains of row-range runs
  (a write publishes its rows, the binary-counter merge bounds the chain),
  unlink on absorb/replace/close, stale-segment reaping;
* the ``"process"`` backend — bag-equal to ``"vectorized"`` over the
  canonical catalog with real worker processes, point queries routed
  without touching the pool, recovery from killed workers, a raced
  manifest answered in-process with the pool kept;
* writers racing process readers across version bumps (tail runs publish,
  workers extend their resident copies, answers stay consistent);
* pool lifecycle — explicit ``close()`` on the process backend, the
  shared :mod:`repro.engine.lifecycle` registry, and a subprocess leg
  asserting the whole stack is clean under ``-W error::ResourceWarning``.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import threading
from collections import OrderedDict

import pytest

from gates import OnShards, pinned_gates
from repro.data import ShardedDatabase, sailors_database
from repro.data.sailors import random_sailors_database
from repro.data.relation import (
    ColumnStore,
    Relation,
    RelationError,
    relation_from_rows,
)
from repro.data.schema import RelationSchema
from repro.data.sharded import (
    SEGMENT_PREFIX,
    SharedPagePublisher,
    attach_segment,
    detach_segment,
    extend_attached,
    reap_stale_segments,
    reshard,
)
from repro.core.sharded_service import ShardedQueryService
from repro.engine import lower, optimize, execute_plan
from repro.engine.kernels import kernels_enabled
from repro.engine.sharded import ShardedBackend
import repro.engine.process as process
from repro.engine.process import (
    ProcessBackend,
    StaleManifest,
    default_process_workers,
)
from repro.engine.plan import AggregateP, ScanP
from repro.engine.vectorized import compile_batches
from repro.expr import ast as e
from repro.queries import CANONICAL_QUERIES

#: One shared backend for the catalog differential: real worker processes,
#: forked once, reused by every cell (pool startup is the expensive part).
_CATALOG_BACKEND = ProcessBackend(workers=2)


@pytest.fixture(scope="module", autouse=True)
def _kernels_on_catalog_sized_pages():
    """Open the executor's kernel gates for this module.

    What is pinned here is worker processes computing with numpy kernels
    over zero-copy page views; the catalog's ten-row shards are far below
    ``KERNEL_MIN_ROWS`` and would otherwise run the row implementations.  Pools
    fork on first use, inside a test, so the workers inherit the open gates.
    """
    with pinned_gates(0):
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

    @pytest.mark.parametrize("seed", range(8))
    def test_runs_decode_and_concatenate_to_the_column(self, seed):
        """Any split into row ranges round-trips bit-for-bit, each run a
        self-contained page set whose kinds may differ from its neighbours'."""
        arrays = [
            list(range(12)) + [None, 2**70, 13, True],   # q, then z/o
            ["b", "a", None, "b"] * 3 + ["", "ä", "a", None],
            [0.5] * 10 + [None, float("inf"), 1, -0.0, 2.5, 3.5],
            [None] * 9 + [1, "x", 2.0, None, None, None, None],
        ]
        n = len(arrays[0])
        store = ColumnStore(["i", "s", "f", "m"], arrays)
        rng = random.Random(seed)
        cuts = sorted(rng.sample(range(n + 1), rng.randint(0, 5)))
        bounds = [0, *cuts, n]
        runs = [ColumnStore.decode_pages(store.encode_pages(lo, hi))
                for lo, hi in zip(bounds, bounds[1:])]
        assert [len(run) for run in runs] \
            == [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        for i, want in enumerate(arrays):
            got = [v for run in runs for v in run.arrays[i]]
            assert list(map(repr, got)) == list(map(repr, want))

    def test_run_kinds_differ_within_one_column(self):
        store = ColumnStore(["i"], [[1, 2, 3, "x", 4, None, None]])
        kinds = [ColumnStore.decode_pages(store.encode_pages(lo, hi))
                 .pages.get(0, ("other",))[0]
                 for lo, hi in ((0, 3), (3, 5), (5, 7))]
        assert kinds == ["q", "other", "other"]   # int64, pickled, all-NULL
        with pytest.raises(RelationError):
            store.encode_pages(3, 9)              # past the whole rows


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

    def test_a_write_publishes_its_rows_as_a_tail_run(self):
        rel = Relation(_SCHEMA, [(i, f"w{i}") for i in range(8)])
        publisher = SharedPagePublisher()
        sink: dict[str, int] = {}
        try:
            base = publisher.publish("0/t", rel, sink)
            assert (base.start, base.stop, base.prev) == (0, 8, None)
            rel.add_rows([(8, "w8"), (None, "a")])
            tail = publisher.publish("0/t", rel, sink)
            assert (tail.start, tail.stop) == (8, 10)
            assert tail.prev is base and tail.lineage == base.lineage
            assert {base.name, tail.name} <= _segments()
            assert sink == {"publish_full": 1, "publish_tail": 1,
                            "rows_encoded": 10, "runs_absorbed": 0}
            # attach_segment attaches the one run it is given ...
            attached, shm = attach_segment(tail)
            assert attached.rows() == rel.rows()[8:]
            assert attached.version == tail.version == rel.version
            del attached
            detach_segment(shm)
            # ... and extend_attached brings a copy of the first run up to
            # the chain, decoding only what it lacks.
            copy, shm = attach_segment(base)
            assert extend_attached(copy, tail) == 2
            assert copy.rows() == rel.rows() and copy.is_frozen
            assert extend_attached(copy, tail) == 0
            # Two more rows absorb the 2-row tail (not the 8-row base); a
            # copy that has 10 rows decodes the merged run for its suffix.
            rel.add_rows([(10, "w10"), (11, None)])
            merged = publisher.publish("0/t", rel, sink)
            assert (merged.start, merged.stop, merged.prev) == (8, 12, base)
            assert tail.name not in _segments()
            assert sink["runs_absorbed"] == 1 and sink["rows_encoded"] == 14
            assert extend_attached(copy, merged) == 4
            assert copy.rows() == rel.rows()
            del copy
            detach_segment(shm)
            # A new relation object in the slot is a new lineage: the old
            # chain is unlinked whole.
            replacement = Relation(_SCHEMA, rel.rows())
            fresh = publisher.publish("0/t", replacement, sink)
            assert fresh.lineage != base.lineage and fresh.prev is None
            assert _segments() & {base.name, merged.name} == set()
            assert [run.name for run in publisher.live_runs()] == [fresh.name]
        finally:
            publisher.close()

    @pytest.mark.parametrize("n,d,k", [(1000, 10, 64), (64, 8, 40),
                                       (0, 3, 33)])
    def test_chain_cost_is_logarithmic(self, n, d, k):
        """The cost is a count, not a timing: k appends of d rows to an
        n-row relation encode at most n + k*d*(ceil(log2 k) + 2) rows and
        keep at most ceil(log2(n/d)) + 2 runs linked."""
        rel = Relation(_SCHEMA, [(i, "x") for i in range(n)], validate=False)
        publisher = SharedPagePublisher()
        sink: dict[str, int] = {}
        try:
            publisher.publish("0/t", rel, sink)
            most_runs = 0
            for step in range(k):
                rel.add_rows([(step, "y")] * d)
                tail = publisher.publish("0/t", rel, sink)
                assert tail.stop == len(rel)
                runs = publisher.live_runs()
                assert [r.start for r in runs[1:]] \
                    == [r.stop for r in runs[:-1]]       # contiguous from 0
                most_runs = max(most_runs, len(runs))
                assert len(_segments() & {r.name for r in runs}) == len(runs)
            log_k = math.ceil(math.log2(k))
            assert sink["rows_encoded"] <= n + k * d * (log_k + 2)
            assert most_runs <= math.ceil(math.log2(max(n, k * d) / d)) + 2
            copy, shm = attach_segment(runs[0])
            extend_attached(copy, tail)
            assert copy.rows() == rel.rows()
            del copy
            detach_segment(shm)
        finally:
            publisher.close()

    def test_a_torn_append_never_yields_a_ragged_run(self, monkeypatch):
        """A writer paused between two columns of ``append_row`` while
        ``publish`` runs: the run holds whole rows only, and the chain
        still adds up once the write lands."""
        rel = Relation(_SCHEMA, [(i, f"w{i}") for i in range(4)])
        publisher = SharedPagePublisher()
        torn: list = []
        append_row = ColumnStore.append_row

        def paused(store, row):
            store.arrays[0].append(row[0])
            torn.append(publisher.publish("0/t", rel))   # mid-row
            for array, value in zip(store.arrays[1:], row[1:]):
                array.append(value)

        try:
            base = publisher.publish("0/t", rel)
            rel.add_rows([(4, "w4")])        # landed, not yet published
            monkeypatch.setattr(ColumnStore, "append_row", paused)
            rel.add_rows([(5, "w5"), (6, "w6")])
            monkeypatch.setattr(ColumnStore, "append_row", append_row)
            # Paused inside row 5 the first column is one value ahead: the
            # run stops at the 5 whole rows.  Paused inside row 6 the
            # version has not moved since, so the chain is reused as is.
            assert (torn[0].start, torn[0].stop, torn[0].prev) == (4, 5, base)
            assert torn[1] is torn[0]
            final = publisher.publish("0/t", rel)
            assert (final.start, final.stop, final.prev) == (4, 7, base)
            for run in (base, final):
                part, shm = attach_segment(run)
                assert part.rows() == rel.rows()[run.start:run.stop]
                del part
                detach_segment(shm)
        finally:
            publisher.close()

    def test_a_version_that_adds_no_row_reuses_the_tail(self):
        """The version bump lands after the rows: a publish in between has
        already cut them, and the bump alone must not cut an empty run."""
        rel = Relation(_SCHEMA, [(1, "x")])
        publisher = SharedPagePublisher()
        try:
            publisher.publish("0/t", rel)
            rel.add_rows([(2, "y")])         # landed, not yet published
            rel.add_rows([(3, "z")])
            real = rel.version
            rel._version = real - 1          # row 3 in, its bump pending
            early = publisher.publish("0/t", rel)
            rel._version = real
            assert publisher.publish("0/t", rel) is early
            assert early.stop == 3 and len(publisher.live_runs()) == 1
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
            # A dead publisher's whole chain: the base and its tail runs.
            dead_names = {f"{SEGMENT_PREFIX}-{dead_pid}-{seq}"
                          for seq in (0, 7, 8)}
            for dead_name in dead_names:
                with open(os.path.join("/dev/shm", dead_name), "wb") as f:
                    f.write(b"stale")
            reaped = reap_stale_segments()
            assert dead_names <= set(reaped)
            assert not dead_names & _segments()
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

    def test_shares_the_sharded_driver(self):
        # Only the step that produces per-shard parts differs; compiling,
        # mode counting, and the merge live once, in ShardedBackend.execute.
        assert "execute" not in vars(ProcessBackend)
        assert ProcessBackend.execute is ShardedBackend.execute
        assert ProcessBackend._run_parts is not ShardedBackend._run_parts

    def test_point_query_routes_without_the_pool(self, db):
        backend = OnShards(ProcessBackend(workers=2), 4)
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
        backend = OnShards(ProcessBackend(workers=2))
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
            # The next execution restarts the pool and goes to the workers again.
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
        off = compile_batches(plan)(db).rows()
        monkeypatch.delenv("REPRO_KERNELS")
        on = compile_batches(plan)(db).rows()
        assert off == on  # bit-identical, not just bag-equal


_JOIN_SQL = ("SELECT S.sname, R.bid FROM Sailors S, Reserves R "
             "WHERE S.sid = R.sid")


class TestResidentCopies:
    """One relation per lineage in each worker, extended run by run."""

    @pytest.fixture()
    def worker_state(self, monkeypatch):
        """This process standing in for a worker, with an empty cache."""
        monkeypatch.setattr(process, "_attached", OrderedDict())
        yield
        process._attached.clear()

    def test_a_manifest_older_than_the_resident_copy_gets_its_rows(
            self, worker_state):
        rel = Relation(_SCHEMA, [(i, f"w{i}") for i in range(8)])
        publisher = SharedPagePublisher()
        try:
            old = publisher.publish("0/t", rel)
            rel.add_rows([(8, "w8"), (9, None)])
            new = publisher.publish("0/t", rel)          # chain [8][2]
            resident, decoded = process._attached_relation(new)
            assert decoded == 10 and resident.rows() == rel.rows()
            # The reader that built `old` raced that write: it is served
            # exactly the 8 rows it named, from a throw-away rebuild.
            older, decoded = process._attached_relation(old)
            assert older is not resident and decoded == 8
            assert older.rows() == rel.rows()[:8]
            assert process._attached[new.lineage][0] is resident
            assert len(resident) == 10
            # Two more rows absorb `new`'s tail run.  The resident copy
            # takes the merged run's suffix; a manifest still naming the
            # absorbed run fails typed — with or without a resident copy —
            # and is never answered from the longer relation.
            rel.add_rows([(10, "w10"), (11, "w11")])
            newest = publisher.publish("0/t", rel)       # chain [8][4]
            again, decoded = process._attached_relation(newest)
            assert again is resident and decoded == 4
            assert resident.rows() == rel.rows()
            with pytest.raises(StaleManifest):
                process._attached_relation(new)
            process._attached.clear()
            with pytest.raises(StaleManifest):
                process._attached_relation(new)
            assert not process._attached
            del resident, older, again
        finally:
            publisher.close()

    def test_lineages_not_versions_bound_the_cache(self, worker_state,
                                                   monkeypatch):
        monkeypatch.setattr(process, "_ATTACH_LIMIT", 2)
        publisher = SharedPagePublisher()
        rels = [Relation(_SCHEMA, [(i, "x")]) for i in range(3)]
        try:
            for round_ in range(3):                  # 3 versions of each
                for i, rel in enumerate(rels):
                    rel.add((round_, "y"))
                    got, _ = process._attached_relation(
                        publisher.publish(f"{i}/t", rel))
                    assert got.rows() == rel.rows()
            assert len(process._attached) == 2
        finally:
            publisher.close()

    def test_a_worker_compiles_a_template_once(self, worker_state, db,
                                               monkeypatch):
        """A worker keeps a template's scatter program under its pickled
        bytes: a later task compiles nothing and leaves no compiled plan
        behind as cyclic garbage for the collector."""
        import gc

        from repro.engine.cache import LRUCache

        monkeypatch.setattr(process, "_programs", LRUCache(2))
        sharded = ShardedDatabase.from_database(db, 2)
        plan = optimize(lower(_JOIN_SQL, db.schema, "sql"), db)
        compiled = ShardedBackend().plan_for(plan, sharded)
        manifests = ProcessBackend(workers=1)._publish(compiled, sharded, {})
        try:
            first = process._run_subplans(compiled.blob, (), manifests)
            gc.collect()
            second = process._run_subplans(compiled.blob, (), manifests)
            assert gc.collect() == 0
            assert first[2]["plan_compile"] == 1
            assert "plan_compile" not in second[2]
            assert first[0] == second[0]
        finally:
            sharded.close()

    def test_workers_decode_the_write_not_the_shard(self):
        """``rows_decoded`` obeys the publisher's bound: after k appends of
        d rows the property the benchmark reports cannot have silently
        returned to O(shard) per write."""
        n, d, k = 256, 4, 24
        rel = relation_from_rows(
            "t", [("a", "int"), ("b", "string")],
            [(i, f"w{i % 7}") for i in range(n)])
        sharded = ShardedDatabase([rel], n_shards=1)
        backend = ProcessBackend(workers=1)
        plan = AggregateP(ScanP("t", ("a", "b")), (e.Col("b"),),
                          ((e.FuncCall("count", (e.Star(),)), "n"),
                           (e.FuncCall("max", (e.Col("a"),)), "hi")))
        try:
            for step in range(k + 1):
                want = compile_batches(plan)(sharded).rows()
                assert sorted(backend.execute(plan, sharded)) == sorted(want)
                sharded.add_rows("t", [(n + step * d + j, f"w{j}")
                                       for j in range(d)])
            counts = backend.execution_counts()
            assert counts["scatter"] == k + 1
            assert (counts["publish_full"], counts["publish_tail"]) == (1, k)
            bound = n + k * d * (math.ceil(math.log2(k)) + 2)
            assert n + k * d <= counts["rows_encoded"] <= bound
            assert counts["rows_decoded"] == counts["rows_encoded"]
            assert counts["runs_absorbed"] \
                == 1 + k - counts["page_runs_live"]
            assert 2 <= counts["page_runs_live"] \
                <= math.ceil(math.log2(n / d)) + 2
            assert counts["page_bytes_live"] > 0
            assert counts["resident_lineages"] == 1
            assert counts["stale_manifest"] == counts["pool_recovery"] == 0
            assert all(type(value) is int for value in counts.values())
        finally:
            backend.close()
            sharded.close()
        assert backend.execution_counts()["resident_lineages"] == 0

    @pytest.mark.skipif(not kernels_enabled(),
                        reason="build structures are the numpy kernels'")
    def test_workers_extend_their_build_structures(self):
        """A scatter after each of 20 writes agrees with ``vectorized``; each
        worker lowers a lineage's join build side once and then extends it
        by the rows each write appended (``worker_*`` path counts)."""
        db = random_sailors_database(n_sailors=200, n_boats=20,
                                     n_reserves=2000, seed=5)
        sids = sorted(row[0] for row in db.relation("Sailors").rows())
        bids = sorted(row[0] for row in db.relation("Boats").rows())
        sharded = ShardedDatabase.from_database(db, 2)
        backend = ProcessBackend(workers=1)
        plan = optimize(lower(
            "SELECT S.rating, COUNT(*) AS n, AVG(S.age) AS a FROM Sailors S, "
            "Reserves R WHERE S.sid = R.sid GROUP BY S.rating", db.schema,
            "sql"), db)
        rng = random.Random(5)
        try:
            warm = None
            for step in range(21):
                want = execute_plan(plan, sharded, backend="vectorized")
                assert want.bag_equal(execute_plan(plan, sharded,
                                                   backend=backend))
                if warm is None:
                    warm = backend.execution_counts()["worker_build_lowered"]
                sharded.add_rows("Reserves", [
                    (rng.choice(sids), rng.choice(bids),
                     f"2025/03/{step:02d}#{j}") for j in range(10)])
            counts = backend.execution_counts()
        finally:
            backend.close()
            sharded.close()
        assert counts["scatter"] == 21 and warm >= 1
        assert counts["worker_build_extended"] >= 1
        assert counts["worker_build_lowered"] \
            == warm + counts["worker_build_relowered"]
        # (A write may route none of its rows to a shard: nothing to extend.)
        assert 10 * warm <= counts["worker_build_extended"] \
            + counts["worker_build_relowered"] <= 20 * warm
        assert counts["worker_probe_kernel"] >= 21

    def test_a_raced_manifest_is_answered_in_process_and_keeps_the_pool(
            self, db, monkeypatch):
        """A write republishes between building a manifest and running it:
        the worker finds the named run unlinked.  That is not a broken
        pool — same worker pids before and after, no re-fork."""
        backend = ProcessBackend(workers=2)
        sharded = ShardedDatabase.from_database(db, 2)
        plan = optimize(lower(_JOIN_SQL, db.schema, "sql"), db)
        try:
            execute_plan(plan, sharded, backend=backend)
            pool = backend._exec_pool
            pids = set(pool._processes)
            publish = backend._publish

            def raced(compiled, target, sink):
                target.add_row("Reserves", (22, 101, "2025/01/01"))
                manifests = publish(compiled, target, sink)  # a 1-row run
                target.add_row("Reserves", (22, 102, "2025/01/02"))
                publish(compiled, target, sink)          # ... absorbed here
                return manifests

            monkeypatch.setattr(backend, "_publish", raced)
            got = execute_plan(plan, sharded, backend=backend)
            monkeypatch.undo()
            want = execute_plan(plan, sharded, backend="vectorized")
            assert want.bag_equal(got)
            counts = backend.execution_counts()
            assert counts["stale_manifest"] == 1
            assert counts["pool_recovery"] == 0
            assert backend._exec_pool is pool
            assert pids <= set(pool._processes)
            # The kept pool serves the next scatter (a worker decodes the
            # two raced rows; which worker is the pool's business).
            before = counts["rows_decoded"]
            assert want.bag_equal(execute_plan(plan, sharded,
                                               backend=backend))
            counts = backend.execution_counts()
            assert counts["rows_decoded"] >= before + 2
            assert counts["stale_manifest"] == 1
        finally:
            backend.close()
            sharded.close()

    def test_a_replaced_relation_starts_a_new_lineage(self, db):
        """``reshard()`` and ``add_relation`` hand the slot a new relation
        object: full publish, new resident copy, old runs unlinked."""
        backend = ProcessBackend(workers=1)
        sharded = ShardedDatabase.from_database(db, 2)
        plan = optimize(lower(_JOIN_SQL, db.schema, "sql"), db)

        def check(target):
            want = execute_plan(plan, target, backend="vectorized")
            assert want.bag_equal(execute_plan(plan, target, backend=backend))

        try:
            check(sharded)
            sharded.add_row("Reserves", (22, 101, "2025/01/01"))
            check(sharded)
            before = _segments()
            sharded.add_relation(Relation(
                db.relation("Reserves").schema,
                db.relation("Reserves").rows()[:6], validate=False))
            check(sharded)
            counts = backend.execution_counts()
            assert counts["publish_full"] == 6 and counts["publish_tail"] == 1
            assert counts["resident_lineages"] == 6
            assert len(before - _segments()) == 3    # 2 bases + the tail run
            wider = reshard(sharded, 3)
            sharded.close()
            sharded = wider
            check(sharded)
            assert backend.execution_counts()["page_runs_live"] == 6
        finally:
            backend.close()
            sharded.close()

    def test_counts_reach_the_metrics_endpoint(self, db):
        """write, scatter, write, scatter, ``GET /metrics``."""
        import http.client
        import json

        from repro.server import ServerThread

        service = ShardedQueryService(db, backend="process", n_shards=2,
                                      workers=2)
        before = _segments()
        with ServerThread(service) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=60)

            def call(method, path, body=None):
                conn.request(method, path,
                             None if body is None else json.dumps(body))
                response = conn.getresponse()
                assert response.status == 200, response.read()
                return json.loads(response.read())

            for day in ("2025/02/01", "2025/02/02"):
                call("POST", "/write", {"relation": "Reserves",
                                        "rows": [[22, 101, day]]})
                call("POST", "/query", {"text": _JOIN_SQL})
            metrics = call("GET", "/metrics")
            conn.close()
        service.close()
        assert metrics["exec_scatter"] == 2
        assert metrics["exec_publish_full"] == 4
        assert metrics["exec_publish_tail"] == 1
        # Which of the two workers takes which shard is the pool's
        # business: a shard seen by both is decoded by both.
        assert metrics["exec_rows_decoded"] >= metrics["exec_rows_encoded"]
        assert 4 <= metrics["exec_resident_lineages"] <= 8
        assert metrics["exec_page_runs_live"] == 5
        assert metrics["exec_page_bytes_live"] > 0
        assert metrics["exec_stale_manifest"] == 0
        assert _segments() <= before


class TestWriterRacesProcessReaders:
    def test_republish_after_version_bump(self, db):
        backend = ProcessBackend(workers=2)
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

    def test_gc_of_the_database_unlinks_a_chain(self, db):
        import gc

        sharded = ShardedDatabase.from_database(db, 2)
        publisher = sharded.page_publisher()
        slot_relation = sharded.shard(0).relation("Sailors")
        names = set()
        for i in range(4):                   # 8, 4, 2, 1 rows: runs pile up
            names.add(publisher.publish("0/sailors", slot_relation).name)
            slot_relation.add_rows([(200 + i, "gc", 1, 20.0)] * 2 ** (3 - i))
        names.add(publisher.publish("0/sailors", slot_relation).name)
        linked = names & _segments()
        assert len(linked) >= 3 and len(publisher.live_runs()) == len(linked)
        del sharded, publisher, slot_relation
        gc.collect()
        assert not names & _segments()

    def test_clean_under_resource_warning_errors(self):
        """The whole stack leaves no pools/segments behind: after
        ``close()`` and — for a publisher nobody closed — after interpreter
        exit, with chains several runs long in both."""
        code = """
import os
from repro.core.sharded_service import ShardedQueryService
from repro.data import ShardedDatabase, sailors_database
from repro.engine import ShardedBackend, run_query

def leftover():
    return [f for f in os.listdir("/dev/shm")
            if f.startswith(f"repro-pg-{os.getpid()}-")]

db = sailors_database()
run_query("SELECT S.sname FROM Sailors S WHERE S.rating > 5",
          ShardedDatabase.from_database(db, 2), backend=ShardedBackend())
join = ("SELECT S.sname, R.bid FROM Sailors S, Reserves R "
        "WHERE S.sid = R.sid")
with ShardedQueryService(backend="process", n_shards=2, workers=2) as svc:
    svc.add_rows("Reserves", [(22, 101, f"2025/03/{d:02d}")
                              for d in range(1, 20)])
    for day in range(1, 8):
        svc.answer(join)
        svc.add_row("Reserves", (22, 102, f"2025/04/{day:02d}"))
    svc.answer(join)
    counts = svc.execution_counts()
    assert counts["publish_tail"] == 7 and counts["page_runs_live"] >= 6
    assert len(leftover()) == counts["page_runs_live"]
assert not leftover(), leftover()
print("CLEAN")
# A publisher nobody closes: its exit hook has to unlink the chain.
orphan = ShardedDatabase.from_database(db, 2)
reserves = orphan.shard(0).relation("Reserves")
for i in range(4):
    orphan.page_publisher().publish("0/reserves", reserves)
    reserves.add_rows([(22, 103, "2025/05/01")] * 2 ** (3 - i))
orphan.page_publisher().publish("0/reserves", reserves)
assert len(leftover()) >= 3
print("PID", os.getpid())
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
        pid = result.stdout.split("PID")[1].split()[0]
        assert not [f for f in _segments()
                    if f.startswith(f"{SEGMENT_PREFIX}-{pid}-")]
