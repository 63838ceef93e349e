"""Dictionary-encoded string columns: pages, kernels, stats, and caches.

Covers the storage codec (``"D"`` sorted-dictionary string pages, ``"E"``
low-cardinality mixed pages), the dictionary-aware kernels (string
selections, multi-key probes, DISTINCT, DISTINCT aggregates) pinned
bit-identical against the pure-Python executor, distinct counts sourced
from the dictionary in ``StatsCatalog``, and the bounded derived-structure
cache (byte-accounted LRU, hit/miss/eviction counters, per-backend sinks).
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import pytest

from gates import pinned_gates
import repro.engine.kernels as kernels
from repro.data.database import Database
from repro.data.sharded import ShardedDatabase
from repro.data.relation import (
    ColumnStore,
    _encode_column,
    dict_page_layout,
    dict_page_values,
    relation_from_rows,
)
from repro.engine.kernels import kernels_enabled
from repro.engine.plan import AggregateP, DistinctP, FilterP, JoinP, ScanP
from repro.engine.sharded import ShardedBackend
from repro.engine.stats import (EMITTED_ROW_COST, KERNEL_MIN_ROWS,
                                 StatsCatalog, collect_table_stats)
from repro.engine.vectorized import compile_batches
from repro.expr import ast as e

needs_kernels = pytest.mark.skipif(not kernels_enabled(),
                                   reason="numpy kernels disabled")


# ---------------------------------------------------------------------------
# Page codec
# ---------------------------------------------------------------------------

class TestDictionaryPages:
    def _round_trip(self, names, arrays):
        store = ColumnStore(names, arrays)
        decoded = ColumnStore.decode_pages(store.encode_pages())
        assert decoded.to_rows() == store.to_rows()
        for left, right in zip(decoded.arrays, store.arrays):
            assert [type(v) for v in left] == [type(v) for v in right]
        return decoded

    def test_string_round_trip_with_nulls(self):
        self._round_trip(["s"], [["b", None, "a", "b", "", None, "ü"]])

    def test_all_duplicate_strings(self):
        self._round_trip(["s"], [["x"] * 50])

    def test_string_page_kind_and_layout(self):
        store = ColumnStore(["s"], [["b", None, "a", "b"]])
        decoded = ColumnStore.decode_pages(store.encode_pages())
        kind, mask, payload, n_rows = decoded.pages[0]
        assert kind == "D" and n_rows == 4
        n_dict, width, _blob_offset, _codes_offset = dict_page_layout(payload)
        assert (n_dict, width) == (2, 4)  # sorted {"a", "b"}, int32 codes
        assert dict_page_values(payload) == ["a", "b"]
        assert bytes(mask) == bytes([0, 1, 0, 0])

    def test_low_cardinality_mixed_column_dict_encodes(self):
        values = [1, "two", None, True, 1] * 10
        kind, _mask, _payload = _encode_column(values)
        assert kind == b"E"
        self._round_trip(["m"], [values])

    def test_mixed_dictionary_keeps_cross_type_values_distinct(self):
        # 1 == 1.0 == True in Python; the page must still restore the
        # original object types per row.
        self._round_trip(["m"], [[1, 1.0, True, None] * 8])

    def test_high_cardinality_mixed_column_falls_back_to_pickle(self):
        values = [(i, "t") for i in range(20)]  # hashable but all distinct
        kind, _mask, _payload = _encode_column(values)
        assert kind == b"o"

    def test_unhashable_mixed_column_falls_back_to_pickle(self):
        kind, _mask, _payload = _encode_column([[1], [1], [1], [1]])
        assert kind == b"o"


# ---------------------------------------------------------------------------
# dictionary_stats + StatsCatalog
# ---------------------------------------------------------------------------

class TestDictionaryStats:
    def test_stats_from_decoded_page(self):
        store = ColumnStore(["s"], [["b", None, "a", "b", None]])
        decoded = ColumnStore.decode_pages(store.encode_pages())
        assert decoded.dictionary_stats(0) == (2, 2)

    def test_no_stats_for_numeric_columns(self):
        store = ColumnStore(["i"], [[1, 2, 2]])
        decoded = ColumnStore.decode_pages(store.encode_pages())
        assert decoded.dictionary_stats(0) is None

    def test_collect_table_stats_matches_set_scan(self):
        rel = relation_from_rows(
            "t", [("k", "string"), ("v", "int")],
            [("b", 1), (None, 2), ("a", 3), ("b", None), ("c", 5)])
        stats = collect_table_stats(rel)
        assert stats.row_count == 5
        k = stats.columns[0]
        assert (k.distinct, k.null_count) == (3, 1)
        assert k.min_value is None and k.max_value is None
        v = stats.columns[1]
        assert (v.distinct, v.null_count, v.min_value, v.max_value) \
            == (4, 1, 1.0, 5.0)

    @needs_kernels
    def test_stats_reuse_live_encoding_dictionary(self):
        rel = relation_from_rows(
            "t", [("k", "string")], [("b",), ("a",), ("b",), (None,)])
        store = rel.column_store()
        assert kernels.store_encoding(store, 0) is not None
        assert store.dictionary_stats(0) == (2, 1)
        catalog = StatsCatalog(Database([rel]))
        assert catalog.table("t").columns[0].distinct == 2

    def test_stats_follow_appends(self):
        rel = relation_from_rows("t", [("k", "string")], [("a",), ("a",)])
        assert collect_table_stats(rel).columns[0].distinct == 1
        rel.add(("z",))
        assert collect_table_stats(rel).columns[0].distinct == 2


# ---------------------------------------------------------------------------
# Kernel ≡ Python equivalences
# ---------------------------------------------------------------------------

def _db():
    users = relation_from_rows(
        "users", [("uid", "int"), ("city", "string"), ("tier", "string")],
        [(i, f"city{i % 7}" if i % 11 else None, "abc"[i % 3])
         for i in range(80)])
    orders = relation_from_rows(
        "orders", [("ouid", "int"), ("ocity", "string"), ("amount", "int")],
        [(i % 37, f"city{i % 9}" if i % 13 else None, i % 10)
         for i in range(120)])
    return Database([users, orders])


def _both(plan, db):
    """``(kernel rows, row-implementation rows)`` from the one executor.

    These relations are far below ``KERNEL_MIN_ROWS``: the gate is opened
    for the first run and put out of reach for the second.
    """
    with pinned_gates(0):
        fast = compile_batches(plan)(db).rows()
    with pinned_gates(None):
        slow = compile_batches(plan)(db).rows()
    return fast, slow


USERS = ScanP("users", ("uid", "city", "tier"))
ORDERS = ScanP("orders", ("ouid", "ocity", "amount"))


@needs_kernels
class TestKernelEquivalence:
    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    @pytest.mark.parametrize("const", ["city3", "city10", "", "zzz"])
    def test_string_const_filter(self, op, const):
        db = _db()
        plan = FilterP(USERS, e.Comparison(e.Col("city"), op, e.Const(const)))
        fast, slow = _both(plan, db)
        assert fast == slow

    @pytest.mark.parametrize("op", ["=", "<>", "<"])
    def test_string_column_column_filter(self, op):
        db = _db()
        plan = FilterP(USERS, e.Comparison(e.Col("city"), op, e.Col("tier")))
        fast, slow = _both(plan, db)
        assert fast == slow

    def test_single_string_key_join(self):
        db = _db()
        plan = JoinP(ORDERS, USERS, "inner", ("ocity",), ("city",),
                     None, False)
        fast, slow = _both(plan, db)
        assert fast == slow  # emission order included, not just the bag

    def test_multi_key_join_int_and_string(self):
        db = _db()
        plan = JoinP(ORDERS, USERS, "inner", ("ouid", "ocity"),
                     ("uid", "city"), None, False)
        fast, slow = _both(plan, db)
        assert fast == slow

    def test_null_matches_join_falls_back_identically(self):
        db = _db()
        plan = JoinP(ORDERS, USERS, "inner", ("ocity",), ("city",),
                     None, True)
        fast, slow = _both(plan, db)
        assert fast == slow

    def test_join_probe_of_non_scan_build_side(self):
        db = _db()
        filtered = FilterP(USERS, e.Comparison(
            e.Col("tier"), "<>", e.Const("c")))
        plan = JoinP(ORDERS, filtered, "inner", ("ocity",), ("city",),
                     None, False)
        fast, slow = _both(plan, db)
        assert fast == slow

    def test_distinct_on_strings_and_nulls(self):
        db = _db()
        plan = DistinctP(USERS)
        fast, slow = _both(plan, db)
        assert fast == slow  # first-occurrence order included

    def test_distinct_after_projection(self):
        from repro.engine.plan import ProjectP
        db = _db()
        plan = DistinctP(ProjectP(USERS, (e.Col("city"), e.Col("tier")),
                                  ("c", "t")))
        fast, slow = _both(plan, db)
        assert fast == slow

    @pytest.mark.parametrize("fn", ["count", "sum", "avg", "min", "max"])
    def test_distinct_aggregates(self, fn):
        db = _db()
        plan = AggregateP(
            ORDERS, (e.Col("ouid"),),
            ((e.FuncCall(fn, (e.Col("amount"),), distinct=True), "agg"),))
        fast, slow = _both(plan, db)
        assert fast == slow

    def test_count_distinct_strings(self):
        db = _db()
        # NULL-free group keys keep the kernel engaged.
        plan = AggregateP(
            ORDERS, (e.Col("amount"),),
            ((e.FuncCall("count", (e.Col("ocity"),), distinct=True), "agg"),))
        fast, slow = _both(plan, db)
        assert fast == slow

    def test_open_gate_without_kernels_is_pure_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "0")
        db = _db()
        plan = DistinctP(USERS)
        fast, slow = _both(plan, db)
        assert fast == slow


# ---------------------------------------------------------------------------
# String MIN/MAX: reduced on order-preserving codes, decoded per group
# ---------------------------------------------------------------------------

def _words_db(rows, *, paged=False):
    rel = relation_from_rows("words", [("g", "int"), ("w", "string")], rows)
    if paged:  # the worker-side shape: int32 codes viewed from a "D" page
        from repro.data.relation import Relation

        store = ColumnStore.decode_pages(rel.column_store().encode_pages())
        rel = Relation.from_column_store(rel.schema, store)
    return Database([rel])


WORDS = ScanP("words", ("g", "w"))
_WORD_ROWS = [(0, "pear"), (0, None), (0, "apple"), (0, "zoo"), (0, "apple"),
              (1, None), (1, None),                      # an all-NULL group
              (2, "mid"),                                # a singleton
              (3, ""), (3, "a"), (3, "ä"), (3, "B")]     # code-point order


def _minmax(group=True, distinct=False):
    return AggregateP(
        WORDS, (e.Col("g"),) if group else (),
        ((e.FuncCall("min", (e.Col("w"),), distinct=distinct), "lo"),
         (e.FuncCall("max", (e.Col("w"),), distinct=distinct), "hi"),
         (e.FuncCall("count", (e.Col("w"),)), "n")))


class TestStringMinMaxKernel:
    @needs_kernels
    @pytest.mark.parametrize("paged", [False, True])
    @pytest.mark.parametrize("group", [True, False])
    @pytest.mark.parametrize("distinct", [False, True])
    def test_matches_python_fold(self, paged, group, distinct, monkeypatch):
        calls = []
        kernel = kernels.kernel_aggregate

        def spy(plan, batch):
            lowered = kernel(plan, batch)
            calls.append(lowered is not None)
            return lowered

        monkeypatch.setattr(kernels, "kernel_aggregate", spy)
        fast, slow = _both(_minmax(group, distinct),
                           _words_db(_WORD_ROWS, paged=paged))
        assert calls == [True]  # the kernel took it; it did not decline
        assert fast == slow
        # Rows are (g, representative w, lo, hi, n).
        if group:
            assert [row[:1] + row[2:] for row in fast] == [
                (0, "apple", "zoo", 4), (1, None, None, 0),
                (2, "mid", "mid", 1), (3, "", "ä", 4)]
        else:
            assert [row[2:] for row in fast] == [("", "ä", 9)]

    @needs_kernels
    def test_filtered_selection_and_int_aggregate_beside_it(self):
        db = _words_db(_WORD_ROWS)
        plan = AggregateP(
            FilterP(WORDS, e.Comparison(e.Col("g"), "<>", e.Const(2))),
            (e.Col("g"),),
            ((e.FuncCall("max", (e.Col("w"),)), "hi"),
             (e.FuncCall("min", (e.Col("g"),)), "glo"),
             (e.FuncCall("count", (e.Star(),)), "n")))
        fast, slow = _both(plan, db)
        assert fast == slow
        assert [row[:1] + row[2:] for row in fast] == [
            (0, "zoo", 0, 5), (1, None, 1, 2), (3, "ä", 3, 4)]

    def test_empty_and_all_null_inputs(self):
        for rows in ([], [(1, None), (2, None)]):
            db = _words_db(rows)
            for group in (True, False):
                fast, slow = _both(_minmax(group), db)
                assert fast == slow
        fast, slow = _both(
            AggregateP(FilterP(WORDS, e.Comparison(e.Col("g"), ">",
                                                   e.Const(99))),
                       (), _minmax().aggregates),
            _words_db(_WORD_ROWS))
        assert fast == slow == [(None, None, None, None, 0)]

    def test_sum_over_strings_still_raises_like_python(self, kernel_gate):
        plan = AggregateP(WORDS, (e.Col("g"),),
                          ((e.FuncCall("sum", (e.Col("w"),)), "s"),))
        db = _words_db(_WORD_ROWS)
        for gate in (0, None):
            kernel_gate(gate)
            with pytest.raises(TypeError):
                compile_batches(plan)(db).rows()

    def test_kernels_off_is_the_python_fold(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "0")
        fast, slow = _both(_minmax(), _words_db(_WORD_ROWS))
        assert fast == slow


# ---------------------------------------------------------------------------
# The kernel gate: row implementations below KERNEL_MIN_ROWS, kernels from
# it up
# ---------------------------------------------------------------------------

@needs_kernels
class TestKernelGate:
    KERNELS = ("kernel_filter", "kernel_probe", "kernel_distinct",
               "kernel_aggregate")

    @pytest.fixture()
    def engaged(self, monkeypatch):
        """Which kernels were offered a batch and took it."""
        taken: list[str] = []
        for name in self.KERNELS:
            kernel = getattr(kernels, name)

            def spy(*args, _name=name, _kernel=kernel):
                result = _kernel(*args)
                if result is not None:
                    taken.append(_name)
                return result

            monkeypatch.setattr(kernels, name, spy)
        return taken

    @staticmethod
    def _db(n):
        t = relation_from_rows(
            "t", [("k", "int"), ("s", "string"), ("v", "int")],
            [(i, f"s{i % 13}", i % 7) for i in range(n)])
        u = relation_from_rows(
            "u", [("uk", "int"), ("w", "string")],
            [(i, f"w{i % 5}") for i in range(n)])
        return Database([t, u])

    @staticmethod
    def _plans():
        from repro.engine.plan import ProjectP

        t = ScanP("t", ("k", "s", "v"))
        u = ScanP("u", ("uk", "w"))
        keep_all = FilterP(t, e.Comparison(e.Col("v"), ">=", e.Const(0)))
        grouped = AggregateP(
            keep_all, (e.Col("s"),),
            ((e.FuncCall("max", (e.Col("s"),)), "hi"),
             (e.FuncCall("sum", (e.Col("v"),)), "total")))
        joined = DistinctP(ProjectP(
            JoinP(t, u, "inner", ("k",), ("uk",), None, False),
            (e.Col("s"), e.Col("w")), ("s", "w")))
        return grouped, joined

    def _run(self, n):
        db = self._db(n)
        # ``u`` holds its key index, as after an equality lookup: the
        # probe's rows at stake are then its own (``u`` is 1:1).
        db.relation("u").key_index((0,))
        return [compile_batches(plan)(db).rows()
                for plan in self._plans()]

    def test_loops_below_the_gate_kernels_from_it_up(self, engaged,
                                                     kernel_gate):
        """Each hook where its rows at stake reach the crossover: the row
        implementation one row below, the kernel from there.  A selection,
        group-by or DISTINCT has its batch's rows at stake; the probe of
        ``u``, which holds its 1:1 key index, the n rows it emits at
        ``EMITTED_ROW_COST`` each, so it engages from a quarter of the
        batch size."""
        gates = dict.fromkeys(self.KERNELS, KERNEL_MIN_ROWS)
        gates["kernel_probe"] = KERNEL_MIN_ROWS // EMITTED_ROW_COST
        rows, taken = {}, {}
        for n in sorted({m for gate in gates.values()
                         for m in (gate - 1, gate)}):
            del engaged[:]
            rows[n] = self._run(n)
            taken[n] = set(engaged)
        for hook, gate in gates.items():
            assert hook not in taken[gate - 1], (hook, gate - 1)
            assert hook in taken[gate], (hook, gate)
            # One more row changes one group and nothing else.
            assert [len(r) for r in rows[gate]] \
                == [len(r) for r in rows[gate - 1]]
        assert taken[KERNEL_MIN_ROWS] == set(self.KERNELS)
        # Same plans, same data, gates out of reach: the reference rows.
        del engaged[:]
        kernel_gate(None)
        for n, want in rows.items():
            assert self._run(n) == want
        assert engaged == []

    @pytest.mark.parametrize("column", ["k", "s", "f", "full"])
    def test_is_null_kernel_selects_what_the_row_predicate_selects(
            self, engaged, kernel_gate, column):
        n = KERNEL_MIN_ROWS
        db = Database([relation_from_rows(
            "t", [("k", "int"), ("s", "string"), ("f", "float"),
                  ("full", "int")],
            [(None if i % 97 == 0 else i, None if i % 89 == 0 else f"s{i}",
              None if i % 83 == 0 else i / 2, i) for i in range(n)])])
        t = ScanP("t", ("k", "s", "f", "full"))
        plans = [FilterP(t, e.IsNull(e.Col(column))),
                 FilterP(t, e.conjunction([
                     e.Comparison(e.Col("full"), ">=", e.Const(100)),
                     e.IsNull(e.Col(column))]))]
        taken = [compile_batches(plan)(db).rows() for plan in plans]
        assert engaged == ["kernel_filter"] * 3   # every conjunct
        kernel_gate(None)
        assert taken == [compile_batches(plan)(db).rows()
                         for plan in plans]
        assert [len(rows) for rows in taken] == [
            sum(row[("k", "s", "f", "full").index(column)] is None
                for row in db.relation("t").rows()[start:])
            for start in (0, 100)]

    def test_each_operator_is_gated_on_its_own_batch(self, engaged):
        n = KERNEL_MIN_ROWS
        live = self._db(n)
        # A frozen snapshot holding no index is scanned, not looked up.
        db = Database([live.relation("t").copy().freeze()])
        t = ScanP("t", ("k", "s", "v"))
        # The filter sees n rows (kernel); what it keeps — a seventh — is
        # below the gate, so the group-by over it runs the Python fold.
        plan = AggregateP(
            FilterP(t, e.Comparison(e.Col("v"), "=", e.Const(3))),
            (e.Col("s"),), ((e.FuncCall("count", (e.Star(),)), "n"),))
        rows = compile_batches(plan)(db).rows()
        assert engaged == ["kernel_filter"]
        assert sum(row[-1] for row in rows) == len(range(3, n, 7))

    def test_a_snapshot_build_side_counts_toward_the_probe_gate(self, engaged):
        """A small probe of a big relation: where the relation holds its
        ``key_index`` the Python loop probes it.  Where it holds nothing —
        a frozen snapshot (a worker's attached shard), or a live relation
        never probed on that key — either path would index every row for
        this probe, so the build rows count and the kernel takes it,
        leaving no index on the relation."""
        n = KERNEL_MIN_ROWS
        small = relation_from_rows("p", [("pk", "int")],
                                   [(i,) for i in range(0, n, 64)])
        plan = JoinP(ScanP("p", ("pk",)), ScanP("u", ("uk", "w")),
                     "inner", ("pk",), ("uk",), None, False)

        def run(u):
            del engaged[:]
            return compile_batches(plan)(Database([small, u])).rows()

        u = self._db(n).relation("u")
        snapshot = run(u.copy().freeze())
        assert engaged == ["kernel_probe"]
        assert run(u) == snapshot and engaged == ["kernel_probe"]
        assert u.held_key_index((0,)) is None
        indexed = self._db(n).relation("u")
        indexed.key_index((0,))
        assert run(indexed) == snapshot and engaged == []
        assert len(snapshot) == len(small)


# ---------------------------------------------------------------------------
# Extended encodings: a grown column re-encodes its tail, not itself
# ---------------------------------------------------------------------------

def _grow_plans():
    """String MIN/MAX, range selections and an equi-join over ``words``."""
    other = ScanP("words", ("g2", "w2"))
    yield _minmax(group=True)
    yield _minmax(group=False)
    for op, const in (("<", "m"), (">=", "b"), ("<", "A"), (">=", "zz"),
                      ("=", "bb")):
        yield FilterP(WORDS, e.Comparison(e.Col("w"), op, e.Const(const)))
    yield JoinP(WORDS, other, "inner", ("w",), ("w2",), None, False)
    yield JoinP(WORDS, other, "inner", ("g", "w"), ("g2", "w2"), None, False)


#: Appended in turn: words sorting before / between / after the base
#: dictionary, the column's first NULLs, a batch with no new word.
_GROWTH = [
    [(0, "A"), (4, "bb")],
    [(1, None), (2, "zz"), (2, None)],
    [(3, "pear"), (0, "A")],
    [(5, "ä"), (5, ""), (5, "0")],
]


@needs_kernels
class TestExtendedEncodings:
    @pytest.fixture(autouse=True)
    def _open_gate(self, kernel_gate):
        kernel_gate(0)
        kernels.clear_cache()
        yield
        kernels.clear_cache()

    @pytest.fixture()
    def full_encodes(self, monkeypatch):
        """Lengths of the columns ``_encode_list`` was asked to scan."""
        seen: list[int] = []
        encode_list = kernels._encode_list

        def spy(values):
            seen.append(len(values))
            return encode_list(values)

        monkeypatch.setattr(kernels, "_encode_list", spy)
        return seen

    def _check_dictionary(self, store, index):
        n, encoding = store.kernel_cache[index]
        column = store.arrays[index]
        assert n == len(column) == len(encoding.values)
        words = encoding.dictionary.tolist()
        assert words == sorted(set(words))               # sorted, no dups
        assert set(words) == {v for v in column if v is not None}
        decoded = [None if c < 0 else words[c]
                   for c in encoding.values.tolist()]
        assert decoded == column
        assert (encoding.mask is None) == (None not in column)
        if encoding.mask is not None:
            assert encoding.mask.tolist() == [v is None for v in column]

    @pytest.mark.parametrize("paged", [False, True])
    def test_grown_string_column_matches_the_python_loops(
            self, paged, full_encodes):
        """Live relation, and the worker shape: int32 codes viewed from a
        ``D`` page, extended by ``extend_attached`` run by run."""
        from repro.data.sharded import (SharedPagePublisher, attach_segment,
                                        detach_segment, extend_attached)

        base = [(i % 4, w) for i, w in enumerate(
            ["pear", "apple", "mid", "b", "c", "apple", "pear", "cc"])]
        source = relation_from_rows(
            "words", [("g", "int"), ("w", "string")], base)
        publisher = SharedPagePublisher()
        try:
            if paged:
                rel, mapping = attach_segment(
                    publisher.publish("0/words", source))
            else:
                rel, mapping = source, None
            db = Database([rel])
            for batch in [[], *_GROWTH]:
                source.add_rows(batch)
                if paged:
                    extend_attached(rel, publisher.publish("0/words", source))
                assert rel.rows() == source.rows()
                for plan in _grow_plans():
                    fast, slow = _both(plan, db)
                    assert fast == slow
                self._check_dictionary(rel.column_store(), 1)
            # Whole columns were scanned once (never, over pages): every
            # later encoding extended the one before it.
            assert full_encodes == ([] if paged else [len(base)] * 2)
            if paged:
                del db, rel
                detach_segment(mapping)
        finally:
            publisher.close()

    def test_a_tail_without_new_words_keeps_the_dictionary_object(self):
        rel = relation_from_rows("t", [("w", "string")],
                                 [("a",), ("c",), (None,)])
        store = rel.column_store()
        first = kernels.store_encoding(store, 0)
        rel.add_rows([("c",), (None,), ("a",)])
        second = kernels.store_encoding(store, 0)
        assert second is not first
        assert second.dictionary is first.dictionary
        assert second.values.tolist() == [0, 1, -1, 1, -1, 0]
        rel.add(("b",))
        third = kernels.store_encoding(store, 0)
        assert third.dictionary.tolist() == ["a", "b", "c"]
        assert third.values.tolist() == [0, 2, -1, 2, -1, 0, 1]

    def test_numeric_tails_combine_their_flags(self):
        rel = relation_from_rows(
            "t", [("i", "int"), ("f", "float")], [(1, 1.5), (2, 2.5)])
        store = rel.column_store()
        ints, floats = (kernels.store_encoding(store, i) for i in (0, 1))
        assert ints.exact and ints.mask is None and not floats.has_nan
        rel.add_rows([(None, 3.5), (2**60, float("nan"))], validate=False)
        ints, floats = (kernels.store_encoding(store, i) for i in (0, 1))
        assert ints.values.tolist() == [1, 2, 0, 2**60]
        assert ints.mask.tolist() == [False, False, True, False]
        assert not ints.exact                 # 2**60 > 2**53
        assert floats.has_nan and floats.mask is None
        rel.add_rows([(3, None)])
        ints, floats = (kernels.store_encoding(store, i) for i in (0, 1))
        assert not ints.exact and floats.has_nan         # flags are sticky
        assert floats.mask.tolist() == [False] * 4 + [True]
        assert len(ints.values) == len(floats.values) == 5

    @pytest.mark.parametrize("value", ["x", 1.5, True, 2**70, (1,)])
    def test_a_kind_change_falls_back_to_the_full_encode(self, value):
        rel = relation_from_rows("t", [("i", "int")], [(1,), (None,), (3,)])
        store = rel.column_store()
        assert kernels.store_encoding(store, 0) is not None
        rel.add((value,), validate=False)
        assert kernels.store_encoding(store, 0) is None  # as a fresh scan
        assert kernels._encode_list(store.arrays[0]) is None
        rel.add((4,))
        assert kernels.store_encoding(store, 0) is None

    def test_an_all_null_prefix_is_encoded_once_values_arrive(self):
        rel = relation_from_rows("t", [("i", "int")], [(None,), (None,)])
        store = rel.column_store()
        assert kernels.store_encoding(store, 0) is None
        rel.add((7,))
        encoding = kernels.store_encoding(store, 0)
        assert encoding.values.tolist() == [0, 0, 7]
        assert encoding.mask.tolist() == [True, True, False]


# ---------------------------------------------------------------------------
# Derived-structure cache
# ---------------------------------------------------------------------------

@needs_kernels
class TestKernelCache:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self, kernel_gate):
        kernel_gate(0)  # tiny build sides must reach the cached structures
        kernels.clear_cache()
        yield
        kernels.clear_cache()

    def test_build_structure_cached_across_queries(self):
        db = _db()
        plan = JoinP(ORDERS, USERS, "inner", ("ouid", "ocity"),
                     ("uid", "city"), None, False)
        sink: dict[str, int] = {}
        program = compile_batches(plan)
        first = program(db, sink=sink).rows()
        misses_after_first = sink.get("kernel_cache_misses", 0)
        assert misses_after_first >= 1
        assert program(db, sink=sink).rows() == first
        assert sink.get("kernel_cache_hits", 0) >= 1
        assert sink.get("kernel_cache_misses", 0) == misses_after_first

    def test_cache_stats_shape(self):
        stats = kernels.cache_stats()
        for key in ("entries", "bytes", "budget_bytes",
                    "hits", "misses", "evictions"):
            assert key in stats

    def test_byte_budget_evicts_lru(self, monkeypatch):
        monkeypatch.setattr(kernels._CACHE, "max_bytes", 1)
        db = _db()
        plan = JoinP(ORDERS, USERS, "inner", ("ocity",), ("city",),
                     None, False)
        sink: dict[str, int] = {}
        compile_batches(plan)(db, sink=sink).rows()
        assert sink.get("kernel_cache_evictions", 0) >= 1
        assert kernels.cache_stats()["bytes"] <= 1

    def test_entry_limit_bounds_the_cache(self, monkeypatch):
        monkeypatch.setattr(kernels._CACHE, "capacity", 4)
        for i in range(10):
            rel = relation_from_rows(
                f"t{i}", [("k", "string"), ("v", "int")],
                [(f"s{j}", j) for j in range(5)])
            db = Database([rel])
            scan = ScanP(f"t{i}", ("k", "v"))
            plan = JoinP(scan, scan, "inner", ("k",), ("k",), None, False)
            compile_batches(plan)(db).rows()
        assert kernels.cache_stats()["entries"] <= 4

    def test_literal_varied_filtered_joins_do_not_grow_the_cache(self):
        """A filtered build side is a new hash table every query: its probe
        structure (and its dictionary translation) must be built for the
        probe and dropped, or every literal leaves an entry that can never
        hit again.  Only the base-relation build side may stay."""
        db = _db()
        users2 = ScanP("users", ("uid2", "city2", "tier2"))

        def plan(literal):
            filtered = FilterP(USERS, e.Comparison(
                e.Col("uid"), ">", e.Const(literal)))
            per_query = JoinP(ORDERS, filtered, "inner", ("ocity",),
                              ("city",), None, False)     # string keys
            return JoinP(per_query, users2, "inner", ("ouid",), ("uid2",),
                         None, False)                     # one base build

        sink: dict[str, int] = {}
        for literal in range(3):
            compile_batches(plan(literal))(db, sink=sink).rows()
        settled = kernels.cache_stats()
        assert 1 <= settled["entries"] <= 2
        for literal in range(3, 203):
            fast, slow = _both(plan(literal % 70), db)
            assert fast == slow
        after = kernels.cache_stats()
        assert after["entries"] == settled["entries"]
        assert after["bytes"] == settled["bytes"]
        assert after["evictions"] == settled["evictions"]

    def test_writes_do_not_strand_structures(self):
        """A write replaces the encodings of the columns it grew; the
        structures anchored on the replaced ones can never be looked up
        again and must leave with them, not wait for the LRU bounds."""
        db = _db()
        users, orders = db.relation("users"), db.relation("orders")
        by_city = JoinP(ORDERS, USERS, "inner", ("ocity",), ("city",),
                        None, False)                 # + a translation
        by_both = JoinP(ORDERS, USERS, "inner", ("ouid", "ocity"),
                        ("uid", "city"), None, False)
        sizes = []
        for step in range(12):
            for plan in (by_city, by_both):
                fast, slow = _both(plan, db)
                assert fast == slow
            sizes.append(kernels.cache_stats()["entries"])
            users.add((100 + step, f"town{step}", "a"))   # a new word
            orders.add((step, f"city{step % 9}", 1))      # none
        assert len(set(sizes)) == 1 and sizes[0] <= 4
        current = []
        for relation in (users, orders):
            for _n, encoding in relation.column_store().kernel_cache.values():
                current += [encoding, encoding.dictionary]
        with kernels._CACHE._lock:
            entries = list(kernels._CACHE._data.values())
        for (anchors, _payload), _cost in entries:
            assert all(any(anchor is live for live in current)
                       for anchor in anchors)
        assert kernels.cache_stats()["bytes"] \
            == sum(cost for _entry, cost in entries)

    def test_service_cache_info_exposes_kernel_cache(self):
        from repro.core.service import QueryService

        with QueryService() as service:
            service.answer(
                "SELECT S.sname FROM Sailors S, Reserves R "
                "WHERE S.sid = R.sid")
            info = service.cache_info()
        snapshot = kernels.cache_stats()
        assert info["kernel_cache_entries"] == snapshot["entries"]
        assert info["kernel_cache_bytes"] == snapshot["bytes"]
        for key in ("kernel_cache_hits", "kernel_cache_misses",
                    "kernel_cache_evictions"):
            assert info[key] >= 0

    def test_sharded_backend_reports_kernel_counters(self):
        rel = relation_from_rows(
            "t", [("k", "int"), ("s", "string")],
            [(i, f"v{i % 5}") for i in range(40)])
        db = Database([rel])
        sharded = ShardedDatabase.from_database(db, 2)
        backend = ShardedBackend()
        scan = ScanP("t", ("k", "s"))
        scan2 = ScanP("t", ("k2", "s2"))
        plan = JoinP(scan, scan2, "inner", ("s",), ("s2",), None, False)
        counts = backend.execution_counts()
        for key in ("kernel_cache_hits", "kernel_cache_misses",
                    "kernel_cache_evictions"):
            assert counts[key] == 0
        reference = Counter(_both(plan, db)[1])
        assert Counter(backend.execute(plan, sharded)) == reference
        assert Counter(backend.execute(plan, sharded)) == reference
        counts = backend.execution_counts()
        traffic = counts["kernel_cache_hits"] + counts["kernel_cache_misses"]
        assert traffic >= 1
        # ... and the process-wide path counts ride along.
        assert counts["probe_kernel"] + counts["probe_loop"] >= 1
        # A second backend keeps its own traffic (per-service isolation).
        assert ShardedBackend().execution_counts()[
            "kernel_cache_hits"] == 0


# ---------------------------------------------------------------------------
# Bounded integer domains: radix orders, offset codes, lowered build sides
# ---------------------------------------------------------------------------

def _path_delta(run):
    """``(result, path counters bumped while ``run()`` ran)``."""
    before = kernels.path_counts()
    result = run()
    after = kernels.path_counts()
    return result, {key: after[key] - before[key]
                    for key in after if after[key] != before[key]}


def _kernel_paths(plan, db):
    """The path counters one kernel run of ``plan`` bumps, every stored
    column encoded beforehand (an encoding sorts its dictionary, once)."""
    for relation in db:
        store = relation.column_store()
        for index in range(len(store.arrays)):
            kernels.store_encoding(store, index)
    with pinned_gates(0):
        program = compile_batches(plan)
        return _path_delta(lambda: program(db).rows())[1]


def _every_way(plan, db):
    """The plan's rows from the kernels under the opened gate — after
    checking that the production gate, the row implementations and the row backend
    all give the same (the row backend as a bag: it orders joins its own
    way)."""
    from repro.engine import execute_plan

    fast, slow = _both(plan, db)
    assert fast == slow
    assert compile_batches(plan)(db).rows() == slow
    assert Counter(execute_plan(plan, db, backend="row").rows()) \
        == Counter(slow)
    return fast


@needs_kernels
class TestStableOrder:
    @pytest.mark.parametrize("bound, path", [
        (65535, "sort_radix"), (65536, "sort_radix"),
        (2**32 - 1, "sort_radix"), (2**32, "sort_compare")])
    def test_equals_the_comparison_sort_at_each_digit_boundary(self, bound,
                                                                path):
        import numpy as np

        rng = np.random.default_rng(bound % 977)
        keys = np.concatenate([
            rng.integers(0, bound + 1, 3000), [0, bound, bound, 0],
            rng.integers(max(bound - 3, 0), bound + 1, 200)])
        order, bumped = _path_delta(
            lambda: kernels._stable_order(keys, bound))
        assert bumped == {path: 1}
        assert order.tolist() == np.argsort(keys, kind="stable").tolist()

    def test_equal_keys_keep_their_positions(self):
        import numpy as np

        for bound in (7, 70000, None):
            keys = np.full(500, 7, dtype=np.int64)
            assert kernels._stable_order(keys, bound).tolist() \
                == list(range(500))
        keys = np.array([3, 1, 3, 1, 3] * 40, dtype=np.int64) * 20000
        assert kernels._stable_order(keys, 60000).tolist() \
            == np.argsort(keys, kind="stable").tolist()


def _wide_db(n=None):
    """Group/DISTINCT keys of every code shape, ``KERNEL_MIN_ROWS`` rows and
    more: ``neg`` negative and sparse (offset codes, two radix digits),
    ``far`` spanning more than 2**32 (ranked by a comparison sort), ``f``
    float, ``s`` string; ``v`` / ``w`` int and string with NULLs."""
    n = n or KERNEL_MIN_ROWS + 500
    rows = [((i * 7 % 37 - 18) * 100003, (i % 5 - 2) * 2**33, (i % 11) / 4,
             f"s{i % 13}", None if i % 9 == 0 else i % 101 - 50,
             None if i % 6 == 0 else f"w{i % 17}", i % 3)
            for i in range(n)]
    rel = relation_from_rows(
        "wide", [("neg", "int"), ("far", "int"), ("f", "float"),
                 ("s", "string"), ("v", "int"), ("w", "string"),
                 ("m", "int")], rows)
    return Database([rel])


WIDE = ScanP("wide", ("neg", "far", "f", "s", "v", "w", "m"))


@needs_kernels
class TestBoundedDomains:
    _FOLDS = tuple((e.FuncCall(fn, (e.Col(col),)), f"{fn}_{col}")
                   for fn in ("min", "max", "count") for col in ("v", "w")) \
        + ((e.FuncCall("count", (e.Star(),)), "n"),
           (e.FuncCall("sum", (e.Col("v"),)), "total"))

    @pytest.mark.parametrize("keys", [("neg",), ("far",), ("f",), ("s",),
                                      ("neg", "s"), ("far", "f", "m")])
    @pytest.mark.parametrize("filtered", [False, True])
    def test_group_by_matches_every_other_way(self, keys, filtered):
        source = WIDE if not filtered else FilterP(
            WIDE, e.Comparison(e.Col("m"), "<>", e.Const(1)))
        plan = AggregateP(source, tuple(e.Col(k) for k in keys), self._FOLDS)
        assert len(_every_way(plan, _wide_db())) > 4
        # Only a key that cannot be bounded costs a comparison sort.
        assert ("sort_compare" in _kernel_paths(plan, _wide_db())) \
            == bool({"far", "f"} & set(keys))

    @pytest.mark.parametrize("key, paths", [
        ("neg", {"group_sorted": 1, "sort_radix": 1}),  # 3.6M-slot domain
        ("s", {"group_direct": 1})])                      # 13 words
    def test_a_group_by_sorts_at_most_once(self, key, paths):
        """A wide domain is sorted once, for its group ids; a small one is
        addressed.  MIN/MAX fold with ``ufunc.at`` and add no sort."""
        db = _wide_db()
        plan = AggregateP(WIDE, (e.Col(key),), (
            (e.FuncCall("min", (e.Col("s"),)), "lo"),
            (e.FuncCall("max", (e.Col("m"),)), "hi")))
        assert _kernel_paths(plan, db) == paths
        _every_way(plan, db)

    @pytest.mark.parametrize("columns, compare_sorts", [
        (("far",), 1),           # span past the offset-code bound: ranked
        (("v",), 0),             # int + NULL: offset codes, one more for NULL
        (("neg", "v"), 0),       # packed limit below 2**32: two radix digits
        (("neg", "neg", "s"), 1),  # packed limit past 2**32
        (("f", "w"), 1)])
    def test_distinct_matches_every_other_way(self, columns, compare_sorts):
        from repro.engine.plan import ProjectP

        db = _wide_db()
        plan = DistinctP(ProjectP(
            WIDE, tuple(e.Col(c) for c in columns),
            tuple(f"c{i}" for i in range(len(columns)))))
        assert len(_every_way(plan, db)) > 4
        assert _kernel_paths(plan, db).get("sort_compare", 0) == compare_sorts


def _dom_db(keys):
    """``dom``: one row per ``(a, b)`` of ``keys`` — an int and a string
    group key — with a float ``x``, an int ``big`` at the int64 extremes
    and a small int ``v``."""
    rows = [(a, b, i / 7 + 0.1,
             (2**63 - 1, -2**63, i - 20)[i % 3], i % 9 - 4)
            for i, (a, b) in enumerate(keys)]
    return Database([relation_from_rows(
        "dom", [("a", "int"), ("b", "string"), ("x", "float"),
                ("big", "int"), ("v", "int")], rows)])


DOM = ScanP("dom", ("a", "b", "x", "big", "v"))


@needs_kernels
class TestAddressedDomains:
    """A packed group-by domain of at most one slot a row is addressed
    (``group_direct``), a wider one sorted (``group_sorted``); DISTINCT over
    one join side deduplicates base positions first
    (``distinct_positions``).  Every case: kernels ≡ row implementations ≡
    row backend."""

    _FOLDS = tuple((e.FuncCall(fn, (e.Col(col),)), f"{fn}_{col}")
                   for fn in ("min", "max") for col in ("b", "big")) + (
        (e.FuncCall("avg", (e.Col("x"),)), "avg_x"),
        (e.FuncCall("sum", (e.Col("v"),)), "sum_v"),
        (e.FuncCall("count", (e.Star(),)), "n"))

    @pytest.mark.parametrize("keys, pairs, path", [
        # 40 rows, a permutation of 0..39: 40 slots.
        (("a",), [(i * 7 % 40, "w") for i in range(40)], "group_direct"),
        # 40 rows over 0..40 without 20: 41 slots.
        (("a",), [(a, "w") for a in range(41) if a != 20], "group_sorted"),
        # 5 ints x 8 words packed: 40 slots over 40 rows, then 39.
        (("a", "b"), [(i % 5, f"w{i % 8}") for i in range(40)],
         "group_direct"),
        (("a", "b"), [(i % 5, f"w{i % 8}") for i in range(39)],
         "group_sorted"),
        (("b", "a"), [(i % 5, f"w{i % 8}") for i in range(80)],
         "group_direct")])
    def test_a_domain_is_addressed_up_to_one_slot_a_row(self, keys, pairs,
                                                        path):
        db = _dom_db(pairs)
        plan = AggregateP(DOM, tuple(e.Col(k) for k in keys), self._FOLDS)
        sorts = {"sort_radix": 1} if path == "group_sorted" else {}
        assert _kernel_paths(plan, db) == {path: 1, **sorts}
        rows = _every_way(plan, db)
        assert len(rows) == len(set(pairs))
        assert any(2**63 - 1 in row for row in rows) \
            and any(-2**63 in row for row in rows)

    def test_null_group_keys_decline(self):
        db = _dom_db([(i % 4, None if i % 5 == 0 else f"w{i % 3}")
                      for i in range(30)])
        for keys in (("b",), ("a", "b")):
            plan = AggregateP(DOM, tuple(e.Col(k) for k in keys),
                              self._FOLDS)
            bumped = _kernel_paths(plan, db)
            assert "group_direct" not in bumped \
                and "group_sorted" not in bumped
            assert any(row[1] is None for row in _every_way(plan, db))

    def test_an_int64_minimum_sum_declines(self):
        """``np.abs`` wraps the int64 minimum to itself; the SUM bound does
        not, so the sum overflowing int64 stays in Python."""
        db = _dom_db([(0, "w"), (0, "w"), (1, "w")])
        db.relation("dom").add((0, "w", 0.5, -5, -2**63))
        plan = AggregateP(DOM, (e.Col("a"),), (
            (e.FuncCall("sum", (e.Col("v"),)), "total"),))
        assert "group_direct" not in _kernel_paths(plan, db)
        want = sum(row[4] for row in db.relation("dom").rows() if row[0] == 0)
        assert want < -2**63
        assert {row[0]: row[-1] for row in _every_way(plan, db)}[0] == want

    def test_a_whole_column_grouping_is_reused_until_an_append(self):
        db = _dom_db([(i % 6, f"w{i % 4}") for i in range(50)])
        plan = AggregateP(DOM, (e.Col("a"), e.Col("b")), self._FOLDS)
        assert _kernel_paths(plan, db) == {"group_direct": 1}
        assert _kernel_paths(plan, db) == {}        # cached on the encoding
        before = _every_way(plan, db)
        db.relation("dom").add_rows([(2, "w2", 9.5, 7, 3),
                                     (7, "w9", 0.25, -2**63, 1)])
        assert _kernel_paths(plan, db) == {"group_direct": 1}
        after = _every_way(plan, db)
        assert len(after) == len(before) + 1
        assert _kernel_paths(plan, db) == {}

    def test_distinct_over_one_side_deduplicates_positions_first(self):
        """``dim`` holds every row twice, 60 positions apart: equal
        positions are equal rows, but equal rows need not share a position,
        so the surviving positions' values are deduplicated too."""
        from repro.engine.plan import ProjectP

        dim = relation_from_rows(
            "dim", [("dk", "int"), ("ds", "string"), ("tag", "string")],
            [(i % 29, f"c{i % 7}", "xyz"[i % 3]) for i in range(60)] * 2)
        db = Database([_join_db().relation("fact"), dim])
        join = JoinP(FACT, DIM, "inner", ("fk",), ("dk",), None, False)
        one_side = DistinctP(ProjectP(
            join, (e.Col("dk"), e.Col("ds"), e.Col("tag")),
            ("dk", "ds", "tag")))
        assert _kernel_paths(one_side, db)["distinct_positions"] == 1
        rows = _every_way(one_side, db)
        assert sorted(rows) == sorted(
            row for row in set(dim.rows()) if row[0] < 23)  # fact's keys
        # Columns from both sides read through two selections.
        both_sides = DistinctP(ProjectP(
            join, (e.Col("fs"), e.Col("tag")), ("fs", "tag")))
        assert "distinct_positions" not in _kernel_paths(both_sides, db)
        assert _every_way(both_sides, db)


def _join_db(n=300):
    """``fact`` ⋈ ``dim`` on string / int / float keys, with duplicates on
    both sides, NULLs on both sides, and dim words fact never uses."""
    fact = relation_from_rows(
        "fact", [("fk", "int"), ("fs", "string"), ("ff", "float")],
        [(i % 23, None if i % 10 == 0 else f"c{i % 9}", float(i % 23))
         for i in range(n)])
    dim = relation_from_rows(
        "dim", [("dk", "int"), ("ds", "string"), ("tag", "string")],
        [(i % 29, None if i % 7 == 0 else f"c{i % 12}", "xyz"[i % 3])
         for i in range(n // 3)])
    return Database([fact, dim])


FACT = ScanP("fact", ("fk", "fs", "ff"))
DIM = ScanP("dim", ("dk", "ds", "tag"))


@needs_kernels
class TestLoweredBuildSides:
    @staticmethod
    def _filtered_dim(condition):
        return FilterP(DIM, condition)

    @pytest.mark.parametrize("null_matches", [False, True])
    def test_filtered_string_key_build_side(self, null_matches):
        """The filter removes whole words (``c3``, every ``x`` row) that the
        column's dictionary still holds and the probe side still uses;
        buckets keep duplicate build keys in position order."""
        build = self._filtered_dim(e.And((
            e.Comparison(e.Col("ds"), "<>", e.Const("c3")),
            e.Comparison(e.Col("tag"), "<>", e.Const("x")))))
        plan = JoinP(FACT, build, "inner", ("fs",), ("ds",), None,
                     null_matches)
        rows = _every_way(plan, _join_db())
        assert rows and not any(row[1] == "c3" for row in rows)

    @pytest.mark.parametrize("null_matches", [False, True])
    def test_null_keys_on_both_sides(self, null_matches):
        build = self._filtered_dim(
            e.Comparison(e.Col("tag"), "<>", e.Const("z")))
        for keys in ((("fs",), ("ds",)), (("fk", "fs"), ("dk", "ds"))):
            plan = JoinP(FACT, build, "inner", *keys, None, null_matches)
            rows = _every_way(plan, _join_db())
            assert any(row[1] is None for row in rows) == null_matches

    def test_int_float_keys_cross_match_exactly(self):
        build = self._filtered_dim(
            e.Comparison(e.Col("dk"), "<", e.Const(20)))
        plan = JoinP(FACT, build, "inner", ("ff",), ("dk",), None, False)
        rows = _every_way(plan, _join_db())
        assert rows and all(row[2] == row[3] for row in rows)
        bumped = _kernel_paths(plan, _join_db())
        assert bumped["probe_kernel"] == 1 and "build_dict" not in bumped

    def test_nan_key_declines_to_the_loop(self):
        db = _join_db()
        db.relation("fact").add((1, "c1", float("nan")))
        plan = JoinP(self._filtered_dim(
            e.Comparison(e.Col("dk"), "<", e.Const(20))), FACT, "inner",
            ("dk",), ("ff",), None, False)
        bumped = _kernel_paths(plan, db)
        assert "probe_kernel" not in bumped and bumped["probe_loop"] == 1
        _every_way(plan, db)

    def test_empty_build_side(self):
        build = self._filtered_dim(
            e.Comparison(e.Col("dk"), "<", e.Const(-1)))
        for keys in ((("fk",), ("dk",)), (("fs",), ("ds",))):
            plan = JoinP(FACT, build, "inner", *keys, None, False)
            assert _every_way(plan, _join_db()) == []

    def test_build_side_without_an_encoding_builds_the_dict(self):
        """A build key mixing strings and ints has no encoding: nothing to
        lower."""
        from repro.engine.plan import ProjectP

        build = ProjectP(DIM, (e.FuncCall("coalesce", (e.Col("ds"),
                                                       e.Col("dk"))),
                               e.Col("tag")), ("key", "tag"))
        plan = JoinP(FACT, build, "inner", ("fs",), ("key",), None, False)
        db = _join_db()
        bumped = _kernel_paths(plan, db)
        # The declined probe is the row executor's over this table: it
        # returns rows, so no selection is converted.
        assert bumped == {"probe_loop": 1, "build_dict": 1}
        assert _every_way(plan, db)

    @pytest.mark.parametrize("key", ["int", "string"])
    @pytest.mark.parametrize("side", ["probe", "build"])
    def test_a_side_of_rows_is_lowered_where_it_is_read(self, side, key):
        """A computed key names no stored column (the batch of an operator
        that ran its row implementation, a view's delta): its values are
        lowered where the probe reads them, so the kernel still probes, and
        nothing is cached against their new-every-query dictionary."""
        from repro.engine.plan import ProjectP

        def computed(scan, column):
            value = e.BinOp("+", e.Col(column), e.Const(0)) if key == "int" \
                else e.FuncCall("lower", (e.Col(column),))
            return ProjectP(scan, (value,), ("c",))

        fact, dim = ("fk", "dk") if key == "int" else ("fs", "ds")
        if side == "probe":
            plan = JoinP(computed(FACT, fact), DIM, "inner", ("c",), (dim,),
                         None, False)
        else:
            plan = JoinP(FACT, computed(DIM, dim), "inner", (fact,), ("c",),
                         None, False)
        db = _join_db()
        bumped = _kernel_paths(plan, db)
        assert bumped["probe_kernel"] == 1 and "probe_loop" not in bumped
        entries = kernels.cache_stats()["entries"]
        _kernel_paths(plan, db)
        assert kernels.cache_stats()["entries"] == entries
        assert _every_way(plan, db)

    def test_lowered_build_side_never_builds_the_dict(self):
        build = self._filtered_dim(
            e.Comparison(e.Col("tag"), "<>", e.Const("z")))
        plan = JoinP(FACT, build, "inner", ("fk", "fs"), ("dk", "ds"),
                     None, False)
        db = _join_db()
        bumped = _kernel_paths(plan, db)
        assert bumped["build_lowered"] == 1 and bumped["probe_kernel"] == 1
        assert "build_dict" not in bumped


@needs_kernels
class TestProbeFanOut:
    """A 100-row probe is at stake for what it emits, read off what the build
    relation already holds."""

    @staticmethod
    def _db(fanout):
        n = KERNEL_MIN_ROWS * 2
        keys = n // fanout
        big = relation_from_rows("big", [("k", "int"), ("x", "int")],
                                 [(i % keys, i) for i in range(n)])
        small = relation_from_rows("small", [("pk", "int")],
                                   [(i,) for i in range(100)])
        return Database([small, big])

    PLAN = JoinP(ScanP("small", ("pk",)), ScanP("big", ("k", "x")),
                 "inner", ("pk",), ("k",), None, False)

    def _run(self, db):
        program = compile_batches(self.PLAN)
        return _path_delta(lambda: program(db).rows())

    def test_fan_out_comes_from_the_maintained_key_index(self):
        db = self._db(fanout=KERNEL_MIN_ROWS // 50)
        big = db.relation("big")
        # The relation holds its key index (an equality lookup built it)
        # and no kernel structure: the 100 probe rows emit ~4k, read off
        # the index, so the kernel takes them.
        big.key_index((0,))
        first, bumped = self._run(db)
        assert len(first) >= KERNEL_MIN_ROWS
        assert bumped["probe_kernel"] == 1 and "probe_loop" not in bumped
        # The index is maintained write by write, so it is still held (and
        # no table profile is consulted) after one.
        big.add((3, -1))
        with mock.patch("repro.engine.stats.collect_table_stats",
                        side_effect=AssertionError("profiled")):
            second, bumped = self._run(db)
        assert bumped["probe_kernel"] == 1
        assert Counter(second) == Counter(first + [(3, 3, -1)])

    def test_fan_out_comes_from_the_cached_structure(self):
        db = self._db(fanout=KERNEL_MIN_ROWS // 50)
        big = db.relation("big")
        wide_probe = JoinP(ScanP("big", ("k2", "x2")), ScanP("big", ("k", "x")),
                           "inner", ("x2",), ("x",), None, False)
        compile_batches(wide_probe)(db)       # a kernel probe on x
        _rows, bumped = self._run(db)
        # k: nothing held, so the relation's rows are at stake.
        assert bumped["probe_kernel"] == 1 and "probe_loop" not in bumped
        assert big.held_key_index((1,)) is None
        narrow = JoinP(ScanP("small", ("pk",)), ScanP("big", ("k", "x")),
                       "inner", ("pk",), ("x",), None, False)
        program = compile_batches(narrow)
        _rows, bumped = _path_delta(lambda: program(db).rows())
        # x is unique, so 100 rows emit 100, but the row join would index
        # every row of ``big`` for them: the kernel reads the structure
        # ``big`` keeps on x, and no second one — a key index the relation
        # would maintain on every write — is built.
        assert big.held_key_index((1,)) is None
        assert bumped["probe_kernel"] == 1 and "probe_loop" not in bumped

    def test_the_backend_prices_the_probe_as_the_kernel_does(self):
        """The ``"vectorized"`` backend picks its program from the same
        price: 100 rows probing ``big``'s unique ``x``, which holds no
        index, have ``big``'s rows at stake, so the plan runs columnar
        and the kernel probes, rather than the row program building an
        index ``big`` would maintain on every write."""
        from repro.engine import execute_plan

        db = self._db(fanout=KERNEL_MIN_ROWS // 50)
        plan = JoinP(ScanP("small", ("pk",)), ScanP("big", ("k", "x")),
                     "inner", ("pk",), ("x",), None, False)
        rows, bumped = _path_delta(
            lambda: execute_plan(plan, db, backend="vectorized").rows())
        assert len(rows) == 100
        assert bumped["plan_columnar"] == 1 and bumped["probe_kernel"] == 1
        assert db.relation("big").held_key_index((1,)) is None

    def test_a_probe_that_emits_less_than_the_gate_stays_in_the_loop(self):
        """Where the relation holds its key index the row join indexes
        nothing: 100 rows that emit 200 stay in the loop."""
        db = self._db(fanout=2)
        first, _bumped = self._run(db)
        assert len(first) == 200
        db.relation("big").key_index((0,))  # as an equality lookup builds it
        second, bumped = self._run(db)
        assert bumped == {"probe_loop": 1} and second == first


# ---------------------------------------------------------------------------
# Build structures carried across appends
# ---------------------------------------------------------------------------

BLD = ScanP("b", ("k", "s", "t"))
PRB = ScanP("p", ("pk", "ps", "pt"))


def _append_db():
    """``b`` (the build relation: ints with gaps, a LUT-sized span, words)
    and ``p`` (probes hitting and missing every key, a few NULL words)."""
    build = relation_from_rows(
        "b", [("k", "int"), ("s", "string"), ("t", "int")],
        [((i % 40) * 2, f"w{i % 15:02d}", i % 3) for i in range(400)])
    probe = relation_from_rows(
        "p", [("pk", "int"), ("ps", "string"), ("pt", "int")],
        [(i % 90 - 5, None if i % 17 == 0 else f"w{i % 20:02d}", i % 4)
         for i in range(300)])
    return Database([build, probe])


def _probe_against_fresh(db, idx_b, idx_p, skip_nulls):
    """Probe ``p`` against ``b``'s cached (carried, extended) structure and
    against a structure freshly lowered from the current encodings: the
    outputs must be identical, order included.  Returns the path counts the
    cached probe bumped."""
    relation = db.relation("b")
    build_batch = compile_batches(BLD)(db)
    probe_batch = compile_batches(PRB)(db)
    build = kernels.RelationBuild(build_batch, idx_b, skip_nulls, relation)
    got, bumped = _path_delta(lambda: kernels.kernel_probe(
        probe_batch, idx_p, build, not skip_nulls))
    store = relation.column_store()
    encodings = [kernels.store_encoding(store, i) for i in idx_b]
    fresh = kernels._lower_build(
        [(enc, enc.values, enc.mask) for enc in encodings], len(relation),
        skip_nulls, probe_batch.length)
    want = None if fresh is None else kernels._probe_with_structure(
        fresh, probe_batch, idx_p, not skip_nulls, None)
    if want is None:
        assert got is None
    else:
        assert [side.tolist() for side in got] \
            == [side.tolist() for side in want]
        assert len(got[0]) > 0
    return bumped


@needs_kernels
class TestBuildStructureExtension:
    """After a write the next probe appends the new rows to the cached
    structure's buckets; what it cannot hold is lowered again, counted."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        kernels.clear_cache()
        yield
        kernels.clear_cache()

    def _schedule(self, idx_b, idx_p, appends, *, skip_nulls=True):
        db = _append_db()
        first = _probe_against_fresh(db, idx_b, idx_p, skip_nulls)
        assert first.get("build_lowered") == 1
        paths = []
        for rows in appends:
            db.relation("b").add_rows(rows)
            bumped = _probe_against_fresh(db, idx_b, idx_p, skip_nulls)
            paths.append("extended" if bumped.get("build_extended")
                         else "relowered" if bumped.get("build_relowered")
                         else None)
            assert bumped.get("build_extended", 0) \
                + bumped.get("build_relowered", 0) <= 1
            # Only a relowering lowers (the cached probe's, and no other).
            assert bumped.get("build_lowered", 0) \
                <= bumped.get("build_relowered", 0)
        return paths

    def test_in_domain_int_keys_extend(self):
        appends = [[(2 * j, "w00", 0), (78, "w01", 1), (2 * j, "w02", 2)]
                   for j in range(6)]
        assert self._schedule([0], [0], appends) == ["extended"] * 6

    def test_keys_outside_the_domain_relower(self):
        appends = [[(500, "w00", 0)],      # past the LUT's span
                   [(-7, "w00", 0)],       # below it
                   [(3, "w00", 0)],        # inside the span, not a key
                   [(500, "w01", 1), (4, "w01", 1)],   # now in the domain
                   ]
        assert self._schedule([0], [0], appends) \
            == ["relowered", "relowered", "relowered", "extended"]

    def test_new_dictionary_words(self):
        appends = [[(0, "w03", 0)],        # an old word: same dictionary
                   [(0, "w17", 0)],        # a new word the probe side uses
                   [(0, "w17", 1), (2, "w04", 2)],
                   [(0, "aa", 0)],         # a new word sorting first
                   [(0, "w05", 0)]]        # old word, through a new dictionary
        assert self._schedule([1], [1], appends) \
            == ["extended", "relowered", "extended", "relowered", "extended"]

    def test_null_tail_keys_are_skipped_when_nulls_never_match(self):
        appends = [[(None, "w00", 0), (4, "w00", 0)],
                   [(None, "w01", 1)],
                   [(6, None, 2)]]
        assert self._schedule([0], [0], appends) == ["extended"] * 3

    def test_null_tail_keys_relower_when_nulls_match(self):
        """A NULL build key keeps Python's identity semantics: relowering
        declines, and the kernel keeps declining — the declined lowering is
        what is cached — until the encodings are replaced again."""
        appends = [[(4, "w00", 0)], [(None, "w00", 0)], [(6, "w00", 0)]]
        assert self._schedule([0], [0], appends, skip_nulls=False) \
            == ["extended", "relowered", None]

    def test_two_key_packing(self):
        appends = [[(2, "w01", 0)],        # (k, s) pairs the side holds
                   [(2, "w02", 0)],        # both values held, the pair not
                   [(None, "zz", 0)],      # a new word on a skipped row
                   [(2, "w06", 0), (4, "w07", 1)]]   # translated codes
        assert self._schedule([0, 1], [0, 1], appends) \
            == ["extended", "relowered", "extended", "extended"]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_append_schedules(self, seed):
        import random

        rng = random.Random(seed)
        idx = [[0], [1], [0, 1], [2, 0]][seed % 4]

        def row():
            if rng.random() < 0.8:  # a row the build side already holds
                i = rng.randrange(400)
                return ((i % 40) * 2, f"w{i % 15:02d}", i % 3)
            return (rng.choice([None, 500, 3, 6]),
                    rng.choice([None, "zz", "aa", "w04"]), rng.randrange(4))

        appends = [[row() for _ in range(rng.randrange(1, 6))]
                   for _ in range(12)]
        paths = self._schedule(idx, idx, appends)
        assert "extended" in paths

    def test_cache_entries_stay_flat_across_appends(self):
        db = _append_db()
        plan = JoinP(PRB, BLD, "inner", ("pk", "ps"), ("k", "s"), None, False)
        sink: dict[str, int] = {}
        sizes = []
        with pinned_gates(0):
            for step in range(100):
                want = compile_batches(plan)(db).rows()
                with pinned_gates(None):
                    assert compile_batches(plan)(db).rows() == want
                sizes.append(kernels.cache_stats()["entries"])
                db.relation("b").add((2 * (step % 40), f"w{step % 15:02d}",
                                      step % 3))
            program = compile_batches(plan)
            _rows, bumped = _path_delta(lambda: program(db, sink=sink).rows())
        assert len(set(sizes)) == 1
        assert bumped.get("build_extended") == 1
        assert "build_lowered" not in bumped
