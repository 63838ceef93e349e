"""In-memory relations with set and bag semantics.

A :class:`Relation` couples a :class:`~repro.data.schema.RelationSchema` with
a multiset of rows (tuples of Python values in schema order).  Relational
Algebra and the calculi operate on *sets* of tuples; SQL without DISTINCT
operates on *bags*.  A relation therefore carries all duplicate rows and
exposes both views: :meth:`rows` (bag) and :meth:`distinct_rows` (set).
"""

from __future__ import annotations

import operator
import pickle
import struct
from array import array
from collections import Counter, deque
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.data.schema import Attribute, RelationSchema
from repro.data.types import DataType, check_value, format_value, infer_type

Row = tuple[Any, ...]


class RelationError(Exception):
    """Raised for operations on incompatible relations or malformed rows."""


class FrozenRelationError(RelationError):
    """Raised for a row added to a frozen relation (see :meth:`Relation.freeze`)."""


# ---------------------------------------------------------------------------
# Column pages: a compact, same-host serialization of a ColumnStore
# ---------------------------------------------------------------------------
#
# The ``"process"`` backend publishes each shard's columns into
# ``multiprocessing.shared_memory`` segments; workers attach read-only and
# decode.  A page set covers a *row range* ``[start, stop)`` of its store —
# the whole store, or the rows a write appended (a *run*, see
# :class:`repro.data.sharded.SharedPagePublisher`).  Either way it is
# self-contained: its own ``n_rows``, kinds, masks and sorted dictionary,
# so one column may be ``q`` in one run and ``o`` in the next, and
# decoding the runs in order and concatenating reproduces the column.
# The format is one *page* per column:
#
#     header : MAGIC(4) | n_rows u64 | n_cols u32
#     column : name_len u16 | name utf8
#              kind (1 byte)
#              mask_len u64 | payload_len u64
#              mask bytes  (n_rows bytes, 1 = NULL; empty when no NULLs)
#              payload bytes
#
# Kinds: ``q`` int64, ``d`` float64 (both native-endian machine arrays —
# pages are a same-host IPC format, not a portable file format), ``B``
# bool bytes, ``D`` dictionary-encoded strings (a sorted dictionary of the
# distinct values stored once — offsets + one UTF-8 blob — followed by an
# int32/int64 code per row, ``-1`` at NULL positions), ``E``
# dictionary-encoded low-cardinality mixed columns (first-occurrence
# pickled dictionary + int32 codes), ``z`` all-NULL, ``o`` pickled list
# (mixed types, out-of-range ints — the exact fallback).
# Decoding reproduces the original Python values bit-for-bit, which is what
# lets the differential suites pin worker results against in-process ones.
#
# ``D`` is what makes string joins kernel-resident: the dictionary is
# sorted, so codes are order-preserving, and the ``process`` backend ships
# codes across shared memory instead of re-materializing every string in
# every worker.  The kernel layer views the code array zero-copy.

_PAGE_MAGIC = b"RPG1"
_PAGE_HEADER = struct.Struct("<QI")
_PAGE_NAME = struct.Struct("<H")
_PAGE_COLUMN = struct.Struct("<cQQ")
_DICT_HEADER = struct.Struct("<QB")   # "D": n_dict, code width (4 or 8)
_EDICT_HEADER = struct.Struct("<QQ")  # "E": n_dict, pickled-dictionary length
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: Mixed ("o") columns switch to the "E" dictionary layout when the
#: distinct count is at most this fraction of the rows (and hashable).
_MIXED_DICT_FRACTION = 4


def _classify_column(values: Sequence[Any]) -> tuple[str, bool]:
    """``(kind, has_null)`` for one column; ``o`` when no compact kind fits."""
    kind = ""
    has_null = False
    for v in values:
        if v is None:
            has_null = True
            continue
        t = type(v)
        if t is bool:
            k = "B"
        elif t is int:
            k = "q" if _INT64_MIN <= v <= _INT64_MAX else "o"
        elif t is float:
            k = "d"
        elif t is str:
            k = "s"
        else:
            k = "o"
        if k == "o":
            return "o", has_null
        if not kind:
            kind = k
        elif kind != k:
            return "o", has_null
    return kind or "z", has_null


def _encode_str_dictionary(values: Sequence[Any],
                           mask: bytes) -> tuple[bytes, bytes, bytes]:
    """``D`` layout: sorted distinct values once + one code per row.

    The dictionary holds only non-NULL values and is sorted ascending
    (Python ``str`` order == numpy ``<U`` order — both compare by code
    point), so codes are order-preserving: kernels can evaluate range
    predicates and equi-joins directly on the code array.  NULL rows get
    code ``-1`` in addition to the usual mask byte.
    """
    dictionary = sorted({v for v in values if v is not None})
    code_of = {v: i for i, v in enumerate(dictionary)}
    width = 4 if len(dictionary) < 2**31 else 8
    codes = array("i" if width == 4 else "q",
                  [-1 if v is None else code_of[v] for v in values])
    parts = [v.encode("utf-8") for v in dictionary]
    offsets = array("q", [0] * (len(parts) + 1))
    total = 0
    for i, part in enumerate(parts):
        total += len(part)
        offsets[i + 1] = total
    payload = (_DICT_HEADER.pack(len(dictionary), width)
               + offsets.tobytes() + b"".join(parts) + codes.tobytes())
    return b"D", mask, payload


def _encode_mixed_dictionary(
        values: Sequence[Any]) -> tuple[bytes, bytes, bytes] | None:
    """``E`` layout for low-cardinality mixed columns, or ``None``.

    Dictionary keys are ``(type, value)`` pairs so ``1``/``1.0``/``True``
    stay distinct codes (plain dict keys would collapse them and break the
    exact round-trip).  ``None`` is an ordinary dictionary member, so no
    mask is needed.  Declines (returns ``None``) on unhashable values or
    when the distinct count is too close to the row count to pay off.
    """
    dictionary: list[Any] = []
    code_of: dict[Any, int] = {}
    codes = array("i")
    try:
        for v in values:
            key = (type(v), v)
            code = code_of.get(key)
            if code is None:
                code = len(dictionary)
                if code >= 2**31 - 1:
                    return None
                code_of[key] = code
                dictionary.append(v)
            codes.append(code)
    except TypeError:  # unhashable value
        return None
    if len(dictionary) * _MIXED_DICT_FRACTION > len(values):
        return None
    blob = pickle.dumps(dictionary, protocol=pickle.HIGHEST_PROTOCOL)
    payload = _EDICT_HEADER.pack(len(dictionary), len(blob)) + blob + codes.tobytes()
    return b"E", b"", payload


def _encode_column(values: Sequence[Any]) -> tuple[bytes, bytes, bytes]:
    """``(kind, mask, payload)`` for one column."""
    kind, has_null = _classify_column(values)
    if kind == "o":
        encoded = _encode_mixed_dictionary(values)
        if encoded is not None:
            return encoded
        return b"o", b"", pickle.dumps(list(values),
                                       protocol=pickle.HIGHEST_PROTOCOL)
    mask = bytes(1 if v is None else 0 for v in values) if has_null else b""
    if kind == "z":
        return b"z", mask, b""
    if kind == "q":
        payload = array("q", [0 if v is None else v for v in values]).tobytes()
    elif kind == "d":
        payload = array("d", [0.0 if v is None else v for v in values]).tobytes()
    elif kind == "B":
        payload = bytes(1 if v else 0 for v in values)
    else:  # "s" columns ship as the "D" dictionary layout
        return _encode_str_dictionary(values, mask)
    return kind.encode("ascii"), mask, payload


def dict_page_layout(payload: "bytes | memoryview") -> tuple[int, int, int, int]:
    """``(n_dict, code_width, blob_offset, codes_offset)`` of a ``D`` payload.

    The ``n_dict + 1`` native int64 string offsets start right after the
    header (at ``_DICT_HEADER.size``); the UTF-8 blob runs from
    ``blob_offset`` to ``codes_offset``; the per-row codes fill the rest.
    Shared with the kernel layer, which views the code array zero-copy.
    """
    n_dict, width = _DICT_HEADER.unpack_from(payload, 0)
    blob_offset = _DICT_HEADER.size + 8 * (n_dict + 1)
    (blob_len,) = struct.unpack_from("=q", payload, blob_offset - 8)
    return n_dict, width, blob_offset, blob_offset + blob_len


def dict_page_values(payload: "bytes | memoryview") -> list[str]:
    """The sorted dictionary of a ``D`` payload as Python strings."""
    n_dict, _width, blob_offset, _codes_offset = dict_page_layout(payload)
    offsets = array("q")
    offsets.frombytes(bytes(payload[_DICT_HEADER.size:blob_offset]))
    blob = bytes(payload[blob_offset:_codes_offset])
    return [blob[offsets[i]:offsets[i + 1]].decode("utf-8")
            for i in range(n_dict)]


def _decode_column(kind: str, mask: bytes, payload: "bytes | memoryview",
                   n_rows: int) -> list[Any]:
    if kind == "o":
        return pickle.loads(payload)
    if kind == "z":
        return [None] * n_rows
    if kind == "D":
        words = dict_page_values(payload)
        _n_dict, width, _blob_offset, codes_offset = dict_page_layout(payload)
        codes = array("i" if width == 4 else "q")
        codes.frombytes(bytes(payload[codes_offset:]))
        return [words[c] if c >= 0 else None for c in codes]
    if kind == "E":
        n_dict, blob_len = _EDICT_HEADER.unpack_from(payload, 0)
        blob_offset = _EDICT_HEADER.size
        words = pickle.loads(bytes(payload[blob_offset:blob_offset + blob_len]))
        codes = array("i")
        codes.frombytes(bytes(payload[blob_offset + blob_len:]))
        return [words[c] for c in codes]
    if kind == "q":
        values = array("q")
        values.frombytes(payload)
        out: list[Any] = values.tolist()
    elif kind == "d":
        values = array("d")
        values.frombytes(payload)
        out = values.tolist()
    elif kind == "B":
        out = [bool(b) for b in payload]
    else:
        raise RelationError(f"unknown column page kind {kind!r}")
    if mask:
        out = [None if m else v for m, v in zip(mask, out)]
    return out


class ColumnStore:
    """Columnar twin of a relation's bag of rows: one Python list per attribute.

    The vectorized executor (:mod:`repro.engine.vectorized`) scans these
    arrays directly instead of iterating row tuples.  A store is lazily
    materialized from the row form by :meth:`Relation.column_store` and then
    maintained incrementally on :meth:`Relation.add`, so building it is a
    one-time cost per relation, not per query.
    """

    __slots__ = ("names", "arrays", "kernel_cache", "pages")

    def __init__(self, names: Sequence[str], arrays: Sequence[list[Any]]) -> None:
        self.names = tuple(names)
        self.arrays = tuple(arrays)
        #: Per-column compiled encodings, owned by :mod:`repro.engine.kernels`
        #: (the storage layer never imports numpy).  Entries are keyed by
        #: column index and tagged with the column length they were built at;
        #: arrays are append-only, so a length match means the entry is
        #: current and a shorter length that it encodes a prefix the kernels
        #: extend with the tail — no invalidation hook is needed.
        self.kernel_cache: dict[int, Any] = {}
        #: Raw page buffers per column index
        #: (``(kind, mask, payload, n_rows)``), populated by
        #: :meth:`decode_pages` so kernels can view int/float payloads and
        #: dictionary code arrays zero-copy instead of re-converting the
        #: Python lists.  ``n_rows`` is the length the page was decoded at;
        #: arrays are append-only, so kernels compare it against the live
        #: column length before trusting the buffer.
        self.pages: dict[int, tuple[str, Any, Any, int]] = {}

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Sequence[Row]) -> "ColumnStore":
        """Transpose a bag of row tuples into per-attribute arrays."""
        if rows:
            arrays = [list(column) for column in zip(*rows)]
        else:
            arrays = [[] for _ in names]
        return cls(names, arrays)

    def __len__(self) -> int:
        return len(self.arrays[0]) if self.arrays else 0

    def whole_rows(self) -> int:
        """Rows present in *every* column: the shortest one's length.

        :meth:`append_row` appends column by column, so a reader racing a
        writer can see the leading columns one value ahead; rows below this
        count are complete and — arrays being append-only — final.
        """
        return min(map(len, self.arrays)) if self.arrays else 0

    def append_row(self, row: Row) -> None:
        for array, value in zip(self.arrays, row):
            array.append(value)

    def row(self, i: int) -> Row:
        return tuple(array[i] for array in self.arrays)

    def to_rows(self) -> list[Row]:
        """Materialize the row view (zip of the arrays)."""
        return list(zip(*self.arrays)) if self.arrays else []

    # -- column pages (shared-memory serialization) -----------------------

    def encode_pages(self, start: int = 0, stop: int | None = None) -> bytes:
        """Serialize rows ``[start, stop)`` into the column-page format.

        ``stop`` defaults to :meth:`whole_rows`; every column is sliced to
        exactly that range, so the pages never hold a ragged row even while
        a writer is mid-:meth:`append_row`.  The encoding is exact:
        :meth:`decode_pages` reproduces the original Python values
        (including ``None``, ``bool`` vs ``int``, and mixed columns via the
        pickle fallback).
        """
        whole = self.whole_rows()
        if stop is None:
            stop = whole
        if not 0 <= start <= stop <= whole:
            raise RelationError(
                f"page range [{start}, {stop}) outside the {whole} whole rows")
        chunks = [_PAGE_MAGIC,
                  _PAGE_HEADER.pack(stop - start, len(self.arrays))]
        for name, column in zip(self.names, self.arrays):
            encoded_name = name.encode("utf-8")
            values = column[start:stop]
            kind, mask, payload = _encode_column(values)
            chunks.append(_PAGE_NAME.pack(len(encoded_name)))
            chunks.append(encoded_name)
            chunks.append(_PAGE_COLUMN.pack(kind, len(mask), len(payload)))
            chunks.append(mask)
            chunks.append(payload)
        return b"".join(chunks)

    @classmethod
    def decode_pages(cls, buffer: "bytes | memoryview") -> "ColumnStore":
        """Rebuild a store from :meth:`encode_pages` output.

        ``buffer`` may be a memoryview into shared memory; raw int/float
        page buffers are retained in :attr:`pages` (zero-copy slices of
        ``buffer``) so the kernel layer can view them without re-encoding —
        the caller must keep the backing segment mapped for the store's
        lifetime.
        """
        view = memoryview(buffer)
        if bytes(view[:4]) != _PAGE_MAGIC:
            raise RelationError("buffer does not hold column pages")
        n_rows, n_cols = _PAGE_HEADER.unpack_from(view, 4)
        offset = 4 + _PAGE_HEADER.size
        names: list[str] = []
        arrays: list[list[Any]] = []
        pages: dict[int, tuple[str, Any, Any, int]] = {}
        for i in range(n_cols):
            (name_len,) = _PAGE_NAME.unpack_from(view, offset)
            offset += _PAGE_NAME.size
            names.append(bytes(view[offset:offset + name_len]).decode("utf-8"))
            offset += name_len
            kind_byte, mask_len, payload_len = _PAGE_COLUMN.unpack_from(view, offset)
            offset += _PAGE_COLUMN.size
            kind = kind_byte.decode("ascii")
            mask = view[offset:offset + mask_len]
            offset += mask_len
            payload = view[offset:offset + payload_len]
            offset += payload_len
            arrays.append(_decode_column(
                kind, bytes(mask),
                bytes(payload) if kind == "B" else payload, n_rows))
            if kind in ("q", "d", "D"):
                pages[i] = (kind, mask, payload, n_rows)
        store = cls(names, arrays)
        store.pages = pages
        return store

    def dictionary_stats(self, index: int) -> tuple[int, int] | None:
        """``(distinct, null_count)`` for a dict-encoded column, else ``None``.

        Exact and free of any full-column scan: the distinct count is the
        dictionary size (a ``D`` page header field, or the length of a
        kernel encoding's dictionary array) and the null count is the mask
        population.  Stale entries — a column grown past the length the
        dictionary was built at — are ignored, so the answer is always
        consistent with the live column.
        """
        if not self.arrays:
            return None
        n = len(self.arrays[index])
        entry = self.kernel_cache.get(index)
        if entry is not None and entry[0] == n:
            dictionary = getattr(entry[1], "dictionary", None)
            if dictionary is not None:
                enc_mask = entry[1].mask
                nulls = 0 if enc_mask is None else int(enc_mask.sum())
                return len(dictionary), nulls
        page = self.pages.get(index)
        if page is not None and page[0] == "D" and page[3] == n:
            n_dict, _w = _DICT_HEADER.unpack_from(page[2], 0)
            nulls = bytes(page[1]).count(1) if len(page[1]) else 0
            return int(n_dict), nulls
        return None


def key_positions(columns: Sequence[Sequence[Any]], length: int,
                  skip_nulls: bool) -> dict[Any, list[int]]:
    """The one builder of a positional hash table: ``{key: [positions]}``.

    ``columns`` are the key columns (at least ``length`` long); a key is the
    raw value for one column and a tuple otherwise.  With ``skip_nulls``
    rows with a NULL key component are left out; ``None in column`` is a
    single C-speed scan, so NULL-free keys (the common case) take the
    guard-free loop.
    """
    table: dict[Any, list[int]] = {}
    get = table.get
    if len(columns) == 1:
        keys: Any = columns[0]
    else:
        keys = zip(*columns) if columns else [()] * length
    if skip_nulls and any(None in column for column in columns):
        single = len(columns) == 1
        for j, key in enumerate(keys):
            if (key is None) if single else (None in key):
                continue
            bucket = get(key)
            if bucket is None:
                table[key] = [j]
            else:
                bucket.append(j)
        return table
    for j, key in enumerate(keys):
        bucket = get(key)
        if bucket is None:
            table[key] = [j]
        else:
            bucket.append(j)
    return table


class Relation:
    """A named, typed multiset of tuples."""

    #: How many recent row appends the per-version delta log retains.  Views
    #: (``repro.engine.delta``) catch up from the log; a view that fell more
    #: than this many rows behind detects the gap and rebuilds instead.
    DELTA_LOG_LIMIT = 8192

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable[Sequence[Any] | Mapping[str, Any]] = (),
        *,
        validate: bool = True,
    ) -> None:
        self.schema = schema
        self._rows: list[Row] = []
        self._frozen = False
        # Lazily built caches, maintained incrementally by :meth:`add`.  The
        # monotonic version counter is bumped on every mutation so external
        # caches (table statistics, the service's result cache) can key on
        # ``(relation, version)`` instead of being invalidated wholesale.
        self._version = 0
        self._row_set: set[Row] | None = None
        self._distinct: list[Row] | None = None
        self._column_store: ColumnStore | None = None
        # Bounded per-version delta log: ``(published_version, row)`` per
        # append, oldest first.  ``_delta_floor`` is the highest version whose
        # entries may have been evicted; :meth:`delta_since` answers exactly
        # for anchors >= the floor and reports "rebuild required" below it.
        self._delta_log: deque[tuple[int, Row]] = deque()
        self._delta_floor = 0
        # The positional hash indexes (:meth:`key_index`), tagged with the
        # version they are current at and maintained on append.
        self._key_indexes: dict[tuple, tuple[int, dict[Any, list[int]]]] = {}
        #: Version-tagged table profile ``(version, profile)``, owned by
        #: :mod:`repro.engine.stats` (the storage layer never interprets it)
        #: the way :attr:`ColumnStore.kernel_cache` belongs to the kernels.
        self.profile_cache: tuple[int, Any] | None = None
        if not validate:
            rows = list(rows)
            if self._adopt_rows(rows):
                return
        for row in rows:
            self.add(row, validate=validate)

    def _adopt_rows(self, rows: list[Any], *, log: bool = True) -> bool:
        """Bulk-load a fresh relation from already-normalized rows, or decline.

        Engine results arrive as a list of schema-arity tuples; appending
        them one :meth:`add` at a time costs more than some of the queries
        that produced them.  With ``log`` the state left behind is exactly
        what the per-row build leaves — one version per row and the delta
        log's bounded tail, which views of a base table, a shard or a
        worker's resident copy catch up from.  An *answer* (``log=False``:
        :meth:`answer`) is frozen at publication and nothing is maintained
        from it, so it carries no log: its floor is its version, and
        ``delta_since`` below that says "rebuild" as for any evicted
        anchor.  No lazy cache exists yet, so none needs maintaining.
        """
        if not set(map(type, rows)) <= {tuple} \
                or not set(map(len, rows)) <= {self.schema.arity}:
            return False  # dicts, lists, wrong arity: normalize row by row
        n = len(rows)
        kept = min(n, self.DELTA_LOG_LIMIT) if log else 0
        self._rows = rows
        self._delta_log = deque(zip(range(n - kept + 1, n + 1),
                                    rows[n - kept:]))
        self._delta_floor = n - kept
        self._version = n
        return True

    # -- construction ----------------------------------------------------
    @classmethod
    def answer(cls, schema: RelationSchema, rows: Sequence[Row]) -> "Relation":
        """A query answer over ``rows`` (copied), which keeps no delta log."""
        answer = cls(schema)
        if answer._adopt_rows(list(rows), log=False):
            return answer
        return cls(schema, rows, validate=False)

    @classmethod
    def from_column_store(cls, schema: RelationSchema, store: ColumnStore,
                          *, version: int = 0) -> "Relation":
        """Adopt a decoded :class:`ColumnStore` as a frozen relation.

        The worker side of the ``"process"`` backend rebuilds a published
        run this way after attaching its shared-memory pages: the store
        (with any zero-copy page views it carries) becomes the relation's
        columnar cache directly, and ``version`` stamps the version the run
        was published at.
        """
        if len(store.names) != schema.arity:
            raise RelationError(
                f"store arity {len(store.names)} does not match schema arity "
                f"{schema.arity} for relation {schema.name!r}")
        relation = cls(schema)
        relation._rows = store.to_rows()
        relation._column_store = store
        relation._version = version
        return relation.freeze()

    @classmethod
    def from_dicts(
        cls, schema: RelationSchema, dicts: Iterable[Mapping[str, Any]]
    ) -> "Relation":
        """Build a relation from dict rows keyed by attribute name."""
        return cls(schema, dicts)

    def add(self, row: Sequence[Any] | Mapping[str, Any], *, validate: bool = True) -> None:
        """Append a row (bag semantics: duplicates are kept).

        Raises :class:`FrozenRelationError` on a frozen relation (see
        :meth:`freeze`).
        """
        normalized = self._normalize_row(row, validate=validate)
        self._append_row(normalized, published_version=self._version + 1)
        # The version bump is published *last*: a concurrent reader that
        # validates a lazily built cache against the version it started from
        # (see distinct_rows / column_store / key_index) can then never
        # publish a cache that is missing this row yet carries the new
        # version.  Observing the row while still reading the old version is
        # benign — the version counter is monotonic, so no later reader keys
        # on the old value again.
        self._version += 1

    def add_rows(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]], *,
                 validate: bool = True) -> None:
        """Append many rows as **one** write: a single version bump.

        Batch writes publish one version increment regardless of the number
        of rows, so version-window arithmetic over writes ("the service
        performed ``v₂ - v₁`` writes") counts batches, not rows.  The delta
        log records every row of the batch under the same published version,
        so views still observe each appended row exactly once.
        """
        # Normalize + validate the WHOLE batch before appending anything: a
        # mid-batch failure must not leave a partially applied write with no
        # version bump (version-keyed caches would keep serving "current"
        # answers that silently exclude the orphaned rows).
        staged = [self._normalize_row(row, validate=validate) for row in rows]
        if not staged:
            return
        published = self._version + 1
        for row in staged:
            self._append_row(row, published_version=published)
        self._version = published

    def _normalize_row(self, row: Sequence[Any] | Mapping[str, Any], *,
                       validate: bool) -> Row:
        """Coerce one row to a schema-ordered tuple, checking shape/types."""
        if self._frozen:
            raise FrozenRelationError(
                f"relation {self.schema.name!r} is frozen; copy() it to mutate"
            )
        if isinstance(row, Mapping):
            try:
                row = tuple(row[name] for name in self.schema.attribute_names)
            except KeyError as exc:
                raise RelationError(f"row is missing attribute {exc.args[0]!r}") from exc
        else:
            row = tuple(row)
        if len(row) != self.schema.arity:
            raise RelationError(
                f"row arity {len(row)} does not match schema arity {self.schema.arity} "
                f"for relation {self.schema.name!r}"
            )
        if validate:
            for value, attr in zip(row, self.schema.attributes):
                if not check_value(value, attr.dtype):
                    raise RelationError(
                        f"value {value!r} is not a valid {attr.dtype} for "
                        f"{self.schema.name}.{attr.name}"
                    )
        return row

    def _append_row(self, row: Row, *, published_version: int) -> None:
        """Append one *normalized* row and maintain every live cache.

        Callers run :meth:`_normalize_row` first (so batch staging validates
        once, not twice) and publish the :attr:`version` bump last —
        per append (:meth:`add`) or once per batch (:meth:`add_rows`).
        """
        self._rows.append(row)
        # Incrementally maintain whatever caches are already built; this keeps
        # membership tests O(1) even for workloads that interleave adds and
        # lookups (the Datalog fixpoint does exactly that).
        if self._column_store is not None:
            self._column_store.append_row(row)
        if self._row_set is not None:
            if row not in self._row_set:
                self._row_set.add(row)
                if self._distinct is not None:
                    self._distinct.append(row)
        position = len(self._rows) - 1
        for key, entry in list(self._key_indexes.items()):
            tagged_version, table = entry
            if tagged_version != self._version \
                    and tagged_version != published_version:
                # Built against a state this append chain did not start from
                # (a racing build): drop it and let the next call rebuild.
                del self._key_indexes[key]
                continue
            positions, skip_nulls = key
            if len(positions) == 1:
                value: Any = row[positions[0]]
                if skip_nulls and value is None:
                    self._key_indexes[key] = (published_version, table)
                    continue
            else:
                value = tuple(row[p] for p in positions)
                if skip_nulls and None in value:
                    self._key_indexes[key] = (published_version, table)
                    continue
            bucket = table.get(value)
            if bucket is None:
                table[value] = [position]
            elif not bucket or bucket[-1] != position:
                # The ``bucket[-1] == position`` skip covers a racing reader
                # whose lock-free build ran after this row was appended but
                # before the version bump: its table already contains this
                # position, and appending again would serve the row twice.
                # Positions are unique and ascending, so the check is exact.
                bucket.append(position)
            self._key_indexes[key] = (published_version, table)
        log = self._delta_log
        log.append((published_version, row))
        while len(log) > self.DELTA_LOG_LIMIT:
            evicted_version, _evicted_row = log.popleft()
            # Entries evict oldest-first, so completeness holds exactly for
            # anchors at or above the newest evicted version.
            self._delta_floor = evicted_version

    # -- views -----------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def version(self) -> int:
        """Monotonic mutation counter: bumped once per :meth:`add`.

        Caches derived from this relation's contents (table statistics, the
        service's result cache) record the version they were computed at and
        compare instead of subscribing to invalidation.
        """
        return self._version

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self.schema.attribute_names

    def rows(self) -> list[Row]:
        """All rows including duplicates (bag view)."""
        return list(self._rows)

    def distinct_rows(self) -> list[Row]:
        """Rows with duplicates removed, in first-occurrence order (set view).

        The deduplicated view is cached (and maintained incrementally by
        :meth:`add`), so repeated calls do not re-scan the bag.
        """
        if self._distinct is None:
            version = self._version
            seen: set[Row] = set()
            out: list[Row] = []
            for row in list(self._rows):
                if row not in seen:
                    seen.add(row)
                    out.append(row)
            if version != self._version:
                # A concurrent add raced the scan: serve the snapshot but do
                # not publish a cache that may already be stale.
                return out
            self._row_set = seen
            self._distinct = out
        return list(self._distinct)

    def row_set(self) -> set[Row]:
        """The set of distinct rows (cached; treat as read-only)."""
        if self._row_set is None:
            self.distinct_rows()
        published = self._row_set
        if published is not None:
            return published
        # distinct_rows() detected a racing add and declined to publish its
        # cache: serve a fresh snapshot without caching either.
        return set(self._rows)

    def column_store(self) -> ColumnStore:
        """The columnar view: one array per attribute (bag order preserved).

        Lazily transposed from the row form on first call, then maintained
        incrementally by :meth:`add`.  Treat the returned arrays as
        read-only; the row view stays authoritative.
        """
        store = self._column_store
        if store is None:
            version = self._version
            store = ColumnStore.from_rows(
                self.schema.attribute_names, list(self._rows))
            if version == self._version:  # racing adds: serve w/o publishing
                self._column_store = store
        return store

    def held_key_index(self, positions: Sequence[int], *,
                       skip_nulls: bool = True) -> dict[Any, list[int]] | None:
        """The current :meth:`key_index` if one is cached — never builds it."""
        cached = self._key_indexes.get((tuple(positions), skip_nulls))
        if cached is not None and cached[0] == self._version:
            return cached[1]
        return None

    def key_index(self, positions: Sequence[int], *,
                  skip_nulls: bool = True) -> dict[Any, list[int]]:
        """The relation's one hash index: key values to *row positions*.

        Keys are raw values for a single position and tuples otherwise —
        the convention the hash-join probes use.  With ``skip_nulls`` (SQL
        key equality) rows with a NULL key component are left out.  The
        index is cached per (positions, skip_nulls), tagged with the
        relation :attr:`version`, and **maintained incrementally** by
        :meth:`add` / :meth:`add_rows` — appends cost O(1) per cached index
        instead of an O(n) rebuild, which is what keeps incremental view
        refresh independent of base-table size.  An index whose tag fell
        behind anyway (a build raced a writer) is rebuilt on demand.

        Its consumers are the engine's access-path rule over a scan or an
        ``asof`` window (:func:`repro.engine.execute.resolve_window`), capped
        at the window: :func:`repro.engine.execute.scan_lookup` for equality
        scans, :func:`repro.engine.execute.join_table` for hash-join build
        sides.  :class:`repro.engine.kernels.RelationBuild` asks whether it
        is held.  A relation without
        a column store keeps none: the key columns are read off the rows.
        """
        held = self.held_key_index(positions, skip_nulls=skip_nulls)
        if held is not None:
            return held
        key = (tuple(positions), skip_nulls)
        # Snapshot the version *before* reading the columns: if an add races
        # the build, the stored tag is stale and the next call rebuilds.
        version = self._version
        store = self._column_store
        if store is not None:
            columns = [store.arrays[p] for p in key[0]]
        else:
            rows = list(self._rows)
            columns = [list(map(operator.itemgetter(p), rows)) for p in key[0]]
        table = key_positions(columns, len(self._rows), skip_nulls)
        self._key_indexes[key] = (version, table)
        return table

    # -- delta log (incremental view maintenance) --------------------------
    def delta_since(self, version: int) -> list[Row] | None:
        """Rows appended after ``version`` became current, oldest first.

        Returns ``None`` when the bounded log no longer covers the window —
        the caller (a materialized view catching up) must rebuild from
        scratch.  Call under write exclusion when exactness matters; the
        service refreshes views while holding its write lock.
        """
        current = self._version
        if version >= current:
            return []
        if version < self._delta_floor:
            return None
        out = []
        for published, row in reversed(self._delta_log):
            if published <= version:
                break
            out.append(row)
        out.reverse()
        return out

    def delta_count_since(self, version: int) -> int | None:
        """``len(delta_since(version))`` without materializing the rows."""
        current = self._version
        if version >= current:
            return 0
        if version < self._delta_floor:
            return None
        count = 0
        for published, _row in reversed(self._delta_log):
            if published <= version:
                break
            count += 1
        return count

    def rows_at(self, version: int) -> list[Row] | None:
        """The bag as of ``version`` (a prefix — adds only ever append).

        ``None`` when the delta log no longer covers the window, like
        :meth:`delta_since`.  Together the two views give a delta plan both
        sides of the classic insert rewrite Δ(L⋈R) = ΔL⋈R ∪ L_old⋈ΔR.
        """
        count = self.delta_count_since(version)
        if count is None:
            return None
        if count == 0:
            return list(self._rows)
        return self._rows[:len(self._rows) - count]

    def row_multiset(self) -> Counter:
        """Rows with multiplicities."""
        return Counter(self._rows)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by attribute name (bag view)."""
        names = self.schema.attribute_names
        return [dict(zip(names, row)) for row in self._rows]

    def column(self, name: str) -> list[Any]:
        """All values of one attribute (bag view)."""
        idx = self.schema.index_of(name)
        if self._column_store is not None:
            return list(self._column_store.arrays[idx])
        return [row[idx] for row in self._rows]

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, position: int) -> Row:
        return self._rows[position]

    def cardinality(self, *, distinct: bool = False) -> int:
        """Number of rows, optionally after duplicate elimination."""
        if distinct:
            return len(self.distinct_rows())
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: object) -> bool:
        return tuple(row) in self.row_set() if isinstance(row, Sequence) else False

    def is_empty(self) -> bool:
        return not self._rows

    # -- comparisons -----------------------------------------------------
    def set_equal(self, other: "Relation") -> bool:
        """True iff both relations hold the same *set* of rows."""
        return self.row_set() == other.row_set()

    def bag_equal(self, other: "Relation") -> bool:
        """True iff both relations hold the same *multiset* of rows."""
        return Counter(self._rows) == Counter(other._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.schema.attribute_names == other.schema.attribute_names
            and self.bag_equal(other)
        )

    def __hash__(self) -> int:  # pragma: no cover - relations are mutable
        raise TypeError("Relation objects are not hashable")

    # -- freezing and partitioning ----------------------------------------
    def freeze(self) -> "Relation":
        """Make the relation immutable: any further :meth:`add` raises.

        Shared caches hand out frozen relations so one caller's mutation
        cannot silently poison every other caller's answers; a caller that
        wants a private mutable instance takes a :meth:`copy`.  Freezing is
        idempotent and returns ``self`` for chaining.
        """
        self._frozen = True
        return self

    @property
    def is_frozen(self) -> bool:
        return self._frozen

    def copy(self) -> "Relation":
        """A mutable copy with the same schema and rows (never frozen)."""
        return Relation(self.schema, self._rows, validate=False)

    def partition_by(self, attributes: Sequence[str], n: int) -> list["Relation"]:
        """Hash-partition the bag on ``attributes`` into ``n`` relations.

        Rows with equal key values always land in the same partition (the
        property partitioned group-by relies on: no group ever straddles two
        workers), and each partition preserves the relative bag order of its
        rows.  Keys hash by value, so a single-attribute key and its 1-tuple
        agree with the executor's hash-table convention.
        """
        if n <= 0:
            raise ValueError(f"partition count must be positive, got {n}")
        positions = [self.schema.index_of(a) for a in attributes]
        buckets: list[list[Row]] = [[] for _ in range(n)]
        if len(positions) == 1:
            p0 = positions[0]
            for row in self._rows:
                buckets[hash(row[p0]) % n].append(row)
        else:
            for row in self._rows:
                buckets[hash(tuple(row[p] for p in positions)) % n].append(row)
        return [Relation(self.schema, rows, validate=False) for rows in buckets]

    # -- simple derivations (heavy lifting lives in repro.ra.evaluate) ----
    def renamed(self, new_name: str) -> "Relation":
        """Same rows under a new relation name."""
        return Relation(self.schema.renamed(new_name), self._rows, validate=False)

    def with_schema(self, schema: RelationSchema) -> "Relation":
        """Reinterpret the same rows under a compatible schema."""
        if schema.arity != self.schema.arity:
            raise RelationError("cannot change schema to a different arity")
        return Relation(schema, self._rows, validate=False)

    def distinct(self) -> "Relation":
        """Duplicate-eliminated copy."""
        return Relation(self.schema, self.distinct_rows(), validate=False)

    def filter(self, predicate: Callable[[dict[str, Any]], bool]) -> "Relation":
        """Rows for which ``predicate(row_dict)`` is truthy."""
        names = self.schema.attribute_names
        kept = [row for row in self._rows if predicate(dict(zip(names, row)))]
        return Relation(self.schema, kept, validate=False)

    def project_columns(self, names: Sequence[str], *, distinct: bool = True) -> "Relation":
        """Projection onto ``names`` (set semantics by default, like RA)."""
        indices = [self.schema.index_of(n) for n in names]
        schema = self.schema.project(names)
        rows = [tuple(row[i] for i in indices) for row in self._rows]
        rel = Relation(schema, rows, validate=False)
        return rel.distinct() if distinct else rel

    def sorted(self) -> "Relation":
        """Rows sorted by a total order usable for stable display."""
        def key(row: Row) -> tuple:
            return tuple((value is None, str(type(value).__name__), value if value is not None else 0)
                         for value in row)

        return Relation(self.schema, sorted(self._rows, key=key), validate=False)

    # -- display ---------------------------------------------------------
    def to_table(self, *, max_rows: int | None = 20) -> str:
        """ASCII table rendering, used by examples and the pipeline output."""
        names = list(self.schema.attribute_names)
        shown = self._rows if max_rows is None else self._rows[:max_rows]
        cells = [[format_value(v) if isinstance(v, str) or v is None else str(v) for v in row]
                 for row in shown]
        widths = [len(n) for n in names]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        lines = [sep,
                 "|" + "|".join(f" {n.ljust(w)} " for n, w in zip(names, widths)) + "|",
                 sep]
        for row in cells:
            lines.append("|" + "|".join(f" {c.ljust(w)} " for c, w in zip(row, widths)) + "|")
        lines.append(sep)
        hidden = len(self._rows) - len(shown)
        if hidden > 0:
            lines.append(f"... {hidden} more row(s)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Relation({self.schema.name}, {len(self._rows)} rows)"


def relation_from_rows(
    name: str,
    columns: Sequence[tuple[str, str]],
    rows: Iterable[Sequence[Any]],
) -> Relation:
    """One-call constructor used heavily in tests and examples."""
    schema = RelationSchema(name, tuple(Attribute(c, t) for c, t in columns))
    return Relation(schema, rows)


def unique_names(names: Iterable[str]) -> tuple[str, ...]:
    """``names`` with each repeat suffixed by its count: ``x, x`` → ``x, x_2``."""
    unique: list[str] = []
    counts: dict[str, int] = {}
    for name in names:
        if name in counts:
            counts[name] += 1
            unique.append(f"{name}_{counts[name]}")
        else:
            counts[name] = 1
            unique.append(name)
    return tuple(unique)


def dedupe_rows(rows: Iterable[Row]) -> list[Row]:
    """The distinct rows, each at its first occurrence."""
    return list(dict.fromkeys(rows))


def result_relation(names: Sequence[str], rows: Sequence[Row]) -> Relation:
    """The answer every interpreter and the engine return: the columns are
    ``names`` made unique (:func:`unique_names`), each typed by its first
    non-NULL value (STRING when it has none), and it keeps no delta log."""
    attributes = []
    for i, name in enumerate(unique_names(names)):
        dtype = DataType.STRING
        for row in rows:
            if row[i] is not None:
                try:
                    dtype = infer_type(row[i])
                except ValueError:
                    pass
                break
        attributes.append(Attribute(name, dtype))
    return Relation.answer(RelationSchema("result", tuple(attributes)), rows)


def union_compatible(a: Relation, b: Relation) -> bool:
    """True iff two relations can take part in UNION / INTERSECT / EXCEPT."""
    return a.schema.is_union_compatible(b.schema)


def require_union_compatible(a: Relation, b: Relation, operation: str) -> None:
    """Raise :class:`RelationError` unless ``a`` and ``b`` are union-compatible."""
    if not union_compatible(a, b):
        raise RelationError(
            f"{operation}: schemas {a.schema} and {b.schema} are not union-compatible"
        )
