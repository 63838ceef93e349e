"""Hash-partitioned storage: one logical database spread over N shards.

A :class:`ShardedDatabase` is the storage half of the scatter-gather
execution subsystem (:mod:`repro.engine.sharded` is the engine half).  Every
relation is hash-partitioned across ``n_shards`` shard
:class:`~repro.data.database.Database` instances on a chosen *shard key*
(a subset of its attributes, the first attribute by default), reusing
:meth:`~repro.data.relation.Relation.partition_by` — so rows with equal key
values always land in the same shard, and each shard preserves the
relative bag order of its rows.

The class subclasses :class:`~repro.data.database.Database` and exposes the
same read API (``relation``/``schema``/``__iter__``/``active_domain``/...),
so every consumer of a plain database — the five reference interpreters,
the lowering and optimizer layers, :class:`~repro.engine.stats.StatsCatalog`
— works unchanged: reads see a lazily *merged* view of each relation
(shard bags concatenated in shard order).  Merged relations are **frozen**;
mutating one raises, which is deliberate: row writes must go through the
routing write API (:meth:`add_row` / :meth:`add_rows`) so each row reaches
the shard that owns it.

Versioning: :attr:`version` stays a single monotonic counter (structure +
sum of shard versions) for compatibility, while :attr:`version_token` —
what the serving layer keys its result cache on — is the per-shard vector
behind a layout ``generation`` that :func:`reshard` advances: a write to
one shard changes exactly one component.
"""

from __future__ import annotations

import itertools
import mmap
import os
import pickle
import struct
import threading
import weakref
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.data.database import Database
from repro.data.relation import ColumnStore, Relation, RelationError, Row
from repro.data.schema import DatabaseSchema, SchemaError

#: Shard count used when none is given (matches the default benchmark grid).
DEFAULT_N_SHARDS = 4

#: Suffix under which shard-execution databases expose the *full* (merged)
#: copy of a broadcast relation, so a plan can read one relation both
#: shard-locally and replicated (e.g. a self-join with one scattered and
#: one broadcast occurrence) without a name clash.
BROADCAST_SUFFIX = "@broadcast"

ShardKeySpec = Mapping[str, "str | Sequence[str]"]


class ShardedDatabase(Database):
    """A database hash-partitioned across ``n_shards`` shard databases.

    Parameters
    ----------
    relations:
        Relations to partition in, exactly like :class:`Database`.
    n_shards:
        How many shards to spread each relation over (``>= 1``).
    shard_keys:
        Optional mapping ``relation name -> attribute or attribute list``
        naming the partition key per relation.  Relations not named fall
        back to their **first attribute** — for key-led schemas (``sid``,
        ``bid``, ...) that makes equi-joins on the leading key
        co-partitioned out of the box.  See the README's shard-key
        guidance for how to choose.
    """

    def __init__(self, relations: Iterable[Relation] = (), *,
                 n_shards: int = DEFAULT_N_SHARDS,
                 shard_keys: ShardKeySpec | None = None) -> None:
        if n_shards <= 0:
            raise ValueError(f"shard count must be positive, got {n_shards}")
        self.n_shards = n_shards
        #: Layout epoch: :func:`reshard` stamps its result one past its
        #: source, so tokens of two layouts never compare equal.
        self.generation = 0
        self._shards: list[Database] = [Database() for _ in range(n_shards)]
        self._shard_keys: dict[str, tuple[str, ...]] = {}
        self._requested_keys: dict[str, tuple[str, ...]] = {}
        for name, attrs in (shard_keys or {}).items():
            key = (attrs,) if isinstance(attrs, str) else tuple(attrs)
            if not key:
                raise ValueError(f"empty shard key for relation {name!r}")
            self._requested_keys[name.lower()] = key
        #: name -> (shard-version vector at build time, frozen merged view).
        self._merged: dict[str, tuple[tuple[int, ...], Relation]] = {}
        #: name -> (merged view it aliases, frozen broadcast-named copy).
        self._broadcast: dict[str, tuple[Relation, Relation]] = {}
        #: Lazily created shared-memory page publisher (process backend).
        self._publisher: SharedPagePublisher | None = None
        super().__init__(relations)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_database(cls, db: Database, n_shards: int = DEFAULT_N_SHARDS,
                      shard_keys: ShardKeySpec | None = None
                      ) -> "ShardedDatabase":
        """Partition an existing database's relations across ``n_shards``."""
        return cls(iter(db), n_shards=n_shards, shard_keys=shard_keys)

    def add_relation(self, relation: Relation) -> None:
        """Partition a relation across the shards (add or replace).

        The shard key is the one requested at construction for this
        relation name, else the relation's first attribute.  Raises
        :class:`~repro.data.schema.SchemaError` if a requested key names an
        attribute the relation does not have.
        """
        key = relation.schema.name.lower()
        attrs = self._requested_keys.get(key)
        if attrs is None:
            # Default: the first attribute.  A zero-arity relation (the
            # calculi's TRUE/FALSE tables) has no attributes to hash on;
            # the empty key sends every row to one shard, which is exact.
            attrs = (relation.schema.attribute_names[:1])
        for attr in attrs:  # surfaces unknown attributes as SchemaError
            relation.schema.index_of(attr)
        parts = relation.partition_by(attrs, self.n_shards)
        for shard, part in zip(self._shards, parts):
            shard.add_relation(part)
        self._shard_keys[key] = tuple(attrs)
        self._merged.pop(key, None)
        self._broadcast.pop(key, None)
        self._structure_version += 1

    def drop_relation(self, name: str) -> None:
        key = name.lower()
        if key not in self._shard_keys:
            raise SchemaError(f"database has no relation {name!r}")
        for shard in self._shards:
            shard.drop_relation(name)
        del self._shard_keys[key]
        self._merged.pop(key, None)
        self._broadcast.pop(key, None)
        self._relations.pop(key, None)
        self._structure_version += 1

    # -- versions ----------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic database version over all shards (see ``Database``)."""
        return self._structure_version + sum(s.version for s in self._shards)

    def shard_versions(self) -> tuple[int, ...]:
        """The per-shard version vector (one component per shard).

        A routed write bumps exactly one component, which is what lets the
        serving layer key its result cache on the vector instead of a
        global counter (same invalidation, finer diagnostics).
        """
        return tuple(shard.version for shard in self._shards)

    @property
    def version_token(self) -> tuple[int, ...]:
        """``(generation, structure version, per-shard versions...)``.

        The leading epoch is what makes the token sound: two *layouts* can
        present identical vectors while partitioning rows — and gathering
        answers — differently, so without it an answer cached under the old
        layout could validate against the new one.
        """
        return (self.generation, self._structure_version,
                *self.shard_versions())

    # -- shared-memory page lifecycle --------------------------------------

    def page_publisher(self) -> "SharedPagePublisher":
        """The database's shared-memory page publisher (created lazily).

        The ``"process"`` backend publishes each shard's relations through
        this object; owning it here ties segment lifetime to the database,
        so :meth:`close` (or garbage collection of the database) unlinks
        every segment it ever published.
        """
        if self._publisher is None:
            self._publisher = SharedPagePublisher()
        return self._publisher

    def close(self) -> None:
        """Release OS resources: unlink all published page segments.

        Idempotent; the database remains readable afterwards (a later
        process-backend execution simply republishes).
        """
        if self._publisher is not None:
            self._publisher.close()
            self._publisher = None

    # -- sharding topology -------------------------------------------------

    def shard(self, index: int) -> Database:
        """Shard ``index`` as a plain database (shard-local relations)."""
        return self._shards[index]

    def shard_key(self, relation: str) -> tuple[str, ...]:
        """The attributes a relation is hash-partitioned on."""
        key = relation.lower()
        if key not in self._shard_keys:
            raise SchemaError(f"database has no relation {relation!r}")
        return self._shard_keys[key]

    def shard_of_value(self, key_value: Any) -> int:
        """The shard owning one shard-key value (raw scalar or tuple).

        Single-attribute keys hash the raw value, multi-attribute keys the
        value tuple — the same convention as
        :meth:`Relation.partition_by` and the executors' hash tables.
        """
        return hash(key_value) % self.n_shards

    def shard_of_row(self, relation: str,
                     row: Sequence[Any] | Mapping[str, Any]) -> int:
        """The shard a row of ``relation`` belongs on (by its key values)."""
        rel = relation.lower()
        schema = self._shards[0].relation(rel).schema
        if isinstance(row, Mapping):
            values = tuple(row[name] for name in schema.attribute_names)
        else:
            values = tuple(row)
        positions = [schema.index_of(a) for a in self.shard_key(rel)]
        if len(positions) == 1:
            return self.shard_of_value(values[positions[0]])
        return self.shard_of_value(tuple(values[p] for p in positions))

    # -- routed writes -----------------------------------------------------

    def add_row(self, relation: str, row: Sequence[Any] | Mapping[str, Any],
                *, validate: bool = True) -> int:
        """Append one row to the shard that owns it; returns that shard."""
        index = self.shard_of_row(relation, row)
        self._shards[index].relation(relation).add(row, validate=validate)
        return index

    def add_rows(self, relation: str,
                 rows: Iterable[Sequence[Any] | Mapping[str, Any]], *,
                 validate: bool = True) -> dict[int, int]:
        """Append a batch, routing each row to its owning shard.

        The batch is all-or-nothing across shards, like
        :meth:`Relation.add_rows` is within one relation: every row is
        routed and normalized/validated *before* any shard is touched, so
        a mid-batch failure leaves no shard with a partial write.  Returns
        ``{shard index: rows appended}``.  Each touched shard absorbs its
        sub-batch as **one** version bump, so the shard-version vector
        moves by at most one per shard per batch.
        """
        staged: dict[int, list[Row]] = {}
        for row in rows:
            index = self.shard_of_row(relation, row)
            target = self._shards[index].relation(relation)
            staged.setdefault(index, []).append(
                target._normalize_row(row, validate=validate))
        for index, bucket in staged.items():
            # Already normalized and validated: append without re-checking.
            self._shards[index].relation(relation).add_rows(
                bucket, validate=False)
        return {index: len(bucket) for index, bucket in staged.items()}

    # -- merged read view --------------------------------------------------

    def _merged_relation(self, key: str) -> Relation:
        """The frozen merged view of one relation (cached per shard state)."""
        versions = tuple(s.relation(key).version for s in self._shards)
        cached = self._merged.get(key)
        if cached is not None and cached[0] == versions:
            return cached[1]
        parts = [shard.relation(key) for shard in self._shards]
        rows: list[Row] = []
        for part in parts:
            rows.extend(part.rows())
        merged = Relation(parts[0].schema, rows, validate=False)
        # Version-tagged consumers (table statistics, plan-node key indexes)
        # compare the relation's version, not its identity: stamp the merged
        # view with the monotonic sum of shard versions so a rebuilt view
        # never masquerades as the state an earlier profile described.
        merged._version = sum(versions)
        merged.freeze()
        self._merged[key] = (versions, merged)
        self._relations[key] = merged
        return merged

    def broadcast_relation(self, name: str) -> Relation:
        """The merged view under its ``name@broadcast`` alias (cached).

        Shard-execution databases register this alias for relations a plan
        reads replicated, so the same relation can also appear shard-local
        under its plain name.  The alias is frozen and version-stamped like
        the merged view, and cached against the merged view's identity so
        its lazily built executor caches (column store, key indexes)
        survive across executions until a write rebuilds the merged view.
        """
        key = name.lower()
        merged = self.relation(key)
        cached = self._broadcast.get(key)
        if cached is not None and cached[0] is merged:
            return cached[1]
        alias = Relation(
            merged.schema.renamed(merged.schema.name + BROADCAST_SUFFIX),
            merged.rows(), validate=False)
        alias._version = merged.version
        alias.freeze()
        self._broadcast[key] = (merged, alias)
        return alias

    def _refresh_all(self) -> None:
        for key in self._shard_keys:
            self._merged_relation(key)

    def relation(self, name: str) -> Relation:
        """The merged (frozen) view of one relation, all shards combined.

        Mutating the returned relation raises
        :class:`~repro.data.relation.RelationError`; writes go through the
        routing API (:meth:`add_row` / :meth:`add_rows`) instead so each
        row reaches its owning shard.
        """
        key = name.lower()
        if key not in self._shard_keys:
            raise SchemaError(f"database has no relation {name!r}")
        return self._merged_relation(key)

    def relation_version(self, name: str) -> int:
        """The merged view's version without building the merged view.

        The merged relation is stamped with the sum of per-shard versions
        (see :meth:`_merged_relation`), so version-tagged consumers — view
        anchors, cache stamps — can probe staleness in O(shards) instead
        of paying a full row copy per check.
        """
        key = name.lower()
        if key not in self._shard_keys:
            raise SchemaError(f"database has no relation {name!r}")
        return sum(s.relation(key).version for s in self._shards)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._shard_keys

    def __iter__(self) -> Iterator[Relation]:
        self._refresh_all()
        return iter(self._relations[key] for key in self._shard_keys)

    @property
    def schema(self) -> DatabaseSchema:
        return DatabaseSchema(tuple(
            self._shards[0].relation(key).schema for key in self._shard_keys))

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._shards[0].relation(key).schema.name
                     for key in self._shard_keys)

    def active_domain(self) -> set[Any]:
        self._refresh_all()
        return super().active_domain()

    def total_rows(self) -> int:
        return sum(len(shard.relation(key))
                   for key in self._shard_keys for shard in self._shards)

    def summary(self) -> str:
        self._refresh_all()
        return super().summary()

    def copy(self) -> "ShardedDatabase":
        """A sharded copy: same topology, new relation objects per shard."""
        self._refresh_all()
        return ShardedDatabase(
            (Relation(rel.schema, rel.rows(), validate=False)
             for rel in self),
            n_shards=self.n_shards,
            shard_keys={name: key for name, key in self._shard_keys.items()},
        )

    def __repr__(self) -> str:
        return (f"ShardedDatabase({', '.join(self.relation_names)}; "
                f"{self.n_shards} shards)")


# ---------------------------------------------------------------------------
# Shared-memory column-page publication (the "process" backend's transport)
# ---------------------------------------------------------------------------

#: Page-segment names are ``repro-pg-{publisher pid}-{sequence}``: the pid
#: embeds ownership so :func:`reap_stale_segments` can audit ``/dev/shm``
#: for segments whose publisher died without unlinking them.
SEGMENT_PREFIX = "repro-pg"

#: Where POSIX shared memory lives as files (Linux); attachment and the
#: stale-segment audit both go through it.
_SHM_DIR = "/dev/shm"

#: Segment layout: ``u64 header length | pickled (schema, version) | pages``
#: where ``pages`` is :meth:`ColumnStore.encode_pages` output for the run's
#: row range.
_SEGMENT_HEADER = struct.Struct("<Q")


class PageSegment(NamedTuple):
    """One published *run*: rows ``[start, stop)`` of a relation.

    A slot's publication is a chain of runs linked through ``prev`` (the
    run holding the rows just below ``start``; ``None`` at row 0), so the
    newest run — what :meth:`SharedPagePublisher.publish` returns and a
    manifest carries — names every row up to ``stop``.  ``lineage`` is the
    same for all runs cut from one relation object in one slot and never
    reused: an attaching side that already holds a lineage's first *k*
    rows needs only the runs reaching past *k*.
    """

    name: str     #: shared-memory segment name
    nbytes: int   #: payload length (the OS may round the mapping up)
    version: int  #: relation version the chain up to ``stop`` snapshots
    start: int    #: first row the run holds
    stop: int     #: one past the last row it holds
    prev: "PageSegment | None"  #: the run below ``start``
    lineage: str  #: identity of the (slot, relation object) it was cut from


#: Process-wide segment sequence: names must be unique across *all*
#: publishers in this process (several databases can publish concurrently).
_segment_seq = itertools.count()


class _Slot:
    """One slot's live chain: the relation it was cut from and its runs."""

    __slots__ = ("relation", "lineage", "version", "runs")

    def __init__(self, relation: Relation) -> None:
        self.relation = weakref.ref(relation)
        self.lineage = f"{os.getpid()}-{next(_segment_seq)}"
        #: Relation version the chain is current for: the newest run's, or
        #: a later one that turned out to add no row.
        self.version = -1
        #: ``(SharedMemory, PageSegment)`` per run, oldest first.
        self.runs: list[tuple[Any, PageSegment]] = []


def _unlink_runs(runs: "list[tuple[Any, PageSegment]]") -> None:
    """Close and unlink published runs (attached sides keep their mapping)."""
    for shm, _segment in runs:
        try:
            shm.close()
            shm.unlink()
        except OSError:
            pass


def _release_segments(slots: "dict[str, _Slot]") -> None:
    """Close and unlink every published run (finalizer-safe)."""
    for slot in list(slots.values()):
        _unlink_runs(slot.runs)
    slots.clear()


class SharedPagePublisher:
    """Publishes relations as chains of shared-memory column-page runs.

    One *slot* (a caller-chosen string such as ``"2/part"`` for shard 2's
    ``part`` partition) holds the chain for one relation object: immutable
    runs covering rows ``[0, a), [a, b), …`` in order.  Storage is
    append-only, so :meth:`publish` encodes only the rows past the newest
    run — after absorbing every trailing run that is no longer than the
    rows that would follow it, the binary-counter merge: a slot holds at
    most log2 *n* runs, a row is re-encoded O(log *n*) times over its life,
    and there is no threshold to tune.  A full republish is the merge that
    reaches row 0; the first publish of a relation object is always one.
    An absorbed run is unlinked at once (attached workers keep their
    mapping; only the name goes away), as are all runs of a slot whose
    relation object was replaced — that starts a new lineage.

    Every run is unlinked when :meth:`close` runs, when the publisher is
    garbage collected, or at interpreter exit (``weakref.finalize``
    registers an exit hook), so a cleanly exiting process leaves
    ``/dev/shm`` empty.  :func:`reap_stale_segments` covers crashes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._slots: dict[str, _Slot] = {}
        self._finalizer = weakref.finalize(
            self, _release_segments, self._slots)

    def publish(self, slot: str, relation: Relation,
                sink: "dict[str, int] | None" = None) -> PageSegment:
        """The newest run of ``slot``'s chain, brought up to ``relation``.

        ``sink`` receives the counted work: ``publish_full`` /
        ``publish_tail`` (a run cut from row 0 / from later),
        ``rows_encoded`` and ``runs_absorbed``.
        """
        from multiprocessing import shared_memory

        with self._lock:
            if not self._finalizer.alive:
                raise RuntimeError("page publisher is closed")
            entry = self._slots.get(slot)
            if entry is not None and entry.relation() is not relation:
                _unlink_runs(entry.runs)  # a new relation object: new lineage
                entry = None
            if entry is None:
                entry = self._slots[slot] = _Slot(relation)
            runs = entry.runs
            if runs and entry.version == relation.version:
                return runs[-1][1]
            # Snapshot, encode, recheck: a concurrent writer bumping the
            # version mid-encode could tear the column arrays, so retry
            # until the version sits still across the whole encoding.  A
            # run outlives the version it was cut at, so it may hold only
            # whole rows at their final positions: one row count, read
            # once, bounds every column's slice.
            while True:
                version = relation.version
                store = relation.column_store()
                stop = store.whole_rows()
                # Absorb trailing runs while they are no longer than the
                # rows that would follow them; runs[:keep] stay.
                keep = len(runs)
                start = runs[-1][1].stop if runs else 0
                fresh = stop > start or not runs
                while fresh and keep \
                        and start - runs[keep - 1][1].start <= stop - start:
                    keep -= 1
                    start = runs[keep][1].start
                pages = store.encode_pages(start, stop) if fresh else b""
                if relation.version == version:
                    break
            if not fresh:  # the new version appended no row
                entry.version = version
                return runs[-1][1]
            header = pickle.dumps((relation.schema, version),
                                  protocol=pickle.HIGHEST_PROTOCOL)
            payload = b"".join((_SEGMENT_HEADER.pack(len(header)), header,
                                pages))
            name = f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_segment_seq)}"
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=len(payload))
            shm.buf[:len(payload)] = payload
            segment = PageSegment(
                shm.name, len(payload), version, start, stop,
                runs[keep - 1][1] if keep else None, entry.lineage)
            absorbed = runs[keep:]
            runs[keep:] = [(shm, segment)]
            entry.version = version
            _unlink_runs(absorbed)
            if sink is not None:
                for key, n in (("publish_tail" if start else "publish_full", 1),
                               ("rows_encoded", stop - start),
                               ("runs_absorbed", len(absorbed))):
                    sink[key] = sink.get(key, 0) + n
            return segment

    def live_runs(self) -> list[PageSegment]:
        """The currently linked runs of every slot (gauges, diagnostics)."""
        with self._lock:
            return [segment for entry in self._slots.values()
                    for _shm, segment in entry.runs]

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Unlink every published run.  Idempotent."""
        with self._lock:
            self._finalizer()  # runs _release_segments at most once


def attach_segment(segment: PageSegment) -> "tuple[Relation, Any]":
    """Map one published run and rebuild its rows as a relation.

    Returns ``(relation, mapping)``: the frozen relation holds exactly the
    run's rows ``[segment.start, segment.stop)`` — for the first run of a
    lineage that is the relation as first published, which
    :func:`extend_attached` then keeps current from later runs.  The
    rebuilt column store — and every kernel encoding later derived from it
    — holds zero-copy views into ``mapping``, and those views are what
    keeps it mapped: the segment is read through a plain read-only
    ``mmap`` of its ``/dev/shm`` file (the same directory
    :func:`reap_stale_segments` audits), which has no finalizer of its own
    and is unmapped when the last view is collected.
    :func:`detach_segment` merely releases it early when nothing is left.
    Raises ``FileNotFoundError`` when the run was absorbed or unlinked
    since the manifest naming it was built.

    (A ``SharedMemory`` attachment cannot do this: its ``close()`` raises
    while views exist and its ``__del__`` retries, printing a
    ``BufferError`` traceback per superseded segment.  Attaching by file
    also involves no resource tracker, so the publisher's ``unlink`` stays
    the single authoritative removal whoever attaches.)

    Where POSIX shared memory is not a directory (macOS has no
    ``/dev/shm``) the segment is attached by name through ``SharedMemory``
    after all: correct, but with that noise back on republishing writes.
    """
    mapping: Any
    if os.path.isdir(_SHM_DIR):
        fd = os.open(os.path.join(_SHM_DIR, segment.name), os.O_RDONLY)
        try:
            mapping = mmap.mmap(fd, segment.nbytes, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)  # the mapping keeps its own duplicate
        view = memoryview(mapping)
    else:
        from multiprocessing import shared_memory

        # Worker processes share the publisher's resource tracker, where
        # re-registering a tracked name is a no-op; only
        # publisher-descendant processes may attach this way.
        mapping = shared_memory.SharedMemory(name=segment.name)
        view = memoryview(mapping.buf)[:segment.nbytes]
    (header_len,) = _SEGMENT_HEADER.unpack_from(view, 0)
    body = _SEGMENT_HEADER.size
    schema, version = pickle.loads(bytes(view[body:body + header_len]))
    store = ColumnStore.decode_pages(view[body + header_len:])
    if len(store) != segment.stop - segment.start:
        raise RelationError(
            f"segment {segment.name} holds {len(store)} rows, its manifest "
            f"entry names [{segment.start}, {segment.stop})")
    return Relation.from_column_store(schema, store, version=version), mapping


def extend_attached(relation: Relation, segment: PageSegment) -> int:
    """Append to ``relation`` the rows of ``segment``'s chain it lacks.

    ``relation`` holds the first ``len(relation)`` rows of the chain's
    lineage (it began as an :func:`attach_chain`).  Only the runs reaching past that are attached and decoded — of
    a run merged across the boundary, the suffix — and appended through
    :meth:`Relation.add_rows`, so the column store and key indexes are
    maintained, not rebuilt.  Returns the rows decoded; afterwards
    ``len(relation) == segment.stop`` (a chain naming *fewer* rows than
    the relation holds is the caller's case to handle, not extended here).
    """
    have = len(relation)
    lacking = []
    run: PageSegment | None = segment
    while run is not None and run.stop > have:
        lacking.append(run)
        run = run.prev
    decoded = 0
    for run in reversed(lacking):
        part, mapping = attach_segment(run)
        rows = part.rows()[have - run.start:]
        del part  # release the page views before unmapping
        detach_segment(mapping)
        # Frozen against every caller but this one: the side that attached
        # a lineage is the only writer of its copy.
        relation._frozen = False
        try:
            relation.add_rows(rows, validate=False)
        finally:
            relation.freeze()
        have = run.stop
        decoded += run.stop - run.start
    return decoded


def attach_chain(segment: PageSegment) -> "tuple[Relation, Any, int]":
    """Rebuild every row ``segment``'s chain names, first run upward.

    Returns ``(relation, mapping, rows decoded)``; ``mapping`` is the first
    run's, whose page views the relation's column store keeps.
    """
    first = segment
    while first.prev is not None:
        first = first.prev
    relation, mapping = attach_segment(first)
    return relation, mapping, first.stop + extend_attached(relation, segment)


def detach_segment(mapping: Any) -> None:
    """Unmap an attached segment now if no page view is left."""
    try:
        mapping.close()
    except BufferError:
        # Zero-copy page views still reference the mapping; it is unmapped
        # when the last of them is collected (or with the process).
        pass


def reap_stale_segments() -> list[str]:
    """Unlink page segments whose publishing process is dead.

    Audits ``/dev/shm`` for ``repro-pg-{pid}-*`` names and unlinks those
    whose pid no longer exists — segments leaked by a publisher that
    crashed before its exit hook could run.  The process backend calls
    this at pool startup.  Returns the reaped segment names.
    """
    reaped: list[str] = []
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return reaped
    prefix = SEGMENT_PREFIX + "-"
    for fname in names:
        if not fname.startswith(prefix):
            continue
        try:
            pid = int(fname[len(prefix):].split("-", 1)[0])
        except ValueError:
            continue
        if pid == os.getpid():
            continue  # our own live segments
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            try:
                os.unlink(os.path.join(_SHM_DIR, fname))
                reaped.append(fname)
            except OSError:
                continue
        except OSError:
            continue  # alive (or not ours to signal): leave it
    return reaped


def reshard(db: Database, n_shards: int,
            shard_keys: ShardKeySpec | None = None) -> ShardedDatabase:
    """Re-partition any database (sharded or not) into ``n_shards`` shards.

    The one-call entry point for rebalancing experiments: reads the merged
    view of ``db`` and hash-partitions it afresh.  Carried shard keys from
    an existing :class:`ShardedDatabase` are preserved unless overridden —
    including keys *requested* for relations not currently present, so a
    relation re-added after the reshard keeps its intended key.

    The result's :attr:`~ShardedDatabase.generation` is one past a sharded
    source's.  This function only builds data; a serving tier resharding
    under live traffic should go through
    :meth:`~repro.core.sharded_service.ShardedQueryService.reshard`, which
    wraps this in the write lock and rematerializes registered views
    against the new layout.
    """
    keys: dict[str, str | Sequence[str]] = {}
    if isinstance(db, ShardedDatabase):
        keys.update(db._requested_keys)
        keys.update(db._shard_keys)
    if shard_keys:
        keys.update({name.lower(): attrs for name, attrs in shard_keys.items()})
    resharded = ShardedDatabase(
        (Relation(rel.schema, rel.rows(), validate=False) for rel in db),
        n_shards=n_shards, shard_keys=keys)
    if isinstance(db, ShardedDatabase):
        resharded.generation = db.generation + 1
    return resharded


__all__ = [
    "BROADCAST_SUFFIX",
    "DEFAULT_N_SHARDS",
    "PageSegment",
    "SEGMENT_PREFIX",
    "SharedPagePublisher",
    "ShardedDatabase",
    "attach_chain",
    "attach_segment",
    "detach_segment",
    "extend_attached",
    "reap_stale_segments",
    "reshard",
]
