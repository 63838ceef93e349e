"""A thread-safe query service: the paper's serving loop under concurrency.

The Fig. 1/2 interaction is a *serving* loop — text in, answers out — and the
roadmap's north star is heavy concurrent traffic.
:class:`QueryVisualizationPipeline` is single-threaded by design;
:class:`QueryService` wraps one pipeline and makes the loop safe and fast
under concurrent readers and writers:

* **Frozen answers.**  Every relation the service returns is
  :meth:`~repro.data.relation.Relation.freeze`-d before it enters the shared
  result cache, so the cache-aliasing bug class (one caller mutates its
  answers, everyone else reads the poisoned object) raises at the mutation
  site instead of corrupting the cache.  Callers wanting a private mutable
  instance take ``.copy()``.
* **One result cache, lock-free reads.**  The service's result cache is
  the only one on the serving path (the pipeline caches plans, not
  answers): an :class:`~repro.engine.cache.LRUCache` keyed on
  ``(query fingerprint, database version token)``; warm requests are one
  locked dictionary lookup and never serialize against each other or
  against execution.  It is bounded twice: by ``result_cache_size``
  answers and by :data:`RESULT_CACHE_BYTES`, against which each answer
  declares a closed-form footprint (:func:`answer_footprint`) when it is
  published — so a stream of large answers nobody re-reads holds a few
  megabytes, not a thousand answers' worth.
* **Hits without waiting.**  :meth:`~QueryService.try_hit` is ``query``
  for an answer that is already there: a result-cache entry at the current
  version or a fresh view, found by trying the locks instead of taking
  them, returned as the envelope memoized beside the entry the first time
  it is hit.  It declines (``None``) rather than wait or execute, which is
  what lets an event loop call it directly.
* **Snapshot-validated misses.**  A cache miss executes *optimistically*:
  the version token is read before and after execution, and the answer is
  published (and returned) only if no write interleaved.  A torn execution
  is retried; after :data:`MAX_RETRIES` collisions the request runs once
  under the write lock, which excludes writers and guarantees a consistent
  snapshot.  Either way every answer the service returns equals a
  single-threaded evaluation at some database version ≥ the request's start
  — the invariant ``tests/test_service.py`` hammers.
* **Write API.**  Writers mutate through :meth:`add_row` /
  :meth:`add_rows` / the :meth:`writing` context manager, all of which hold
  the service's write lock; the database routes the rows and owns the
  version token, so one path serves plain and sharded databases alike.
  Writes outside the service are tolerated by the
  optimistic readers (the storage layer publishes version bumps last) but
  forfeit the serialized-fallback guarantee — keep them out of hot paths.
* **Prepared queries.**  :meth:`prepare` parses once, compiles the plan into
  the pipeline's plan cache, and returns a :class:`PreparedQuery` handle
  whose :meth:`~PreparedQuery.answer` skips language detection and
  fingerprinting on every subsequent request — the repeated-serving fast
  path.
* **Materialized views.**  :meth:`register_view` materializes a query
  once and keeps it current under appends: a plan with a maintainable core
  absorbs writes through delta plans (:mod:`repro.engine.delta`);
  everything else, recursive Datalog programs included, rebuilds on
  refresh.
  One :class:`MaterializedView` class serves every service: it maintains
  the list of parts the service's :class:`ViewRecipe` describes — one
  part over the whole database here, one per shard on the sharded
  service — and a part that falls behind its delta log recomputes alone.
* **Versioned statistics.**  :meth:`table_stats` / :meth:`stats_snapshot`
  expose the optimizer's own per-relation profiles — cached on the
  relations, version-tagged (:func:`repro.engine.stats.table_profile`) — so
  monitoring shares them with the optimizer instead of racing or
  recollecting them.

Backend choice is per service: ``"vectorized"`` (the default) or
``"row"`` by name, or a backend instance, which the service keeps.  A
:class:`~repro.core.sharded_service.ShardedQueryService` makes its own
scatter-gather backend; its ``backend="process"`` runs scatter subplans in
worker processes, off the serving process's GIL, while every other backend
answers a request on the thread that serves it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.pipeline import (
    PIPELINE_LANGUAGES,
    Counters,
    QueryVisualizationPipeline,
    fingerprint_query,
)
from repro.core.service_api import (
    QueryResult,
    ServiceBase,
    UnknownLanguageError,
    UnknownViewError,
    ViewConflictError,
)
from repro.data.database import Database
from repro.data.relation import Relation, Row
from repro.data.sharded import BROADCAST_SUFFIX, ShardedDatabase
from repro.engine import detect_language
from repro.engine.cache import LRUCache
from repro.engine.delta import (
    DeltaRewriteError,
    ViewMaintainer,
    build_maintainer,
    find_core,
    finish_rows,
)
from repro.engine.execute import ExecutorBackend, build_result_relation
from repro.engine.kernels import cache_stats as kernel_cache_stats
from repro.engine.lower import LoweringError
from repro.engine.plan import DeltaUnavailable, Plan, PlanError
from repro.engine.stats import StatsCatalog, TableStats

#: Optimistic attempts a cache miss (or a statistics snapshot) makes before
#: it runs once under the write lock.
MAX_RETRIES = 4

#: Byte budget of each service's result cache, beside its entry cap: the
#: sum of the :func:`answer_footprint` of the answers it holds.
RESULT_CACHE_BYTES = 16 * 1024 * 1024


def answer_footprint(relation: Relation) -> int:
    """The bytes a result-cache entry for ``relation`` keeps alive, in
    closed form from its row count and arity (no walk over the rows).

    About 2 KiB per answer (the relation and its schema, the published
    answer, the envelope and the JSON framing a hit memoizes beside it),
    then per row its tuple and its slots in the row list and the envelope
    (``40 + 8 × arity``), and per value about 24 bytes of JSON text and of
    the value objects made for the answer.  Within 2x of what tracemalloc
    measures an entry retaining (``tests/test_service.py``).
    """
    return 2048 + len(relation) * (40 + 32 * relation.schema.arity)


class _Answer:
    """One published answer: what a cache entry or a view's current state is.

    Immutable once built except for :attr:`_result`, the memoized envelope.
    The version token is fixed at publication, so everything the envelope
    needs travels with the answer and a hit builds it without consulting
    the service again.  A new version (or a view refresh) publishes a new
    object; the envelope, and the JSON bytes memoized on it, go with the
    old one.
    """

    __slots__ = ("relation", "warnings", "language", "fingerprint", "version",
                 "_result")

    def __init__(self, relation: Relation, warnings: tuple[str, ...],
                 language: str, fingerprint: str, version: Any) -> None:
        self.relation = relation.freeze()
        self.warnings = warnings
        self.language = language
        self.fingerprint = fingerprint
        self.version = version
        self._result: QueryResult | None = None

    def envelope(self) -> QueryResult:
        """Package this answer as a fresh :class:`QueryResult`."""
        relation = self.relation
        return QueryResult(
            columns=relation.attribute_names,
            rows=tuple(relation.rows()),
            language=self.language,
            fingerprint=self.fingerprint,
            version=self.version,
            warnings=self.warnings,
            relation=relation,
        )

    def result(self) -> QueryResult:
        """The envelope, built on the first *hit* and kept with the answer.

        Only hits come here — an answer that is published and never re-read
        retains nothing beyond its relation.  Racing first hits may each
        build one; they are equal and the last store wins.
        """
        result = self._result
        if result is None:
            result = self._result = self.envelope()
        return result


class PreparedQuery:
    """One identified query: text, resolved language, fingerprint.

    :meth:`QueryService.identify` makes one per request, so the language is
    resolved and the text fingerprinted once however many calls serve it;
    :meth:`QueryService.prepare` additionally compiles the plan and returns
    the handle for repeated serving, whose :meth:`answer` goes straight to
    the cache lookup.
    """

    __slots__ = ("service", "text", "language", "fingerprint")

    def __init__(self, service: "QueryService", text: str, language: str,
                 fingerprint: str) -> None:
        self.service = service
        self.text = text
        self.language = language
        self.fingerprint = fingerprint

    def answer(self, *, warnings: list[str] | None = None) -> Relation:
        """Serve this query's answers (frozen; take ``.copy()`` to mutate)."""
        return self.service._serve_relation(
            self.text, self.language, self.fingerprint, warnings)

    def query(self) -> QueryResult:
        """Serve as a structured envelope (see :meth:`QueryService.query`)."""
        return self.service._query(self.text, self.language, self.fingerprint)

    def try_hit(self) -> QueryResult | None:
        """The cached envelope, or ``None`` without waiting (see
        :meth:`~repro.core.service_api.ServiceAPI.try_hit`)."""
        return self.service._try_hit(self.fingerprint)

    def __repr__(self) -> str:
        return f"PreparedQuery({self.language}: {self.text!r})"


@dataclass(frozen=True)
class ViewRecipe:
    """How a service maintains a view's core: a list of parts.

    ``databases()`` returns one execution database per part; every part
    maintains ``plan`` over its database on ``backend``, and ``gather``
    turns the parts' rows, in part order, into the core's rows.
    ``broadcast`` names the relations each part reads whole, as a frozen
    ``name@broadcast`` copy: a write to one moves every part at once.
    ``compiled`` is the :class:`~repro.engine.sharded.ShardedPlan` a
    sharded service compiled the recipe from, ``None`` elsewhere.
    """

    plan: Plan
    databases: Callable[[], list[Database]]
    backend: "str | ExecutorBackend"
    gather: Callable[[list[list[Row]]], list[Row]]
    broadcast: frozenset[str] = frozenset()
    compiled: Any = None


class MaterializedView:
    """One registered query, materialized once and maintained under appends.

    Obtained from :meth:`QueryService.register_view`.  The view always
    answers at a **single database version**: the frozen relation it serves
    was computed (or incrementally caught up) at :attr:`version`, and every
    refresh runs under the service's write lock, so a refresh can never
    observe half a batch.  Writes the view has absorbed do not invalidate it
    — that is the point: where the plain result cache keys on
    ``(fingerprint, version)`` and misses after every write, a registered
    view answers warm by executing only the *delta plans* of the appends.

    Maintenance strategy (chosen at registration, re-chosen on rebuild):

    * engine plans with a maintainable core — delta-plan maintenance via
      :mod:`repro.engine.delta` (bag, ``DISTINCT``, or the per-group
      partial states of :func:`~repro.engine.sharded.split_aggregate`'s
      combiner), with any finishing operators re-applied to the small
      core output.  The core is maintained as the list of parts the
      service's :class:`ViewRecipe` describes: one part over the whole
      database here, one per shard on a
      :class:`~repro.core.sharded_service.ShardedQueryService`;
    * everything else — rebuild on refresh (correct, never incremental).
      That includes recursive Datalog programs (a fixpoint is not
      maintainable) and every ``DISTINCT`` aggregate (it has no
      partial→final rule).

    A refresh applies each part's delta only where that part's relations
    moved.  A part whose bounded delta log no longer covers its window
    recomputes on its own, counted in :attr:`shard_rebuilds`; a write to a
    broadcast relation recomputes every part.  The view rebuilds when the
    database structure changes or the service replaces its database.

    ``refresh``: ``"lazy"`` (default) catches up on first access after a
    write; ``"eager"`` refreshes inside every service write call, so reads
    never pay refresh latency.
    """

    def __init__(self, service: "QueryService", name: str, text: str,
                 language: str, fingerprint: str, refresh: str) -> None:
        if refresh not in ("lazy", "eager"):
            raise ValueError(f"unknown refresh policy {refresh!r}; "
                             "expected 'lazy' or 'eager'")
        self.service = service
        self.name = name
        self.text = text
        self.language = language
        self.fingerprint = fingerprint
        self.refresh_policy = refresh
        self.refreshes = 0
        self.incremental_refreshes = 0
        self.rebuilds = 0
        self.shard_rebuilds = 0
        self._plan: Any = None          # engine plan (None: fallback)
        self._core: Any = None          # maintainable core subplan
        self._recipe: ViewRecipe | None = None  # None => rebuild-on-refresh
        self._parts: list[ViewMaintainer] = []  # one per recipe database
        self._base_rels: tuple[str, ...] = ()
        self._structure_version = -1
        self._published: _Answer | None = None
        self._db: Database | None = None  # the database published against
        self._version = -1

    # -- serving -----------------------------------------------------------

    @property
    def version(self) -> int:
        """The database version the served relation is consistent at."""
        return self._version

    @property
    def strategy(self) -> str:
        """``"bag"`` / ``"distinct"`` / ``"aggregate"`` / ``"rebuild"`` —
        how refreshes are computed right now; maintained per shard, the
        first three read ``"sharded-bag"`` and so on."""
        if self._recipe is None:
            return "rebuild"
        kind = self._parts[0].kind
        return kind if self._recipe.compiled is None else f"sharded-{kind}"

    def _peek(self) -> _Answer | None:
        """The published answer if it is current — takes no lock.

        The one freshness check: :meth:`answer` and the service's
        ``try_hit`` both come through here.  Current means published
        against the very database the service serves (a reshard replaces
        it) at that database's present version.
        """
        # Check the stamp *first*: a refresh publishes the answer before
        # the stamp, so observing a current stamp guarantees the answer
        # read afterwards is at least that fresh.
        db = self.service.db
        if self._db is db and self._version == db.version:
            return self._published
        return None

    def _current(self) -> _Answer:
        """The published answer, catching up first if stale."""
        published = self._peek()
        if published is None:
            with self.service._write_lock:
                published = self._refresh_locked()
        return published

    def answer(self, *, warnings: list[str] | None = None) -> Relation:
        """The materialized answers (frozen), catching up first if stale."""
        published = self._current()
        if warnings is not None:
            warnings.extend(published.warnings)
        return published.relation

    def refresh(self) -> Relation:
        """Force a catch-up now (no-op when already current)."""
        with self.service._write_lock:
            return self._refresh_locked().relation

    def rebuild(self) -> Relation:
        """Force a from-scratch rematerialization now."""
        with self.service._write_lock:
            self.refreshes += 1
            return self._rebuild_locked().relation

    def info(self) -> dict[str, Any]:
        """Introspection: strategy, freshness, refresh counters; on a
        sharded database also the shard count, part recomputations and
        layout generation."""
        published = self._published
        relation = published.relation if published is not None else None
        info: dict[str, Any] = {
            "name": self.name,
            "language": self.language,
            "strategy": self.strategy,
            "refresh_policy": self.refresh_policy,
            "version": self._version,
            "current": self._peek() is not None,
            "rows": len(relation) if relation is not None else 0,
            "refreshes": self.refreshes,
            "incremental_refreshes": self.incremental_refreshes,
            "rebuilds": self.rebuilds,
            "base_relations": self._base_rels,
        }
        db = self.service.db
        if isinstance(db, ShardedDatabase):
            info["n_shards"] = db.n_shards
            info["shard_rebuilds"] = self.shard_rebuilds
            info["generation"] = self._db.generation
        return info

    # -- maintenance (service write lock held) ------------------------------

    def _refresh_locked(self) -> _Answer:
        published = self._peek()
        if published is not None:
            return published
        self.refreshes += 1
        db = self.service.db
        if self._db is not db \
                or self._structure_version != db.structure_version:
            # Resharded or schema changed: maintained state describes a
            # database or layout that no longer exists.
            return self._rebuild_locked()
        return self._catch_up_locked(db)

    def _catch_up_locked(self, db: Database) -> _Answer:
        """Absorb the writes since the last publication, part by part."""
        recipe = self._recipe
        if recipe is None:
            return self._rebuild_locked()
        parts = self._parts
        if any(db.relation_version(rel)
               != parts[0].anchors[rel + BROADCAST_SUFFIX]
               for rel in recipe.broadcast):
            # A broadcast relation grew: every part joined against its full
            # old copy, so every part is stale at once.
            for part, exec_db in zip(parts, recipe.databases()):
                part.initialize(exec_db, recipe.backend)
            self.shard_rebuilds += len(parts)
            return self._publish(db)
        touched = False
        for part in parts:
            try:
                touched |= part.catch_up(recipe.backend)
            except (DeltaUnavailable, DeltaRewriteError, LoweringError,
                    PlanError):
                # This part fell behind its bounded delta log: recompute it
                # alone; the other parts keep their state.
                part.initialize(part.db, recipe.backend)
                self.shard_rebuilds += 1
                touched = True
        if not touched:
            # Writes elsewhere in the database: the output cannot have
            # changed, only the version (and the envelope) it is at.
            published = self._published
            return self._finish_publish(db, published.relation,
                                        published.warnings)
        self.incremental_refreshes += 1
        return self._publish(db)

    def _rebuild_locked(self) -> _Answer:
        """Rematerialize from scratch: the engine plan's parts
        (:meth:`_maintain`), else rebuild on every refresh from the
        pipeline's answer — queries outside the engine fragment and plans
        with no maintainable core."""
        db = self.service.db
        self.rebuilds += 1
        self._recipe = None
        self._parts = []
        self._core = None
        self._base_rels = ()
        pipeline = self.service.pipeline
        self._plan = pipeline.prepare_plan(self.text, self.language)
        if self._plan is not None and self._maintain(db):
            return self._publish(db)
        warnings: list[str] = []
        relation = pipeline.answer(self.text, language=self.language,
                                   warnings=warnings)
        return self._finish_publish(db, relation, tuple(warnings))

    def _maintain(self, db: Database) -> bool:
        """Build and initialize the parts of :attr:`_plan`'s core, as the
        service's recipe describes them; ``False`` when there is no core
        or no recipe (the view then rebuilds on refresh)."""
        try:
            core, _kind = find_core(self._plan)
            recipe = self.service._view_recipe(core)
            if recipe is None:
                return False
            parts = [build_maintainer(recipe.plan, exec_db)
                     for exec_db in recipe.databases()]
            for part in parts:
                part.initialize(part.db, recipe.backend)
        except (DeltaRewriteError, LoweringError, PlanError):
            # Unmaintainable core or an uncertified recipe: serve by
            # rebuild (a full recompute on every refresh).
            return False
        self._core = core
        self._recipe = recipe
        self._parts = parts
        self._base_rels = core.base_relations
        return True

    def _publish(self, db: Database) -> _Answer:
        """Gather the parts, re-apply the finishing operators and publish
        (version set last)."""
        core_rows = self._recipe.gather([part.rows() for part in self._parts])
        rows = finish_rows(db, self._plan, self._core, core_rows)
        return self._finish_publish(
            db, build_result_relation(self._plan.columns, rows))

    def _finish_publish(self, db: Database, relation: Relation,
                        warnings: tuple[str, ...] = ()) -> _Answer:
        """Publish ``relation`` as the view's answer at ``db``'s version.

        ``warnings`` are the engine-fallback reasons of a rebuild-on-refresh
        view; a maintained view was planned by the engine and has none.
        """
        self._structure_version = db.structure_version
        # The write lock is held, so the version token is exact.
        published = self._published = _Answer(
            relation, warnings, self.language, self.fingerprint,
            db.version_token)
        # Stamp last: a lock-free reader that observes the new stamp is
        # then guaranteed to observe the new answer too.
        self._db = db
        self._version = db.version
        return published

    def __repr__(self) -> str:
        return (f"MaterializedView({self.name!r}, {self.language}: "
                f"{self.text!r}, strategy={self.strategy})")


class QueryService(ServiceBase):
    """Thread-safe serving of the five-language pipeline (see module docs).

    Implements :class:`~repro.core.service_api.ServiceAPI`; protocol front
    ends (the HTTP tier in :mod:`repro.server`) are written against that
    protocol, not this class.
    """

    def __init__(self, db: Database | None = None, *,
                 backend: "str | ExecutorBackend" = "vectorized",
                 plan_cache_size: int = 256,
                 result_cache_size: int = 1024) -> None:
        self.pipeline = QueryVisualizationPipeline(
            db, backend=backend, plan_cache_size=plan_cache_size)
        self.db = self.pipeline.db
        self.backend = self.pipeline.backend
        self.stats = Counters("requests", "result_hits", "result_misses",
                              "validation_retries", "serialized_runs",
                              "view_hits")
        self.table_statistics = StatsCatalog(self.db)
        self._results = LRUCache(result_cache_size, RESULT_CACHE_BYTES)
        self._write_lock = threading.RLock()
        self._views: dict[str, MaterializedView] = {}  # keyed by fingerprint
        self._views_by_name: dict[str, MaterializedView] = {}

    # -- serving -----------------------------------------------------------

    def answer(self, text: str, *, language: str | None = None,
               warnings: list[str] | None = None) -> Relation:
        """Any-language text in, frozen answers out — safe under concurrency.

        Engine-fallback reasons are appended to the optional ``warnings``
        out-list, exactly like :meth:`QueryVisualizationPipeline.answer`
        (cached alongside the answer, so warm hits report them too).
        """
        return self.identify(text, language=language).answer(warnings=warnings)

    def identify(self, text: str, *,
                 language: str | None = None) -> PreparedQuery:
        """Resolve the language and fingerprint the text, once; every entry
        point serves through the returned handle (see
        :meth:`~repro.core.service_api.ServiceAPI.identify`)."""
        resolved = self._resolve_language(text, language)
        return PreparedQuery(self, text, resolved,
                             fingerprint_query(text, resolved))

    def prepare(self, text: str, *, language: str | None = None) -> PreparedQuery:
        """Parse + plan one query now; serve it repeatedly via the handle.

        Syntax errors surface here.  The plan is compiled into the
        pipeline's plan cache under the query's *shape*, so the handle's
        requests — and those of any text that differs from this one only in
        its literals — skip parse/lower/optimize.  Queries outside the
        engine fragment still return a handle — their requests take the
        interpreter fallback, like unprepared serving.
        """
        handle = self.identify(text, language=language)
        self.pipeline.prepare_plan(text, handle.language)  # parses; seeds
        return handle

    def _resolve_language(self, text: str, language: str | None) -> str:
        resolved = (language or detect_language(text)).lower()
        if resolved not in PIPELINE_LANGUAGES:
            raise UnknownLanguageError(
                f"unknown language {resolved!r}; expected one of {PIPELINE_LANGUAGES}",
                detail={"language": resolved,
                        "expected": list(PIPELINE_LANGUAGES)},
            )
        return resolved

    def _serve_relation(self, text: str, language: str, fingerprint: str,
                        warnings: list[str] | None) -> Relation:
        """Serve one identified query as a frozen relation."""
        served, _hit = self._serve(text, language, fingerprint)
        if warnings is not None:
            warnings.extend(served.warnings)
        return served.relation

    def _query(self, text: str, language: str,
               fingerprint: str) -> QueryResult:
        """Serve one identified query as an envelope."""
        served, hit = self._serve(text, language, fingerprint)
        return served.result() if hit else served.envelope()

    def _try_hit(self, fingerprint: str) -> QueryResult | None:
        """:meth:`_query` for an answer that is already there, or ``None``.

        Never waits: the peek and the counters only *try* their locks, and a
        declined request counts nothing (the caller's :meth:`query` will).
        """
        served, counter = self._peek(fingerprint)
        if served is None or not self.stats.try_bump("requests", counter):
            return None
        return served.result()

    def _peek(self, fingerprint: str) -> tuple[_Answer | None, str]:
        """The answer that is current for ``fingerprint`` right now, if one
        is published, and the counter a hit on it bumps — without waiting.

        A fresh registered view, else the result-cache entry at the current
        version token.  ``None`` means "cannot say without waiting": a miss,
        a stale view, or a cache lock another thread holds.
        """
        view = self._views.get(fingerprint)
        if view is not None:
            return view._peek(), "view_hits"
        key = (fingerprint, self.db.version_token)
        return self._results.peek(key), "result_hits"

    def _serve(self, text: str, language: str,
               fingerprint: str) -> tuple[_Answer, bool]:
        """Cache lookup + snapshot-validated execution (see module docs).

        Returns the published answer and whether a ``*_hits`` counter was
        bumped for it (only then does the caller keep its envelope).
        """
        served, counter = self._peek(fingerprint)
        if served is not None:
            self.stats.bump("requests", counter)
            return served, True
        view = self._views.get(fingerprint)
        if view is not None:
            # Registered views are served from their materialization: writes
            # they have absorbed never invalidate, and a stale view catches
            # up by delta plans instead of recomputing.
            self.stats.bump("requests", "view_hits")
            return view._current(), True
        self.stats.bump("requests")
        for _attempt in range(MAX_RETRIES):
            version = self.db.version_token
            key = (fingerprint, version)
            cached = self._results.get(key)
            if cached is not None:
                self.stats.bump("result_hits")
                return cached, True
            # Each attempt collects its own warnings; only the attempt that
            # wins publishes them, so retries never duplicate messages.
            attempt_warnings: list[str] = []
            try:
                answers = self.pipeline.answer(text, language=language,
                                               warnings=attempt_warnings)
            except Exception:
                # Lock-free readers can observe a write mid-add (the row
                # published, the column-store append or version bump not
                # yet), which can surface as a transient executor error.
                # Retry; a *genuine* error reproduces deterministically in
                # the serialized run below and propagates from there.
                self.stats.bump("validation_retries")
                continue
            if self.db.version_token == version:
                return self._publish(key, language, answers,
                                     attempt_warnings), False
            # A write interleaved: the answer may be torn across relations.
            self.stats.bump("validation_retries")
        # Contended: run once with writers excluded — guaranteed consistent.
        with self._write_lock:
            self.stats.bump("serialized_runs")
            key = (fingerprint, self.db.version_token)
            cached = self._results.get(key)
            if cached is not None:
                self.stats.bump("result_hits")
                return cached, True
            attempt_warnings = []
            answers = self.pipeline.answer(text, language=language,
                                           warnings=attempt_warnings)
            return self._publish(key, language, answers,
                                 attempt_warnings), False

    def _publish(self, key: tuple, language: str, answers: Relation,
                 warnings: list[str]) -> _Answer:
        fingerprint, version = key
        published = _Answer(answers, tuple(warnings), language, fingerprint,
                            version)
        self.stats.bump("result_misses")
        self._results.put(key, published, answer_footprint(published.relation))
        return published

    # -- materialized views -------------------------------------------------

    def register_view(self, text: str, *, language: str | None = None,
                      name: str | None = None,
                      refresh: str = "lazy") -> MaterializedView:
        """Materialize a query once and keep it maintained under appends.

        Returns a :class:`MaterializedView` handle (also reachable via
        :meth:`view` by name).  Registering the same query text again
        returns the existing handle — unless the call asks for a different
        ``name`` or ``refresh`` policy, which raises instead of silently
        ignoring the request.  ``refresh`` is ``"lazy"`` (catch up on first
        stale read) or ``"eager"`` (catch up inside every service write).
        Subsequent :meth:`answer` / prepared-handle requests for this query
        are served from the view.
        """
        resolved = self._resolve_language(text, language)
        fingerprint = fingerprint_query(text, resolved)
        with self._write_lock:
            existing = self._views.get(fingerprint)
            if existing is not None:
                if (name is not None and name != existing.name) \
                        or refresh != existing.refresh_policy:
                    raise ViewConflictError(
                        f"query already registered as view {existing.name!r} "
                        f"with refresh={existing.refresh_policy!r}; "
                        "unregister it first to change name or policy",
                        detail={"name": existing.name,
                                "refresh": existing.refresh_policy},
                    )
                return existing
            view_name = name if name is not None else f"view_{fingerprint[:8]}"
            if view_name in self._views_by_name:
                raise ViewConflictError(
                    f"a view named {view_name!r} already exists",
                    detail={"name": view_name})
            view = MaterializedView(self, view_name, text, resolved,
                                    fingerprint, refresh)
            view.refreshes += 1
            view._rebuild_locked()  # initial materialization
            self._views[fingerprint] = view
            self._views_by_name[view_name] = view
            return view

    def _view_recipe(self, core: Plan) -> ViewRecipe | None:
        """How a view maintains ``core`` here: one part over :attr:`db`,
        run on the service backend, its rows the core's rows.

        :class:`~repro.core.sharded_service.ShardedQueryService` overrides
        this with one part per shard; ``None`` serves the view by rebuild.
        """
        db = self.db
        return ViewRecipe(core, lambda: [db], self.backend, itemgetter(0))

    def view(self, name: str) -> MaterializedView:
        """Look up a registered view by name.

        Raises :class:`~repro.core.service_api.UnknownViewError` (a
        ``KeyError`` subclass) when absent.
        """
        try:
            return self._views_by_name[name]
        except KeyError:
            raise UnknownViewError(f"no view named {name!r}",
                                   detail={"name": name}) from None

    def views(self) -> tuple[MaterializedView, ...]:
        """All registered views, in registration order."""
        return tuple(self._views.values())

    def unregister_view(self, view: "MaterializedView | str") -> None:
        """Drop a view (by handle or name); its query serves normally again."""
        with self._write_lock:
            if isinstance(view, str):
                view = self.view(view)
            self._views.pop(view.fingerprint, None)
            self._views_by_name.pop(view.name, None)

    def _refresh_eager_views_locked(self) -> None:
        for view in self._views.values():
            if view.refresh_policy == "eager":
                view._refresh_locked()

    # -- writing -----------------------------------------------------------

    @contextmanager
    def writing(self) -> Iterator[Database]:
        """Exclusive write section: ``with service.writing() as db: ...``.

        Eagerly registered views catch up before the lock is released, so
        they are already current when the first post-write read arrives.
        """
        with self._write_lock:
            yield self.db
            self._refresh_eager_views_locked()

    def add_row(self, relation: str, row: Sequence[Any], *,
                validate: bool = True) -> int:
        """Append one row under the write lock; returns the new db version."""
        with self._write_lock:
            self.db.add_row(relation, row, validate=validate)
            self._refresh_eager_views_locked()
            return self.db.version

    def add_rows(self, relation: str, rows: Iterable[Sequence[Any]], *,
                 validate: bool = True) -> int:
        """Append many rows as one exclusive write; returns the new version.

        The batch publishes a **single** version bump per relation it
        touches (per shard, on a sharded database: see
        :meth:`~repro.data.database.Database.add_rows`), so version-window
        arithmetic counts one write per batch instead of one per row.
        """
        with self._write_lock:
            self.db.add_rows(relation, rows, validate=validate)
            self._refresh_eager_views_locked()
            return self.db.version

    # -- statistics and introspection --------------------------------------

    def table_stats(self, relation: str) -> TableStats | None:
        """The optimizer's profile of one relation at its current version."""
        return self.table_statistics.table(relation)

    def stats_snapshot(self) -> tuple[int, dict[str, TableStats]]:
        """``(version, {relation: stats})`` — consistent across relations.

        Validated like a query: retried if a write interleaves, then taken
        under the write lock, so every profile in the dict describes the
        same database version.
        """
        for _attempt in range(MAX_RETRIES):
            version = self.db.version
            snapshot = {name: self.table_statistics.table(name)
                        for name in self.db.relation_names}
            if self.db.version == version:
                return version, snapshot
        with self._write_lock:
            version = self.db.version
            return version, {name: self.table_statistics.table(name)
                             for name in self.db.relation_names}

    def cache_info(self) -> dict[str, int]:
        """Service result-cache counters merged with the pipeline's plan cache.

        ``result_bytes`` is the sum of the held answers' footprints
        (:func:`answer_footprint`), never above ``result_budget_bytes``;
        ``result_evictions`` counts the answers either bound pushed out, an
        answer larger than the whole budget included.

        The ``kernel_cache_*`` keys snapshot the **process-wide** derived-
        structure cache of :mod:`repro.engine.kernels` (build tables, code
        translations): unlike the per-service result/plan counters they are
        shared by every executor in the process — for per-backend
        attribution use ``execution_counts()`` on the sharded/process
        services.
        """
        kernel_info = kernel_cache_stats()
        results = self._results.stats()
        return {
            "requests": self.stats.requests,
            "result_entries": results["entries"],
            "result_bytes": results["bytes"],
            "result_evictions": results["evictions"],
            "result_budget_bytes": self._results.max_bytes,
            "result_hits": self.stats.result_hits,
            "result_misses": self.stats.result_misses,
            "validation_retries": self.stats.validation_retries,
            "serialized_runs": self.stats.serialized_runs,
            "views": len(self._views),
            "view_hits": self.stats.view_hits,
            **self.pipeline.cache_info(),
            **{f"kernel_cache_{key}": kernel_info[key] for key in
               ("entries", "bytes", "hits", "misses", "evictions")},
        }

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release the backend's and database's OS resources.

        The ``"process"`` backend's worker pool shuts down and
        shared-memory page segments are unlinked.  Idempotent, and
        the service stays usable — pools and segments are recreated lazily
        on the next request — so closing is about prompt resource release
        (the interpreter-exit hooks in :mod:`repro.engine.lifecycle` cover
        services that are never closed).  A sharded service's backend and
        database are its own; the ``"row"`` and ``"vectorized"`` instances
        it may share with other services hold no OS resources.
        """
        close_backend = getattr(self.backend, "close", None)
        if callable(close_backend):
            close_backend()
        close_db = getattr(self.db, "close", None)
        if callable(close_db):
            close_db()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
