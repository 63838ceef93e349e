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
  answers): a bounded :class:`~repro.engine.cache.LRUCache` keyed on
  ``(query fingerprint, database version token)``; warm requests are one
  locked dictionary lookup and never serialize against each other or
  against execution.
* **Hits without waiting.**  :meth:`~QueryService.try_hit` is ``query``
  for an answer that is already there: a result-cache entry at the current
  version or a fresh view, found by trying the locks instead of taking
  them, returned as the envelope memoized beside the entry the first time
  it is hit.  It declines (``None``) rather than wait or execute, which is
  what lets an event loop call it directly.
* **Snapshot-validated misses.**  A cache miss executes *optimistically*:
  the version token is read before and after execution, and the answer is
  published (and returned) only if no write interleaved.  A torn execution
  is retried; after :attr:`max_retries` collisions the request runs once
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
  everything else, every Datalog program included, rebuilds on refresh.
* **Versioned statistics.**  :meth:`table_stats` / :meth:`stats_snapshot`
  expose the optimizer's own per-relation profiles — cached on the
  relations, version-tagged (:func:`repro.engine.stats.table_profile`) — so
  monitoring shares them with the optimizer instead of racing or
  recollecting them.

Backend choice is per service: ``backend="process"`` runs scatter subplans
in worker processes, off the serving process's GIL; every other backend
answers a request on the thread that serves it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Sequence

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
from repro.data.relation import Relation
from repro.engine import detect_language
from repro.engine.cache import LRUCache
from repro.engine.kernels import cache_stats as kernel_cache_stats
from repro.engine.stats import StatsCatalog, TableStats


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
      :mod:`repro.engine.delta` (bag, ``DISTINCT``, or per-group aggregate
      accumulators), with any finishing operators re-applied to the small
      core output;
    * everything else, every Datalog program included (a program is not
      one plan) — rebuild on refresh (correct, never incremental).

    A view also rebuilds when the database structure changes or a relation's
    bounded delta log no longer covers the window (it fell too far behind).

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
        self._plan: Any = None          # engine plan (None for Datalog)
        self._core: Any = None          # maintainable core subplan
        self._maintainer: Any = None    # None => rebuild-on-refresh
        self._base_rels: tuple[str, ...] = ()
        self._anchors: dict[str, int] = {}
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
        how refreshes are computed right now."""
        return self._maintainer.kind if self._maintainer is not None else "rebuild"

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
        """Introspection: strategy, freshness, refresh counters."""
        published = self._published
        relation = published.relation if published is not None else None
        return {
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
        """Absorb the writes since the last publication, incrementally
        where the maintainer can."""
        if self._maintainer is None:
            return self._rebuild_locked()
        changed = set()
        for rel in self._base_rels:
            if db.relation_version(rel) > self._anchors.get(rel, -1):
                changed.add(rel)
        if not changed:
            return self._republish(db)
        from repro.engine.delta import DeltaRewriteError
        from repro.engine.lower import LoweringError
        from repro.engine.plan import DeltaUnavailable, PlanError

        try:
            self._maintainer.apply_delta(db, self._anchors, changed,
                                         self.service.backend)
        except (DeltaUnavailable, DeltaRewriteError, LoweringError, PlanError):
            # Fell behind the bounded delta log (or the program/plan turned
            # out unmaintainable after all): start over from scratch.
            return self._rebuild_locked()
        self.incremental_refreshes += 1
        return self._publish(db)

    def _rebuild_locked(self) -> _Answer:
        """Rematerialize from scratch: the engine plan's maintainers
        (:meth:`_maintain`), else rebuild on every refresh from the
        pipeline's answer — Datalog programs, which are not one plan, and
        plans with no maintainable core."""
        db = self.service.db
        self.rebuilds += 1
        self._maintainer = None
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
        """Build and initialize the maintainer of :attr:`_plan`'s core;
        ``False`` when it has none (the view then rebuilds on refresh)."""
        from repro.engine.delta import (
            DeltaRewriteError,
            base_relations,
            build_maintainer,
        )

        try:
            maintainer, core = build_maintainer(self._plan, db)
            maintainer.initialize(db, self.service.backend)
        except DeltaRewriteError:
            return False
        self._maintainer = maintainer
        self._core = core
        self._base_rels = base_relations(core)
        return True

    def _publish(self, db: Database) -> _Answer:
        """Repackage the maintained state and publish (version set last)."""
        from repro.engine.delta import finish_rows, view_result_relation

        rows = finish_rows(db, self._plan, self._core,
                           self._maintainer.rows())
        return self._finish_publish(db, view_result_relation(self._plan, rows))

    def _finish_publish(self, db: Database, relation: Relation,
                        warnings: tuple[str, ...] = ()) -> _Answer:
        """Publish ``relation`` as the view's answer at ``db``'s version.

        ``warnings`` are the engine-fallback reasons of a rebuild-on-refresh
        view; a maintained view was planned by the engine and has none.
        """
        self._anchors = {rel: db.relation_version(rel)
                         for rel in self._base_rels}
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

    def _republish(self, db: Database) -> _Answer:
        """Writes elsewhere in the database: the output cannot have changed,
        only the version (and so the envelope) it is consistent at."""
        published = self._published
        return self._finish_publish(db, published.relation,
                                    published.warnings)

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
                 backend: str = "vectorized",
                 plan_cache_size: int = 256,
                 result_cache_size: int = 1024,
                 max_retries: int = 4) -> None:
        self.pipeline = QueryVisualizationPipeline(
            db, backend=backend, plan_cache_size=plan_cache_size)
        self.db = self.pipeline.db
        self.backend = self.pipeline.backend
        self.max_retries = max_retries
        self.stats = Counters("requests", "result_hits", "result_misses",
                              "validation_retries", "serialized_runs",
                              "view_hits")
        self.table_statistics = StatsCatalog(self.db)
        self._results = LRUCache(result_cache_size)
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
        for _attempt in range(self.max_retries):
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
        self._results.put(key, published)
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
            view = self._make_view(view_name, text, resolved, fingerprint,
                                   refresh)
            view.refreshes += 1
            view._rebuild_locked()  # initial materialization
            self._views[fingerprint] = view
            self._views_by_name[view_name] = view
            return view

    def _make_view(self, name: str, text: str, language: str,
                   fingerprint: str, refresh: str) -> MaterializedView:
        """Construct the (unmaterialized) view object for :meth:`register_view`.

        :class:`~repro.core.sharded_service.ShardedQueryService` overrides
        this to substitute its shard-aware view class; the registration
        bookkeeping above is shared.
        """
        return MaterializedView(self, name, text, language, fingerprint,
                                refresh)

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

    @property
    def backend_name(self) -> str:
        """The executor backend's name, whether stored by name or instance.

        The base service keeps the backend as its registry *name* (the
        pipeline resolves it per call); the sharded services pin a private
        backend *instance*.  This property reconciles the two shapes for
        introspection/metrics.
        """
        backend = self.backend
        return backend if isinstance(backend, str) else backend.name

    def table_stats(self, relation: str) -> TableStats | None:
        """The optimizer's profile of one relation at its current version."""
        return self.table_statistics.table(relation)

    def stats_snapshot(self) -> tuple[int, dict[str, TableStats]]:
        """``(version, {relation: stats})`` — consistent across relations.

        Validated like a query: retried if a write interleaves, then taken
        under the write lock, so every profile in the dict describes the
        same database version.
        """
        for _attempt in range(self.max_retries):
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

        The ``kernel_cache_*`` keys snapshot the **process-wide** derived-
        structure cache of :mod:`repro.engine.kernels` (build tables, code
        translations): unlike the per-service result/plan counters they are
        shared by every executor in the process — for per-backend
        attribution use ``execution_counts()`` on the sharded/process
        services.
        """
        kernel_info = kernel_cache_stats()
        return {
            "requests": self.stats.requests,
            "result_entries": len(self._results),
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
        services that are never closed).  Note that named backends resolve
        to process-wide singletons whose pools are shared across services.
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
