"""The unified service API: one surface for every deployment shape.

Serving grew in layers — :class:`~repro.core.service.QueryService` (PR 3),
materialized views (PR 4), :class:`~repro.core.sharded_service.ShardedQueryService`
(PR 5), the process backend (PR 6) — and each layer accreted its own kwargs
and result conventions.  The HTTP tier (:mod:`repro.server`) must be
writable against *one* abstract surface so a single code path serves
single-node, sharded, and process-backend deployments.  This module is that
surface:

* :class:`ServiceAPI` — a :class:`typing.Protocol` naming the methods every
  service implementation provides, with identical signatures and return
  shapes.  The HTTP layer (and any future protocol front end) depends on
  this protocol alone, never on a concrete service class.
* :class:`QueryResult` — the structured answer envelope.  Where
  ``answer()`` returns a bare :class:`~repro.data.relation.Relation` and
  surfaces engine-fallback warnings only through an optional out-param,
  :meth:`ServiceBase.query` always returns columns + rows + the version
  token the answer was computed against + the warnings list — the shape a
  wire format can serialize without knowing service internals.
* :class:`ServiceError` — a JSON-serializable structured error hierarchy
  (``code`` / ``message`` / ``detail``).  :func:`wrap_service_error`
  classifies the zoo of parser, plan, storage, and view exceptions into it,
  so no bare traceback ever crosses a protocol boundary; each subclass
  carries the HTTP status its code maps to (400 / 404 / 409 / 503).
* :class:`ServiceBase` — the shared mixin implementing the envelope path
  (:meth:`~ServiceBase.query` and its never-waiting twin
  :meth:`~ServiceBase.try_hit`) and the default
  :meth:`~ServiceBase.execution_counts` on top of the primitives the
  concrete services already provide.

Several error classes deliberately multiple-inherit the stdlib type the
services historically raised (``ValueError`` for an unknown language or a
view conflict, ``KeyError`` for an unknown view, ``NotImplementedError``
for genuinely unsupported operations), so existing callers catching the
stdlib type keep working while protocol layers catch
:class:`ServiceError`.  The view surface itself — register / list /
refresh / unregister, plus the 409 conflict and 404 unknown-view
contracts — behaves identically on single-node and sharded services.
"""

from __future__ import annotations

import json
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Any, Iterable, Protocol, Sequence, runtime_checkable

from repro.data.relation import Relation, Row

#: Version token of one answer: the scalar database version (single node)
#: or the ``(generation, structure, v0, v1, ...)`` shard-version vector
#: (sharded; the leading epoch changes on reshard).
VersionToken = "int | tuple[int, ...]"


# ---------------------------------------------------------------------------
# Structured errors
# ---------------------------------------------------------------------------

class ServiceError(Exception):
    """A structured, JSON-serializable serving error.

    ``code`` is a stable machine-readable identifier, ``message`` the
    human-readable one-liner, ``detail`` a JSON-safe dict of extra context
    (offending value, exception type, ...).  ``http_status`` is the status
    a protocol layer maps the code to; it never leaks server internals —
    :meth:`to_payload` is the entire wire representation.
    """

    code = "internal"
    http_status = 500

    def __init__(self, message: str, *, detail: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.detail = dict(detail or {})

    def to_payload(self) -> dict[str, Any]:
        """The JSON body of this error: ``{"code", "message", "detail"}``."""
        return {"code": self.code, "message": self.message,
                "detail": self.detail}

    def __str__(self) -> str:
        return self.message


class QueryParseError(ServiceError):
    """The query text does not parse (or fails language-level semantics)."""

    code = "parse_error"
    http_status = 400


class UnknownLanguageError(ServiceError, ValueError):
    """The requested query language is not one of the five served."""

    code = "unknown_language"
    http_status = 400


class PlanRejectedError(ServiceError):
    """The engine rejected the plan (lowering, planning, or verification)."""

    code = "plan_error"
    http_status = 400


class InvalidRequestError(ServiceError):
    """A structurally invalid request (bad JSON, missing fields, bad row)."""

    code = "invalid_request"
    http_status = 400


class UnsupportedOperationError(ServiceError, NotImplementedError):
    """The operation is not supported by this deployment shape."""

    code = "unsupported"
    http_status = 400


class UnknownViewError(ServiceError, KeyError):
    """No registered view with the requested name."""

    code = "unknown_view"
    http_status = 404


class UnknownRelationError(ServiceError, KeyError):
    """No relation with the requested name in the database."""

    code = "unknown_relation"
    http_status = 404


class UnknownHandleError(ServiceError, KeyError):
    """No prepared-statement handle with the requested id."""

    code = "unknown_handle"
    http_status = 404


class ViewConflictError(ServiceError, ValueError):
    """A view registration conflicts with an existing registration."""

    code = "view_conflict"
    http_status = 409


class FrozenMutationError(ServiceError):
    """A write targeted a frozen relation (cached answer / merged view)."""

    code = "frozen_mutation"
    http_status = 409


class OverloadedError(ServiceError):
    """Admission control shed the request; retry after ``retry_after`` s."""

    code = "overloaded"
    http_status = 503

    def __init__(self, message: str, *, retry_after: float = 1.0,
                 detail: dict[str, Any] | None = None) -> None:
        super().__init__(message, detail=detail)
        self.retry_after = retry_after


def wrap_service_error(exc: BaseException) -> ServiceError:
    """Classify an arbitrary serving exception into the structured hierarchy.

    Protocol layers call this at their boundary: whatever a service call
    raised, the caller gets back a :class:`ServiceError` whose
    ``code``/``http_status`` encode the class of failure and whose
    ``detail`` records the original exception type — never a traceback.
    """
    if isinstance(exc, ServiceError):
        return exc
    from repro.data.relation import FrozenRelationError, RelationError
    from repro.datalog.ast import DatalogError
    from repro.drc.ast import DRCError
    from repro.engine.lower import LoweringError
    from repro.engine.plan import PlanError
    from repro.engine.verify import PlanVerificationError
    from repro.expr.ast import ExprError
    from repro.data.schema import SchemaError
    from repro.ra.ast import RAError
    from repro.sql.evaluate import SQLEvaluationError
    from repro.sql.lexer import SQLSyntaxError
    from repro.trc.ast import TRCError

    detail = {"exception": type(exc).__name__}
    message = str(exc) or type(exc).__name__
    if isinstance(exc, (SQLSyntaxError, SQLEvaluationError, RAError,
                        TRCError, DRCError, DatalogError)):
        return QueryParseError(message, detail=detail)
    if isinstance(exc, PlanVerificationError):
        detail["rule"] = exc.rule
        return PlanRejectedError(message, detail=detail)
    if isinstance(exc, (PlanError, LoweringError)):
        return PlanRejectedError(message, detail=detail)
    if isinstance(exc, FrozenRelationError):
        return FrozenMutationError(message, detail=detail)
    if isinstance(exc, RelationError):
        return InvalidRequestError(message, detail=dict(detail, code_hint="invalid_row"))
    if isinstance(exc, SchemaError):
        # One error type for both shapes here too: name lookups on the
        # database say "has no relation", everything else is a malformed
        # schema/row problem.
        if "has no relation" in message:
            return UnknownRelationError(message, detail=detail)
        return InvalidRequestError(message, detail=detail)
    if isinstance(exc, NotImplementedError):
        return UnsupportedOperationError(message, detail=detail)
    if isinstance(exc, KeyError):
        # Bare KeyErrors out of a service call are name lookups (the
        # typed lookups raise UnknownViewError/UnknownHandleError already).
        name = exc.args[0] if exc.args else ""
        return UnknownRelationError(f"unknown relation {name!r}",
                                    detail=dict(detail, name=str(name)))
    if isinstance(exc, (ValueError, ExprError)):
        # An ExprError that gets this far is a runtime type error (a
        # string compared with a number): the query is wrong, not the
        # server.
        return InvalidRequestError(message, detail=detail)
    return ServiceError(f"internal error: {type(exc).__name__}", detail=detail)


# ---------------------------------------------------------------------------
# The structured answer envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QueryResult:
    """One query's structured answer: the wire-ready result envelope.

    ``version`` is the service's cache-version token at publication time —
    a scalar database version on a single-node service, the shard-version
    vector on a sharded one.  ``warnings`` always has the same shape on
    every service: a tuple of engine-fallback messages (empty when the
    engine served the query), exactly what
    :meth:`~repro.core.pipeline.QueryVisualizationPipeline.answer` reports
    through its out-param.  ``relation`` is the frozen answer itself for
    in-process callers; it is not part of the wire payload.

    ``encoded`` is the JSON body once :meth:`encode` has run, ``None``
    before.  The services keep the envelope of an answer that is *hit*
    beside its cache entry (see :meth:`ServiceAPI.try_hit`), so the bytes
    live exactly as long as the entry: evicting it, a write, or a view
    refresh drops both.
    """

    columns: tuple[str, ...]
    rows: tuple[Row, ...]
    language: str
    fingerprint: str
    version: Any
    warnings: tuple[str, ...]
    relation: Relation
    encoded: "bytes | None" = field(default=None, init=False, repr=False,
                                    compare=False)

    def to_payload(self) -> dict[str, Any]:
        """The JSON-serializable wire form (no Relation objects)."""
        return self._payload([list(row) for row in self.rows])

    def _payload(self, rows: Any) -> dict[str, Any]:
        version = self.version
        if isinstance(version, tuple):
            version = list(version)
        return {
            "columns": list(self.columns),
            "rows": rows,
            "row_count": len(self.rows),
            "language": self.language,
            "fingerprint": self.fingerprint,
            "version": version,
            "warnings": list(self.warnings),
        }

    def encode(self) -> bytes:
        """``json.dumps(self.to_payload())`` as UTF-8, encoded once and kept.

        ``json`` writes a tuple as an array, so the rows are serialized as
        they are — byte for byte what the lists of :meth:`to_payload` give,
        without copying each row first.  O(rows) the first time: a protocol
        front end calls it off its event loop and frames later replies from
        :attr:`encoded`.
        """
        body = self.encoded
        if body is None:
            body = json.dumps(self._payload(self.rows)).encode("utf-8")
            object.__setattr__(self, "encoded", body)
        return body


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------

@runtime_checkable
class ServiceAPI(Protocol):
    """What every query service exposes — the HTTP tier's whole world.

    :class:`~repro.core.service.QueryService` and
    :class:`~repro.core.sharded_service.ShardedQueryService` both satisfy
    this protocol; :mod:`repro.server` is written against it alone, so one
    server codebase fronts single-node, sharded, and process-backend
    deployments (and test doubles).
    """

    def query(self, text: str, *, language: str | None = None) -> QueryResult:
        """Serve one query as a structured :class:`QueryResult` envelope."""
        ...

    def identify(self, text: str, *, language: str | None = None) -> Any:
        """Resolve the language and fingerprint the text — nothing else.

        Returns the handle :meth:`prepare` returns (``try_hit()`` /
        ``query()`` / ``answer()``), without parsing or planning, so a
        caller that asks ``try_hit`` first and ``query`` on a decline
        identifies the request once.  Pure computation: it takes no lock
        and may run on an event loop.  An unknown language raises
        :class:`UnknownLanguageError`.
        """
        ...

    def try_hit(self, text: str,
                language: str | None = None) -> "QueryResult | None":
        """The envelope :meth:`query` would return, if it is already cached.

        Never waits and never executes: it answers only from a result-cache
        entry at the current version token or a registered view that is
        fresh, tries its locks instead of taking them, and returns ``None``
        whenever it cannot tell at once (a miss, a stale view, a contended
        lock, an unknown language) — the caller then calls :meth:`query`.
        A returned hit is counted like one served by :meth:`query`; a
        declined one is not counted at all.  With :meth:`identify`, whose
        handle offers the same call, these are the service calls an event
        loop may make directly.
        """
        ...

    def answer(self, text: str, *, language: str | None = None,
               warnings: "list[str] | None" = None) -> Relation:
        """Serve one query as a frozen relation (in-process fast path)."""
        ...

    def prepare(self, text: str, *, language: str | None = None) -> Any:
        """Parse + plan now; returns a reusable prepared-query handle."""
        ...

    def add_row(self, relation: str, row: Sequence[Any], *,
                validate: bool = True) -> int:
        """Append one row; returns the new database version."""
        ...

    def add_rows(self, relation: str, rows: Iterable[Sequence[Any]], *,
                 validate: bool = True) -> int:
        """Append a batch under one version bump; returns the new version."""
        ...

    def writing(self) -> AbstractContextManager[Any]:
        """Exclusive write section (context manager yielding the database)."""
        ...

    def register_view(self, text: str, *, language: str | None = None,
                      name: str | None = None, refresh: str = "lazy") -> Any:
        """Materialize + maintain one query; returns the view handle."""
        ...

    def unregister_view(self, view: Any) -> None:
        """Drop a view by handle or name."""
        ...

    def view(self, name: str) -> Any:
        """Look up a registered view by name (raises unknown-view)."""
        ...

    def views(self) -> tuple[Any, ...]:
        """All registered views, in registration order."""
        ...

    def stats_snapshot(self) -> tuple[int, dict[str, Any]]:
        """``(version, {relation: stats})``, version-consistent."""
        ...

    def cache_info(self) -> dict[str, int]:
        """Result/plan/kernel cache counters, flat ints."""
        ...

    def execution_counts(self) -> dict[str, int]:
        """Backend routing + plan-verification counters, flat ints."""
        ...

    def close(self) -> None:
        """Release pools / shared-memory resources (idempotent)."""
        ...


# ---------------------------------------------------------------------------
# The shared base
# ---------------------------------------------------------------------------

class ServiceBase:
    """Mixin implementing the envelope path shared by every service.

    Concrete services provide :meth:`ServiceAPI.identify` — resolved
    language and fingerprint, the two values every cache in the service
    keys on, wrapped in a handle — and this base turns its handle into the
    uniform :meth:`query` envelope, its non-blocking twin :meth:`try_hit`,
    and the default :meth:`execution_counts`, so the warnings shape and
    error classification cannot drift between deployments.
    """

    def query(self, text: str, *, language: str | None = None) -> QueryResult:
        """Any-language text in, structured :class:`QueryResult` out.

        Unlike :meth:`answer`, the fallback ``warnings`` are always in the
        envelope (no out-param required) and every failure is raised as a
        structured :class:`ServiceError` — the behaviour is identical on
        every :class:`ServiceAPI` implementation.
        """
        try:
            return self.identify(text, language=language).query()  # type: ignore[attr-defined]
        except ServiceError:
            raise
        except Exception as exc:
            raise wrap_service_error(exc) from exc

    def try_hit(self, text: str,
                language: str | None = None) -> "QueryResult | None":
        """The cached envelope, or ``None`` without waiting (see
        :meth:`ServiceAPI.try_hit`)."""
        try:
            handle = self.identify(text, language=language)  # type: ignore[attr-defined]
        except UnknownLanguageError:
            return None  # query() reports it, with the usual error body
        return handle.try_hit()

    def execution_counts(self) -> dict[str, int]:
        """Default backend counters: the process-wide verifier tallies and
        the kernel layer's counted paths (``probe_*``, ``build_*``,
        ``sel_converted``, ``sort_*``).

        Single-node backends keep no routing counters; sharded services
        override this with their private backend's scatter/single-shard/
        fallback and kernel-cache counts (which already merge both of the
        above), so the return shape — a flat ``dict[str, int]`` — is the
        same everywhere.
        """
        from repro.engine.kernels import path_counts
        from repro.engine.verify import verification_counts

        return {**verification_counts(), **path_counts()}


__all__ = [
    "FrozenMutationError",
    "InvalidRequestError",
    "OverloadedError",
    "PlanRejectedError",
    "QueryParseError",
    "QueryResult",
    "ServiceAPI",
    "ServiceBase",
    "ServiceError",
    "UnknownHandleError",
    "UnknownLanguageError",
    "UnknownRelationError",
    "UnknownViewError",
    "UnsupportedOperationError",
    "ViewConflictError",
    "wrap_service_error",
]
