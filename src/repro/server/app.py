"""The asyncio HTTP application: request router + endpoint handlers.

:class:`ServingApp` is constructed against the
:class:`~repro.core.service_api.ServiceAPI` *protocol* — it never imports a
concrete service class — so the same server fronts single-node, sharded,
and process-backend deployments.  Endpoints:

================  ======  ====================================================
``/query``        POST    ``{"text", "language"?}`` → the result envelope
``/prepare``      POST    ``{"text", "language"?}`` → ``{"handle", ...}``
``/execute/{h}``  POST    serve a prepared handle → the result envelope
``/write``        POST    ``{"relation", "rows"|"row"}`` → ``{"version", ...}``
``/views``        POST    ``{"text", "name"?, "refresh"?}`` → view info
``/views``        GET     all registered views' info
``/views/{name}`` DELETE  unregister
``/views/{name}/refresh``  POST  force a catch-up now → view info
``/metrics``      GET     flat JSON counters (stats, caches, execution,
                          verification, admission, write worker, which
                          path served each read: ``inline_*``, and what
                          the cyclic collector cost: ``gc_*``)
``/health``       GET     liveness probe (never sheds)
================  ======  ====================================================

Connections: one :class:`_Connection` (an ``asyncio.Protocol``) per
client.  ``data_received`` appends to the connection's buffer and takes
each complete request off it (:func:`~repro.server.protocol.parse_request`);
:meth:`ServingApp._answer` either frames the reply at once — it is written
before ``data_received`` returns — or returns the coroutine that answers
it, which runs as the connection's one task.  The connection parses
nothing more until that reply is written, so replies go out in request
order; reading pauses while the transport has called ``pause_writing`` or
while more than :data:`_PAUSE_BYTES` wait behind a task.  A request that
cannot be framed is answered 400 and the connection half-closed
(``write_eof``), its further input discarded.

Threading discipline — the rule ``tools/check_invariants.py`` enforces
statically: the event loop parses, routes, frames, and serves hits that
are already encoded; everything that can block or encode runs off-loop.
On the loop run the coroutines and the synchronous protocol callbacks
(``connection_made``, ``data_received``, ``eof_received``,
``pause_writing``, ``resume_writing``, ``connection_lost``) with the
``ServingApp`` methods they call (:meth:`ServingApp._answer`,
:meth:`ServingApp._identify`, :meth:`ServingApp._route`, …).
A read is identified once — :meth:`~repro.core.service_api.ServiceAPI.identify`
resolves its language and fingerprints its text, pure computation — and the
handle that returns is first asked ``try_hit()``.  These are the service
calls allowed on the loop: ``try_hit`` never waits, never executes, and
answers only from a current result-cache entry or a fresh view.  A hit
whose JSON body is memoized on its envelope is framed inside
``data_received`` when an admission slot is free (``inline_hits``); a hit
not encoded yet is encoded once in the executor and kept with its cache
entry (``inline_busy``); on ``None`` the handle's ``query()`` goes through
``loop.run_in_executor`` (:meth:`ServingApp._call`) — execution *and*
encoding, nothing identified twice — as every read used to
(``inline_declined``).  Writes go through the
:class:`~repro.server.worker.WriteWorker`.  App state (the prepared-handle
registry, the ``inline_*`` counters) is touched only on the loop.

Overload: ``POST`` traffic passes the
:class:`~repro.server.admission.AdmissionController`; a saturated server
answers 503 with a ``Retry-After`` header instead of queuing unboundedly.
A hit framed inside ``data_received`` takes a free slot for no time and
is counted as admitted (:meth:`~repro.server.admission.AdmissionController.admit_now`).
``GET /metrics`` and ``GET /health`` bypass admission so operators can see
*into* an overloaded server.
"""

from __future__ import annotations

import asyncio
import gc
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Awaitable, Callable, Coroutine

from repro.core.service_api import (
    QueryResult,
    ServiceAPI,
    ServiceError,
    UnknownHandleError,
    wrap_service_error,
)
from repro.engine.cache import LRUCache
from repro.server import protocol
from repro.server.admission import AdmissionController
from repro.server.worker import WriteWorker


class _NotFoundError(ServiceError):
    code = "not_found"
    http_status = 404


class _MethodNotAllowedError(ServiceError):
    code = "method_not_allowed"
    http_status = 405


#: A handler returns ``(payload, status)``; a ``bytes`` payload is a JSON
#: body that is already encoded.
_Handler = Callable[..., Awaitable[tuple[Any, int]]]

#: Prepared handles kept; the least recently used one past this is dropped
#: and ``/execute`` on it answers ``unknown_handle`` (the client re-prepares).
MAX_PREPARED_HANDLES = 1024

#: Bytes a connection's transport asks of each ``recv``.  asyncio's default,
#: 256 KiB, is a fresh buffer per read above glibc's 128 KiB mmap threshold:
#: unless an earlier free happened to raise that threshold, every request
#: maps the buffer, faults its first page in and unmaps it again (about one
#: minor fault per request).  Requests here are a few hundred bytes.
READ_CHUNK = 64 * 1024

#: Bytes a connection buffers behind the request it is answering before it
#: stops reading: where ``asyncio.StreamReader`` pauses (twice its default
#: 64 KiB limit).  A request still arriving is read whole whatever its size
#: (its body is bounded by ``protocol.MAX_BODY_BYTES``).
_PAUSE_BYTES = 2 * 64 * 1024


class ServingApp:
    """Route + serve HTTP requests against one :class:`ServiceAPI`."""

    def __init__(self, service: ServiceAPI, *,
                 max_concurrent: int = 8,
                 max_queue_depth: int = 32,
                 retry_after: float = 0.5,
                 flush_interval: float = 0.002) -> None:
        self.service = service
        self.admission = AdmissionController(
            max_concurrent=max_concurrent, max_queue_depth=max_queue_depth,
            retry_after=retry_after)
        self.worker = WriteWorker(service, flush_interval=flush_interval)
        self._handles = LRUCache(MAX_PREPARED_HANDLES)
        self._connections: "set[_Connection]" = set()
        self._server: "asyncio.Server | None" = None
        #: The thread blocking calls run on while it is free (:meth:`_call`);
        #: loop-only state, like the counters below.
        self._lead: "ThreadPoolExecutor | None" = None
        self._lead_busy = False
        self.port: "int | None" = None
        self.requests_served = 0
        #: Reads by the path that served them (see the module docstring).
        self.inline_hits = 0
        self.inline_busy = 0
        self.inline_declined = 0
        #: Collector passes per generation while serving, and the time they
        #: held every thread (:meth:`_on_gc`).
        self._gc_collections = [0, 0, 0]
        self._gc_pause_s = 0.0
        self._gc_started = 0.0
        #: path parts -> method -> (handler, goes through admission);
        #: ``None`` stands for one free path segment, passed to the handler.
        self._routes: dict[tuple["str | None", ...],
                           dict[str, tuple[_Handler, bool]]] = {
            ("query",): {"POST": (self._handle_read, True)},
            ("prepare",): {"POST": (self._handle_prepare, True)},
            ("execute", None): {"POST": (self._handle_read, True)},
            ("write",): {"POST": (self._handle_write, True)},
            ("views",): {"POST": (self._handle_register_view, True),
                         "GET": (self._handle_list_views, False)},
            ("views", None): {"DELETE": (self._handle_delete_view, True)},
            ("views", None, "refresh"): {
                "POST": (self._handle_refresh_view, True)},
            ("metrics",): {"GET": (self._handle_metrics, False)},
            ("health",): {"GET": (self._handle_health, False)},
        }

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind + start serving; returns the (possibly ephemeral) port."""
        self.worker.start()
        self._lead = ThreadPoolExecutor(1, thread_name_prefix="repro-lead")
        self._server = await asyncio.get_running_loop().create_server(
            partial(_Connection, self), host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        gc.callbacks.append(self._on_gc)
        return self.port

    def _on_gc(self, phase: str, info: dict[str, int]) -> None:
        """The ``gc.callbacks`` hook: a tail latency that is a generation-2
        pass shows as one on ``/metrics``.  Called by whichever thread
        triggered the collection; collections do not nest."""
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self._gc_collections[info["generation"]] += 1
            self._gc_pause_s += time.perf_counter() - self._gc_started

    async def close(self) -> None:
        """Stop accepting, drain the write worker, release the socket."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Idle keep-alive connections would stay open forever: close every
        # one and cancel what it is answering, so nothing outlives the loop.
        connections = list(self._connections)
        tasks = [c.task for c in connections if c.task is not None]
        for connection in connections:
            connection.abort()
        await asyncio.gather(*tasks, return_exceptions=True)
        await asyncio.sleep(0)  # let the transports report connection_lost
        self._connections.clear()
        if server is not None:
            await server.wait_closed()
        await self.worker.close()
        if self._lead is not None:
            # Wait for a call still running there without blocking the loop.
            lead, self._lead = self._lead, None
            await asyncio.get_running_loop().run_in_executor(
                None, lead.shutdown)

    # -- request handling ---------------------------------------------------

    def _answer(self, request: protocol.Request
                ) -> "bytes | Coroutine[Any, Any, bytes]":
        """The reply to one request, framed right here when the loop can,
        else the coroutine that answers it (its connection's task).

        Framed here: a request no route takes, and a read (``POST /query``
        or ``/execute/{h}``) that finds a free admission slot and either
        fails to identify or gets an encoded body from ``try_hit``
        (``inline_hits``) — counted as admitted, holding its slot for no
        time.  A read that finds one but must wait carries its handle and
        ``try_hit`` answer to :meth:`_read`, so neither runs twice."""
        self.requests_served += 1
        try:
            handler, args, admit = self._route(request.method, request.path)
        except ServiceError as error:
            return self._error_response(error, request)
        if handler != self._handle_read \
                or not self.admission.has_free_slot():
            return self._respond(request, handler, args, admit)
        try:
            handle = self._identify(request, *args)
            hit: "QueryResult | None" = handle.try_hit()
        except Exception as exc:
            self.admission.admit_now()
            return self._error_response(wrap_service_error(exc), request)
        if hit is None or hit.encoded is None:
            return self._respond(request, self._read, (handle, hit), admit)
        self.admission.admit_now()
        self.inline_hits += 1
        return protocol.render_response(200, hit.encoded,
                                        keep_alive=request.keep_alive)

    async def _respond(self, request: protocol.Request, handler: _Handler,
                       args: tuple[Any, ...], admit: bool) -> bytes:
        try:
            if admit:
                async with self.admission.slot():
                    payload, status = await handler(request, *args)
            else:
                payload, status = await handler(request, *args)
            return protocol.render_response(status, payload,
                                            keep_alive=request.keep_alive)
        except Exception as exc:
            return self._error_response(wrap_service_error(exc), request)

    def _error_response(self, error: ServiceError,
                        request: protocol.Request) -> bytes:
        extra: list[tuple[str, str]] = []
        retry_after = getattr(error, "retry_after", None)
        if retry_after is not None:
            extra.append(("Retry-After", f"{retry_after:g}"))
        return protocol.render_response(
            error.http_status, protocol.error_payload(error),
            extra_headers=extra, keep_alive=request.keep_alive)

    def _route(self, method: str,
               path: str) -> tuple[_Handler, tuple[str, ...], bool]:
        """``(handler, path args, goes through admission)`` for one target."""
        path = path.split("?", 1)[0]
        parts = tuple(p for p in path.split("/") if p)
        args: tuple[str, ...] = ()
        by_method = self._routes.get(parts)
        if by_method is None and len(parts) >= 2:
            by_method = self._routes.get((parts[0], None) + parts[2:])
            args = (parts[1],)
        if by_method is None:
            raise _NotFoundError(f"no route for {path!r}",
                                 detail={"path": path})
        entry = by_method.get(method)
        if entry is None:
            raise _MethodNotAllowedError(
                f"{method} not allowed on {path!r}",
                detail={"path": path, "allowed": sorted(by_method)})
        handler, admit = entry
        return handler, args, admit

    async def _call(self, fn: Callable[..., Any], *args: Any,
                    **kwargs: Any) -> Any:
        """Run one blocking service call off the loop: on the lead thread
        when it is free, else in the loop's default executor.

        A closed-loop client's calls therefore all run on one thread.  The
        default pool alone hands them to whichever of its threads a race
        picks, and every thread that executes a query grows its own malloc
        arena — the same request sequence then ends several MB of Pss apart
        from run to run.
        """
        loop = asyncio.get_running_loop()
        lead = self._lead is not None and not self._lead_busy
        if lead:
            self._lead_busy = True
        try:
            return await loop.run_in_executor(
                self._lead if lead else None, partial(fn, *args, **kwargs))
        finally:
            if lead:
                self._lead_busy = False

    def _identify(self, request: protocol.Request,
                  handle_id: "str | None" = None) -> Any:
        """The handle a read names: ``POST /query``'s text, identified —
        pure computation — or ``POST /execute/{h}``'s prepared handle."""
        if handle_id is None:
            text, language = protocol.query_request(request.json())
            return self.service.identify(text, language=language)
        handle = self._handles.get(handle_id)
        if handle is None:
            raise UnknownHandleError(
                f"no prepared query with handle {handle_id!r}; POST /prepare "
                "first (handles do not survive a server restart, and the "
                f"server keeps the {MAX_PREPARED_HANDLES} most recently used)",
                detail={"handle": handle_id})
        return handle

    async def _read(self, request: protocol.Request, handle: Any,
                    hit: "QueryResult | None") -> tuple[bytes, int]:
        """Answer one identified read from what its ``try_hit`` returned,
        else by running its ``query`` off-loop — the handle carries what
        was resolved, so the executor side identifies nothing again —
        either way as an encoded envelope."""
        if hit is None:
            self.inline_declined += 1
            return await self._call(lambda: handle.query().encode()), 200
        body = hit.encoded
        if body is None:
            self.inline_busy += 1
            body = await self._call(hit.encode)
        else:
            self.inline_hits += 1
        return body, 200

    # -- handlers -----------------------------------------------------------

    async def _handle_read(self, request: protocol.Request,
                           *args: str) -> tuple[Any, int]:
        """A read that found no free slot on arrival (:meth:`_answer`)."""
        handle = self._identify(request, *args)
        return await self._read(request, handle, handle.try_hit())

    async def _handle_prepare(self, request: protocol.Request) -> tuple[Any, int]:
        text, language = protocol.query_request(request.json())
        handle = await self._call(self.service.prepare, text,
                                  language=language)
        handle_id = handle.fingerprint
        self._handles.put(handle_id, handle)
        return {"handle": handle_id, "language": handle.language,
                "text": handle.text}, 200

    async def _handle_write(self, request: protocol.Request) -> tuple[Any, int]:
        relation, rows = protocol.write_request(request.json())
        version = await self.worker.submit(relation, rows)
        if isinstance(version, tuple):
            version = list(version)
        return {"relation": relation, "rows": len(rows),
                "version": version, "batched": True}, 200

    async def _handle_register_view(self,
                                    request: protocol.Request) -> tuple[Any, int]:
        text, language, name, refresh = protocol.view_request(request.json())
        view = await self._call(self.service.register_view, text,
                                language=language, name=name, refresh=refresh)
        return self._view_payload(view), 200

    async def _handle_list_views(self,
                                 request: protocol.Request) -> tuple[Any, int]:
        views = await self._call(self.service.views)
        return {"views": [self._view_payload(view) for view in views]}, 200

    async def _handle_delete_view(self, request: protocol.Request,
                                  name: str) -> tuple[Any, int]:
        await self._call(self.service.unregister_view, name)
        return {"deleted": name}, 200

    async def _handle_refresh_view(self, request: protocol.Request,
                                   name: str) -> tuple[Any, int]:
        def refresh() -> dict[str, Any]:
            # Runs in the executor: lookup + catch-up take service locks.
            view = self.service.view(name)
            view.refresh()
            return self._view_payload(view)

        return await self._call(refresh), 200

    async def _handle_metrics(self,
                              request: protocol.Request) -> tuple[Any, int]:
        def collect() -> dict[str, Any]:
            # Runs in the executor: every call below takes service locks.
            from repro.engine.verify import verification_counts

            service = self.service
            version, tables = service.stats_snapshot()
            metrics: dict[str, Any] = {
                "db_version": list(version) if isinstance(version, tuple)
                              else version,
            }
            for name, stats in sorted(tables.items()):
                rows = getattr(stats, "row_count", None)
                if rows is not None:
                    metrics[f"rows_{name}"] = rows
            metrics.update(service.cache_info())
            for key, value in service.execution_counts().items():
                metrics[f"exec_{key}"] = value
            metrics.update(verification_counts())
            return metrics

        metrics = await self._call(collect)
        metrics.update(self.admission.snapshot())
        metrics.update(self.worker.counts())
        metrics["prepared_handles"] = len(self._handles)
        metrics["requests_served"] = self.requests_served
        metrics["inline_hits"] = self.inline_hits
        metrics["inline_busy"] = self.inline_busy
        metrics["inline_declined"] = self.inline_declined
        for generation, passes in enumerate(self._gc_collections):
            metrics[f"gc_collections_gen{generation}"] = passes
        metrics["gc_pause_us"] = int(self._gc_pause_s * 1e6)
        backend = getattr(self.service, "backend", None)
        if backend is not None:
            metrics["backend"] = backend.name
        return metrics, 200

    async def _handle_health(self,
                             request: protocol.Request) -> tuple[Any, int]:
        return {"status": "ok"}, 200

    @staticmethod
    def _view_payload(view: Any) -> dict[str, Any]:
        info = dict(view.info())
        info["base_relations"] = list(info.get("base_relations", ()))
        return info


class _Connection(asyncio.Protocol):
    """One client connection: its requests are answered one at a time, in
    the order they arrive.

    ``data_received`` appends to one buffer and takes each complete request
    off it (:func:`~repro.server.protocol.parse_request`).  A reply
    :meth:`ServingApp._answer` frames at once is written before
    ``data_received`` returns — no task, no await; any other request
    becomes the connection's one task, and nothing more is parsed until
    its reply is written.  Reading pauses while the client takes no
    replies (``pause_writing``) and while more than :data:`_PAUSE_BYTES`
    wait behind a task; that is the whole flow control.
    """

    transport: asyncio.Transport  # set by connection_made

    def __init__(self, app: ServingApp) -> None:
        self.app = app
        self.buffer = bytearray()
        #: The request being answered off the loop, if any.
        self.task: "asyncio.Task[None] | None" = None
        self.writable = True
        self.eof = False
        #: Nothing more will be answered: the connection is closing, gone,
        #: or half-closed after a framing error and discarding its input.
        self.done = False
        self.lost = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        # The selector transport reads its ``max_size`` on every recv.
        transport.max_size = READ_CHUNK  # type: ignore[attr-defined]
        self.app._connections.add(self)

    def data_received(self, data: bytes) -> None:
        if not self.done:
            self.buffer += data
            self._serve()

    def eof_received(self) -> bool:
        self.eof = True
        if self.done:
            return False  # nothing left to say: the transport closes
        self._serve()
        return True  # keep writing: a reply in flight still goes out

    def connection_lost(self, exc: "Exception | None") -> None:
        self.done = self.lost = True
        self.buffer.clear()
        if self.task is None:
            self.app._connections.discard(self)

    def pause_writing(self) -> None:
        self.writable = False
        self._flow()

    def resume_writing(self) -> None:
        self.writable = True
        self._serve()

    def abort(self) -> None:
        """Drop the connection now (server shutdown)."""
        self.done = True
        if self.task is not None:
            self.task.cancel()
        self.transport.abort()

    def _serve(self) -> None:
        """Answer the buffered requests in order until one must wait."""
        while self.task is None and self.writable and not self.done:
            try:
                request = protocol.parse_request(self.buffer)
            except ServiceError as error:
                self._refuse(error)
                return
            if request is None:
                if self.eof:
                    self._close()
                break
            reply = self.app._answer(request)
            if isinstance(reply, bytes):
                self._send(reply, request.keep_alive)
            else:
                self.task = asyncio.get_running_loop().create_task(
                    self._finish(reply, request.keep_alive))
        self._flow()

    async def _finish(self, reply: Awaitable[bytes], keep_alive: bool) -> None:
        try:
            data = await reply
        finally:
            self.task = None
            if self.lost:
                self.app._connections.discard(self)
        if not self.done:
            self._send(data, keep_alive)
            self._serve()

    def _send(self, data: bytes, keep_alive: bool) -> None:
        self.transport.write(data)
        # A failed send (the client reset) leaves the transport closing.
        if not keep_alive or self.transport.is_closing():
            self._close()

    def _close(self) -> None:
        self.done = True
        self.transport.close()

    def _refuse(self, error: ServiceError) -> None:
        """Answer a request that cannot be framed, then half-close.

        Framing is lost, so later input is discarded until the client
        closes; closing at once with input unread would reset the
        connection, and the client could lose the reply."""
        self.done = True
        self.buffer.clear()
        self.transport.write(protocol.render_response(
            error.http_status, protocol.error_payload(error),
            keep_alive=False))
        if self.eof or not self.transport.can_write_eof():
            self.transport.close()
        else:
            self.transport.write_eof()
        self._flow()

    def _flow(self) -> None:
        transport = self.transport
        pause = not self.done and (not self.writable or (
            self.task is not None and len(self.buffer) > _PAUSE_BYTES))
        if pause and transport.is_reading():
            transport.pause_reading()
        elif not pause and not transport.is_reading():
            transport.resume_reading()


class ServerThread:
    """An embedded server: own event loop on a daemon thread.

    Tests and benchmarks (and the CLI entry point) need a running server
    next to synchronous client code; this wraps the loop/thread lifecycle::

        with ServerThread(service) as server:
            http.client.HTTPConnection("127.0.0.1", server.port) ...

    ``close()`` stops the loop, drains the write worker, and joins the
    thread.  The service itself is *not* closed — the caller owns it.
    """

    def __init__(self, service: ServiceAPI, *, host: str = "127.0.0.1",
                 port: int = 0, **app_kwargs: Any) -> None:
        self.app = ServingApp(service, **app_kwargs)
        self._host = host
        self._requested_port = port
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._startup_error: "BaseException | None" = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-server")

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    @property
    def port(self) -> int:
        port = self.app.port
        assert port is not None, "server not started"
        return port

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(
                self.app.start(self._host, self._requested_port))
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            self._loop.close()
            return
        self._ready.set()
        self._loop.run_forever()
        # close() requested: tear down inside the loop's thread.
        self._loop.run_until_complete(self.app.close())
        self._loop.run_until_complete(self._loop.shutdown_asyncgens())
        self._loop.close()

    def close(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def serve(service: ServiceAPI, *, host: str = "127.0.0.1", port: int = 8080,
          **app_kwargs: Any) -> None:
    """Blocking convenience entry point: serve until interrupted."""
    async def _main() -> None:
        app = ServingApp(service, **app_kwargs)
        bound = await app.start(host, port)
        print(f"repro server listening on http://{host}:{bound}")
        try:
            await asyncio.Event().wait()
        finally:
            await app.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


__all__ = ["ServerThread", "ServingApp", "serve"]
