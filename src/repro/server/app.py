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

Threading discipline — the rule ``tools/check_invariants.py`` enforces
statically: the event loop parses, routes, frames, and serves hits that
are already encoded; everything that can block or encode runs off-loop.
A read is identified once — :meth:`~repro.core.service_api.ServiceAPI.identify`
resolves its language and fingerprints its text, pure computation — and the
handle that returns is first asked ``try_hit()``.  These are the service
calls allowed on the loop: ``try_hit`` never waits, never executes, and
answers only from a current result-cache entry or a fresh view.  A hit
whose JSON body is memoized on its envelope is framed right there
(``inline_hits``); a hit not encoded yet is encoded once in the executor
and kept with its cache entry (``inline_busy``); on ``None`` the handle's
``query()`` goes through ``loop.run_in_executor`` (:meth:`ServingApp._call`)
— execution *and* encoding, nothing identified twice — as every read used
to (``inline_declined``).  Writes go through the
:class:`~repro.server.worker.WriteWorker`.  App state (the prepared-handle
registry, the ``inline_*`` counters) is touched only on the loop.

Overload: ``POST`` traffic passes the
:class:`~repro.server.admission.AdmissionController`; a saturated server
answers 503 with a ``Retry-After`` header instead of queuing unboundedly.
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
from typing import Any, Awaitable, Callable

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
        self._connections: "set[asyncio.Task[None]]" = set()
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
            ("query",): {"POST": (self._handle_query, True)},
            ("prepare",): {"POST": (self._handle_prepare, True)},
            ("execute", None): {"POST": (self._handle_execute, True)},
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
        self._server = await asyncio.start_server(
            self._on_connection, host, port)
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
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections sit parked in read_request forever;
        # cancel them so no connection task outlives the loop.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        await self.worker.close()
        if self._lead is not None:
            # Wait for a call still running there without blocking the loop.
            lead, self._lead = self._lead, None
            await asyncio.get_running_loop().run_in_executor(
                None, lead.shutdown)

    # -- connection handling ------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await protocol.read_request(reader)
                except ServiceError as error:
                    # Framing is unreliable after a malformed request:
                    # answer and close.
                    writer.write(protocol.render_response(
                        error.http_status, protocol.error_payload(error),
                        keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._respond(request)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-exchange: nothing left to tell it
        except asyncio.CancelledError:
            pass  # close() cancelling an idle keep-alive connection
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass  # already torn down by the peer

    async def _respond(self, request: protocol.Request) -> bytes:
        self.requests_served += 1
        try:
            handler, args, admit = self._route(request.method, request.path)
            if admit:
                async with self.admission.slot():
                    payload, status = await handler(request, *args)
            else:
                payload, status = await handler(request, *args)
            return protocol.render_response(status, payload,
                                            keep_alive=request.keep_alive)
        except ServiceError as error:
            return self._error_response(error, request)
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

    async def _read(self, handle: Any) -> tuple[bytes, int]:
        """Answer one identified read from what its ``try_hit`` returns,
        else by running its ``query`` off-loop — the handle carries what
        was resolved, so the executor side identifies nothing again —
        either way as an encoded envelope."""
        hit: "QueryResult | None" = handle.try_hit()
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

    async def _handle_query(self, request: protocol.Request) -> tuple[Any, int]:
        text, language = protocol.query_request(request.json())
        return await self._read(self.service.identify(text, language=language))

    async def _handle_prepare(self, request: protocol.Request) -> tuple[Any, int]:
        text, language = protocol.query_request(request.json())
        handle = await self._call(self.service.prepare, text,
                                  language=language)
        handle_id = handle.fingerprint
        self._handles.put(handle_id, handle)
        return {"handle": handle_id, "language": handle.language,
                "text": handle.text}, 200

    async def _handle_execute(self, request: protocol.Request,
                              handle_id: str) -> tuple[Any, int]:
        handle = self._handles.get(handle_id)
        if handle is None:
            raise UnknownHandleError(
                f"no prepared query with handle {handle_id!r}; POST /prepare "
                "first (handles do not survive a server restart, and the "
                f"server keeps the {MAX_PREPARED_HANDLES} most recently used)",
                detail={"handle": handle_id})
        return await self._read(handle)

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
        backend_name = getattr(self.service, "backend_name", None)
        if backend_name is not None:
            metrics["backend"] = backend_name
        return metrics, 200

    async def _handle_health(self,
                             request: protocol.Request) -> tuple[Any, int]:
        return {"status": "ok"}, 200

    @staticmethod
    def _view_payload(view: Any) -> dict[str, Any]:
        info = dict(view.info())
        info["base_relations"] = list(info.get("base_relations", ()))
        return info


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
