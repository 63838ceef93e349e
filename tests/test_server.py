"""The HTTP serving tier: wire ≡ in-process, errors, admission, batching.

Four surfaces:

* the differential gate — ``POST /query`` answers over real sockets are
  bag-equal to in-process :meth:`~repro.core.service.QueryService.answer`
  for every canonical query in all five languages, on both the single-node
  and the sharded service (one server codebase, the ``ServiceAPI``
  protocol in between);
* structured errors — every :class:`~repro.core.service_api.ServiceError`
  code crosses the wire as ``{"error": {code, message, detail}}`` with the
  right HTTP status and never a traceback;
* admission control — a saturated server sheds with 503 + ``Retry-After``
  instead of queuing, and keeps serving ``/metrics``;
* the write worker — concurrent HTTP writes share flushes (fewer version
  bumps than requests), and a bad row fails alone, not its batch-mates;
* the inline hit path — a cached read is answered on the event loop from
  bytes encoded once, byte-identical to the executor path, and every way
  an answer goes stale sends the next read back through the executor.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
from contextlib import closing, contextmanager

import pytest

from repro.core import QueryService, ServiceAPI
from repro.core.service_api import (
    FrozenMutationError,
    OverloadedError,
    QueryResult,
    UnknownRelationError,
    wrap_service_error,
)
from repro.core.sharded_service import ShardedQueryService
from repro.data import sailors_database
from repro.data.relation import RelationError
from repro.queries import CANONICAL_QUERIES, LANGUAGES
from repro.server import ServerThread
from repro.server import app as app_module
from repro.server.worker import WriteWorker

FALLBACK_SQL = ("SELECT S.sname FROM Sailors S LEFT JOIN Reserves R "
                "ON S.sid = R.sid WHERE R.sid IS NULL")
COUNT_SQL = "SELECT COUNT(*) AS n FROM Sailors S"


class Client:
    """A keep-alive JSON client over one real socket."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body=None):
        payload = None if body is None else json.dumps(body)
        self.conn.request(method, path, payload,
                          {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = json.loads(response.read())
        return response.status, dict(response.getheaders()), data

    def close(self) -> None:
        self.conn.close()


@contextmanager
def serving(service, **app_kwargs):
    with ServerThread(service, **app_kwargs) as server:
        client = Client(server.port)
        try:
            yield server, client
        finally:
            client.close()


@pytest.fixture(scope="module")
def base_server():
    service = QueryService(sailors_database())
    with ServerThread(service) as server:
        yield service, server


@pytest.fixture(scope="module")
def sharded_server():
    service = ShardedQueryService(sailors_database(), n_shards=2)
    with ServerThread(service) as server:
        yield service, server
    service.close()


DIFFERENTIAL_CELLS = [
    pytest.param(query, language, id=f"{query.id}-{language}")
    for query in CANONICAL_QUERIES
    for language in LANGUAGES
]


class TestHTTPDifferential:
    """Wire answers ≡ in-process answers, all languages, both services."""

    def _check(self, service, server, query, language):
        text = query.languages()[language]
        expected = service.answer(text, language=language.lower())
        client = Client(server.port)
        with closing(client):
            status, _headers, payload = client.request(
                "POST", "/query", {"text": text, "language": language.lower()})
        assert status == 200, payload
        assert payload["language"] == language.lower()
        assert payload["columns"] == list(expected.attribute_names)
        wire = sorted(tuple(row) for row in payload["rows"])
        assert wire == sorted(expected.rows()), (
            f"{query.id}/{language}: wire answer diverges from in-process")
        assert payload["row_count"] == len(expected)
        assert isinstance(payload["warnings"], list)
        assert isinstance(payload["fingerprint"], str)

    @pytest.mark.parametrize("query,language", DIFFERENTIAL_CELLS)
    def test_base_service(self, base_server, query, language):
        service, server = base_server
        self._check(service, server, query, language)

    @pytest.mark.parametrize("query,language", DIFFERENTIAL_CELLS)
    def test_sharded_service(self, sharded_server, query, language):
        service, server = sharded_server
        self._check(service, server, query, language)

    def test_version_token_shape(self, base_server, sharded_server):
        # Scalar version on the single-node service, vector on the sharded
        # one — both JSON-native.
        for _service, server in (base_server, sharded_server):
            client = Client(server.port)
            with closing(client):
                _s, _h, payload = client.request(
                    "POST", "/query", {"text": COUNT_SQL})
            assert isinstance(payload["version"], (int, list))

    def test_prepare_execute_matches_query(self, base_server):
        service, server = base_server
        client = Client(server.port)
        with closing(client):
            status, _h, prepared = client.request(
                "POST", "/prepare", {"text": FALLBACK_SQL})
            assert status == 200
            status, _h, executed = client.request(
                "POST", f"/execute/{prepared['handle']}")
            assert status == 200
            direct = service.query(FALLBACK_SQL)
        assert sorted(tuple(r) for r in executed["rows"]) == sorted(direct.rows)
        assert executed["fingerprint"] == direct.fingerprint

    def test_warnings_uniform_shape(self, base_server, sharded_server):
        # The interpreter-fallback query reports warnings through the same
        # envelope key on every service; engine-served queries report [].
        for _service, server in (base_server, sharded_server):
            client = Client(server.port)
            with closing(client):
                _s, _h, fallback = client.request(
                    "POST", "/query", {"text": FALLBACK_SQL})
                _s, _h, clean = client.request(
                    "POST", "/query", {"text": COUNT_SQL})
            assert isinstance(fallback["warnings"], list)
            assert fallback["warnings"], "fallback query should warn"
            assert all(isinstance(w, str) for w in fallback["warnings"])
            assert clean["warnings"] == []

    def test_in_process_query_envelope_matches_wire(self, base_server):
        service, server = base_server
        result = service.query(COUNT_SQL)
        assert isinstance(result, QueryResult)
        client = Client(server.port)
        with closing(client):
            _s, _h, wire = client.request("POST", "/query",
                                          {"text": COUNT_SQL})
        local = result.to_payload()
        for key in ("columns", "rows", "row_count", "language",
                    "fingerprint", "warnings"):
            assert wire[key] == local[key]


class TestViewLifecycleHTTP:
    """register / list / refresh / delete over the wire, both services.

    The sharded service used to reject every ``/views`` request with 400
    unsupported; since shard-aware view maintenance landed the lifecycle —
    and the error contracts — are identical on both services.
    """

    @pytest.fixture(params=["base", "sharded"])
    def server_pair(self, request, base_server, sharded_server):
        return base_server if request.param == "base" else sharded_server

    def test_full_lifecycle(self, server_pair):
        service, server = server_pair
        sql = "SELECT R.bid, COUNT(*) AS n FROM Reserves R GROUP BY R.bid"
        client = Client(server.port)
        with closing(client):
            status, _h, info = client.request(
                "POST", "/views", {"text": sql, "name": "per_boat"})
            assert status == 200, info
            assert info["name"] == "per_boat"
            assert info["rows"] > 0

            status, _h, listed = client.request("GET", "/views")
            assert status == 200
            assert "per_boat" in [v["name"] for v in listed["views"]]

            # Queries for the registered text are served from the view.
            hits_before = service.cache_info()["view_hits"]
            status, _h, payload = client.request("POST", "/query",
                                                 {"text": sql})
            assert status == 200
            assert service.cache_info()["view_hits"] == hits_before + 1

            # A write stales the view; the refresh endpoint catches it up.
            status, _h, _p = client.request(
                "POST", "/write",
                {"relation": "Reserves", "row": [58, 103, "2025/07/09"]})
            assert status == 200
            status, _h, refreshed = client.request(
                "POST", "/views/per_boat/refresh")
            assert status == 200, refreshed
            assert refreshed["current"] is True
            assert refreshed["refreshes"] >= info["refreshes"] + 1
            wire_rows = sorted(tuple(r) for r in (
                client.request("POST", "/query", {"text": sql})[2]["rows"]))
            assert wire_rows == sorted(
                service.answer(sql).rows())

            status, _h, deleted = client.request("DELETE",
                                                 "/views/per_boat")
            assert status == 200
            assert deleted == {"deleted": "per_boat"}
            status, _h, listed = client.request("GET", "/views")
            assert "per_boat" not in [v["name"] for v in listed["views"]]


class TestErrorPaths:
    """Every ServiceError code crosses the wire with its HTTP status."""

    def _error(self, server, method, path, body=None):
        client = Client(server.port)
        with closing(client):
            status, headers, payload = client.request(method, path, body)
        assert "error" in payload, payload
        error = payload["error"]
        assert set(error) >= {"code", "message", "detail"}
        assert "Traceback" not in json.dumps(payload)
        return status, headers, error

    def test_parse_error_400(self, base_server):
        _service, server = base_server
        status, _h, error = self._error(server, "POST", "/query",
                                        {"text": "SELEC nonsense FORM"})
        assert (status, error["code"]) == (400, "parse_error")

    def test_parse_error_all_languages(self, base_server):
        _service, server = base_server
        for language in ("sql", "ra", "trc", "drc", "datalog"):
            status, _h, error = self._error(
                server, "POST", "/query",
                {"text": "@!! not a query !!@", "language": language})
            assert status == 400, (language, error)
            assert error["code"] in ("parse_error", "invalid_request")

    def test_unknown_language_400(self, base_server):
        _service, server = base_server
        status, _h, error = self._error(
            server, "POST", "/query", {"text": "SELECT 1",
                                       "language": "cypher"})
        assert (status, error["code"]) == (400, "unknown_language")
        assert "cypher" in error["message"]
        assert error["detail"]["language"] == "cypher"

    def test_unknown_view_404(self, base_server):
        _service, server = base_server
        status, _h, error = self._error(server, "DELETE", "/views/ghost")
        assert (status, error["code"]) == (404, "unknown_view")

    def test_unknown_handle_404(self, base_server):
        _service, server = base_server
        status, _h, error = self._error(server, "POST", "/execute/deadbeef")
        assert (status, error["code"]) == (404, "unknown_handle")

    def test_unknown_relation_404(self, base_server):
        _service, server = base_server
        status, _h, error = self._error(
            server, "POST", "/write",
            {"relation": "NoSuchTable", "row": [1]})
        assert status == 404, error
        assert error["code"] == "unknown_relation"

    def test_view_conflict_409(self, base_server):
        _service, server = base_server
        client = Client(server.port)
        with closing(client):
            status, _h, _p = client.request(
                "POST", "/views", {"text": COUNT_SQL, "name": "dup"})
            assert status == 200
            status, _h, payload = client.request(
                "POST", "/views", {"text": FALLBACK_SQL, "name": "dup"})
            client.request("DELETE", "/views/dup")
        assert status == 409
        assert payload["error"]["code"] == "view_conflict"

    def test_view_error_contracts_match_across_services(self, base_server,
                                                        sharded_server):
        # The 409 conflict and 404 unknown-view contracts are identical on
        # both services (regression: the sharded service used to answer
        # every /views request with 400 unsupported).
        for _service, server in (base_server, sharded_server):
            client = Client(server.port)
            with closing(client):
                status, _h, _p = client.request(
                    "POST", "/views", {"text": COUNT_SQL, "name": "parity"})
                assert status == 200
                status, _h, payload = client.request(
                    "POST", "/views", {"text": FALLBACK_SQL,
                                       "name": "parity"})
                assert status == 409
                assert payload["error"]["code"] == "view_conflict"
                client.request("DELETE", "/views/parity")
                status, _h, payload = client.request(
                    "DELETE", "/views/parity")
                assert status == 404
                assert payload["error"]["code"] == "unknown_view"
                status, _h, payload = client.request(
                    "POST", "/views/parity/refresh")
                assert status == 404
                assert payload["error"]["code"] == "unknown_view"

    def test_invalid_request_shapes_400(self, base_server):
        _service, server = base_server
        cases = [
            ("POST", "/query", {"language": "sql"}),           # missing text
            ("POST", "/query", {"text": 7}),                   # wrong type
            ("POST", "/write", {"relation": "Sailors"}),       # no rows
            ("POST", "/write", {"relation": "Sailors", "rows": "x"}),
            ("POST", "/write", {"relation": "Sailors",
                                "row": [1], "rows": [[2]]}),   # both forms
        ]
        for method, path, body in cases:
            status, _h, error = self._error(server, method, path, body)
            assert (status, error["code"]) == (400, "invalid_request"), body

    def test_malformed_json_400(self, base_server):
        _service, server = base_server
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        with closing(conn):
            conn.request("POST", "/query", "{not json",
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read())
        assert response.status == 400
        assert payload["error"]["code"] == "invalid_request"

    def test_bad_row_arity_400(self, base_server):
        _service, server = base_server
        status, _h, error = self._error(
            server, "POST", "/write",
            {"relation": "Sailors", "row": [1, "too-few"]})
        assert status == 400, error
        assert error["code"] == "invalid_request"

    def test_not_found_and_method_not_allowed(self, base_server):
        _service, server = base_server
        status, _h, error = self._error(server, "GET", "/no/such/route")
        assert (status, error["code"]) == (404, "not_found")
        status, _h, error = self._error(server, "DELETE", "/query")
        assert (status, error["code"]) == (405, "method_not_allowed")
        assert error["detail"]["allowed"] == ["POST"]
        for method, path, allowed in (
                ("DELETE", "/views", ["GET", "POST"]),
                ("GET", "/views/some_view", ["DELETE"]),
                ("GET", "/views/some_view/refresh", ["POST"]),
                ("GET", "/execute/abc", ["POST"])):
            status, _h, error = self._error(server, method, path)
            assert (status, error["code"]) == (405, "method_not_allowed")
            assert error["detail"] == {"path": path, "allowed": allowed}
        for path in ("/execute", "/execute/a/b", "/views/v/refresh/x",
                     "/query/extra", "/"):
            status, _h, error = self._error(server, "POST", path)
            assert (status, error["code"]) == (404, "not_found"), path

    def test_frozen_mutation_maps_to_409(self):
        # The classifier turns the storage tier's frozen-relation error
        # into the structured 409 (unit level: HTTP writes go through
        # copy-on-write services, so the wire never sees it here).
        error = wrap_service_error(
            RelationError("relation 'answer' is frozen; copy() it to mutate"))
        assert isinstance(error, FrozenMutationError)
        assert (error.http_status, error.code) == (409, "frozen_mutation")

    def test_key_error_maps_to_unknown_relation(self):
        error = wrap_service_error(KeyError("Ghost"))
        assert isinstance(error, UnknownRelationError)
        assert error.http_status == 404


class TestInlineHits:
    """Cached reads are served on the loop; everything else off it."""

    VIEW_SQL = "SELECT R.bid, COUNT(*) AS n FROM Reserves R GROUP BY R.bid"

    @staticmethod
    def _raw(client, path, body=None):
        """One POST; the reply's status and undecoded body bytes."""
        payload = None if body is None else json.dumps(body)
        client.conn.request("POST", path, payload,
                            {"Content-Type": "application/json"})
        response = client.conn.getresponse()
        return response.status, response.read()

    @staticmethod
    def _spy_executor(server):
        """Count entries into the loop's executor from here on."""
        loop, entered = server._loop, []
        run_in_executor = loop.run_in_executor

        def spy(executor, fn, *args):
            entered.append(fn)
            return run_in_executor(executor, fn, *args)

        loop.run_in_executor = spy
        return entered

    def _paths(self, server):
        app = server.app
        return app.inline_declined, app.inline_busy, app.inline_hits

    def test_a_hit_never_enters_the_executor_and_a_miss_does(self):
        service = QueryService(sailors_database())
        with serving(service) as (server, client):
            entered = self._spy_executor(server)
            body = {"text": COUNT_SQL}
            assert self._raw(client, "/query", body)[0] == 200   # miss
            assert len(entered) == 1
            assert self._raw(client, "/query", body)[0] == 200   # encodes
            assert len(entered) == 2
            for _ in range(5):                                   # inline
                assert self._raw(client, "/query", body)[0] == 200
            assert len(entered) == 2
            assert self._paths(server) == (1, 1, 5)
            client.request("POST", "/write",
                           {"relation": "Sailors", "row": [77, "x", 1, 20.0]})
            del entered[:]
            _status, reply = self._raw(client, "/query", body)   # miss again
            assert len(entered) == 1
            assert json.loads(reply)["rows"] == [[11]]

    @pytest.mark.parametrize("language", LANGUAGES)
    def test_inline_body_is_the_executor_body_byte_for_byte(self, language):
        service = QueryService(sailors_database())
        with serving(service) as (server, client):
            for query in CANONICAL_QUERIES[:3]:
                body = {"text": query.languages()[language],
                        "language": language.lower()}
                replies = [self._raw(client, "/query", body)
                           for _ in range(4)]
                assert {status for status, _b in replies} == {200}
                assert len({reply for _s, reply in replies}) == 1, query.id
                expected = service.query(body["text"],
                                         language=body["language"])
                assert replies[-1][1] == json.dumps(
                    expected.to_payload()).encode("utf-8")
            assert self._paths(server) == (3, 3, 6)

    def test_view_fallback_and_prepared_replies_are_byte_identical(self):
        service = QueryService(sailors_database())
        service.register_view(self.VIEW_SQL, name="per_boat")
        with serving(service) as (server, client):
            _s, _h, prepared = client.request("POST", "/prepare",
                                              {"text": COUNT_SQL})
            for path, body in (
                    ("/query", {"text": self.VIEW_SQL}),
                    ("/query", {"text": FALLBACK_SQL}),
                    (f"/execute/{prepared['handle']}", None)):
                replies = [self._raw(client, path, body) for _ in range(4)]
                assert {status for status, _b in replies} == {200}
                assert len({reply for _s, reply in replies}) == 1, path
            assert json.loads(replies[0][1])["rows"] == [[10]]
            fallback = service.query(FALLBACK_SQL)
            assert fallback.warnings
            assert fallback.encoded == json.dumps(
                fallback.to_payload()).encode("utf-8")
            # The fresh view is a hit from its first read; the other two
            # miss once, encode once, and are inline from then on.
            assert self._paths(server) == (2, 3, 7)

    def test_every_way_an_answer_goes_stale_reaches_the_new_answer(self):
        service = ShardedQueryService(sailors_database(), n_shards=2)
        sql = self.VIEW_SQL
        try:
            with serving(service) as (server, client):
                def rows():
                    status, reply = self._raw(client, "/query", {"text": sql})
                    assert status == 200
                    return sorted(map(tuple, json.loads(reply)["rows"]))

                def settle():
                    for _ in range(3):
                        rows()
                    hits = server.app.inline_hits
                    rows()
                    assert server.app.inline_hits == hits + 1

                settle()                       # plain result-cache entry
                client.request("POST", "/write", {
                    "relation": "Reserves", "row": [22, 199, "2025/07/01"]})
                assert (199, 1) in rows()      # a write between two reads
                client.request("POST", "/views",
                               {"text": sql, "name": "per_boat"})
                settle()                       # now a fresh view
                client.request("POST", "/write", {
                    "relation": "Reserves", "row": [22, 199, "2025/07/02"]})
                assert (199, 2) in rows()      # a stale lazy view
                settle()
                client.request("DELETE", "/views/per_boat")
                declined = server.app.inline_declined
                assert (199, 2) in rows()      # unregistered: recomputed
                assert server.app.inline_declined == declined + 1
                settle()
                service.reshard(3)
                declined = server.app.inline_declined
                assert (199, 2) in rows()      # resharded: recomputed
                assert server.app.inline_declined == declined + 1
                status, reply = self._raw(client, "/query", {"text": sql})
                assert json.loads(reply)["version"][0] == 1
        finally:
            service.close()

    def test_a_held_cache_lock_declines_and_the_request_is_answered(self):
        service = QueryService(sailors_database())
        with serving(service) as (server, client):
            body = {"text": COUNT_SQL}
            for _ in range(3):
                self._raw(client, "/query", body)
            before = self._paths(server)
            holding, release = threading.Event(), threading.Event()

            def hold():
                with service._results._lock:
                    holding.set()
                    release.wait(timeout=30)

            holder = threading.Thread(target=hold)
            holder.start()
            try:
                assert holding.wait(timeout=30)
                threading.Timer(0.2, release.set).start()
                status, reply = self._raw(client, "/query", body)
            finally:
                release.set()
                holder.join(timeout=30)
            assert not holder.is_alive()
            assert status == 200 and json.loads(reply)["rows"] == [[10]]
            # try_hit declined at once; the executor path waited its turn.
            assert self._paths(server) == (before[0] + 1, before[1],
                                           before[2])
            # ... and it was served as the hit it is: one request, one hit.
            info = service.cache_info()
            assert info["requests"] == 4
            assert info["result_hits"] + info["result_misses"] == 4

    def test_path_and_service_counters_balance(self):
        service = QueryService(sailors_database())
        service.register_view(self.VIEW_SQL, name="per_boat")
        reads = 0
        with serving(service) as (server, client):
            _s, _h, prepared = client.request("POST", "/prepare",
                                              {"text": COUNT_SQL})
            for round_ in range(4):
                for text in (COUNT_SQL, self.VIEW_SQL, FALLBACK_SQL):
                    assert self._raw(client, "/query",
                                     {"text": text})[0] == 200
                    reads += 1
                assert self._raw(
                    client, f"/execute/{prepared['handle']}")[0] == 200
                reads += 1
                if round_ == 1:
                    client.request("POST", "/write", {
                        "relation": "Boats",
                        "row": [177, "Skiff", "white"]})
            _s, _h, metrics = client.request("GET", "/metrics")
        assert (metrics["inline_hits"] + metrics["inline_declined"]
                + metrics["inline_busy"]) == reads
        assert metrics["inline_hits"] > 0 and metrics["inline_busy"] > 0
        assert metrics["requests"] == reads
        assert (metrics["result_hits"] + metrics["view_hits"]
                + metrics["result_misses"]) == metrics["requests"]

    def test_a_closed_loop_client_runs_on_one_thread(self):
        """Every miss of a client that waits for each reply runs on the
        lead thread, never spread over the default executor's threads."""
        service = QueryService(sailors_database())
        ran_on: list[str] = []
        answer = service.pipeline.answer

        def recording(*args, **kwargs):
            ran_on.append(threading.current_thread().name)
            return answer(*args, **kwargs)

        service.pipeline.answer = recording
        with serving(service) as (_server, client):
            for rating in range(12):
                text = f"SELECT S.sname FROM Sailors S WHERE S.rating > {rating}"
                assert self._raw(client, "/query", {"text": text})[0] == 200
        assert len(ran_on) == 12
        assert len(set(ran_on)) == 1 and ran_on[0].startswith("repro-lead")


class TestCollectorMetrics:
    def test_one_gc_hook_while_serving_and_its_counts_on_metrics(self):
        """``start`` installs one ``gc.callbacks`` hook, ``close`` removes
        it; ``/metrics`` reports passes per generation and time paused."""
        import gc

        hooks = len(gc.callbacks)
        with serving(QueryService(sailors_database())) as (server, client):
            assert len(gc.callbacks) == hooks + 1
            assert server.app._on_gc in gc.callbacks
            _s, _h, before = client.request("GET", "/metrics")
            gc.collect()
            gc.collect(0)
            _s, _h, after = client.request("GET", "/metrics")
        assert len(gc.callbacks) == hooks
        assert after["gc_collections_gen2"] >= before["gc_collections_gen2"] + 1
        assert after["gc_collections_gen0"] >= before["gc_collections_gen0"] + 1
        assert after["gc_pause_us"] > before["gc_pause_us"]
        for key in ("gc_collections_gen0", "gc_collections_gen1",
                    "gc_collections_gen2", "gc_pause_us"):
            assert type(after[key]) is int

    def test_kernel_path_counters_are_integers_under_exec(self):
        with serving(QueryService(sailors_database())) as (_server, client):
            _s, _h, metrics = client.request("GET", "/metrics")
        for key in ("probe_kernel", "probe_loop", "build_lowered",
                    "build_dict", "sel_converted", "sort_radix",
                    "sort_compare"):
            assert type(metrics[f"exec_{key}"]) is int


class TestPreparedHandles:
    def test_registry_is_bounded_and_an_evicted_handle_is_unknown(
            self, monkeypatch):
        monkeypatch.setattr(app_module, "MAX_PREPARED_HANDLES", 2)
        service = QueryService(sailors_database())
        with serving(service) as (_server, client):
            handles = []
            for age in (20, 30, 40):
                status, _h, prepared = client.request(
                    "POST", "/prepare",
                    {"text": f"SELECT S.sname FROM Sailors S "
                             f"WHERE S.age > {age}"})
                assert status == 200
                handles.append(prepared["handle"])
            status, _h, payload = client.request(
                "POST", f"/execute/{handles[0]}")
            assert status == 404
            assert payload["error"]["code"] == "unknown_handle"
            for handle in handles[1:]:
                status, _h, _p = client.request("POST", f"/execute/{handle}")
                assert status == 200
            _s, _h, metrics = client.request("GET", "/metrics")
            assert metrics["prepared_handles"] == 2


class _SlowStubService:
    """A ServiceAPI double whose query blocks until released."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.calls = 0

    def query(self, text, *, language=None):
        self.calls += 1
        assert self.release.wait(timeout=60), "stub never released"
        return QueryResult(columns=("n",), rows=((self.calls,),),
                           language="sql", fingerprint="stub", version=1,
                           warnings=(), relation=None)

    def try_hit(self, text, language=None):
        return None  # caches nothing: every read takes the executor path

    def identify(self, text, *, language=None):
        stub = self

        class Handle:
            def try_hit(self):
                return stub.try_hit(text, language)

            def query(self):
                return stub.query(text, language=language)

        return Handle()

    def answer(self, text, *, language=None, warnings=None):
        return self.query(text).relation

    def prepare(self, text, *, language=None):
        raise NotImplementedError("stub")

    def add_row(self, relation, row, *, validate=True):
        return 1

    def add_rows(self, relation, rows, *, validate=True):
        return 1

    def writing(self):
        raise NotImplementedError("stub")

    def register_view(self, text, *, language=None, name=None,
                      refresh="lazy"):
        raise NotImplementedError("stub")

    def unregister_view(self, view):
        raise NotImplementedError("stub")

    def view(self, name):
        raise NotImplementedError("stub")

    def views(self):
        return ()

    def stats_snapshot(self):
        return 1, {}

    def cache_info(self):
        return {}

    def execution_counts(self):
        return {}

    def close(self):
        pass


class TestAdmission:
    """Saturation sheds with 503 + Retry-After; metrics stay reachable."""

    def test_stub_satisfies_protocol(self):
        assert isinstance(_SlowStubService(), ServiceAPI)
        assert isinstance(QueryService(sailors_database()), ServiceAPI)

    def test_overloaded_503_with_retry_after(self):
        stub = _SlowStubService()
        with serving(stub, max_concurrent=1, max_queue_depth=0,
                     retry_after=0.25) as (server, shed_client):
            occupant = Client(server.port)
            result: dict = {}

            def occupy():
                result["response"] = occupant.request(
                    "POST", "/query", {"text": "block"})

            thread = threading.Thread(target=occupy)
            thread.start()
            # Wait until the slow request holds the only admission slot.
            deadline = time.monotonic() + 30
            while server.app.admission.active < 1:
                assert time.monotonic() < deadline, "occupant never admitted"
                time.sleep(0.005)

            status, headers, payload = shed_client.request(
                "POST", "/query", {"text": "shed me"})
            assert status == 503
            assert payload["error"]["code"] == "overloaded"
            assert float(headers["Retry-After"]) == 0.25
            assert payload["error"]["detail"]["max_concurrent"] == 1

            # The observability plane bypasses admission entirely.
            status, _h, metrics = shed_client.request("GET", "/metrics")
            assert status == 200
            assert metrics["admission_shed"] >= 1
            assert metrics["admission_active"] == 1

            stub.release.set()
            thread.join(timeout=60)
            occupant.close()
            assert result["response"][0] == 200

    def test_admitted_after_release(self):
        stub = _SlowStubService()
        stub.release.set()  # never block: every request admits immediately
        with serving(stub, max_concurrent=1, max_queue_depth=0) as (_s, client):
            for _ in range(5):
                status, _h, _p = client.request("POST", "/query",
                                                {"text": "q"})
                assert status == 200


class _RecordingWrites:
    """A write sink standing in for a service: records each ``add_rows``
    call's row count, taking ``delay`` seconds per call."""

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.calls: list[int] = []
        self.calls_started = 0
        self._lock = threading.Lock()

    def add_rows(self, relation: str, rows: list) -> int:
        with self._lock:
            self.calls_started += 1
        time.sleep(self.delay)
        with self._lock:
            self.calls.append(len(rows))
            return len(self.calls)


class TestWriteBatching:
    """Concurrent writes share flushes — fewer version bumps than writes."""

    def test_queued_writes_share_one_flush(self):
        # Deterministic unit-level check of the ≥5x property: writes queued
        # before the worker drains land in one add_rows call (one bump).
        service = QueryService(sailors_database())
        worker = WriteWorker(service, flush_interval=0)

        async def drive():
            submissions = [
                asyncio.ensure_future(
                    worker.submit("Sailors", [[900 + i, f"w{i}", 5, 30.0]]))
                for i in range(25)
            ]
            await asyncio.sleep(0)  # enqueue all before the worker starts
            worker.start()
            versions = await asyncio.gather(*submissions)
            await worker.close()
            return versions

        before = service.db.version
        versions = asyncio.run(drive())
        counts = worker.counts()
        assert counts["write_requests"] == 25
        assert counts["write_rows"] == 25
        bumps = service.db.version - before
        assert bumps == counts["write_batched_calls"]
        assert bumps * 5 <= counts["write_requests"], (
            f"{bumps} bumps for {counts['write_requests']} writes")
        assert len(set(versions)) == bumps

    def test_lone_writes_never_wait_the_window(self):
        """A window is a response to pressure: with nothing else queued,
        even a 5 s ``flush_interval`` costs a sequential writer nothing."""
        service = _RecordingWrites()
        worker = WriteWorker(service, flush_interval=5.0)

        async def drive():
            worker.start()
            started = time.perf_counter()
            for i in range(3):
                await worker.submit("t", [[i]])
            elapsed = time.perf_counter() - started
            await worker.close()
            return elapsed

        assert asyncio.run(drive()) < 1.0
        assert service.calls == [1, 1, 1]
        counts = worker.counts()
        assert counts["write_windows"] == 0 and counts["write_flushes"] == 3

    def test_a_burst_after_idle_flushes_one_write_alone_then_shares(self):
        """25 writes under a 5 s window, the first arriving at an idle
        worker: it is flushed alone and at once, the 24 that queue behind
        it share the next flush — and that flush waits no window either,
        the one before it being lone."""
        service = _RecordingWrites(delay=0.05)
        worker = WriteWorker(service, flush_interval=5.0)

        async def drive():
            worker.start()
            started = time.perf_counter()
            first = asyncio.ensure_future(worker.submit("t", [[0]]))
            while not service.calls_started:   # the lone flush is running
                await asyncio.sleep(0.001)
            await asyncio.gather(first, *(worker.submit("t", [[i]])
                                          for i in range(1, 25)))
            elapsed = time.perf_counter() - started
            await worker.close()
            return elapsed

        assert asyncio.run(drive()) < 1.0
        assert service.calls == [1, 24]
        assert worker.counts()["write_windows"] == 0

    def test_a_burst_arms_the_window_and_a_lone_write_disarms_it(self):
        """After idle the first write of a burst flushes alone; the writes
        that queue behind that flush share the next one, and from there each
        flush waits the window until one comes back alone."""
        service = _RecordingWrites(delay=0.05)
        worker = WriteWorker(service, flush_interval=0.05, max_batch=8)

        async def drive():
            worker.start()
            first = asyncio.ensure_future(worker.submit("t", [[0]]))
            while not service.calls_started:   # the lone flush is running
                await asyncio.sleep(0.001)
            rest = [asyncio.ensure_future(worker.submit("t", [[i]]))
                    for i in range(1, 25)]
            await asyncio.gather(first, *rest)
            burst = worker.counts()["write_windows"]
            await worker.submit("t", [[25]])   # armed: waits, flushes alone
            armed = worker.counts()["write_windows"]
            await worker.submit("t", [[26]])   # disarmed
            await worker.close()
            return burst, armed

        burst, armed = asyncio.run(drive())
        assert service.calls == [1, 8, 8, 8, 1, 1]
        assert (burst, armed) == (2, 3)
        assert worker.counts()["write_windows"] == 3

    def test_a_sequential_client_reports_no_windows(self):
        service = QueryService(sailors_database())
        with serving(service) as (_server, client):
            for i in range(3):
                status, _h, _p = client.request(
                    "POST", "/write", {"relation": "Sailors",
                                       "row": [700 + i, f"s{i}", 5, 30.0]})
                assert status == 200
            status, _h, metrics = client.request("GET", "/metrics")
        assert status == 200
        assert metrics["write_windows"] == 0
        assert metrics["write_flushes"] == 3

    def test_http_writes_batch_across_clients(self):
        service = QueryService(sailors_database())
        before = service.db.version
        n_threads, writes_each = 8, 4
        with serving(service, flush_interval=0.05) as (server, _client):
            barrier = threading.Barrier(n_threads)
            failures: list = []

            def writer(tid: int):
                client = Client(server.port)
                with closing(client):
                    barrier.wait()
                    for i in range(writes_each):
                        status, _h, payload = client.request(
                            "POST", "/write",
                            {"relation": "Sailors",
                             "row": [1000 + tid * 100 + i,
                                     f"c{tid}-{i}", 5, 30.0]})
                        if status != 200:
                            failures.append(payload)

            threads = [threading.Thread(target=writer, args=(t,))
                       for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not failures, failures
            counts = server.app.worker.counts()
        writes = n_threads * writes_each
        bumps = service.db.version - before
        assert counts["write_requests"] == writes
        assert counts["write_rows"] == writes
        assert bumps < writes, "HTTP writes never shared a version bump"
        assert len(service.db["Sailors"]) == 10 + writes

    def test_bad_row_fails_alone(self):
        service = QueryService(sailors_database())
        with serving(service, flush_interval=0.05) as (server, _client):
            barrier = threading.Barrier(3)
            results: dict[str, tuple] = {}

            def write(name: str, row):
                client = Client(server.port)
                with closing(client):
                    barrier.wait()
                    results[name] = client.request(
                        "POST", "/write", {"relation": "Sailors",
                                           "row": row})

            threads = [
                threading.Thread(target=write,
                                 args=("good1", [801, "ok1", 5, 30.0])),
                threading.Thread(target=write,
                                 args=("bad", [802, "broken"])),  # arity
                threading.Thread(target=write,
                                 args=("good2", [803, "ok2", 5, 30.0])),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert results["good1"][0] == 200
        assert results["good2"][0] == 200
        assert results["bad"][0] == 400
        assert results["bad"][2]["error"]["code"] == "invalid_request"
        names = {row[1] for row in service.db["Sailors"].rows()}
        assert {"ok1", "ok2"} <= names and "broken" not in names


class TestConcurrencyHammer:
    """Mixed readers/writers over real sockets: monotone, untorn answers."""

    N_READERS = 6
    N_WRITERS = 2
    REQUESTS = 12

    #: Hot texts, each sent twice in a row so inline hits race the write
    #: worker: a count the writers move (result cache), the same count per
    #: rating as a registered lazy view, and a relation nobody writes.
    VIEW_SQL = "SELECT S.rating, COUNT(*) AS n FROM Sailors S GROUP BY S.rating"
    BOATS_SQL = "SELECT COUNT(*) AS n FROM Boats B"

    def test_versions_and_counts_monotone_per_connection(self):
        service = QueryService(sailors_database())
        service.register_view(self.VIEW_SQL, name="per_rating")
        with serving(service, max_concurrent=16,
                     max_queue_depth=256) as (server, _client):
            barrier = threading.Barrier(self.N_READERS + self.N_WRITERS)
            errors: list = []

            def reader(tid: int):
                client = Client(server.port)
                with closing(client):
                    barrier.wait()
                    last_version = -1
                    last_count = {COUNT_SQL: -1, self.VIEW_SQL: -1,
                                  self.BOATS_SQL: -1}
                    for i in range(self.REQUESTS * 2 * len(last_count)):
                        text = list(last_count)[i // 2 % len(last_count)]
                        status, _h, payload = client.request(
                            "POST", "/query", {"text": text})
                        if status != 200:
                            errors.append((tid, payload))
                            return
                        version = payload["version"]
                        count = sum(row[-1] for row in payload["rows"])
                        # Writes only append: each later response on this
                        # connection must observe a version and a count at
                        # least as new as the one before (no stale or torn
                        # answers slip through the result cache, a view, or
                        # the bytes memoized beside either).
                        if version < last_version or count < last_count[text]:
                            errors.append(
                                (tid, "regression", text, last_version,
                                 version, last_count[text], count))
                            return
                        last_version, last_count[text] = version, count

            def writer(tid: int):
                client = Client(server.port)
                with closing(client):
                    barrier.wait()
                    for i in range(self.REQUESTS):
                        status, _h, payload = client.request(
                            "POST", "/write",
                            {"relation": "Sailors",
                             "row": [5000 + tid * 100 + i,
                                     f"h{tid}-{i}", 6, 41.0]})
                        if status != 200:
                            errors.append((tid, payload))
                            return

            threads = [threading.Thread(target=reader, args=(t,))
                       for t in range(self.N_READERS)]
            threads += [threading.Thread(target=writer, args=(t,))
                        for t in range(self.N_WRITERS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not any(t.is_alive() for t in threads), "hammer hung"
            assert not errors, errors
            app = server.app
            reads = self.N_READERS * self.REQUESTS * 2 * 3
            assert (app.inline_hits + app.inline_busy
                    + app.inline_declined) == reads
            assert app.inline_hits > 0, "no inline hit raced the writers"

        total = 10 + self.N_WRITERS * self.REQUESTS
        assert sorted(service.answer(COUNT_SQL).rows()) == [(total,)]
        assert sum(n for _rating, n in
                   service.answer(self.VIEW_SQL).rows()) == total
        info = service.cache_info()
        assert (info["result_hits"] + info["view_hits"]
                + info["result_misses"]) == info["requests"]

    def test_keep_alive_across_many_requests(self):
        service = QueryService(sailors_database())
        with serving(service) as (_server, client):
            for i in range(20):
                status, _h, payload = client.request(
                    "POST", "/query", {"text": COUNT_SQL})
                assert status == 200
            status, _h, metrics = client.request("GET", "/metrics")
            assert metrics["requests_served"] >= 21

    def test_shutdown_with_open_keep_alive_connections(self):
        # Idle keep-alive connections sit parked in read_request; close()
        # must cancel them (promptly, without "Task was destroyed" noise)
        # rather than waiting for the clients to hang up.
        service = QueryService(sailors_database())
        server = ServerThread(service)
        server.start()
        clients = [Client(server.port) for _ in range(3)]
        try:
            for client in clients:
                status, _h, _p = client.request(
                    "POST", "/query", {"text": COUNT_SQL})
                assert status == 200
        finally:
            server.close()  # connections still open: must not hang
        assert server.app._connections == set()
        for client in clients:
            client.close()


class TestOverloadedError:
    def test_retry_after_in_payload_detail(self):
        error = OverloadedError("busy", retry_after=1.5)
        assert error.http_status == 503
        assert error.retry_after == 1.5
        payload = error.to_payload()
        assert payload["code"] == "overloaded"
