"""HTTP/1.1 parsing and the JSON wire formats of the serving tier.

The server speaks a deliberately small slice of HTTP/1.1 — enough for
keep-alive JSON request/response traffic from any stock client
(``curl``, ``http.client``, browsers) without a third-party framework:

* requests: request line + CRLF-terminated headers +
  ``Content-Length``-framed body (no chunked uploads, no trailers);
  requests a client pipelines on one connection are answered one at a
  time, each reply written before the next request is parsed, so the
  replies come back in request order;
* responses: ``Content-Length``-framed JSON bodies, ``Connection:
  keep-alive`` unless the client asked to close.

Every body on the wire is JSON.  Errors are always::

    {"error": {"code": "...", "message": "...", "detail": {...}}}

with the HTTP status taken from the
:class:`~repro.core.service_api.ServiceError` hierarchy — no traceback
ever crosses the wire.  The request validators in this module raise
:class:`~repro.core.service_api.InvalidRequestError` so malformed bodies
surface as structured 400s like every other serving error.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.service_api import InvalidRequestError, ServiceError

#: Hard framing limits: a request breaching these is rejected, not queued.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024
MAX_HEADERS = 64

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Any:
        """The decoded JSON body; ``{}`` when empty."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidRequestError(
                f"request body is not valid JSON: {exc}") from exc


def parse_request(buffer: bytearray) -> "Request | None":
    """Take one complete request off the front of ``buffer``; ``None``,
    leaving ``buffer`` as it is, while it holds only part of one.

    A head past :data:`MAX_HEADER_BYTES` — complete or not — is rejected
    at once, so a client cannot make a connection buffer an unbounded
    head; a body is bounded by its checked ``Content-Length``."""
    framed = _head(buffer)
    if framed is None:
        return None
    request, start, length = framed
    stop = start + length
    if len(buffer) < stop:
        return None
    if length:
        request.body = bytes(buffer[start:stop])
    del buffer[:stop]
    return request


def _head(buffer: "bytes | bytearray") -> "tuple[Request, int, int] | None":
    """The request ``buffer``'s head frames (its body not read yet), the
    head's length and the body's; ``None`` while the head is incomplete."""
    end = buffer.find(b"\r\n\r\n")
    if end < 0 and len(buffer) <= MAX_HEADER_BYTES:
        return None
    if end < 0 or end + 4 > MAX_HEADER_BYTES:
        raise InvalidRequestError("request headers too large")
    request_line, *lines = buffer[:end].decode("latin-1").split("\r\n")
    try:
        method, path, _version = request_line.split(None, 2)
    except ValueError:
        raise InvalidRequestError("malformed HTTP request line") from None
    headers: dict[str, str] = {}
    for line in lines:
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if len(headers) > MAX_HEADERS:
        raise InvalidRequestError("request headers too large")
    length = headers.get("content-length")
    n = 0
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise InvalidRequestError(
                f"bad Content-Length {length!r}") from None
        if n < 0 or n > MAX_BODY_BYTES:
            raise InvalidRequestError(
                f"request body of {n} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
    return Request(method=method.upper(), path=path, headers=headers), \
        end + 4, n


async def read_request(reader: asyncio.StreamReader) -> "Request | None":
    """Read one request off a stream, framed as :func:`parse_request`
    frames it; ``None`` on a client close before the request is whole.
    A head past the reader's 64 KiB limit is a head too large."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
        framed = _head(head)
        assert framed is not None  # the head is whole
        request, _start, length = framed
        if length:
            request.body = await reader.readexactly(length)
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    except asyncio.LimitOverrunError:
        raise InvalidRequestError("request headers too large") from None
    return request


def render_response(status: int, payload: Any, *,
                    extra_headers: Sequence[tuple[str, str]] = (),
                    keep_alive: bool = True) -> bytes:
    """One complete HTTP/1.1 response (headers + JSON body) as bytes.

    A ``bytes`` payload is a JSON body that is already encoded (a memoized
    :attr:`~repro.core.service_api.QueryResult.encoded`) and is framed as is.
    """
    body = (payload if isinstance(payload, bytes)
            else json.dumps(payload).encode("utf-8"))
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def error_payload(error: ServiceError) -> dict[str, Any]:
    """The wire form of one structured error."""
    return {"error": error.to_payload()}


# ---------------------------------------------------------------------------
# Request-body validators (each raises InvalidRequestError on bad shape)
# ---------------------------------------------------------------------------

def _require(data: Any) -> dict:
    if not isinstance(data, dict):
        raise InvalidRequestError(
            f"request body must be a JSON object, got {type(data).__name__}")
    return data


def _string_field(data: dict, name: str, *, required: bool = True,
                  default: "str | None" = None) -> "str | None":
    value = data.get(name, default)
    if value is None:
        if required:
            raise InvalidRequestError(f"missing required field {name!r}",
                                      detail={"field": name})
        return None
    if not isinstance(value, str):
        raise InvalidRequestError(
            f"field {name!r} must be a string, got {type(value).__name__}",
            detail={"field": name})
    return value


def query_request(data: Any) -> tuple[str, "str | None"]:
    """``POST /query`` and ``POST /prepare``: ``{"text", "language"?}``."""
    data = _require(data)
    text = _string_field(data, "text")
    language = _string_field(data, "language", required=False)
    return text, language


def write_request(data: Any) -> tuple[str, list[list[Any]]]:
    """``POST /write``: ``{"relation", "rows": [[...], ...]}`` (or "row")."""
    data = _require(data)
    relation = _string_field(data, "relation")
    rows: Any
    if "row" in data:
        if "rows" in data:
            raise InvalidRequestError('pass either "row" or "rows", not both')
        rows = [data["row"]]
    else:
        rows = data.get("rows")
    if not isinstance(rows, list) or not rows \
            or not all(isinstance(r, list) for r in rows):
        raise InvalidRequestError(
            '"rows" must be a non-empty JSON array of row arrays')
    return relation, rows


def view_request(data: Any) -> tuple[str, "str | None", "str | None", str]:
    """``POST /views``: ``{"text", "language"?, "name"?, "refresh"?}``."""
    data = _require(data)
    text = _string_field(data, "text")
    language = _string_field(data, "language", required=False)
    name = _string_field(data, "name", required=False)
    refresh = _string_field(data, "refresh", required=False,
                            default="lazy")
    return text, language, name, refresh


__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "Request",
    "error_payload",
    "parse_request",
    "query_request",
    "read_request",
    "render_response",
    "view_request",
    "write_request",
]
