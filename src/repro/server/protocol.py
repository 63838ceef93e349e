"""HTTP/1.1 parsing and the JSON wire formats of the serving tier.

The server speaks a deliberately small slice of HTTP/1.1 — enough for
keep-alive JSON request/response traffic from any stock client
(``curl``, ``http.client``, browsers) without a third-party framework:

* requests: request line + headers + ``Content-Length``-framed body
  (no chunked uploads, no trailers, no pipelining guarantees beyond
  serial keep-alive);
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


async def read_request(reader: asyncio.StreamReader) -> "Request | None":
    """Parse one request off the stream; ``None`` on a clean client close.
    A head line past the reader's 64 KiB limit is a head too large."""
    try:
        line = await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    except ValueError:
        raise InvalidRequestError("request headers too large") from None
    if not line:
        return None  # client closed between requests
    try:
        method, path, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise InvalidRequestError("malformed HTTP request line") from None
    headers: dict[str, str] = {}
    total = len(line)
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise InvalidRequestError("request headers too large") from None
        total += len(line)
        if total > MAX_HEADER_BYTES or len(headers) > MAX_HEADERS:
            raise InvalidRequestError("request headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length")
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
        if n:
            try:
                body = await reader.readexactly(n)
            except asyncio.IncompleteReadError:
                return None  # client died mid-body
    return Request(method=method.upper(), path=path, headers=headers,
                   body=body)


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
    "query_request",
    "read_request",
    "render_response",
    "view_request",
    "write_request",
]
