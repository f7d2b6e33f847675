"""Minimal, hardened HTTP/1.1 primitives for the campaign daemon.

The container deliberately carries no async HTTP framework, and the
daemon's API surface is tiny (JSON in, JSON out, one SSE stream), so
this module implements exactly what ``repro serve`` needs on top of
``asyncio`` streams:

* request parsing with hard limits (request line, header block, body
  size) — an abusive or broken client produces a structured 4xx, never
  an unbounded buffer or a stuck reader;
* one-shot ``Connection: close`` responses (keep-alive buys nothing for
  a submit/poll API and would complicate the drain path);
* a Server-Sent-Events writer for the per-campaign progress stream.

Every connection is fully isolated: a handler crash is caught by the
app layer and turned into a 500 for that one client.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional
from urllib.parse import parse_qsl, unquote, urlsplit

#: Hard limits an untrusted client cannot exceed.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024


class HttpError(Exception):
    """A request-level failure with a definite HTTP status.

    Raised by the parser (malformed/oversized requests) and by API
    handlers (validation failures, admission shedding); the app layer
    renders it as a structured JSON error response.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        payload: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.payload = payload
        self.headers = headers or {}

    def body(self) -> dict:
        out = {"error": self.message}
        if self.payload:
            out.update(self.payload)
        return out


_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""

    def json(self) -> Any:
        """The body parsed as JSON; raises :class:`HttpError` (400)."""
        if not self.body:
            raise HttpError(400, "request body must be JSON (got empty body)")
        try:
            return json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; None on clean EOF.

    Raises :class:`HttpError` for anything malformed or oversized so
    the caller can answer with a real status instead of dropping the
    connection silently.
    """
    try:
        line = await reader.readline()
    except (ConnectionError, OSError):
        return None
    if not line:
        return None
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    try:
        method, target, version = line.decode("latin-1").split()
    except ValueError:
        raise HttpError(400, "malformed request line")
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}")

    headers: Dict[str, str] = {}
    total = 0
    while True:
        line = await reader.readline()
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HttpError(400, "header block too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise HttpError(400, f"bad Content-Length {length!r}")
        if n < 0:
            raise HttpError(400, f"bad Content-Length {length!r}")
        if n > MAX_BODY_BYTES:
            raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(n)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            raise HttpError(400, "body shorter than Content-Length")
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")

    split = urlsplit(target)
    query = {k: v for k, v in parse_qsl(split.query)}
    return Request(
        method=method.upper(),
        path=unquote(split.path),
        query=query,
        headers=headers,
        body=body,
    )


@dataclass
class Response:
    """One response, always ``Connection: close``."""

    status: int = 200
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @classmethod
    def json(
        cls, payload: Any, *, status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> "Response":
        return cls(
            status=status,
            headers={"Content-Type": "application/json", **(headers or {})},
            body=(json.dumps(payload, sort_keys=True) + "\n").encode(),
        )

    def head(self) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        headers = dict(self.headers)
        headers.setdefault("Content-Length", str(len(self.body)))
        headers.setdefault("Connection", "close")
        for name, value in headers.items():
            if value != "":  # empty value = suppress the default header
                lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_response(
    writer: asyncio.StreamWriter, response: Response
) -> None:
    writer.write(response.head() + response.body)
    await writer.drain()


class SSEStream:
    """A Server-Sent-Events writer over an asyncio stream.

    The response head is written on construction via :meth:`start`;
    events then flow until the caller stops or the client goes away
    (surfacing as ``ConnectionError`` from :meth:`event`).
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer

    async def start(self) -> None:
        head = Response(
            status=200,
            headers={
                "Content-Type": "text/event-stream",
                "Cache-Control": "no-store",
                "Connection": "close",
                # Content-Length intentionally suppressed: the stream
                # ends when the connection closes.
                "Content-Length": "",
            },
        ).head()
        self._writer.write(head)
        await self._writer.drain()

    async def event(self, name: str, payload: Any) -> None:
        data = json.dumps(payload, sort_keys=True)
        self._writer.write(f"event: {name}\ndata: {data}\n\n".encode())
        await self._writer.drain()

    async def comment(self, text: str = "keep-alive") -> None:
        """A heartbeat comment line (ignored by SSE clients)."""
        self._writer.write(f": {text}\n\n".encode())
        await self._writer.drain()

