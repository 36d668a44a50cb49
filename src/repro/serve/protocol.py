"""Minimal HTTP/1.1 on raw asyncio streams — the only protocol we need.

The service deliberately hand-rolls its HTTP instead of adding a
framework dependency: four routes, one request per connection
(``Connection: close``), chunked transfer encoding for streamed NDJSON.
What the hand-rolling buys is *total control over timeouts*: every
``await`` that depends on the client (reading the request, draining the
response) is wrapped in :func:`asyncio.wait_for`, so a slow-loris client
costs one connection for ``client_timeout`` seconds, never a hung
handler.  The RS009 static rule enforces exactly that property over
this package.

Streamed responses end with a mandatory **terminator line** (``done``,
``interrupted``, or ``error``) *before* the zero-length chunk, so a
truncated stream is detectable at both the HTTP layer (missing final
chunk) and the application layer (missing terminator) — the chaos
harness asserts "no truncated-but-200 streams" on both.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any

from repro.serve.errors import BadRequestError

#: Hard caps keeping one hostile client from ballooning handler memory.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Request:
    """One parsed HTTP request (method, path, lower-cased headers, body)."""

    method: str
    target: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        if not self.body:
            raise BadRequestError("empty request body (expected JSON)")
        try:
            return json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}") from exc


async def read_request(reader: asyncio.StreamReader, timeout: float) -> Request | None:
    """Parse one request, bounding every client-paced read by ``timeout``.

    Returns ``None`` for a connection closed before a request line (a
    health checker probing the port).  Raises :class:`BadRequestError`
    for malformed requests and :class:`asyncio.TimeoutError` for clients
    that feed bytes slower than the budget (slow-loris).
    """
    line = await asyncio.wait_for(reader.readline(), timeout)
    if not line:
        return None
    if len(line) > MAX_HEADER_BYTES:
        raise BadRequestError("request line too long")
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError as exc:
        raise BadRequestError("malformed request line") from exc

    headers: dict[str, str] = {}
    total = len(line)
    while True:
        line = await asyncio.wait_for(reader.readline(), timeout)
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise BadRequestError("headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise BadRequestError("malformed header line")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise BadRequestError("malformed Content-Length") from exc
        if length < 0 or length > MAX_BODY_BYTES:
            raise BadRequestError(f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
        if length:
            body = await asyncio.wait_for(reader.readexactly(length), timeout)
    elif headers.get("transfer-encoding"):
        raise BadRequestError("chunked request bodies are not supported")
    return Request(method=method.upper(), target=target, headers=headers, body=body)


def _head(status: int, headers: list[tuple[str, str]]) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    lines.append("connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    timeout: float,
    content_type: str = "application/json",
    retry_after: float | None = None,
) -> None:
    """One complete (non-streamed) response."""
    headers = [
        ("content-type", content_type),
        ("content-length", str(len(body))),
    ]
    if retry_after is not None:
        headers.append(("retry-after", str(max(1, round(retry_after)))))
    writer.write(_head(status, headers) + body)
    await asyncio.wait_for(writer.drain(), timeout)


async def send_error(
    writer: asyncio.StreamWriter,
    status: int,
    code: str,
    message: str,
    timeout: float,
    retry_after: float | None = None,
) -> None:
    body = json.dumps({"error": code, "message": message}).encode("utf-8")
    await send_response(writer, status, body, timeout, retry_after=retry_after)


def frame_line(obj: Any) -> bytes:
    """One NDJSON line as its own HTTP chunk: compact ``json.dumps`` and a
    newline, behind its hex length header.  Pure, so executor threads
    frame a whole batch and the loop only writes the joined bytes."""
    data = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return b"%x\r\n%s\n\r\n" % (len(data) + 1, data)


class NdjsonStream:
    """A 200 chunked NDJSON response: framed lines in, terminator, done.

    Usage::

        stream = NdjsonStream(writer, timeout)
        await stream.start()
        await stream.send_framed(frame_line({"index": 0, "values": [...]}))
        await stream.finish({"done": True, "records": 1})

    ``send_framed`` takes any number of :func:`frame_line` chunks joined
    into one buffer and makes one ``write`` and one drain bounded by
    ``timeout``, so a whole batch costs one client-paced wait.  ``finish``
    writes the terminator line *and* the closing zero-length chunk; a
    client that sees the final chunk without a terminator line (or vice
    versa) is looking at a bug, not a flaky network.
    """

    def __init__(self, writer: asyncio.StreamWriter, timeout: float) -> None:
        self.writer = writer
        self.timeout = timeout
        self.started = False
        self.finished = False

    async def start(self) -> None:
        self.writer.write(
            _head(
                200,
                [
                    ("content-type", "application/x-ndjson"),
                    ("transfer-encoding", "chunked"),
                ],
            )
        )
        await asyncio.wait_for(self.writer.drain(), self.timeout)
        self.started = True

    async def send_framed(self, data: bytes) -> None:
        if not data:
            return
        self.writer.write(data)
        await asyncio.wait_for(self.writer.drain(), self.timeout)

    async def finish(self, terminator: dict) -> None:
        if self.finished:
            return
        # Claim the terminator *before* the first await: the drain
        # below is a scheduling point, and a second finish() entered
        # there (success path racing an error path) would otherwise
        # pass the guard too and emit a duplicate terminator + final
        # chunk.  Claiming early also makes a failed send at-most-once.
        self.finished = True
        self.writer.write(frame_line(terminator) + b"0\r\n\r\n")
        await asyncio.wait_for(self.writer.drain(), self.timeout)
