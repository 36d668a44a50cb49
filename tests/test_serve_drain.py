"""Process-level lifecycle tests: SIGTERM drain and kill -9 resume.

These boot the real ``python -m repro serve`` subprocess and assert the
shutdown contract end to end:

- SIGTERM during a streamed NDJSON response lets the in-flight stream
  finish (``done`` terminator), answers new queries 503 ``draining``,
  and exits 0;
- SIGTERM with a tiny grace window interrupts the stream at a batch
  boundary with an ``interrupted`` terminator naming the resume index —
  still exits 0;
- kill -9 mid-way through a checkpointed pool dispatch leaves a
  checkpoint generation on disk from which a fresh server completes the
  query (``resume: true``).

One in-process test pins the step of that shutdown the subprocess tests
hit only by chance: the process must not end while an interrupted
stream's tail still waits in its connection's write buffer.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.serve import CorpusRegistry, QueryService, ServeConfig

pytestmark = pytest.mark.serve_smoke

SRC = Path(__file__).resolve().parent.parent / "src"


def boot(tmp_path: Path, corpus: bytes, *extra: str):
    """Start ``python -m repro serve`` and return (proc, port)."""
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_bytes(corpus)
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0", "--corpus", f"t={corpus_path}", *extra,
    ]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(f"server died at boot (rc={proc.poll()})")
        if line.startswith("serving on "):
            return proc, int(line.rsplit(":", 1)[1])
    raise AssertionError("server never reported its port")


def start_streaming_query(port: int, body: dict) -> socket.socket:
    """Send a /query and return the raw socket mid-response.

    The socket's receive buffer is shrunk to 4 KiB, so a response larger
    than the server's send buffer stalls until the caller reads it.
    """
    payload = json.dumps(body).encode()
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(30)
    sock.connect(("127.0.0.1", port))
    sock.sendall(
        b"POST /query HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n"
        + f"content-length: {len(payload)}\r\n\r\n".encode()
        + payload
    )
    return sock


def read_rest(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


def parse_ndjson_tail(raw: bytes) -> list[dict]:
    """Undo chunked framing loosely and parse the NDJSON lines.

    ``raw`` starts mid-stream (the first recv already consumed the
    headers and possibly a partial line), so unparseable fragments are
    skipped — the assertions only care about the trailing terminator.
    """
    lines = []
    for piece in raw.split(b"\r\n"):
        piece = piece.strip()
        if piece.startswith(b"{"):
            try:
                lines.append(json.loads(piece))
            except ValueError:
                pass  # partial first line cut by the initial recv
    return lines


def probe(port: int, method: str, path: str, body: dict | None = None):
    conn = HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# ~8.5 MB of ``$.a`` answer: twice a 4 MiB TCP send buffer (the usual
# Linux ceiling), so a client that stops reading keeps the stream in
# flight however fast the server frames it.
BIG_CORPUS = b'{"a": "%s"}\n' % (b"x" * 400) * 20000


class TestSigtermDrain:
    def test_inflight_stream_finishes_and_new_queries_get_503(self, tmp_path):
        proc, port = boot(
            tmp_path, BIG_CORPUS, "--drain-grace", "60",
            "--batch-size", "64", "--max-budget", "120",
            "--default-budget", "120",
        )
        try:
            sock = start_streaming_query(port, {"corpus": "t", "query": "$.a"})
            # Read a little, then stop: the server fills the socket
            # buffers and blocks mid-stream — guaranteed in flight.
            sock.recv(4096)
            time.sleep(0.2)
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.5)
            # New queries are rejected with an explicit 503 while the
            # listener drains (not a connection refused).
            status, body = probe(port, "POST", "/query",
                                 {"corpus": "t", "query": "$.a"})
            assert status == 503
            assert json.loads(body)["error"] == "draining"
            status, _ = probe(port, "GET", "/readyz")
            assert status == 503
            # The in-flight stream runs to completion under the grace.
            raw = read_rest(sock)
            sock.close()
            lines = parse_ndjson_tail(raw)
            assert lines[-1].get("done") is True
            assert lines[-1]["records"] == 20000
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_tiny_grace_interrupts_at_batch_boundary(self, tmp_path):
        proc, port = boot(
            tmp_path, BIG_CORPUS, "--drain-grace", "0.2",
            "--batch-size", "64", "--max-budget", "120",
            "--default-budget", "120",
        )
        try:
            sock = start_streaming_query(port, {"corpus": "t", "query": "$.a"})
            sock.recv(4096)
            time.sleep(0.2)
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.5)  # let the grace window lapse
            raw = read_rest(sock)
            sock.close()
            lines = parse_ndjson_tail(raw)
            terminator = lines[-1]
            # Interrupted mid-way with a resume cursor — never truncated.
            assert terminator.get("interrupted") is True
            assert isinstance(terminator["next_index"], int)
            assert 0 < terminator["next_index"] <= 20000
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()


class _SlowClient:
    """The writer of a connection whose client reads only once the
    server closes it: written bytes wait in user space, as in a
    transport over a full socket; ``drain()`` returns at once, as
    asyncio's does below its high-water mark; ``close()`` hands the
    buffer to the client a moment later, and ``wait_closed()`` returns
    once it has."""

    FLUSH_DELAY = 0.3

    def __init__(self, on_write) -> None:
        self.buffered = bytearray()
        self.received = bytearray()
        self._on_write = on_write
        self._closed = asyncio.Event()

    def write(self, data: bytes) -> None:
        self.buffered += data
        self._on_write(bytes(data))

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        asyncio.get_running_loop().call_later(self.FLUSH_DELAY, self._flush)

    def _flush(self) -> None:
        self.received += self.buffered
        self.buffered.clear()
        self._closed.set()

    async def wait_closed(self) -> None:
        await self._closed.wait()


class TestShutdownFlush:
    def test_interrupted_stream_reaches_the_client_before_exit(self):
        corpora = CorpusRegistry()
        corpora.register("t", b'{"a": 1}\n' * 1000)
        service = QueryService(corpora, ServeConfig(port=0, batch_size=64, drain_grace=0.0))
        body = json.dumps({"corpus": "t", "query": "$.a"}).encode()
        request = b"POST /query HTTP/1.1\r\nhost: t\r\ncontent-length: %d\r\n\r\n%s" % (len(body), body)

        def on_write(data: bytes) -> None:
            if b'"index":0,' in data:  # the first batch is out: SIGTERM
                service.drain.begin()

        client = _SlowClient(on_write)

        async def serve() -> None:
            # The shutdown sequence of ``python -m repro serve``; leaving
            # asyncio.run cancels what is still running, as the process
            # exit that follows it would.
            await service.start()
            reader = asyncio.StreamReader()
            reader.feed_data(request)
            reader.feed_eof()
            handler = asyncio.create_task(service._on_connection(reader, client))
            await service.drain.wait_begun()
            await service.drain_and_stop()
            assert handler.done()

        asyncio.run(serve())
        assert client.received.endswith(b"0\r\n\r\n")
        assert parse_ndjson_tail(bytes(client.received))[-1] == {
            "interrupted": True, "next_index": 64, "emitted": 64, "skipped": 0,
        }


class TestKillNineResume:
    def test_checkpointed_query_survives_kill_nine(self, tmp_path):
        corpus = b'{"a": 1}\n' * 1500
        ck_dir = tmp_path / "ckpt"
        args = (
            "--checkpoint-dir", str(ck_dir), "--batch-size", "64",
            "--max-budget", "300", "--default-budget", "300",
        )
        proc, port = boot(tmp_path, corpus, *args)
        killed_early = False
        try:
            sock = start_streaming_query(
                port,
                {"corpus": "t", "query": "$.a", "workers": 1,
                 "checkpoint": "job1"},
            )
            # Wait for the first checkpoint generation, then kill -9.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if ck_dir.exists() and any(ck_dir.iterdir()):
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("no checkpoint ever written")
            proc.kill()
            assert proc.wait(timeout=30) == -signal.SIGKILL
            killed_early = True
            try:
                read_rest(sock)  # connection dies with the server
            except OSError:
                pass
            sock.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert killed_early
        # A fresh server over the same corpus + checkpoint dir resumes
        # the interrupted query to completion.
        proc, port = boot(tmp_path, corpus, *args)
        try:
            status, body = probe(
                port, "POST", "/query",
                {"corpus": "t", "query": "$.a", "workers": 1,
                 "checkpoint": "job1", "resume": True},
            )
            assert status == 200
            lines = [json.loads(line) for line in body.splitlines() if line]
            assert lines[-1].get("done") is True
            assert lines[-1]["records"] == 1500
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
