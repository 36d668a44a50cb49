"""End-to-end HTTP tests for the query service (real sockets, in-process).

Each test boots a :class:`QueryService` on an ephemeral port inside a
background event-loop thread and drives it with ``http.client`` — the
full wire path (request parsing, chunked NDJSON, terminator lines,
Retry-After headers) without subprocess overhead.  Process-level
lifecycle (SIGTERM drain, kill -9 resume) lives in
``test_serve_drain.py``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.serve import CorpusRegistry, QueryService, ServeConfig

pytestmark = pytest.mark.serve_smoke

RECORDS = b'{"a": 1, "b": "x"}\n{"a": 2, "b": "y"}\n{"c": 3}\n'
POISON = b'{"a": 1\n{"a": \n{broken\n'


class LiveService:
    """A QueryService running on its own event-loop thread."""

    def __init__(self, registry: CorpusRegistry, config: ServeConfig) -> None:
        self.registry = registry
        self.config = config
        self.service: QueryService | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.service = QueryService(self.registry, self.config)
        await self.service.start()
        self.port = self.service.port
        self._ready.set()
        # repro: ignore[RS009] -- test harness: woken by shutdown() below.
        await self._stop.wait()
        await self.service.stop()

    def __enter__(self) -> "LiveService":
        self._thread.start()
        assert self._ready.wait(timeout=10), "service failed to boot"
        return self

    def __exit__(self, *exc) -> None:
        self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)

    # -- cross-thread pokes -------------------------------------------

    def on_loop(self, fn) -> None:
        done = threading.Event()
        self.loop.call_soon_threadsafe(lambda: (fn(), done.set()))
        assert done.wait(timeout=5)

    # -- client helpers -----------------------------------------------

    def request(self, method: str, path: str, body: dict | None = None):
        conn = HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload)
            response = conn.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            conn.close()

    def query(self, body: dict):
        return self.request("POST", "/query", body)


def ndjson(raw: bytes) -> list[dict]:
    lines = [json.loads(line) for line in raw.splitlines() if line]
    assert lines, "empty NDJSON response"
    return lines


def make_service(**overrides) -> LiveService:
    registry = CorpusRegistry()
    registry.register("t", RECORDS)
    registry.register("poison", POISON)
    registry.register("doc", b'{"a": [10, 20]}', format="json")
    defaults = dict(port=0, client_timeout=10.0, batch_size=2)
    defaults.update(overrides)
    return LiveService(registry, ServeConfig(**defaults))


# ---------------------------------------------------------------------------


class TestEndpoints:
    def test_health_ready_metrics_corpora(self):
        with make_service() as live:
            status, _, body = live.request("GET", "/healthz")
            assert (status, json.loads(body)["status"]) == (200, "ok")
            status, _, body = live.request("GET", "/readyz")
            assert (status, json.loads(body)["status"]) == (200, "ready")
            status, headers, body = live.request("GET", "/metrics")
            assert status == 200
            assert "text/plain" in headers["content-type"]
            assert b"repro_serve_requests" in body
            status, _, body = live.request("GET", "/corpora")
            assert status == 200
            assert json.loads(body)["t"]["records"] == 3

    def test_unknown_route_404(self):
        with make_service() as live:
            status, _, body = live.request("GET", "/nope")
            assert status == 404
            assert json.loads(body)["error"] == "not_found"

    def test_query_requires_post(self):
        with make_service() as live:
            status, _, body = live.request("GET", "/query")
            assert status == 405


class TestQuery:
    def test_streamed_ndjson_with_terminator(self):
        with make_service() as live:
            status, headers, body = live.query({"corpus": "t", "query": "$.a"})
            assert status == 200
            assert headers["content-type"] == "application/x-ndjson"
            lines = ndjson(body)
            assert lines[:-1] == [
                {"index": 0, "values": [1]},
                {"index": 1, "values": [2]},
                {"index": 2, "values": []},
            ]
            assert lines[-1] == {
                "done": True, "records": 3, "emitted": 2,
                "skipped": 0, "mode": "strict",
            }

    def test_offset_resumes_partway(self):
        with make_service() as live:
            _, _, body = live.query({"corpus": "t", "query": "$.a", "offset": 2})
            lines = ndjson(body)
            assert lines[0]["index"] == 2
            assert lines[-1]["done"] is True

    def test_single_document_corpus(self):
        with make_service() as live:
            status, _, body = live.query({"corpus": "doc", "query": "$.a[*]"})
            assert status == 200
            lines = ndjson(body)
            assert lines[0] == {"index": 0, "values": [10, 20]}
            assert lines[-1]["done"] is True

    def test_pool_dispatch(self):
        with make_service() as live:
            status, _, body = live.query(
                {"corpus": "t", "query": "$.a", "workers": 1}
            )
            assert status == 200
            lines = ndjson(body)
            assert lines[-1]["done"] is True
            assert lines[-1]["records"] == 3

    def test_unknown_corpus_404(self):
        with make_service() as live:
            status, _, body = live.query({"corpus": "x", "query": "$.a"})
            assert status == 404
            assert json.loads(body)["error"] == "unknown_corpus"

    def test_bad_query_400(self):
        with make_service() as live:
            status, _, body = live.query({"corpus": "t", "query": "$..["})
            assert status == 400
            assert json.loads(body)["error"] == "bad_request"

    def test_non_json_body_400(self):
        with make_service() as live:
            conn = HTTPConnection("127.0.0.1", live.port, timeout=10)
            try:
                conn.request("POST", "/query", body=b"not json")
                response = conn.getresponse()
                assert response.status == 400
            finally:
                conn.close()

    def test_resume_without_checkpoint_400(self, tmp_path):
        # Rejected at parse time, before admission: a request the pool
        # runner would refuse must not count against the corpus breaker.
        with make_service(checkpoint_dir=str(tmp_path)) as live:
            status, _, body = live.query(
                {"corpus": "t", "query": "$.a", "workers": 1, "resume": True}
            )
            assert status == 400
            assert json.loads(body)["error"] == "bad_request"
            assert "t" not in live.service.breakers
            assert live.service.metrics.value("serve.rejected", reason="bad_request") == 1

    def test_fault_injection_disabled_by_default(self):
        with make_service() as live:
            status, _, body = live.query(
                {"corpus": "t", "query": "$.a", "inject_faults": True}
            )
            assert status == 400


class TestOverload:
    def test_queue_full_sheds_429_with_retry_after(self):
        with make_service(max_active=1, max_queued=0) as live:
            live.on_loop(lambda: setattr(live.service.admission, "active", 1))
            status, headers, body = live.query({"corpus": "t", "query": "$.a"})
            assert status == 429
            assert json.loads(body)["error"] == "queue_full"
            assert int(headers["retry-after"]) >= 1
            live.on_loop(live.service.admission.release)
            status, _, _ = live.query({"corpus": "t", "query": "$.a"})
            assert status == 200

    def test_budget_expires_while_queued(self):
        with make_service(max_active=1, max_queued=4) as live:
            live.on_loop(lambda: setattr(live.service.admission, "active", 1))
            status, headers, body = live.query(
                {"corpus": "t", "query": "$.a", "budget": 0.05}
            )
            assert status == 429
            assert json.loads(body)["error"] == "budget_expired"
            assert "retry-after" in headers
            # The shed request never reached an engine.
            live.on_loop(live.service.admission.release)
            _, _, metrics = live.request("GET", "/metrics")
            text = metrics.decode()
            assert 'reason="budget_expired"' in text

    def test_draining_rejects_new_queries(self):
        with make_service() as live:
            live.on_loop(live.service.drain.begin)
            status, _, body = live.query({"corpus": "t", "query": "$.a"})
            assert status == 503
            assert json.loads(body)["error"] == "draining"
            status, _, _ = live.request("GET", "/readyz")
            assert status == 503


class TestBreaker:
    def test_poison_corpus_degrades_then_opens(self):
        with make_service(degrade_after=1, open_after=2,
                          breaker_cooldown=30.0) as live:
            # First strict request fails -> DEGRADED.
            status, _, body = live.query({"corpus": "poison", "query": "$.a"})
            assert status == 200
            assert "error" in ndjson(body)[-1]
            # Second request runs lenient: skips every record, still fails
            # the corpus -> OPEN.
            status, _, body = live.query({"corpus": "poison", "query": "$.a"})
            assert status == 200
            lines = ndjson(body)
            assert lines[-1]["done"] is True
            assert lines[-1]["skipped"] == 3
            assert all(line.get("skipped") for line in lines[:-1])
            # Third request is rejected outright.
            status, headers, body = live.query({"corpus": "poison", "query": "$.a"})
            assert status == 503
            assert json.loads(body)["error"] == "breaker_open"
            assert "retry-after" in headers
            # A healthy corpus is unaffected (breakers are per-corpus).
            status, _, _ = live.query({"corpus": "t", "query": "$.a"})
            assert status == 200

    def test_breaker_counters_exported(self):
        with make_service(degrade_after=1, open_after=2,
                          breaker_cooldown=30.0) as live:
            for _ in range(3):
                live.query({"corpus": "poison", "query": "$.a"})
            _, _, metrics = live.request("GET", "/metrics")
            text = metrics.decode()
            assert 'state="degraded"' in text
            assert 'state="open"' in text


class TestDeadlineMidStream:
    def test_budget_exhaustion_terminates_stream_cleanly(self):
        # A budget far too small to stream the corpus: the response is
        # still a well-formed 200 with an error terminator, never a
        # truncated stream or a hang.
        registry = CorpusRegistry()
        registry.register("big", b'{"a": 1}\n' * 5000)
        config = ServeConfig(port=0, batch_size=50, client_timeout=10.0)
        with LiveService(registry, config) as live:
            status, _, body = live.query(
                {"corpus": "big", "query": "$.a", "budget": 0.0001}
            )
            lines = ndjson(body)
            if status == 200:
                last = lines[-1]
                assert last.get("error") == "DeadlineExceededError" or "done" in last
            else:
                assert status == 429  # shed before dispatch: also fine


class TestBatchedRecordsByteIdentity:
    """Batched stage 1 changes no wire byte: each NDJSON response equals
    the one built from a record-by-record ``evaluate_record`` loop."""

    CORPORA = {"t": RECORDS, "poison": POISON, "ones": b'{"a": 1}\n' * 1500}

    @staticmethod
    def respond(payload: bytes, query: str, mode: str, offset: int) -> bytes:
        class Writer:
            def __init__(self) -> None:
                self.data = bytearray()

            def write(self, data: bytes) -> None:
                self.data += data

            async def drain(self) -> None:
                pass

        registry = CorpusRegistry()
        corpus = registry.register("c", payload)
        service = QueryService(registry, ServeConfig(batch_size=2))
        spec = {"corpus": corpus, "query": query, "engine": "jsonski",
                "offset": offset, "workers": 0}
        writer = Writer()
        asyncio.run(service._dispatch_streaming(spec, service.base_limits(60.0), mode, writer))
        return bytes(writer.data)

    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_response_bytes(self, monkeypatch, name, mode, offset):
        from repro.resilience.recovery import evaluate_record
        from repro.serve import app

        payload = self.CORPORA[name]
        queries = ("$.a", "$.b", "$.c")
        batched = [self.respond(payload, q, mode, offset) for q in queries]

        def per_record(prepared, records, start, stop, lenient):
            return [(j, *evaluate_record(prepared, j, records.record(j)))
                    for j in range(start, stop)]

        monkeypatch.setattr(app, "drive_records", per_record)
        reference = [self.respond(payload, q, mode, offset) for q in queries]
        assert batched == reference
        assert all(b"\r\n0\r\n\r\n" in body for body in batched)


class RecordingWriter:
    """An in-memory ``StreamWriter`` that counts its drains."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.drains = 0

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        self.drains += 1


NDJSON_HEAD = (
    b"HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\n"
    b"transfer-encoding: chunked\r\nconnection: close\r\n\r\n"
)


def chunked_response(lines: list[dict]) -> bytes:
    """The wire bytes of a 200 NDJSON answer, built by hand: one HTTP
    chunk per compact ``json.dumps`` line, then the zero-length chunk."""
    body = b""
    for line in lines:
        data = json.dumps(line, separators=(",", ":")).encode("utf-8") + b"\n"
        body += f"{len(data):x}\r\n".encode() + data + b"\r\n"
    return NDJSON_HEAD + body + b"0\r\n\r\n"


def engine_answer(query: str, record: bytes) -> tuple[list | None, tuple | None]:
    """``(values, None)`` or ``(None, (error, message))`` for one record,
    straight from the engine."""
    import repro
    from repro.errors import ReproError

    try:
        return repro.compile(query).run(record).values(), None
    except ReproError as exc:
        return None, (type(exc).__name__, str(exc))
    except ValueError as exc:
        return None, ("UndecodableMatch", str(exc))


class TestWireBytes:
    """Response bytes against a reference the test frames itself, so a
    change to the server's framing cannot hide in both sides."""

    # Record 3 is malformed; record 5 needs a non-ASCII escape.
    MIXED = (
        b'{"a": 1}\n{"a": [2, "x"]}\n{"b": 4}\n{"a": \n'
        b'{"a": {"c": 5}}\n{"a": "\xc3\xa9"}\n{"a": null}\n'
    )

    @staticmethod
    def serve(payload: bytes, body: dict, mode: str, format: str = "jsonl",
              workers: int = 0) -> tuple[bytes, str, RecordingWriter]:
        registry = CorpusRegistry()
        corpus = registry.register("c", payload, format=format)
        service = QueryService(registry, ServeConfig(batch_size=2))
        spec = {"corpus": corpus, "engine": "jsonski", "offset": 0,
                "workers": workers, "checkpoint": None, "resume": False,
                "inject_faults": False, **body}
        writer = RecordingWriter()
        limits = service.base_limits(60.0)
        dispatch = service._dispatch_pool if workers else service._dispatch_streaming
        outcome = asyncio.run(dispatch(spec, limits, mode, writer))
        return bytes(writer.data), outcome, writer

    def expected_stream(self, query: str, mode: str, offset: int) -> tuple[bytes, str]:
        records = self.MIXED.splitlines()
        lines, emitted, skipped = [], 0, 0
        for j in range(offset, len(records)):
            values, failure = engine_answer(query, records[j])
            if failure is None:
                lines.append({"index": j, "values": values})
                emitted += len(values)
            elif mode == "strict":
                lines.append({"error": failure[0], "message": failure[1],
                              "index": j, "emitted": emitted})
                return chunked_response(lines), "failed"
            else:
                lines.append({"index": j, "skipped": failure[0]})
                skipped += 1
        lines.append({"done": True, "records": len(records), "emitted": emitted,
                      "skipped": skipped, "mode": mode})
        return chunked_response(lines), "served"

    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("query", ["$.a", "$.b", "$.a.c"])
    def test_streaming(self, query, mode, offset):
        body, outcome, _ = self.serve(
            self.MIXED, {"query": query, "offset": offset}, mode
        )
        assert (body, outcome) == self.expected_stream(query, mode, offset)

    def test_strict_failure_mid_batch(self):
        # batch_size=2 from offset 0: record 3 is the second of [2, 4).
        body, outcome, _ = self.serve(self.MIXED, {"query": "$.a"}, "strict")
        error, message = engine_answer("$.a", b'{"a": ')[1]
        assert outcome == "failed"
        assert body == chunked_response([
            {"index": 0, "values": [1]},
            {"index": 1, "values": [[2, "x"]]},
            {"index": 2, "values": []},
            {"error": error, "message": message, "index": 3, "emitted": 2},
        ])

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_deadline_failure_mid_batch(self, monkeypatch, mode):
        from repro.resilience import recovery
        from repro.resilience.recovery import RecordFailure, evaluate_record

        def expire_at_five(engine, index, record, materialize=True):
            if index == 5:
                return None, RecordFailure(
                    index, "error", "DeadlineExceededError", "budget spent"
                )
            return evaluate_record(engine, index, record, materialize)

        monkeypatch.setattr(recovery, "evaluate_record", expire_at_five)
        # Record 5 is the second of [4, 6); record 3 is ok in this corpus.
        payload = self.MIXED.replace(b'{"a": \n', b'{"a": 3}\n')
        body, outcome, _ = self.serve(payload, {"query": "$.a"}, mode)
        assert outcome == "served"
        assert body == chunked_response([
            {"index": 0, "values": [1]},
            {"index": 1, "values": [[2, "x"]]},
            {"index": 2, "values": []},
            {"index": 3, "values": [3]},
            {"index": 4, "values": [{"c": 5}]},
            {"error": "DeadlineExceededError", "message": "budget spent",
             "index": 5, "emitted": 4},
        ])

    def test_document(self):
        body, outcome, _ = self.serve(
            b'{"a": [10, "\xc3\xa9", {"b": null}]}', {"query": "$.a[*]"},
            "strict", format="json",
        )
        assert outcome == "served"
        assert body == chunked_response([
            {"index": 0, "values": [10, "é", {"b": None}]},
            {"done": True, "records": 1, "emitted": 3, "skipped": 0,
             "mode": "strict"},
        ])

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_pool(self, mode):
        body, outcome, writer = self.serve(
            self.MIXED, {"query": "$.a"}, mode, workers=1
        )
        records = self.MIXED.splitlines()
        error = engine_answer("$.a", records[3])[1][0]
        values = [{"index": j, "values": engine_answer("$.a", r)[0]}
                  for j, r in enumerate(records) if j != 3]
        assert outcome == "served"
        assert body == chunked_response(values + [
            {"index": 3, "skipped": error},
            {"done": True, "records": 7, "emitted": 5, "skipped": 1,
             "mode": mode, "worker_crashes": 0},
        ])
        # Head, 7 lines in writes of at most batch_size=2, terminator.
        assert writer.drains == 1 + 4 + 1


class TestDrainCount:
    """One write and one drain per executor batch, not per line."""

    def test_streaming_drains_once_per_batch(self):
        registry = CorpusRegistry()
        corpus = registry.register("c", b'{"a": 1}\n' * 1500)
        service = QueryService(registry, ServeConfig(batch_size=256))
        spec = {"corpus": corpus, "query": "$.a", "engine": "jsonski",
                "offset": 0, "workers": 0}
        writer = RecordingWriter()
        outcome = asyncio.run(
            service._dispatch_streaming(spec, service.base_limits(60.0), "strict", writer)
        )
        assert outcome == "served"
        assert bytes(writer.data).endswith(b'"mode":"strict"}\n\r\n0\r\n\r\n')
        # Head, one drain per batch, finish.
        assert writer.drains <= -(-1500 // 256) + 2


class TestUndecodableDocument:
    def test_undecodable_match_is_a_record_failure(self):
        # Stage 2 skips past ``tru`` to the match, but the matched slice
        # is not JSON: the same verdict a jsonl record gets, not a 500.
        registry = CorpusRegistry()
        registry.register("bad", b'{"a": tru, "b": 1}', format="json")
        with LiveService(registry, ServeConfig(port=0)) as live:
            status, _, body = live.query({"corpus": "bad", "query": "$.a"})
            assert status == 200
            lines = ndjson(body)
            assert len(lines) == 1
            assert lines[0]["error"] == "UndecodableMatch"
            assert (lines[0]["index"], lines[0]["emitted"]) == (0, 0)
            # The verdict is recorded after the last byte is sent.
            metrics = live.service.metrics
            deadline = time.monotonic() + 5
            while metrics.value("serve.request_errors") < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert metrics.value("serve.request_errors") == 1
            assert metrics.value("serve.internal_errors", error="JSONDecodeError") == 0
            assert live.service.breakers["bad"].consecutive_failures == 1


class TestStalledReader:
    def test_reader_that_stops_consuming_is_cut_off(self):
        # ~8 MB of answer: more than the socket buffers on both ends
        # hold (the client's receive buffer is shrunk to 4 KiB).
        registry = CorpusRegistry()
        registry.register("t", RECORDS)
        registry.register("wide", b'{"a": "%s"}\n' % (b"x" * 2048) * 4000)
        config = ServeConfig(port=0, client_timeout=0.5, max_active=1, max_queued=0)
        with LiveService(registry, config) as live:
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10)
            try:
                sock.connect(("127.0.0.1", live.port))
                payload = json.dumps({"corpus": "wide", "query": "$.a"}).encode()
                sock.sendall(
                    b"POST /query HTTP/1.1\r\ncontent-length: %d\r\n\r\n"
                    % len(payload) + payload
                )
                head = b""
                while b"\r\n\r\n" not in head:
                    head += sock.recv(1)
                assert head.startswith(b"HTTP/1.1 200")
                # Stop reading: the handler must give up on its own.
                started = time.monotonic()
                metrics = live.service.metrics
                while (metrics.value("serve.aborted_connections") < 1
                       and time.monotonic() - started < 15):
                    time.sleep(0.02)
                assert time.monotonic() - started < config.client_timeout + 5.0
                assert metrics.value("serve.aborted_connections") == 1
                # Its admission slot is free again (max_active=1, no queue).
                status, _, body = live.query({"corpus": "t", "query": "$.a"})
                assert status == 200
                assert ndjson(body)[-1]["done"] is True
            finally:
                sock.close()
