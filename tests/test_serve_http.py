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
import threading
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

        def per_record(prepared, records, start, stop):
            return [evaluate_record(prepared, j, records.record(j)) for j in range(start, stop)]

        monkeypatch.setattr(app, "_run_record_batch", per_record)
        reference = [self.respond(payload, q, mode, offset) for q in queries]
        assert batched == reference
        assert all(b"\r\n0\r\n\r\n" in body for body in batched)
