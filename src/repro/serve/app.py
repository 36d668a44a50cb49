"""The query service front door: admission, budgets, breakers, drain.

``QueryService`` wires the serve subsystem together over a stdlib
``asyncio`` server (no framework dependency):

- ``POST /query`` — streamed NDJSON over a registered corpus.  The
  request is gated in order by **drain** (503), **admission** (429 when
  the bounded queue sheds), **budget** (429 when the wall-clock budget
  expired while queued), and the per-corpus **circuit breaker** (503
  when open).  A request that survives the gates runs with a *fresh*
  relative deadline equal to its remaining budget
  (:meth:`QueryService.rebudget`) — queue time is paid by the client's
  budget, never silently absorbed, and retried/resumed work never
  inherits an expired absolute deadline.
- ``GET /healthz`` — liveness (always 200 while the process runs).
- ``GET /readyz`` — readiness (503 before start and while draining).
- ``GET /metrics`` — Prometheus text from the shared registry.
- ``GET /corpora`` — registered corpus names and record counts.

Engine work runs on a thread-pool executor batch by batch, and the
executor also encodes and frames each batch's NDJSON lines; between
batches the handler writes that batch as one buffer (one client-paced
drain bounded by ``client_timeout``) and re-checks deadline and drain
state — so a slow client, an expiring budget, or a SIGTERM all take
effect at the next batch boundary instead of hanging a worker.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Any, Callable

from repro.errors import DeadlineExceededError, ReproError
from repro.observe import MetricsRegistry, render_prometheus
from repro.resilience.guards import DEFAULT_MAX_DEPTH, Limits
from repro.resilience.recovery import RecordFailure, drive_records, evaluate_record
from repro.serve.admission import AdmissionQueue
from repro.serve.breaker import CircuitBreaker
from repro.serve.drain import DrainCoordinator
from repro.serve.errors import (
    BadRequestError,
    BudgetExpiredError,
    DrainingError,
    ServiceError,
)
from repro.serve.protocol import (
    NdjsonStream,
    frame_line,
    read_request,
    send_error,
    send_response,
)
from repro.serve.registry import Corpus, CorpusRegistry

_CHECKPOINT_ID = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")


@dataclass
class ServeConfig:
    """Every tuning knob the service exposes (see docs/serving.md)."""

    host: str = "127.0.0.1"
    port: int = 8765
    #: Admission: concurrent requests actually running / allowed to wait.
    max_active: int = 4
    max_queued: int = 16
    #: Wall-clock budgets (seconds): applied when the request names none,
    #: and the cap a request cannot exceed.
    default_budget: float = 30.0
    max_budget: float = 300.0
    #: Bound on every client-paced read/write (slow-loris defense).
    client_timeout: float = 10.0
    #: Seconds in-flight streams get to finish after SIGTERM.
    drain_grace: float = 5.0
    #: Records per executor hop (and per socket write, drain and
    #: deadline re-check).
    batch_size: int = 256
    #: Circuit breaker thresholds (consecutive failed requests).
    degrade_after: int = 3
    open_after: int = 6
    breaker_cooldown: float = 5.0
    #: Baseline engine guards every request runs under.
    max_depth: int | None = DEFAULT_MAX_DEPTH
    max_record_bytes: int | None = None
    #: Directory for pool-dispatch checkpoints (``"checkpoint"`` body
    #: field); None disables checkpointed dispatch.
    checkpoint_dir: str | None = None
    default_engine: str = "jsonski"
    #: Flush the final metrics document here on clean shutdown.
    metrics_path: str | None = None
    #: Honor the request's ``"inject_faults"`` field (arms the pool's
    #: crash/hang sentinels).  Chaos-harness only; never in production.
    allow_fault_injection: bool = False


class QueryService:
    def __init__(
        self,
        registry: CorpusRegistry,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry
        self.config = config or ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = clock
        self.admission = AdmissionQueue(
            self.config.max_active, self.config.max_queued, clock
        )
        self.drain = DrainCoordinator(self.config.drain_grace, clock)
        self.breakers: dict[str, CircuitBreaker] = {}
        self.server: asyncio.base_events.Server | None = None
        self.executor: ThreadPoolExecutor | None = None
        #: Running connection handlers; :meth:`stop` waits for them.
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.max_active, thread_name_prefix="repro-serve"
        )
        self.server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` in tests)."""
        return self.server.sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.drain.begin)

    async def run(self) -> int:
        """Serve until SIGTERM/SIGINT, drain gracefully, exit 0."""
        await self.start()
        self.install_signal_handlers()
        await self.drain.wait_begun()
        await self.drain_and_stop()
        return 0

    async def drain_and_stop(self) -> None:
        """Finish (or interrupt) in-flight streams, then shut down.

        The listener deliberately stays up through the grace window:
        late arrivals get an explicit 503 ``draining`` (and ``/readyz``
        503 flips the load balancer) instead of a connection refused.
        """
        grace_slack = self.config.drain_grace + self.config.client_timeout + 5.0
        if not await self.drain.wait_drained(grace_slack):
            self.drain.force_interrupt = True
            await self.drain.wait_drained(self.config.client_timeout)
        await self.stop()

    async def stop(self) -> None:
        if self.server is not None:
            self.server.close()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self.server.wait_closed(), self.config.client_timeout
                )
        # Server.wait_closed() does not wait for open connections before
        # Python 3.12.  A handler that has sent its terminator may still
        # hold the stream's tail in its transport's buffer, flushed by
        # the close in its ``finally``; ending the loop first would drop
        # those bytes (and cancel its executor futures below).
        if self._connections:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.wait(set(self._connections)), self.config.client_timeout
                )
        if self.executor is not None:
            self.executor.shutdown(wait=False, cancel_futures=True)
        # The write itself must not run on the loop: stop() races the
        # last in-flight handlers, and a slow disk here would stall
        # their goodbyes.  Own executor is already shut down, so borrow
        # the loop's default one.
        await asyncio.get_running_loop().run_in_executor(None, self._flush_metrics)

    def merged_metrics(self) -> MetricsRegistry:
        """Service counters plus the process-global ``storage.*`` ones
        (sidecar rejects, quarantines, lock waits, rebuilds) — what
        ``/metrics`` and the shutdown flush render."""
        from repro.storage import storage_metrics

        merged = MetricsRegistry()
        merged.merge(self.metrics)
        merged.merge(storage_metrics())
        return merged

    def _flush_metrics(self) -> None:
        if self.config.metrics_path:
            text = render_prometheus(self.merged_metrics())
            FsPath(self.config.metrics_path).write_text(text, encoding="utf-8")

    # -- plumbing -----------------------------------------------------

    def breaker(self, corpus: str) -> CircuitBreaker:
        existing = self.breakers.get(corpus)
        if existing is None:
            existing = CircuitBreaker(
                corpus,
                degrade_after=self.config.degrade_after,
                open_after=self.config.open_after,
                cooldown=self.config.breaker_cooldown,
                clock=self.clock,
            )
            self.breakers[corpus] = existing
        return existing

    def base_limits(self, budget: float) -> Limits:
        """Arrival-anchored limits: the absolute budget starts *now*."""
        return Limits(
            max_depth=self.config.max_depth,
            max_record_bytes=self.config.max_record_bytes,
        ).with_deadline(budget, self.clock)

    def rebudget(self, limits: Limits) -> Limits:
        """Convert what's left of an absolute budget into a fresh deadline.

        This is the deadline-propagation step: after queueing, the
        request's remaining wall-clock budget becomes the relative
        budget the engine (or a pool dispatch, or a resumed segment)
        runs under.  An exhausted budget sheds here — expired absolute
        deadlines must never reach a dispatcher.
        """
        remaining = limits.remaining()
        if remaining is None:
            return limits
        if remaining <= 0:
            raise BudgetExpiredError(
                "request budget expired before dispatch", retry_after=1.0
            )
        return limits.with_deadline(remaining, self.clock)

    # -- connection handling ------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        timeout = self.config.client_timeout
        task = asyncio.current_task()
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        try:
            try:
                request = await read_request(reader, timeout)
            except asyncio.TimeoutError:
                self.metrics.counter("serve.client_timeouts").add(1)
                await send_error(
                    writer, 400, "client_timeout", "request not received in time",
                    timeout,
                )
                return
            if request is None:
                return  # port probe: connection closed without a request
            await self._route(request, reader, writer)
        except BadRequestError as exc:
            with contextlib.suppress(OSError, asyncio.TimeoutError):
                await send_error(writer, exc.status, exc.code, str(exc), timeout)
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            # Client went away (or stopped reading) mid-conversation; the
            # stream protocol makes the truncation visible on their side.
            self.metrics.counter("serve.aborted_connections").add(1)
        except Exception as exc:  # noqa: BLE001 -- last-resort 500, recorded
            self.metrics.counter(
                "serve.internal_errors", error=type(exc).__name__
            ).add(1)
            with contextlib.suppress(OSError, asyncio.TimeoutError):
                await send_error(
                    writer, 500, "internal", f"{type(exc).__name__}: {exc}", timeout
                )
        finally:
            with contextlib.suppress(OSError):
                writer.close()
            with contextlib.suppress(OSError, asyncio.TimeoutError, ConnectionError):
                await asyncio.wait_for(writer.wait_closed(), timeout)

    async def _route(
        self,
        request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        timeout = self.config.client_timeout
        target = request.target.split("?", 1)[0]
        self.metrics.counter("serve.requests", route=target).add(1)
        if target == "/healthz":
            await send_response(writer, 200, b'{"status":"ok"}', timeout)
        elif target == "/readyz":
            if self.server is not None and not self.drain.draining:
                await send_response(writer, 200, b'{"status":"ready"}', timeout)
            else:
                await send_response(writer, 503, b'{"status":"draining"}', timeout)
        elif target == "/metrics":
            body = render_prometheus(self.merged_metrics()).encode("utf-8")
            await send_response(
                writer, 200, body, timeout, content_type="text/plain; version=0.0.4"
            )
        elif target == "/corpora":
            doc = {
                name: {"records": self.registry.get(name).records}
                for name in self.registry.names()
            }
            await send_response(writer, 200, json.dumps(doc).encode("utf-8"), timeout)
        elif target == "/query":
            if request.method != "POST":
                await send_error(writer, 405, "method_not_allowed", "POST only", timeout)
                return
            await self._handle_query(request, writer)
        else:
            await send_error(writer, 404, "not_found", f"no route {target!r}", timeout)

    # -- /query -------------------------------------------------------

    async def _handle_query(self, request, writer: asyncio.StreamWriter) -> None:
        timeout = self.config.client_timeout
        started = self.clock()
        try:
            spec = self._parse_query_spec(request)
        except ServiceError as exc:
            self.metrics.counter("serve.rejected", reason=exc.code).add(1)
            await send_error(
                writer, exc.status, exc.code, str(exc), timeout,
                retry_after=exc.retry_after,
            )
            return
        corpus, limits = spec["corpus"], spec["limits"]
        try:
            if self.drain.draining:
                raise DrainingError("service is draining", retry_after=5.0)
            # repro: ignore[RS009] -- acquire() bounds its own wait by the
            # request budget (asyncio.wait_for inside AdmissionQueue).
            await self.admission.acquire(budget=limits.remaining())
        except ServiceError as exc:
            self.metrics.counter("serve.shed", reason=exc.code).add(1)
            await send_error(
                writer, exc.status, exc.code, str(exc), timeout,
                retry_after=exc.retry_after,
            )
            return
        self.drain.track()
        breaker = self.breaker(corpus.name)
        outcome = None  # None = no verdict: shed pre-engine, or client vanished
        admitted = False
        try:
            run_limits = self.rebudget(limits)
            mode = breaker.admit()
            admitted = True
            outcome = await self._dispatch(spec, run_limits, mode, writer)
        except ServiceError as exc:
            self.metrics.counter("serve.shed", reason=exc.code).add(1)
            await send_error(
                writer, exc.status, exc.code, str(exc), timeout,
                retry_after=exc.retry_after,
            )
        finally:
            if outcome is None:
                if admitted:
                    breaker.abandon()
            else:
                if outcome == "failed":
                    breaker.record_failure()
                    self.metrics.counter("serve.request_errors").add(1)
                else:
                    breaker.record_success()
                    if outcome == "interrupted":
                        self.metrics.counter("serve.interrupted").add(1)
                    else:
                        self.metrics.counter("serve.served").add(1)
                self._record_breaker_state(breaker)
            self.drain.untrack()
            self.admission.release()
            self.metrics.histogram("serve.request_seconds").observe(
                max(0.0, self.clock() - started)
            )

    def _record_breaker_state(self, breaker: CircuitBreaker) -> None:
        for state, count in breaker.transitions.items():
            counter = self.metrics.counter(
                "serve.breaker_transitions", corpus=breaker.name, state=state
            )
            if counter.value < count:
                counter.add(count - counter.value)

    def _parse_query_spec(self, request) -> dict[str, Any]:
        body = request.json()
        if not isinstance(body, dict):
            raise BadRequestError("request body must be a JSON object")
        if "corpus" not in body or "query" not in body:
            raise BadRequestError('request needs "corpus" and "query" fields')
        corpus = self.registry.get(str(body["corpus"]))
        query = body["query"]
        if not isinstance(query, str):
            raise BadRequestError('"query" must be a string')
        self.registry.parse(query)  # syntax-check before spending a slot
        try:
            budget = float(body.get("budget", self.config.default_budget))
            offset = int(body.get("offset", 0))
            workers = int(body.get("workers", 0))
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"bad numeric field: {exc}") from exc
        if budget <= 0:
            raise BadRequestError('"budget" must be positive')
        budget = min(budget, self.config.max_budget)
        if offset < 0:
            raise BadRequestError('"offset" cannot be negative')
        checkpoint = body.get("checkpoint")
        resume = bool(body.get("resume", False))
        if resume and checkpoint is None:
            raise BadRequestError('"resume" requires "checkpoint"')
        if checkpoint is not None:
            if self.config.checkpoint_dir is None:
                raise BadRequestError("checkpointed dispatch is not enabled")
            if workers < 1:
                raise BadRequestError('"checkpoint" requires "workers" >= 1')
            if not _CHECKPOINT_ID.match(str(checkpoint)):
                raise BadRequestError('"checkpoint" must match [A-Za-z0-9_.-]{1,64}')
        engine = str(body.get("engine", self.config.default_engine))
        inject_faults = bool(body.get("inject_faults", False))
        if inject_faults and not self.config.allow_fault_injection:
            raise BadRequestError("fault injection is not enabled on this server")
        return {
            "corpus": corpus,
            "query": query,
            "engine": engine,
            "offset": offset,
            "workers": workers,
            "checkpoint": checkpoint,
            "resume": resume,
            "inject_faults": inject_faults,
            "limits": self.base_limits(budget),
        }

    # -- dispatch -----------------------------------------------------

    async def _dispatch(
        self, spec: dict, run_limits: Limits, mode: str, writer: asyncio.StreamWriter
    ) -> str:
        """Run the admitted request; returns "served"/"interrupted"/"failed"."""
        if spec["workers"] >= 1:
            return await self._dispatch_pool(spec, run_limits, mode, writer)
        return await self._dispatch_streaming(spec, run_limits, mode, writer)

    async def _dispatch_streaming(
        self, spec: dict, run_limits: Limits, mode: str, writer: asyncio.StreamWriter
    ) -> str:
        corpus: Corpus = spec["corpus"]
        loop = asyncio.get_running_loop()
        prepared = self.registry.compile(
            spec["query"], engine=spec["engine"], limits=run_limits
        )
        stream = NdjsonStream(writer, self.config.client_timeout)

        if corpus.format == "json":
            # Single document: run over the shared stage-1 index.
            try:
                # corpus.indexed() may run the stage-1 build plus the
                # sidecar's flock/mmap dance on a cold cache — disk I/O
                # that belongs on the executor, not the loop thread.
                framed, emitted, _, stop_at = await loop.run_in_executor(
                    self.executor,
                    lambda: _frame_pairs(
                        [(0, *evaluate_record(prepared, 0, corpus.indexed(prepared)))],
                        strict=True,
                    ),
                )
            except ReproError as exc:
                await stream.start()
                await stream.finish(
                    {"error": type(exc).__name__, "message": str(exc), "index": 0}
                )
                return self._classify_error(exc)
            await stream.start()
            await stream.send_framed(framed)
            if stop_at is not None:
                return await self._end_on_failure(stream, stop_at, emitted)
            await stream.finish(
                {"done": True, "records": 1, "emitted": emitted,
                 "skipped": 0, "mode": mode}
            )
            return "served"

        records = corpus.records_for(mode)
        n = len(records)
        i = min(spec["offset"], n)
        emitted = 0
        skipped = 0
        await stream.start()
        while i < n:
            if self.drain.interrupting:
                await stream.finish(
                    {"interrupted": True, "next_index": i,
                     "emitted": emitted, "skipped": skipped}
                )
                return "interrupted"
            remaining = run_limits.remaining()
            if remaining is not None and remaining <= 0:
                await stream.finish(
                    {"error": "DeadlineExceededError",
                     "message": "request budget exhausted mid-stream",
                     "index": i, "emitted": emitted}
                )
                return "served"  # the *client's* budget, not corpus health
            batch_end = min(n, i + self.config.batch_size)
            framed, batch_emitted, batch_skipped, stop_at = await loop.run_in_executor(
                self.executor, _frame_pairs,
                drive_records(prepared, records, i, batch_end, lenient=True), mode == "strict",
            )
            await stream.send_framed(framed)
            emitted += batch_emitted
            skipped += batch_skipped
            if stop_at is not None:
                return await self._end_on_failure(stream, stop_at, emitted)
            i = batch_end
        await stream.finish(
            {"done": True, "records": n, "emitted": emitted,
             "skipped": skipped, "mode": mode}
        )
        # A lenient pass that salvaged nothing is still a failing corpus.
        if skipped and emitted == 0 and skipped * 2 >= (n - min(spec["offset"], n)):
            return "failed"
        return "served"

    async def _dispatch_pool(
        self, spec: dict, run_limits: Limits, mode: str, writer: asyncio.StreamWriter
    ) -> str:
        """Dispatch onto the fault-tolerant process pool (jittered backoff).

        Used for heavy corpora (``"workers": N``) and for checkpointed,
        resumable service runs — the pool inherits the request deadline
        via ``limits=`` and its restart backoff is fully jittered.
        """
        from repro.checkpoint.store import CheckpointStore
        from repro.parallel.real_pool import run_records_pool_resilient

        corpus: Corpus = spec["corpus"]
        loop = asyncio.get_running_loop()
        records = corpus.records_for(mode)
        ck_path = None
        if spec["checkpoint"] is not None:
            ck_path = (
                FsPath(self.config.checkpoint_dir)
                / f"{corpus.name}-{spec['checkpoint']}.ckpt"
            )
        drain = self.drain
        batch = max(self.config.batch_size, 1)

        def run_pool():
            # Checkpoint-dir mkdir and store recovery touch the disk;
            # both happen here, on the executor thread, not the loop.
            store = None
            if ck_path is not None:
                ck_path.parent.mkdir(parents=True, exist_ok=True)
                store = CheckpointStore(ck_path)
            result = run_records_pool_resilient(
                spec["query"],
                records,
                n_workers=spec["workers"],
                limits=run_limits,
                metrics=self.metrics,
                inject_faults=spec["inject_faults"],
                checkpoint=store,
                checkpoint_every=max(self.config.batch_size, 1),
                resume=spec["resume"],
                stop=(lambda cursor: drain.interrupting) if ck_path is not None else None,
            )
            # Value lines, then skipped lines, framed here and sent
            # ``batch`` lines per write.
            lines = [
                frame_line({"index": idx, "values": values})
                for idx, values in enumerate(result.values)
                if values is not None
            ]
            lines += [
                frame_line({"index": failure.index, "skipped": failure.error})
                for failure in result.failures
            ]
            emitted = sum(len(values) for values in result.values if values is not None)
            chunks = [b"".join(lines[k:k + batch]) for k in range(0, len(lines), batch)]
            return result, chunks, emitted

        stream = NdjsonStream(writer, self.config.client_timeout)
        try:
            result, chunks, emitted = await loop.run_in_executor(self.executor, run_pool)
        except ReproError as exc:
            await stream.start()
            await stream.finish(
                {"error": type(exc).__name__, "message": str(exc), "index": 0}
            )
            return self._classify_error(exc)
        await stream.start()
        for chunk in chunks:
            await stream.send_framed(chunk)
        info = result.checkpoint
        if info is not None and info.interrupted:
            await stream.finish(
                {"interrupted": True, "next_index": "checkpointed",
                 "emitted": emitted, "skipped": len(result.failures),
                 "checkpointed": True}
            )
            return "interrupted"
        await stream.finish(
            {"done": True, "records": len(result.values), "emitted": emitted,
             "skipped": len(result.failures), "mode": mode,
             "worker_crashes": result.worker_crashes}
        )
        if result.failures and result.records_ok == 0:
            return "failed"
        return "served"

    @staticmethod
    def _classify_error(exc: ReproError) -> str:
        """Deadline errors are the client's budget; the rest vote failure."""
        return "served" if isinstance(exc, DeadlineExceededError) else "failed"

    @staticmethod
    async def _end_on_failure(
        stream: NdjsonStream, failure: RecordFailure, emitted: int
    ) -> str:
        """Close the stream with the error terminator of the record that
        ended it; returns the request's breaker verdict."""
        await stream.finish(
            {"error": failure.error, "message": failure.message,
             "index": failure.index, "emitted": emitted}
        )
        # An expired budget is the client's, not corpus health.
        return "served" if failure.error == "DeadlineExceededError" else "failed"


def _frame_pairs(results, strict: bool) -> tuple[bytes, int, int, RecordFailure | None]:
    """Executor-side: frame ``(index, values, failure)`` as NDJSON chunks (:func:`frame_line`).

    Returns ``(framed, emitted, skipped, stop_at)``.  ``stop_at`` is the
    first failure that ends the stream — a deadline, or any failure in
    strict mode — and ``framed`` holds only the lines before it; a
    lenient failure becomes a ``skipped`` line.  ``results`` is consumed
    no further, so a lazy :func:`drive_records` runs no record past it.
    Lines are encoded after the last record ran: encoding each one
    between two records' runs measured about 8% slower.
    """
    lines = []
    emitted = skipped = 0
    for j, values, failure in results:
        if failure is None:
            lines.append({"index": j, "values": values})
            emitted += len(values)
        elif strict or failure.error == "DeadlineExceededError":
            return b"".join(map(frame_line, lines)), emitted, skipped, failure
        else:
            skipped += 1
            lines.append({"index": j, "skipped": failure.error})
    return b"".join(map(frame_line, lines)), emitted, skipped, None
