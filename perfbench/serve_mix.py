"""serve-mix: ``python -m repro serve`` driven over HTTP by ``POST /query``.

One server subprocess holds a JSON-document corpus and two NDJSON feed
corpora.  A client with at most two connections first runs an open loop
on a seeded schedule at the fixed offered rate pinned in ``pinned.json``
(latency counted from each request's due time), then a closed loop of two
connections that measures capacity.  Every answered request must end in
a ``done`` terminator whose ``emitted`` count equals the oracle's.

Times are normalized to the reference host (see ``common.normalize``) by
the median of a calibration sampler process running alongside.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from pathlib import Path
from typing import Callable

from common import (
    Rollup, SpanRecorder, calib_ms, geomean, median, normalize, percentile, process_env,
    throughput_mbps,
)
from inputs import SERVE_CLASSES, SERVE_CORPORA

HERE = Path(__file__).resolve().parent
#: Client connections (the open loop's concurrency limit and the closed
#: loop's client count).
SLOTS = 2
#: Open-loop requests timed per run; p90 then has >= 10 samples beyond it.
MIN_OPEN_REQUESTS = 150
#: Share of the run's seconds given to the open loop; the closed loop
#: gets the rest, at least MIN_CLOSED_S, in windows of WINDOW_S.
OPEN_SHARE = 0.5
MIN_CLOSED_S = 2.0
WINDOW_S = 1.0
REQUEST_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 60.0
#: Seconds between calibration samples.
SAMPLE_PERIOD_S = 0.1


class ServeMixError(Exception):
    """serve-mix cannot report: a wrong answer, or a server that failed."""


@dataclass
class Outcome:
    ok: bool
    connect: float = 0.0
    ttfb: float = 0.0
    body: float = 0.0
    response_bytes: int = 0


@dataclass
class Sample:
    cls: str
    due: float
    sent: float
    done: float
    outcome: Outcome

    @property
    def latency(self) -> float:
        """Seconds from the due time; a failed request never completes."""
        return self.done - self.due if self.outcome.ok else math.inf

    @property
    def late(self) -> float:
        return self.sent - self.due


def post_query(port: int, body: bytes, expected: int) -> Outcome:
    """One ``POST /query``.  Non-200, a non-``done`` terminator or a
    timeout is a failure; a wrong ``emitted`` count is incorrect."""
    start = time.perf_counter()
    conn = HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.connect()
        connected = time.perf_counter()
        conn.request("POST", "/query", body=body, headers={"content-type": "application/json"})
        response = conn.getresponse()
        first = time.perf_counter()
        payload = response.read()
        end = time.perf_counter()
    except OSError:
        return Outcome(ok=False)
    finally:
        conn.close()
    timing = dict(connect=connected - start, ttfb=first - connected, body=end - first,
                  response_bytes=len(payload))
    if response.status != 200:
        return Outcome(ok=False, **timing)
    last = payload.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    terminator = json.loads(last) if last else {}
    if terminator.get("done") is not True:
        return Outcome(ok=False, **timing)
    if terminator.get("emitted") != expected:
        raise ServeMixError(f"emitted {terminator.get('emitted')} != oracle {expected}")
    return Outcome(ok=True, **timing)


def exact_mix(rng: random.Random, n: int) -> list[str]:
    """``n`` request classes made of blocks that hold each class as many
    times as its weight, each block shuffled: every stretch of the
    sequence keeps the weight proportions to within one block."""
    block = [cls for cls, _, _, weight in SERVE_CLASSES for _ in range(weight)]
    mix: list[str] = []
    while len(mix) < n:
        rng.shuffle(block)
        mix.extend(block)
    return mix[:n]


def schedule(rng: random.Random, rate: float, n: int) -> list[tuple[float, str]]:
    """Evenly spaced arrivals at ``rate``/s in a seeded class order:
    (offset seconds, request class)."""
    return [(i / rate, cls) for i, cls in enumerate(exact_mix(rng, n))]


def _run_threads(target: Callable[[int], None], n: int) -> None:
    """Run ``target(k)`` on ``n`` threads; re-raise the first failure."""
    failures: list[BaseException] = []

    def guarded(k: int) -> None:
        try:
            target(k)
        except BaseException as exc:  # re-raised below, in the caller's thread
            failures.append(exc)

    threads = [threading.Thread(target=guarded, args=(k,)) for k in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


def open_loop(plan: list[tuple[float, str]], send: Callable[[str], Outcome],
              slots: int = SLOTS) -> list[Sample]:
    """Send each request at its due time on the first free connection.

    With every connection busy a due request waits; that wait counts in
    its latency (measured from the due time) and in its lateness."""
    samples: list = [None] * len(plan)
    lock = threading.Lock()
    cursor = iter(range(len(plan)))
    origin = time.perf_counter()

    def slot(_: int) -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            offset, cls = plan[i]
            due = origin + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            outcome = send(cls)
            samples[i] = Sample(cls, due, sent, time.perf_counter(), outcome)

    _run_threads(slot, slots)
    return samples


@dataclass
class Window:
    """The outcomes of one closed-loop window and its start and end time."""

    outcomes: list[tuple[str, Outcome]]
    start: float
    end: float

    def ok(self) -> list[str]:
        return [cls for cls, outcome in self.outcomes if outcome.ok]


def closed_loop(next_class: Callable[[], str], send: Callable[[str], Outcome], seconds: float,
                slots: int = SLOTS) -> Window:
    """``slots`` clients, each sending its next request when the last one
    completes, for ``seconds``."""
    done: list[tuple[str, Outcome]] = []
    start = time.perf_counter()
    deadline = start + seconds

    def client(_: int) -> None:
        while time.perf_counter() < deadline:
            cls = next_class()
            done.append((cls, send(cls)))

    _run_threads(client, slots)
    return Window(done, start, time.perf_counter())


def windowed(next_class: Callable[[], str], senders: list[Callable[[str], Outcome]],
             seconds: float) -> list[list[Window]]:
    """Closed-loop windows of WINDOW_S for ``seconds``, taking turns over
    ``senders`` so host drift hits each alike.  Returns the windows of
    each sender."""
    out: list[list[Window]] = [[] for _ in senders]
    deadline = time.perf_counter() + seconds
    k = 0
    while k < len(senders) or time.perf_counter() < deadline:
        out[k % len(senders)].append(closed_loop(next_class, senders[k % len(senders)], WINDOW_S))
        k += 1
    return out


class HostSampler:
    """A subprocess timing the calibration loop every SAMPLE_PERIOD_S, so
    times measured in other processes can be normalized."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "common.py"), str(SAMPLE_PERIOD_S)],
            stdout=subprocess.PIPE, text=True,
        )
        self.samples: list[tuple[float, float]] = []
        self._reader = threading.Thread(target=self._read)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            stamp, ms = line.split()
            self.samples.append((float(stamp), float(ms)))

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=10)
        self._reader.join(timeout=10)


class Server:
    """One ``python -m repro serve`` subprocess over the corpus files."""

    def __init__(self, src: Path, workdir: Path) -> None:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        for corpus, (_, kind, _) in SERVE_CORPORA.items():
            suffix = ":json" if kind == "doc" else ""
            cmd += ["--corpus", f"{corpus}={workdir / corpus}.bin{suffix}"]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=process_env(src))
        self.port = 0
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving on "):
                self.port = int(line.rsplit(":", 1)[1])
                return
        self.stop()
        raise ServeMixError("server did not report its port")

    def get(self, path: str) -> bytes:
        conn = HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path)
            return conn.getresponse().read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise ServeMixError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def prometheus_values(text: str) -> dict[str, float]:
    """Metric name (labels dropped) -> summed sample value."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            name = series.split("{", 1)[0]
            out[name] = out.get(name, 0.0) + float(value)
    return out


class ServeMix:
    def __init__(self, src: Path, workdir: Path, corpora: dict[str, bytes], expected: dict[str, int],
                 rate: float, seed: int) -> None:
        self.src, self.workdir = src, workdir
        self.expected, self.rate, self.seed = expected, rate, seed
        self.bodies = {
            cls: json.dumps({"corpus": corpus, "query": query}).encode()
            for cls, corpus, query, _ in SERVE_CLASSES
        }
        self.input_bytes = {cls: len(corpora[corpus]) for cls, corpus, _, _ in SERVE_CLASSES}
        for corpus, data in corpora.items():
            (workdir / f"{corpus}.bin").write_bytes(data)

    def sender(self, port: int, rec: SpanRecorder | None = None) -> Callable[[str], Outcome]:
        """``send(cls)``; with a recorder, each request is one
        ``serve.request`` span carrying its connect/ttfb/body split."""
        counter = itertools.count()

        def send(cls: str) -> Outcome:
            if rec is None:
                return post_query(port, self.bodies[cls], self.expected[cls])
            with rec.span("serve.request", f"req{next(counter)}", cls=cls) as span:
                outcome = post_query(port, self.bodies[cls], self.expected[cls])
                span.set(connect=outcome.connect, ttfb=outcome.ttfb, body=outcome.body,
                         bytes=outcome.response_bytes, ok=outcome.ok)
            return outcome

        return send

    def boot(self) -> tuple[Server, float]:
        """Boot to ``serving on`` plus one warm-up request per corpus (the
        correctness gate): one cold start's normalized set-up seconds."""
        before = calib_ms()
        start = time.perf_counter()
        server = Server(self.src, self.workdir)
        try:
            for cls, *_ in SERVE_CLASSES:
                if not post_query(server.port, self.bodies[cls], self.expected[cls]).ok:
                    raise ServeMixError(f"warm-up request {cls} failed")
        except BaseException:
            server.stop()
            raise
        elapsed = time.perf_counter() - start
        return server, normalize(elapsed, (before + calib_ms()) / 2)

    def run(self, seconds: float, setup_samples: int, rec: SpanRecorder | None) -> dict:
        setup = []
        for _ in range(setup_samples - 1):
            server, elapsed = self.boot()
            server.stop()
            setup.append(elapsed)
        server, elapsed = self.boot()
        setup.append(elapsed)
        sampler = HostSampler()
        try:
            result = self.measure(server, seconds, rec)
            result["peak_rss_mb"] = server.peak_rss_mb()
            result["prometheus"] = prometheus_values(server.get("/metrics").decode())
        finally:
            server.stop()
            sampler.stop()
        result["sampler"] = sampler
        result["setup_s"] = median(setup)
        return result

    def measure(self, server: Server, seconds: float, rec: SpanRecorder | None) -> dict:
        """Open loop, then closed loop.  Traced, closed-loop windows take
        turns untraced (the overhead baseline) and traced."""
        rng = random.Random(self.seed)
        send = self.sender(server.port, rec)
        n_open = max(MIN_OPEN_REQUESTS, round(self.rate * seconds * OPEN_SHARE))
        result: dict = {"samples": open_loop(schedule(rng, self.rate, n_open), send)}
        next_class = itertools.cycle(exact_mix(rng, 1000)).__next__
        closed_s = max(MIN_CLOSED_S, seconds - n_open / self.rate)
        senders = [send] if rec is None else [self.sender(server.port), send]
        *baseline, result["closed"] = windowed(next_class, senders, closed_s)
        if baseline:
            result["baseline"] = baseline[0]
        return result


def end_to_end(result: dict, input_bytes: dict[str, int]) -> dict[str, float]:
    """The end-to-end metrics, every time normalized by the calibration
    sampled while it was measured."""
    calib = median(ms for _, ms in result["sampler"].samples)
    samples: list[Sample] = result["samples"]
    windows: list[Window] = result["closed"]
    latencies = [normalize(s.latency, calib) for s in samples]
    per_class: dict[str, list[float]] = {}
    for s, latency in zip(samples, latencies):
        per_class.setdefault(s.cls, []).append(latency)
    ok = [cls for w in windows for cls in w.ok()]
    closed_s = normalize(sum(w.end - w.start for w in windows), calib)
    attempted = len(samples) + sum(len(w.outcomes) for w in windows)
    failed = attempted - len(ok) - sum(s.outcome.ok for s in samples)
    return {
        "throughput_mbps": throughput_mbps(sum(input_bytes[cls] for cls in ok), closed_s),
        "query_ms_geomean": geomean(median(v) * 1e3 for v in per_class.values()),
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "capacity_rps": len(ok) / closed_s,
        "success_rate": 1 - failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "calib_ms": calib,
        "generator_late_p90_ms": percentile([s.late for s in samples], 0.9) * 1e3,
    }


def replay(corpora: dict[str, bytes], rec: SpanRecorder, reps: int) -> dict[str, float]:
    """Each request class through ``CorpusRegistry.compile`` + run +
    ``values()`` in this process: class -> mean seconds."""
    from repro.resilience import Limits
    from repro.serve.registry import CorpusRegistry

    registry = CorpusRegistry()
    for corpus, (_, kind, _) in SERVE_CORPORA.items():
        with rec.span("frame", f"frame:{corpus}", bytes=len(corpora[corpus])) as span:
            registered = registry.register(corpus, corpora[corpus], format="json" if kind == "doc" else "jsonl")
            span.set(records=registered.records)
    for cls, corpus_name, query, _ in SERVE_CLASSES:
        corpus = registry.get(corpus_name)
        with rec.span("compile", f"{cls}#cold", kind="cold"):
            prepared = registry.compile(query, engine="jsonski", limits=Limits())
        if corpus.format == "json":
            corpus.indexed(prepared)  # warm, as the server's warm-up left it
        for rep in range(reps):
            op = f"{cls}#{rep}"
            with rec.span("serve.replay", op, cls=cls, bytes=len(corpus.payload)):
                with rec.span("compile", op, kind="warm"):
                    prepared = registry.compile(query, engine="jsonski", limits=Limits())
                with rec.span("scan", op, bytes=len(corpus.payload)):
                    if corpus.format == "json":
                        runs = [prepared.run(corpus.indexed(prepared))]
                    else:
                        records = corpus.records_for("strict")
                        runs = [prepared.run(records.record(j)) for j in range(len(records))]
                with rec.span("emit", op, kind="values"):
                    for matches in runs:
                        matches.values()
    out: dict[str, list[float]] = {}
    for span in rec.records():
        if span["name"] == "serve.replay":
            out.setdefault(span["cls"], []).append(span["duration"])
    return {cls: sum(v) / len(v) for cls, v in out.items()}


def layers(result: dict, spans: list[dict], replayed: dict[str, float]) -> dict[str, float]:
    """serve-layer metrics from the traced run plus the in-process replay."""
    roll = Rollup(spans)
    requests = [s for s in spans if s["name"] == "serve.request" and s["ok"]]
    n = len(requests)
    engine_ms = sum(replayed[s["cls"]] for s in requests) / n * 1e3
    base_rate, traced_rate = (
        sum(len(w.ok()) for w in windows) / sum(w.end - w.start for w in windows)
        for windows in (result["baseline"], result["closed"])
    )
    prom = result["prometheus"]
    replays = roll.row("serve.replay")["count"]
    return {
        "compile.cold_us": roll.per_span("compile:cold", 1e6),
        "compile.warm_us": roll.per_span("compile:warm", 1e6),
        "scan.ms": roll.row("scan")["self"] / replays * 1e3,
        "scan.mbps": roll.mbps("scan"),
        "emit.values_ms": roll.row("emit:values")["self"] / replays * 1e3,
        "frame.ms": roll.per_span("frame", 1e3),
        "frame.records": roll.per_span("frame", 1, "records"),
        "serve.connect_ms": sum(s["connect"] for s in requests) / n * 1e3,
        "serve.ttfb_ms": sum(s["ttfb"] for s in requests) / n * 1e3,
        "serve.body_ms": sum(s["body"] for s in requests) / n * 1e3,
        "serve.response_bytes": sum(s["bytes"] for s in requests) / n,
        "serve.engine_ms": engine_ms,
        "serve.overhead_ms": sum(s["duration"] for s in requests) / n * 1e3 - engine_ms,
        "serve.request_seconds_mean_ms": prom["repro_serve_request_seconds_sum"]
        / prom["repro_serve_request_seconds_count"] * 1e3,
        "serve.shed": prom.get("repro_serve_shed", 0.0),
        "serve.served": prom.get("repro_serve_served", 0.0),
        "bench.tracing_overhead": base_rate / traced_rate - 1,
    }
