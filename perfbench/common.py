"""Arithmetic, calibration and tracing helpers shared by every workload.

Nothing here imports ``repro``: the statistics, the calibration loop and
the span roll-up are unit-tested on their own (``test_perfbench.py``).
Run as a script, this module is the calibration sampler that serve-mix
starts next to the server::

    python3 perfbench/common.py PERIOD_SECONDS
"""

from __future__ import annotations

import itertools
import json
import math
import os
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

#: A percentile is reported only when at least this many samples lie
#: beyond it, so one outlier cannot decide it.
MIN_TAIL_SAMPLES = 10


def min_samples(fraction: float, tail: int = MIN_TAIL_SAMPLES) -> int:
    """Smallest sample count that leaves ``tail`` samples above the
    ``fraction`` percentile (100 for p90, 20 for p50)."""
    return math.ceil(tail / (1.0 - fraction) - 1e-9)


def percentile(values: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile; refuses too few samples (see
    :func:`min_samples`).  A failed operation enters as ``inf``."""
    ordered = sorted(values)
    if len(ordered) < min_samples(fraction):
        raise ValueError(
            f"p{fraction * 100:g} needs {min_samples(fraction)} samples, got {len(ordered)}"
        )
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def class_percentile(values: Iterable[float], fraction: float) -> float:
    """Percentile over a handful of per-class values (each already a
    median), interpolated between neighbours so that two classes trading
    places moves it smoothly; no tail-sample rule."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def throughput_mbps(total_bytes: int, total_seconds: float) -> float:
    """Bytes over summed wall time, in MB/s (10**6 bytes)."""
    if total_seconds <= 0:
        raise ValueError("no time measured")
    return total_bytes / total_seconds / 1e6


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


#: Iterations of the calibration loop (a few ms of pure Python).
CALIB_LOOP = 30_000
#: What the calibration loop takes on the reference host, in ms.  Times
#: are reported as if measured there: a shared host's speed drifts by
#: +-20% over tens of seconds, and scaling each measured time by the
#: calibration loop timed next to it removes most of that drift.
REFERENCE_CALIB_MS = 3.0


def calib_ms() -> float:
    """One timing of the fixed calibration loop, in ms; a slowed host reads higher."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOP):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def process_env(src: os.PathLike | str) -> dict[str, str]:
    """Environment of every process under test: the package from ``src``
    and a fixed string-hash seed, so two runs differ only by host noise."""
    return dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")


def normalize(seconds: float, calib: float) -> float:
    """A time measured while the calibration loop took ``calib`` ms, as
    it would read on the reference host."""
    return seconds * REFERENCE_CALIB_MS / calib


class Calibrated:
    """Times calls with the calibration loop run between them, so every
    call is normalized by the mean of the loops just before and after it."""

    def __init__(self) -> None:
        self.calibs = [calib_ms()]

    def time(self, fn: Callable[[], Any]) -> tuple[float, float, Any]:
        """Run ``fn``; returns (normalized seconds, raw seconds, result)."""
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        self.calibs.append(calib_ms())
        return normalize(raw, (self.calibs[-2] + self.calibs[-1]) / 2), raw, result

    def median_ms(self) -> float:
        return statistics.median(self.calibs)


class SpanRecorder:
    """Parent-linked spans on top of a ``repro.Tracer``-shaped tracer.

    Every span carries ``sid`` (its own id), ``parent`` (the enclosing
    span's id, ``None`` at the root) and ``op`` (the query or request it
    belongs to), so :func:`self_times` can subtract children.
    """

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self._ids = itertools.count(1)
        self._local = threading.local()  # one open-span stack per thread

    @contextmanager
    def span(self, name: str, op: str, **attrs: Any) -> Iterator[Any]:
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        try:
            with self.tracer.span(name, sid=sid, parent=parent, op=op, **attrs) as active:
                yield active
        finally:
            stack.pop()

    def records(self) -> list[dict]:
        return [span.as_dict() for span in self.tracer.spans]

    def dump(self, path: Any) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as sink:
            for record in self.records():
                sink.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span["sid"]: span["duration"] for span in spans}
    for span in spans:
        parent = span.get("parent")
        if parent in own:
            own[parent] -= span["duration"]
    return own


#: Span attributes :func:`rollup` sums.
SUMMED = ("bytes", "matches", "records")


def _empty_row() -> dict[str, float]:
    return {"count": 0, "total": 0.0, "self": 0.0, **dict.fromkeys(SUMMED, 0)}


def rollup(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span key (``name``, or ``name:kind`` when the span has a
    ``kind``): count, summed duration, summed self time (seconds) and the
    sums of the :data:`SUMMED` attributes."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        key = f"{span['name']}:{span['kind']}" if "kind" in span else span["name"]
        row = out.setdefault(key, _empty_row())
        row["count"] += 1
        row["total"] += span["duration"]
        row["self"] += selfs[span["sid"]]
        for attr in SUMMED:
            row[attr] += span.get(attr, 0)
    return out


class Rollup:
    """:func:`rollup` rows plus the arithmetic the layer metrics share.
    A key with no spans reads as an all-zero row."""

    def __init__(self, spans: list[dict]) -> None:
        self.rows = rollup(spans)

    def row(self, key: str) -> dict[str, float]:
        return self.rows.get(key) or _empty_row()

    def per_span(self, key: str, scale: float, field: str = "self") -> float:
        """Mean of ``field`` per span of ``key``, times ``scale``."""
        row = self.row(key)
        return row[field] / row["count"] * scale if row["count"] else 0.0

    def mbps(self, key: str) -> float:
        """Summed ``bytes`` over summed self time, in MB/s."""
        row = self.row(key)
        return row["bytes"] / row["self"] / 1e6 if row["self"] else 0.0


#: Every per-layer metric with its unit, grouped by module.  A traced run
#: reports all of them; a layer that is not on a workload's path reads 0.
LAYER_METRICS = {
    # jsonpath / query
    "compile.cold_us": "us", "compile.warm_us": "us", "compile.cache_hit_ratio": "ratio",
    # bits (stage 1)
    "index_build.ms": "ms", "index_build.mbps": "MB/s", "index_build.record_us": "us",
    "index.chunks_built": "count", "index.words_classified": "count",
    # engine (stage 2)
    "scan.ms": "ms", "scan.mbps": "MB/s", "scan.record_us": "us", "ff.skip_ratio": "ratio",
    **{f"ff.skip_ratio.G{g}": "ratio" for g in range(1, 6)},
    "scanner.calls": "count",
    # engine.output
    "emit.jsonl_ms": "ms", "emit.values_ms": "ms", "emit.matches": "count", "emit.bytes": "bytes",
    # stream
    "frame.ms": "ms", "frame.records": "count", "record.overhead_us": "us",
    # checkpoint
    "suspend.step_ms": "ms", "suspend.capture_ms": "ms", "suspend.resume_ms": "ms",
    "suspend.state_bytes": "bytes", "suspend.steps": "count",
    # serve
    "serve.connect_ms": "ms", "serve.ttfb_ms": "ms", "serve.body_ms": "ms",
    "serve.response_bytes": "bytes", "serve.engine_ms": "ms", "serve.overhead_ms": "ms",
    "serve.request_seconds_mean_ms": "ms", "serve.shed": "count", "serve.served": "count",
    # harness
    "bench.generator_late_p90_ms": "ms", "bench.tracing_overhead": "ratio", "host.calib_ms": "ms",
}


def layer_report(values: dict[str, float]) -> dict[str, dict]:
    """Every :data:`LAYER_METRICS` entry as ``{"value", "unit"}``."""
    unknown = set(values) - set(LAYER_METRICS)
    if unknown:
        raise KeyError(f"unlisted layer metrics: {sorted(unknown)}")
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in LAYER_METRICS.items()}


if __name__ == "__main__":
    # Calibration sampler (serve_mix.HostSampler): every PERIOD seconds,
    # print "<perf_counter> <calibration ms>" until terminated.
    import sys

    period = float(sys.argv[1])
    while True:
        stamp = time.perf_counter()
        print(f"{stamp:.6f} {calib_ms():.4f}", flush=True)
        time.sleep(period)
