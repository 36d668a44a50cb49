"""Self-tests of the benchmark's own arithmetic, inputs and scheduler.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from common import (
    Rollup, SpanRecorder, class_percentile, geomean, min_samples, percentile, self_times,
    throughput_mbps,
)
from run import library_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def test_generated_bytes_ignore_the_string_hash_seed():
    script = (
        "import zlib, inputs\n"
        "from repro.data.datasets import DATASETS\n"
        "for name in sorted(DATASETS):\n"
        "    for var in range(inputs.VARIANTS):\n"
        "        print(name, var, zlib.crc32(inputs.document(name, 20_000, var)),"
        " zlib.crc32(inputs.ndjson(name, 10_000, var)))\n"
    )
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=f"{SRC}{os.pathsep}{HERE}")
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 6 * 4


def test_percentile_needs_ten_samples_beyond_it():
    assert min_samples(0.9) == 100
    assert min_samples(0.5) == 20
    with pytest.raises(ValueError):
        percentile(range(99), 0.9)
    assert percentile(range(1, 101), 0.9) == 90
    assert percentile(range(1, 21), 0.5) == 10


def test_failed_requests_count_as_infinite_latency():
    values = [1.0] * 80 + [math.inf] * 20
    assert percentile(values, 0.5) == 1.0
    assert percentile(values, 0.9) == math.inf


def test_geomean_throughput_and_class_percentile():
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    assert throughput_mbps(2_000_000, 0.5) == pytest.approx(4.0)
    assert class_percentile([10.0, 20.0, 30.0], 0.5) == 20.0
    assert class_percentile([10.0, 20.0], 0.5) == pytest.approx(15.0)
    assert class_percentile([float(v) for v in range(1, 12)], 0.9) == pytest.approx(10.0)


def test_library_metrics_weight_time_and_queries():
    # A and B read 1 MB each; A takes 0.1 s and B 0.9 s, twice each.
    times = {"A": [0.1, 0.1], "B": [0.9, 0.9]}
    metrics = library_metrics(times, {"A": 1_000_000, "B": 1_000_000})
    assert metrics["throughput_mbps"] == pytest.approx(4.0 / 2.0)  # time-weighted
    assert metrics["query_ms_geomean"] == pytest.approx(300.0)  # query-weighted
    assert metrics["capacity_rps"] == pytest.approx(4 / 2.0)


def test_self_time_subtracts_direct_children():
    import repro

    ticks = iter([0.0, 1.0, 3.0, 4.0, 10.0, 10.0, 10.0, 11.0])
    rec = SpanRecorder(repro.Tracer(clock=lambda: next(ticks)))
    with rec.span("query", "q1", bytes=10):           # 0 .. 10
        with rec.span("scan", "q1", bytes=10):        # 1 .. 3
            pass
        with rec.span("emit", "q1", kind="jsonl"):    # 4 .. 10
            pass
    with rec.span("emit", "q1", kind="values"):       # 10 .. 11
        pass
    spans = rec.records()
    by_key = {(s["name"], s.get("kind")): s for s in spans}
    query = by_key[("query", None)]
    assert {s["op"] for s in spans} == {"q1"}
    assert by_key[("scan", None)]["parent"] == query["sid"]
    assert by_key[("emit", "values")]["parent"] is None
    assert self_times(spans)[query["sid"]] == pytest.approx(10 - 2 - 6)
    roll = Rollup(spans)
    assert roll.row("emit:jsonl")["self"] == pytest.approx(6)
    assert roll.mbps("scan") == pytest.approx(10 / 2 / 1e6)
    assert roll.row("missing")["count"] == 0


def test_open_loop_counts_from_due_time_and_reports_lateness():
    from serve_mix import Outcome, open_loop

    def send(cls):
        time.sleep(0.2)
        return Outcome(ok=True)

    plan = [(0.0, "a"), (0.01, "b"), (0.02, "c"), (0.03, "d")]
    samples = open_loop(plan, send, slots=2)
    assert [s.cls for s in samples] == ["a", "b", "c", "d"]
    for s in samples:
        assert s.latency == pytest.approx(s.done - s.due)
        assert s.latency >= s.done - s.sent
    assert samples[0].late < 0.05 and samples[1].late < 0.05
    # Both connections are busy until ~0.2 s, so c and d wait; the wait
    # is their lateness and part of their latency.
    assert samples[2].late > 0.15 and samples[3].late > 0.15
    assert samples[2].latency > 0.35


def test_request_mix_keeps_weights_in_every_block():
    from inputs import SERVE_CLASSES
    from serve_mix import exact_mix, schedule

    weights = {cls: weight for cls, _, _, weight in SERVE_CLASSES}
    block = sum(weights.values())
    mix = exact_mix(random.Random(3), block * 7)
    for start in range(0, len(mix), block):
        chunk = mix[start:start + block]
        assert {cls: chunk.count(cls) for cls in weights} == weights
    plan = schedule(random.Random(3), 20.0, 5)
    assert [offset for offset, _ in plan] == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2])
