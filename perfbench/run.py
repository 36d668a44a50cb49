"""perfbench: the end-to-end benchmark of this repository.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload doc-scan --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that reports the per-layer metrics and
writes its spans to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
inputs differ from ``pinned.json`` or whose outputs differ from the
reference oracle prints no result and exits with status 1.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
import zlib
from pathlib import Path

from common import (
    calib_ms, class_percentile, geomean, layer_report, median, normalize, process_env, throughput_mbps,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("doc-scan", "records-scan", "doc-resumable", "serve-mix")
#: Cold starts per run; set-up time is their median.
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "throughput_mbps": "MB/s",
    "query_ms_geomean": "ms",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "capacity_rps": "1/s",
    "success_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The run cannot report: wrong inputs, wrong outputs or a crash."""


def gate(workload: str, queries: list, inputs: dict[str, bytes]) -> tuple[dict, dict]:
    """Oracle gate before timing: the engine's values must equal
    ``repro.evaluate_bytes``.  Returns each query's output CRC32 (the
    worker's outputs must reproduce it) and oracle match count."""
    import repro
    from inputs import is_ndjson, oracle

    crcs, counts = {}, {}
    for qid, name, text in queries:
        data = inputs[name]
        framed = is_ndjson(workload, name)
        want = oracle(text, data, framed)
        prepared = repro.compile(text)
        got = prepared.run_records(repro.RecordStream.from_jsonl(data)) if framed else prepared.run(data)
        if got.values() != want:
            raise BenchError(f"{qid}: engine values differ from the oracle's")
        crcs[qid] = zlib.crc32(got.to_jsonl())
        counts[qid] = len(want)
    return crcs, counts


def check_pinned(workload: str, var: int, inputs: dict[str, bytes], counts: dict[str, int]) -> None:
    from inputs import expected_fingerprints

    problems = expected_fingerprints(workload, var, inputs, counts)
    if problems:
        raise BenchError("inputs differ from pinned.json: " + "; ".join(problems))


def start_worker(workdir: Path, *flags: str) -> tuple[subprocess.Popen, float]:
    """Start a fresh worker; returns it and its normalized
    fresh-interpreter-to-ready seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(workdir), *flags]
    before = calib_ms()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=process_env(SRC))
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, normalize(elapsed, (before + calib_ms()) / 2)


def finish_worker(proc: subprocess.Popen) -> dict:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def library_metrics(times: dict[str, list[float]], nbytes: dict[str, int]) -> dict[str, float]:
    """End-to-end metrics of one library run from per-query call times.
    The latency percentiles are taken over the per-query medians."""
    total_s = sum(sum(t) for t in times.values())
    medians_ms = [median(t) * 1e3 for t in times.values()]
    calls = sum(len(t) for t in times.values())
    return {
        "throughput_mbps": throughput_mbps(sum(nbytes[q] * len(t) for q, t in times.items()), total_s),
        "query_ms_geomean": geomean(medians_ms),
        "latency_p50_ms": class_percentile(medians_ms, 0.5),
        "latency_p90_ms": class_percentile(medians_ms, 0.9),
        "capacity_rps": calls / total_s,
    }


def run_library(workload: str, var: int, seconds: float, trace: bool, workdir: Path,
                spans_path: Path) -> tuple[dict, int, int]:
    from inputs import workload_inputs, workload_queries

    inputs = workload_inputs(workload, var)
    queries = workload_queries(workload)
    crcs, counts = gate(workload, queries, inputs)
    check_pinned(workload, var, inputs, counts)
    for name, data in inputs.items():
        (workdir / f"{name}.bin").write_bytes(data)
    plan = {"workload": workload, "queries": queries, "expected": crcs, "spans_path": str(spans_path)}
    (workdir / "plan.json").write_text(json.dumps(plan))
    if trace:
        calib_start = calib_ms()
        proc, _ = start_worker(workdir, "--trace", "--seconds", str(seconds))
        result = finish_worker(proc)
        layers = {**result["layers"], "host.calib_ms": median([calib_start, calib_ms()])}
        return layers, result["ops"], 0
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, elapsed = start_worker(workdir, "--setup-only")
        finish_worker(proc)
        setup.append(elapsed)
    proc, elapsed = start_worker(workdir, "--seconds", str(seconds))
    setup.append(elapsed)
    result = finish_worker(proc)
    metrics = library_metrics(result["times"], result["bytes"])
    metrics.update(success_rate=1.0, setup_s=median(setup), peak_rss_mb=result["peak_rss_mb"])
    raw_mbps = throughput_mbps(sum(result["bytes"][q] * len(t) for q, t in result["times"].items()),
                               result["raw_s"])
    print(f"perfbench: raw throughput {raw_mbps:.3f} MB/s, host.calib_ms {result['calib_ms']:.3f}",
          file=sys.stderr)
    return metrics, result["ops"], 0


def run_serve(var: int, seed: int, seconds: float, trace: bool, workdir: Path,
              spans_path: Path) -> tuple[dict, int, int]:
    import repro
    import serve_mix
    from common import SpanRecorder
    from inputs import PINNED, SERVE_CLASSES, is_ndjson, oracle, workload_inputs
    from worker import cache_hit_ratio, engine_counters

    inputs = workload_inputs("serve-mix", var)
    counts = {
        cls: len(oracle(query, inputs[corpus], is_ndjson("serve-mix", corpus)))
        for cls, corpus, query, _ in SERVE_CLASSES
    }
    check_pinned("serve-mix", var, inputs, counts)
    rate = json.loads(PINNED.read_text())["serve_rate_rps"]
    mix = serve_mix.ServeMix(SRC, workdir, inputs, counts, rate, seed)
    rec = SpanRecorder(repro.Tracer()) if trace else None
    try:
        result = mix.run(seconds, 1 if trace else SETUP_SAMPLES, rec)
    except serve_mix.ServeMixError as exc:
        raise BenchError(f"serve-mix: {exc}") from None
    e2e = serve_mix.end_to_end(result, mix.input_bytes)
    attempted, failed = e2e.pop("attempted"), e2e.pop("failed")
    calib, late = e2e.pop("calib_ms"), e2e.pop("generator_late_p90_ms")
    if not trace:
        print(f"perfbench: generator late p90 {late:.2f} ms, host.calib_ms {calib:.3f}", file=sys.stderr)
        return {**e2e, "setup_s": result["setup_s"], "peak_rss_mb": result["peak_rss_mb"]}, attempted, failed
    per_class = serve_mix.replay(inputs, rec, reps=5)
    values = serve_mix.layers(result, rec.records(), per_class)
    values.update({"bench.generator_late_p90_ms": late, "host.calib_ms": calib,
                   "compile.cache_hit_ratio": cache_hit_ratio()})
    values.update(engine_counters([
        (query, inputs[corpus], is_ndjson("serve-mix", corpus)) for _, corpus, query, _ in SERVE_CLASSES
    ]))
    rec.dump(spans_path)
    return values, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: the repository's end-to-end benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repro'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # The workload modules import repro, so they load only from here on.
    sys.path.insert(0, str(SRC))
    from inputs import variant

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    trace = bool(args.trace)
    try:
        if args.workload == "serve-mix":
            values, attempted, failed = run_serve(variant(args.seed), args.seed, args.seconds, trace,
                                                  workdir, spans_path)
        else:
            values, attempted, failed = run_library(args.workload, variant(args.seed), args.seconds,
                                                    trace, workdir, spans_path)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        metrics = layer_report(values)
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    unbounded = [name for name, metric in metrics.items() if not math.isfinite(metric["value"])]
    if unbounded:
        # So many requests failed that a percentile is infinite.
        print(f"perfbench: {failed} of {attempted} operations failed; no finite {unbounded}",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
