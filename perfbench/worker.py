"""The process under test for the library workloads.

``run.py`` writes the inputs and a ``plan.json`` into a work directory,
then starts this script in a fresh interpreter::

    python3 perfbench/worker.py WORKDIR [--setup-only] [--seconds S] [--trace]

Set-up is ``import repro``, reading the inputs, a cold compile of every
query and (records-scan) NDJSON framing; the worker prints ``ready`` when
it is done, so the parent can time fresh interpreter -> ready.  It then
times whole rounds over the fixed query sequence and prints one JSON
line.  Every output is checked against the CRC32 of the oracle-gated
output the parent computed; a mismatch exits with status 3.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import zlib
from pathlib import Path
from typing import Callable

import repro
from repro.engine import prepared as prepared_mod
from repro.engine.stats import GROUPS

from common import Calibrated, Rollup, SpanRecorder

#: Input bytes one ``SuspendableRun.step`` may consume (doc-resumable).
RESUME_BUDGET = 256 * 1024


def untraced() -> SpanRecorder:
    """A recorder whose spans cost a few microseconds and record nothing."""
    return SpanRecorder(repro.NOOP_TRACER)


def resumable_run(text: str, doc: bytes, rec: SpanRecorder, op: str = "") -> repro.SuspendableRun:
    """Step with a fixed byte budget, round-tripping the state through
    ``suspend().to_dict()`` -> JSON -> ``resume`` after every step."""
    run = repro.SuspendableRun.begin(text, doc)
    while True:
        with rec.span("suspend.step", op):
            done = run.step(RESUME_BUDGET)
        if done:
            return run
        with rec.span("suspend.capture", op) as span:
            state = json.dumps(run.suspend().to_dict())
            span.set(bytes=len(state))
        with rec.span("suspend.resume", op):
            run = repro.SuspendableRun.resume(doc, json.loads(state))


class Workload:
    """Set-up state plus the timed and traced operations of one workload."""

    def __init__(self, plan: dict, workdir: Path, rec: SpanRecorder) -> None:
        self.name = plan["workload"]
        self.queries = [tuple(q) for q in plan["queries"]]
        self.expected = plan["expected"]
        names = {name for _, name, _ in self.queries}
        self.data = {name: (workdir / f"{name}.bin").read_bytes() for name in names}
        self.compiled = {}
        for qid, _, text in self.queries:
            with rec.span("compile", f"setup:{qid}", kind="cold"):
                self.compiled[qid] = repro.compile(text)
        self.streams = {}
        if self.name == "records-scan":
            self.streams = {name: repro.RecordStream.from_jsonl(self.data[name]) for name in names}

    def ops(self) -> dict[str, Callable[[], bytes]]:
        """Query id -> the timed operation, returning the output bytes."""
        out = {}
        quiet = untraced()
        for qid, name, text in self.queries:
            data = self.data[name]
            if self.name == "doc-scan":
                out[qid] = lambda text=text, data=data: repro.compile(text).run(data).to_jsonl()
            elif self.name == "records-scan":
                prepared, stream = self.compiled[qid], self.streams[name]
                out[qid] = lambda p=prepared, s=stream: p.run_records(s).to_jsonl()
            else:
                out[qid] = lambda text=text, data=data: (
                    resumable_run(text, data, quiet).matches().to_jsonl()
                )
        return out

    def check(self, qid: str, output: bytes) -> None:
        if zlib.crc32(output) != self.expected[qid]:
            print(f"{qid}: output differs from the oracle-gated output", file=sys.stderr)
            raise SystemExit(3)

    def timed(self, seconds: float) -> dict:
        """Whole rounds over the query sequence until ``seconds`` pass:
        normalized seconds per query, the raw total and the median
        calibration."""
        ops = self.ops()
        clock = Calibrated()
        times: dict[str, list[float]] = {qid: [] for qid in ops}
        raw_total = 0.0
        deadline = time.perf_counter() + seconds
        while not times[self.queries[0][0]] or time.perf_counter() < deadline:
            for qid, op in ops.items():
                normalized, raw, output = clock.time(op)
                self.check(qid, output)
                times[qid].append(normalized)
                raw_total += raw
        return {"times": times, "raw_s": raw_total, "calib_ms": clock.median_ms(),
                "ops": sum(map(len, times.values()))}

    # -- traced mode ------------------------------------------------------

    def traced_op(self, rec: SpanRecorder, op: str, qid: str, name: str, text: str) -> bytes:
        data = self.data[name]
        if self.name == "doc-scan":
            with rec.span("query", op, bytes=len(data)):
                with rec.span("compile", op, kind="warm"):
                    prepared = repro.compile(text)
                with rec.span("index_build", op, bytes=len(data)):
                    indexed = repro.index(data).warm()
                with rec.span("scan", op, bytes=len(data)):
                    matches = prepared.run(indexed)
                with rec.span("emit", op, kind="jsonl") as span:
                    output = matches.to_jsonl()
                    span.set(bytes=len(output), matches=len(matches))
            with rec.span("emit", op, kind="values"):
                matches.values()
            return output
        with rec.span("compile", op, kind="warm"):
            prepared = repro.compile(text)
        if self.name == "doc-resumable":
            with rec.span("query", op, bytes=len(data)):
                run = resumable_run(text, data, rec, op)
                with rec.span("emit", op, kind="jsonl") as span:
                    matches = run.matches()
                    output = matches.to_jsonl()
                    span.set(bytes=len(output), matches=len(matches))
            with rec.span("emit", op, kind="values"):
                matches.values()
            return output
        with rec.span("frame", op, bytes=len(data)) as span:
            stream = repro.RecordStream.from_jsonl(data)
            span.set(records=len(stream))
        with rec.span("query", op, bytes=len(data)):
            with rec.span("run_records", op, bytes=len(data), records=len(stream)):
                matches = self.compiled[qid].run_records(stream)
            with rec.span("emit", op, kind="jsonl") as span:
                output = matches.to_jsonl()
                span.set(bytes=len(output), matches=len(matches))
        with rec.span("emit", op, kind="values"):
            matches.values()
        for i in range(len(stream)):
            record = stream.record(i)
            with rec.span("record", op, bytes=len(record)):
                with rec.span("index_build", op, bytes=len(record)):
                    indexed = repro.index(record).warm()
                with rec.span("scan", op, bytes=len(record)):
                    prepared.run(indexed)
        return output

    def traced(self, rec: SpanRecorder, seconds: float) -> dict[str, float]:
        """Whole rounds in which every query runs untraced and then traced,
        so host drift cancels out of the tracing-overhead figure."""
        ops = self.ops()
        untraced_s = 0.0
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            for qid, name, text in self.queries:
                start = time.perf_counter()
                output = ops[qid]()
                untraced_s += time.perf_counter() - start
                self.check(qid, output)
                self.check(qid, self.traced_op(rec, f"{qid}#{rounds}", qid, name, text))
            rounds += 1
        roll = Rollup(rec.records())
        out = self.layers(roll, rounds * len(self.queries))
        out["bench.tracing_overhead"] = roll.row("query")["total"] / untraced_s - 1
        return out

    def layers(self, roll: Rollup, n_ops: int) -> dict[str, float]:
        out = {
            "compile.cold_us": roll.per_span("compile:cold", 1e6),
            "compile.warm_us": roll.per_span("compile:warm", 1e6),
            "compile.cache_hit_ratio": cache_hit_ratio(),
            "index_build.ms": roll.row("index_build")["self"] / n_ops * 1e3,
            "index_build.mbps": roll.mbps("index_build"),
            "index_build.record_us": roll.per_span("index_build", 1e6),
            "scan.ms": roll.row("scan")["self"] / n_ops * 1e3,
            "scan.mbps": roll.mbps("scan"),
            "scan.record_us": roll.per_span("scan", 1e6),
            "emit.jsonl_ms": roll.per_span("emit:jsonl", 1e3),
            "emit.values_ms": roll.per_span("emit:values", 1e3),
            "emit.matches": roll.row("emit:jsonl")["matches"] / n_ops,
            "emit.bytes": roll.row("emit:jsonl")["bytes"] / n_ops,
            "frame.ms": roll.per_span("frame", 1e3),
            "frame.records": roll.per_span("frame", 1, "records"),
            "suspend.step_ms": roll.per_span("suspend.step", 1e3),
            "suspend.capture_ms": roll.per_span("suspend.capture", 1e3),
            "suspend.resume_ms": roll.per_span("suspend.resume", 1e3),
            "suspend.state_bytes": roll.per_span("suspend.capture", 1, "bytes"),
            "suspend.steps": roll.row("suspend.step")["count"] / n_ops,
        }
        if roll.row("run_records")["count"]:
            # Fixed per-record cost inside run_records: what is left after
            # the same records' stage-1 and stage-2 calls made one by one
            # (negative when those public calls cost more than the fused loop).
            left = sum(roll.row(k)["total"] * sign for k, sign in
                       (("run_records", 1), ("index_build", -1), ("scan", -1)))
            out["record.overhead_us"] = left / roll.row("record")["count"] * 1e6
        out.update(engine_counters([
            (text, self.data[name], bool(self.streams)) for _, name, text in self.queries
        ]))
        return out


def cache_hit_ratio() -> float:
    """Hit ratio of this process's compiled-query LRU so far."""
    stats = prepared_mod.QUERY_CACHE.stats()
    return stats["hits"] / (stats["hits"] + stats["misses"])


def engine_counters(runs: list[tuple[str, bytes, bool]]) -> dict[str, float]:
    """One counting pass over (query, input, is NDJSON) with a metrics
    registry: the engine's own ``index.*``, ``ff.*`` and ``scanner.*``
    counters, per query."""
    registry = repro.MetricsRegistry()
    for text, data, framed in runs:
        prepared = repro.compile(text, metrics=registry)
        if framed:
            prepared.run_records(repro.RecordStream.from_jsonl(data))
        else:
            prepared.run(data)
    total = registry.value("ff.total_bytes")
    skipped = {g: registry.value("ff.skipped_bytes", group=g) for g in GROUPS}
    out = {
        "index.chunks_built": registry.value("index.chunks_built") / len(runs),
        "index.words_classified": registry.value("index.words_classified") / len(runs),
        "scanner.calls": sum(c.value for c in registry.counters() if c.name == "scanner.calls") / len(runs),
        "ff.skip_ratio": sum(skipped.values()) / total,
    }
    for group, count in skipped.items():
        out[f"ff.skip_ratio.{group}"] = count / total
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    plan = json.loads((args.workdir / "plan.json").read_text())
    rec = SpanRecorder(repro.Tracer()) if args.trace else untraced()
    workload = Workload(plan, args.workdir, rec)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if not args.trace:
        result = workload.timed(args.seconds)
    else:
        result = {"layers": workload.traced(rec, args.seconds)}
        result["ops"] = sum(span["name"] == "query" for span in rec.records())
        rec.dump(plan["spans_path"])
    result["bytes"] = {qid: len(workload.data[name]) for qid, name, _ in workload.queries}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
