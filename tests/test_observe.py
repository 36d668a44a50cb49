"""The observability layer: metrics registry, tracer, sinks, and the
unified engine API (``repro.compile`` / ``repro.ENGINES``).

The load-bearing property is at the bottom: turning any combination of
``collect_stats`` / ``metrics`` / ``tracer`` on must never change a
single match on fuzzed inputs, for every engine.
"""

from __future__ import annotations

import io
import json
import random

import pytest

import repro
from repro.engine.stats import GROUPS, FastForwardStats
from repro.errors import UnsupportedQueryError
from repro.observe import (
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    NOOP_TRACER,
    Tracer,
    metrics_document,
    render_prometheus,
)
from tests.conftest import ALL_ENGINES

INSTRUMENTED = tuple(n for n in ALL_ENGINES if repro.ENGINES[n].instrumented)

DOC = b'{"a": [{"b": 1, "pad": "xxxxxxxxxxxxxxxxxxxxxxxxxxxx"}, {"b": 2}], "z": "tail"}'


# ---------------------------------------------------------------------------
# MetricsRegistry


class TestMetrics:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        c1 = reg.counter("x", group="G1")
        c2 = reg.counter("x", group="G1")
        assert c1 is c2
        c1.add(3)
        assert reg.value("x", group="G1") == 3
        assert reg.value("x", group="G2") == 0  # absent -> 0, not KeyError

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("x", a="1", b="2").add(5)
        assert reg.value("x", b="2", a="1") == 5

    def test_merge_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").add(2)
        b.counter("n").add(3)
        b.counter("m", k="v").add(7)
        a.merge(b)
        assert a.value("n") == 5
        assert a.value("m", k="v") == 7

    def test_snapshot_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("runs").add(4)
        reg.histogram("t", bounds=(0.1, 1.0)).observe(0.5)
        clone = MetricsRegistry.from_dict(reg.as_dict())
        assert clone.value("runs") == 4
        assert clone.as_dict() == reg.as_dict()

    def test_merge_dict_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("runs").add(1)
        snapshot = reg.as_dict()
        reg.merge_dict(snapshot)
        reg.merge_dict(snapshot)
        assert reg.value("runs") == 3

    def test_histogram_observe_and_merge(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == pytest.approx(55.5)
        assert h.bucket_counts == [1, 1, 1]  # <=1, <=10, +Inf overflow
        other = MetricsRegistry()
        other.histogram("lat", bounds=(1.0, 10.0)).observe(0.2)
        reg.merge(other)
        assert reg.histogram("lat", bounds=(1.0, 10.0)).count == 4

    def test_histogram_bounds_mismatch_rejected(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("lat", bounds=(1.0,))
        b.histogram("lat", bounds=(2.0,))
        with pytest.raises(ValueError):
            a.merge(b)


# ---------------------------------------------------------------------------
# Tracer and sinks


class TestTracer:
    def test_span_and_event(self):
        tracer = Tracer()
        with tracer.span("scan", engine="jsonski") as span:
            span.set(matches=2)
        tracer.event("match_emit", start=3, end=9)
        scan, emit = tracer.spans
        assert scan.name == "scan" and scan.attrs == {"engine": "jsonski", "matches": 2}
        assert scan.duration >= 0
        assert emit.name == "match_emit" and emit.duration == 0
        assert [s.name for s in tracer.named("scan")] == ["scan"]

    def test_sink_receives_dicts(self):
        sink = MemorySink()
        tracer = Tracer(sink=sink)
        with tracer.span("compile"):
            pass
        assert sink.records[0]["name"] == "compile"
        assert "duration" in sink.records[0]

    def test_noop_tracer_is_structural(self):
        assert NOOP_TRACER.enabled is False
        span = NOOP_TRACER.span("scan", bytes=1)
        with span as s:
            s.set(anything=1)
        # one shared handle, nothing retained
        assert NOOP_TRACER.span("other") is span
        assert NOOP_TRACER.named("scan") == []

    def test_jsonl_sink_writes_lines(self):
        out = io.StringIO()
        sink = JsonlSink(out)
        tracer = Tracer(sink=sink)
        tracer.event("fastforward", group="G4", start=0, end=8)
        sink.close()
        (line,) = out.getvalue().splitlines()
        record = json.loads(line)
        assert record["name"] == "fastforward" and record["group"] == "G4"


class TestPrometheus:
    def test_text_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("ff.skipped_bytes", group="G1").add(10)
        reg.counter("ff.skipped_bytes", group="G4").add(30)
        h = reg.histogram("task_seconds", bounds=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = render_prometheus(reg)
        lines = text.splitlines()
        assert "# TYPE repro_ff_skipped_bytes counter" in lines
        assert 'repro_ff_skipped_bytes{group="G1"} 10' in lines
        assert "# TYPE repro_task_seconds histogram" in lines
        # buckets are cumulative, end at +Inf, and agree with _count
        assert 'repro_task_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_task_seconds_bucket{le="1"} 2' in lines
        assert 'repro_task_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_task_seconds_count 3" in lines
        assert any(line.startswith("repro_task_seconds_sum ") for line in lines)

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("q", text='say "hi"\\x').add(1)
        text = render_prometheus(reg)
        assert r'text="say \"hi\"\\x"' in text


# ---------------------------------------------------------------------------
# FastForwardStats as a registry view


class TestStatsView:
    def test_mapping_contract(self):
        stats = FastForwardStats()
        stats.chars["G1"] += 10
        stats.record("G4", 30)
        stats.total_length = 100
        assert stats.chars["G1"] == 10
        assert dict(stats.chars.items())["G4"] == 30
        assert stats.skipped == 40
        assert stats.ratio("G4") == pytest.approx(0.3)
        assert stats.overall_ratio == pytest.approx(0.4)
        assert stats.as_row()["Overall"] == pytest.approx(0.4)

    def test_counters_are_the_storage(self):
        reg = MetricsRegistry()
        stats = FastForwardStats(reg)
        stats.chars["G2"] += 7
        stats.total_length = 50
        assert reg.value("ff.skipped_bytes", group="G2") == 7
        assert reg.value("ff.total_bytes") == 50

    def test_merge(self):
        a, b = FastForwardStats(), FastForwardStats()
        a.record("G1", 5)
        a.total_length = 10
        b.record("G1", 5)
        b.record("G5", 2)
        b.total_length = 10
        a.merge(b)
        assert a.chars["G1"] == 10 and a.chars["G5"] == 2
        assert a.total_length == 20


# ---------------------------------------------------------------------------
# Unified engine API (repro.compile / repro.ENGINES)


class TestEngineRegistry:
    def test_compile_every_engine(self):
        for name in ALL_ENGINES + ("stdlib",):
            engine = repro.compile("$.a[*].b", engine=name)
            assert engine.run(DOC).values() == [1, 2], name

    def test_legacy_constructor_lookup_still_works(self):
        engine = repro.ENGINES["jsonski-word"]("$.a[*].b")
        assert engine.run(DOC).values() == [1, 2]

    def test_capability_flags(self):
        assert repro.ENGINES["jsonski"].streaming
        assert repro.ENGINES["jsonski"].early_terminating
        assert repro.ENGINES["pison"].preprocessing
        assert not repro.ENGINES["pison"].supports_descendant
        assert not repro.ENGINES["rds"].supports_filters
        assert repro.ENGINES["rapidjson"].supports_filters

    def test_uniform_unsupported_query_errors(self):
        cases = [
            ("pison", "$..a"),
            ("pison", "$.a[?(@.b > 1)]"),
            ("jpstream", "$.a[?(@.b > 1)]"),
            ("rds", "$.a[?(@.b > 1)]"),
        ]
        for name, query in cases:
            with pytest.raises(UnsupportedQueryError) as exc_info:
                repro.compile(query, engine=name)
            message = str(exc_info.value)
            assert f"engine {name!r} does not support" in message
            # constructing directly (old path) raises the same shape
            with pytest.raises(UnsupportedQueryError) as direct:
                repro.ENGINES[name](query)
            assert str(direct.value) == message

    def test_unknown_engine(self):
        with pytest.raises(KeyError):
            repro.compile("$.a", engine="nope")

    def test_unsupported_kwarg_is_typeerror(self):
        for name in ALL_ENGINES + ("stdlib",):
            with pytest.raises(TypeError):
                repro.compile("$.a", engine=name, bogus_option=1)

    def test_collect_stats_accepted_everywhere(self):
        for name in ALL_ENGINES + ("stdlib",):
            engine = repro.compile("$.a[*].b", engine=name, collect_stats=True)
            engine.run(DOC)
            if repro.ENGINES[name].instrumented:
                assert engine.last_stats is not None, name
                assert engine.last_stats.total_length == len(DOC)
            else:
                assert engine.last_stats is None, name

    def test_rds_stats_are_truthfully_zero_skip(self):
        engine = repro.compile("$.a[*].b", engine="rds", collect_stats=True)
        engine.run(DOC)
        assert engine.last_stats.total_length == len(DOC)
        assert engine.last_stats.skipped == 0


# ---------------------------------------------------------------------------
# Engine instrumentation


class TestEngineObservability:
    def test_jsonski_spans_and_counters(self):
        reg = MetricsRegistry()
        tracer = Tracer()
        engine = repro.compile("$.a[*].b", engine="jsonski", metrics=reg, tracer=tracer)
        matches = engine.run(DOC)
        names = [s.name for s in tracer.spans]
        assert names[0] == "compile"
        assert "index_build" in names and "scan" in names
        assert names.count("match_emit") == len(matches) == 2
        assert any(s.name == "fastforward" for s in tracer.spans)
        assert reg.value("engine.runs") == 1
        assert reg.value("engine.matches") == 2
        assert reg.value("index.chunks_built") == 1
        assert reg.value("index.words_classified") > 0
        assert sum(c.value for c in reg.counters() if c.name == "scanner.calls") > 0

    def test_metrics_accumulate_across_runs_but_last_stats_is_per_run(self):
        reg = MetricsRegistry()
        engine = repro.compile("$.a[*].b", engine="jsonski", metrics=reg)
        engine.run(DOC)
        first_total = engine.last_stats.total_length
        engine.run(DOC)
        assert engine.last_stats.total_length == first_total  # per-run view
        assert reg.value("ff.total_bytes") == 2 * first_total  # cumulative
        assert reg.value("engine.runs") == 2

    def test_registry_agrees_with_last_stats(self):
        reg = MetricsRegistry()
        engine = repro.compile("$.a[*].b", engine="jsonski", metrics=reg)
        engine.run(DOC)
        stats = engine.last_stats
        for g in GROUPS:
            assert reg.value("ff.skipped_bytes", group=g) == stats.chars[g]
        assert reg.value("ff.total_bytes") == stats.total_length
        doc = metrics_document(reg)
        assert doc["bytes_total"] == stats.total_length
        assert doc["ff_ratio"] == pytest.approx(stats.overall_ratio)

    def test_chunk_eviction_counter(self):
        reg = MetricsRegistry()
        big = json.dumps({"a": [{"b": i, "pad": "x" * 50} for i in range(64)]}).encode()
        engine = repro.compile("$.a[*].b", engine="jsonski", metrics=reg,
                               chunk_size=64, cache_chunks=2)
        engine.run(big)
        assert reg.value("index.chunks_built") > 2
        assert reg.value("index.chunks_evicted") > 0

    def test_early_termination_counter_and_consistency(self):
        # exists()/first() agree with run() on every engine...
        for name in ALL_ENGINES + ("stdlib",):
            engine = repro.compile("$.a[*].b", engine=name)
            assert engine.exists(DOC) is True
            assert engine.first(DOC).value() == 1
            assert engine.exists(b'{"z": 1}') is False
        # ...and the instrumented streamer provably stops early.
        reg = MetricsRegistry()
        engine = repro.compile("$.a[*].b", engine="jsonski", metrics=reg)
        assert engine.first(DOC).value() == 1
        assert reg.value("engine.early_stops") == 1
        assert reg.value("engine.bytes_consumed") < len(DOC)
        # a run() consumes to the end of the record
        reg2 = MetricsRegistry()
        engine2 = repro.compile("$.a[*].b", engine="jsonski", metrics=reg2)
        engine2.run(DOC)
        assert reg2.value("engine.bytes_consumed") == len(DOC)
        assert reg2.value("engine.early_stops") == 0

    def test_scanner_attach_is_idempotent(self):
        from repro.stream.buffer import StreamBuffer

        reg = MetricsRegistry()
        buffer = StreamBuffer(DOC)
        buffer.scanner.attach_metrics(reg)
        wrapped = buffer.scanner.find_next
        buffer.scanner.attach_metrics(reg)
        assert buffer.scanner.find_next is wrapped  # same registry: no rewrap
        from repro.bits.classify import CharClass

        buffer.scanner.find_next(CharClass.LBRACE, 0)
        assert reg.value("scanner.calls", op="find_next") == 1
        # a new registry replaces the wrappers instead of stacking them
        reg2 = MetricsRegistry()
        buffer.scanner.attach_metrics(reg2)
        buffer.scanner.find_next(CharClass.LBRACE, 0)
        assert reg.value("scanner.calls", op="find_next") == 1
        assert reg2.value("scanner.calls", op="find_next") == 1


# ---------------------------------------------------------------------------
# The differential guarantee: observability never changes results


def _fuzz_corpus(n: int = 12) -> list[tuple[bytes, str]]:
    from repro.data.synth import random_json, random_path

    rng = random.Random(20260806)
    corpus = []
    for _ in range(n):
        value = random_json(rng, max_depth=4)
        data = json.dumps(value, indent=rng.choice([None, None, 1])).encode()
        corpus.append((data, random_path(rng, allow_descendant=False)))
    return corpus


class TestObservabilityIsInert:
    def test_stats_and_tracing_never_change_matches(self):
        for data, query in _fuzz_corpus():
            for name in ALL_ENGINES:
                try:
                    plain = repro.compile(query, engine=name).run(data).values()
                except UnsupportedQueryError:
                    continue
                observed = repro.compile(query, engine=name, collect_stats=True)
                assert observed.run(data).values() == plain, (name, query)
                if repro.ENGINES[name].instrumented:
                    full = repro.compile(
                        query, engine=name,
                        metrics=MetricsRegistry(), tracer=Tracer(sink=MemorySink()),
                    )
                    assert full.run(data).values() == plain, (name, query)

    def test_multi_engine_observed(self):
        from repro.engine.multi import JsonSkiMulti

        queries = ["$.a[*].b", "$.z"]
        plain = [m.values() for m in JsonSkiMulti(queries).run(DOC)]
        reg = MetricsRegistry()
        observed = JsonSkiMulti(queries, metrics=reg, tracer=Tracer())
        assert [m.values() for m in observed.run(DOC)] == plain
        assert reg.value("engine.matches") == sum(len(v) for v in plain)


# ---------------------------------------------------------------------------
# Parallel metrics merging


class TestParallelMetrics:
    def test_simulated_parallel_merges_engine_counters(self):
        from repro.parallel import parallel_records_run
        from repro.stream.records import RecordStream

        stream = RecordStream.from_records([DOC] * 5)
        reg = MetricsRegistry()
        engine = repro.compile("$.a[*].b", engine="jsonski", collect_stats=True)
        result = parallel_records_run(engine, stream, n_workers=2, metrics=reg)
        assert len(result.matches) == 10
        assert reg.value("parallel.records") == 5
        assert reg.value("ff.total_bytes") == 5 * len(DOC)
        hist = reg.histogram("parallel.task_seconds")
        assert hist.count == 5

    def test_worker_registry_snapshots_merge(self):
        from repro.parallel.real_pool import run_records_pool_resilient
        from repro.stream.records import RecordStream

        stream = RecordStream.from_records([DOC] * 6)
        serial = run_records_pool_resilient("$.a[*].b", stream, n_workers=1).values
        reg = MetricsRegistry()
        values = run_records_pool_resilient("$.a[*].b", stream, n_workers=2,
                                            batch_size=2, metrics=reg).values
        assert values == serial
        # every worker's counters arrived: 6 runs, 2 matches each
        assert reg.value("engine.runs") == 6
        assert reg.value("engine.matches") == 12
        assert reg.value("ff.total_bytes") == 6 * len(DOC)
        assert reg.value("parallel.batch_records") == 6


# ---------------------------------------------------------------------------
# CLI flags


class TestCliObservability:
    def _run(self, argv, tmp_path):
        from repro.cli import main

        target = tmp_path / "in.json"
        target.write_bytes(DOC)
        out, err = io.StringIO(), io.StringIO()
        code = main([argv[0], str(target), *argv[1:]], out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    def test_metrics_to_stderr_agrees_with_stats(self, tmp_path):
        code, out, err = self._run(["$.a[*].b", "--metrics"], tmp_path)
        assert code == 0
        doc = json.loads(err)
        engine = repro.compile("$.a[*].b", collect_stats=True)
        engine.run(DOC)
        assert doc["bytes_total"] == engine.last_stats.total_length
        assert doc["bytes_skipped"] == engine.last_stats.skipped
        assert doc["ff_ratio"] == pytest.approx(engine.last_stats.overall_ratio)

    def test_metrics_to_file_and_prometheus(self, tmp_path):
        json_file = tmp_path / "metrics.json"
        code, _, _ = self._run(["$.a[*].b", "--metrics", str(json_file)], tmp_path)
        assert code == 0
        doc = json.loads(json_file.read_text())
        assert doc["engine"] == "jsonski" and doc["bytes_total"] == len(DOC)
        prom_file = tmp_path / "metrics.prom"
        code, _, _ = self._run(["$.a[*].b", "--metrics", str(prom_file)], tmp_path)
        assert code == 0
        text = prom_file.read_text()
        assert "# TYPE repro_ff_total_bytes counter" in text

    def test_metrics_for_uninstrumented_engine(self, tmp_path):
        code, _, err = self._run(["$.a[*].b", "--engine", "stdlib", "--metrics"], tmp_path)
        assert code == 0
        doc = json.loads(err)
        assert doc["bytes_total"] == len(DOC)
        assert doc["bytes_skipped"] == 0  # stdlib examines everything

    def test_trace_jsonl(self, tmp_path):
        trace_file = tmp_path / "trace.jsonl"
        code, _, _ = self._run(["$.a[*].b", "--trace", str(trace_file)], tmp_path)
        assert code == 0
        names = [json.loads(line)["name"] for line in trace_file.read_text().splitlines()]
        assert names[0] == "compile"
        assert "scan" in names and "match_emit" in names
