"""Batched stage 1 for record streams (``repro.stream.batches``).

``run_records`` classifies runs of records in one pass and runs each
record's stage 2 over the shared batch index, bounded by the record's
offsets, rebasing the results to the record.  These
tests hold it to the per-record path it replaces: a loop of ``run()``
over ``stream.record(i)`` must give the same ``to_jsonl`` output, the
same ``(source, start, end)`` per match, and — when a record is bad —
the same exception type, message and position.  The lenient record
paths (``run_with_recovery``, the pool workers and the query service's
NDJSON batches) take the same batched inputs and are held to a loop of
``evaluate_record`` over ``stream.record(i)``: the same values and the
same failure tuples.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import repro
from repro.bits.posindex import build_position_chunk, build_record_batch
from repro.data.datasets import DATASETS, record_stream
from repro.engine.multi import JsonSkiMulti
from repro.engine.output import MatchList
from repro.errors import DeadlineExceededError, ReproError
from repro.parallel import run_records_pool_resilient
from repro.resilience import Limits, run_with_recovery
from repro.resilience.faults import MUTATORS, mutate
from repro.resilience.recovery import drive_records, evaluate_record
from repro.stream.batches import BATCH_BYTES, BatchRecord, record_buffers
from repro.stream.records import RecordStream

SMALL_QUERIES = [(name, q.small) for name, spec in DATASETS.items() for q in spec.queries if q.small]

BASE = [
    json.dumps({"a": {"b": 1, "k": [1, 2]}, "x": "s\\\"q"}).encode(),
    json.dumps({"a": [0, 1, 2, 3, 4], "k": {"k": True}, "x": "{[\\\\"}).encode(),
    json.dumps({"a": [{"b": {"c": 1}}, {"b": 2}, 3, {"b": [4]}], "x": ["t", "u"]}).encode(),
]
QUERIES = ("$.a", "$.a.b", "$.x", "$.a[1:3]", "$..k", "$.a[*].b", "$.a[?(@.b == 2)]", "$.a[?(@.b)].b.c")
SEPARATORS = (b"", b"\n", b" \n")


def _outcome(call):
    """``("ok", jsonl, spans)`` or ``("error", type, message, position)``."""
    try:
        matches = call()
    except Exception as exc:  # noqa: BLE001 -- the exception itself is compared
        return ("error", type(exc), str(exc), getattr(exc, "position", None))
    spans = [(bytes(m.source), m.start, m.end) for m in matches]
    return ("ok", matches.to_jsonl(), spans)


def _per_record(engine, stream: RecordStream) -> MatchList:
    out = MatchList()
    for i in range(len(stream)):
        out.extend(engine.run(stream.record(i)))
    return out


def assert_same(query: str, stream: RecordStream, **opts) -> None:
    batched = _outcome(lambda: repro.compile(query, **opts).run_records(stream))
    reference = _outcome(lambda: _per_record(repro.compile(query, **opts), stream))
    assert batched == reference, (query, stream.payload[:200])


class TestDifferential:
    @pytest.mark.parametrize("name,query", SMALL_QUERIES)
    def test_dataset_streams(self, name, query):
        # Two batches' worth of records, so batch boundaries are crossed.
        stream = record_stream(name, int(1.3 * BATCH_BYTES), seed=3)
        assert_same(query, stream)

    @pytest.mark.parametrize("kind", sorted(MUTATORS))
    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_mutated_three_record_streams(self, kind, sep):
        for seed in range(12):
            bad = mutate(BASE[seed % 3], seed=seed, kind=kind).data
            records = [BASE[(seed + 1) % 3], bad, BASE[(seed + 2) % 3]]
            stream = RecordStream.from_records(records, separator=sep)
            for query in QUERIES:
                assert_same(query, stream)

    def test_non_record_bytes_between_offsets(self):
        junk = b'"\\\\{[}]" \\ {"a": "'
        payload = bytearray()
        offsets = []
        for i, record in enumerate(BASE * 3):
            payload += junk[: i % len(junk)]
            offsets.append((len(payload), len(payload) + len(record)))
            payload += record
        payload += junk
        stream = RecordStream(bytes(payload), np.array(offsets))
        for query in QUERIES:
            assert_same(query, stream)

    def test_escape_runs_do_not_cross_records(self):
        # A record ending in a backslash must not escape the next
        # record's first byte, whatever the separator.
        records = [b'{"a": 1}\\', b'"x"', b'{"a": "\\\\"}\\\\', b'{"a": [2]}']
        for sep in SEPARATORS:
            for query in QUERIES:
                assert_same(query, RecordStream.from_records(records, separator=sep))

    def test_record_larger_than_a_batch(self):
        big = json.dumps({"a": [{"b": i, "pad": "x" * 40} for i in range(2000)]}).encode()
        assert len(big) > BATCH_BYTES
        stream = RecordStream.from_records([BASE[0], big, BASE[2]], separator=b"\n")
        for query in QUERIES:
            assert_same(query, stream)

    def test_one_record_and_empty_streams(self):
        for query in QUERIES:
            assert_same(query, RecordStream.from_records([BASE[2]]))
            assert_same(query, RecordStream.from_records([]))

    def test_empty_and_out_of_range_offsets(self):
        payload = b'{"a": 1}\n{"a": 2}'
        stream = RecordStream(payload, np.array([[0, 8], [9, 9], [9, 17], [12, 40]]))
        assert_same("$.a", stream)

    def test_word_mode_and_limits(self):
        stream = RecordStream.from_records(BASE * 4, separator=b"\n")
        for query in QUERIES:
            assert_same(query, stream, engine="jsonski-word")
            assert_same(query, stream, limits=Limits(max_record_bytes=len(BASE[0]) + 1))
            assert_same(query, stream, limits=Limits(max_depth=3))

    def test_multi_query_engine(self):
        records = [BASE[0], b'{"a": [1, 2', BASE[2]] + [mutate(b, seed=i).data for i, b in enumerate(BASE)]
        stream = RecordStream.from_records(records, separator=b"\n")
        queries = ["$.a", "$.a[*].b", "$.x"]

        def batched():
            return JsonSkiMulti(queries).run_records(stream)

        def reference():
            engine = JsonSkiMulti(queries)
            totals = [MatchList() for _ in queries]
            for i in range(len(stream)):
                for total, matches in zip(totals, engine.run(stream.record(i))):
                    total.extend(matches)
            return totals

        def summary(call):
            try:
                return [m.to_jsonl() for m in call()]
            except Exception as exc:  # noqa: BLE001
                return (type(exc), str(exc), getattr(exc, "position", None))

        assert summary(batched) == summary(reference)
        clean = RecordStream.from_records(BASE * 3)
        assert [m.to_jsonl() for m in JsonSkiMulti(queries).run_records(clean)] == [
            repro.compile(q).run_records(clean).to_jsonl() for q in queries
        ]


class TestKernel:
    def test_one_segment_kernel_is_the_chunk_build(self):
        data = BASE[1] + b" " + BASE[0]
        chunk = build_position_chunk(data, 0)
        batch, balanced = build_record_batch(data, np.array([0]), np.array([len(data)]))
        assert balanced.tolist() == [True]
        assert batch.keep.tolist() == chunk.keep.tolist()
        assert batch.quotes.tolist() == chunk.quotes.tolist()

    def test_segments_match_standalone_chunks(self):
        records = [BASE[0], b'{"a": "\\\\\\""}', BASE[2]]
        # The bytes between records are not part of any record.
        stream = RecordStream.from_records(records, separator=b'\\"{[ ')
        offsets = stream.offsets
        batch, balanced = build_record_batch(stream.payload, offsets[:, 0], offsets[:, 1])
        assert balanced.all()
        for record, (start, end) in zip(records, offsets.tolist()):
            alone = build_position_chunk(record, 0)
            inside = (batch.keep >= start) & (batch.keep < end)
            assert (batch.keep[inside] - start).tolist() == alone.keep.tolist()

    def test_escapes_restart_at_each_record(self):
        # Run together, the first record's trailing backslash would
        # escape (or join a run with) the next record's first byte.
        records = [b'{"a": 1}\\', b'""{}', b'{"b": 2}\\', b'\\"{}""', BASE[1]]
        stream = RecordStream.from_records(records, separator=b"")
        offsets = stream.offsets
        batch, balanced = build_record_batch(stream.payload, offsets[:, 0], offsets[:, 1])
        assert balanced.all()
        for record, (start, end) in zip(records, offsets.tolist()):
            alone = build_position_chunk(record, 0)
            inside = (batch.keep >= start) & (batch.keep < end)
            assert (batch.keep[inside] - start).tolist() == alone.keep.tolist()
            quotes = batch.quotes[(batch.quotes >= start) & (batch.quotes < end)]
            assert (quotes - start).tolist() == alone.quotes.tolist()

    def test_parity_restarts_after_an_odd_quote_record(self):
        records = [b'{"a": "x}', BASE[0], b'["\\"', BASE[2]]
        stream = RecordStream.from_records(records, separator=b"\n")
        offsets = stream.offsets
        batch, balanced = build_record_batch(stream.payload, offsets[:, 0], offsets[:, 1])
        assert balanced.tolist() == [False, True, False, True]
        for k in (1, 3):
            start, end = offsets[k].tolist()
            alone = build_position_chunk(records[k], 0)
            assert (batch.keep[(batch.keep >= start) & (batch.keep < end)] - start).tolist() == alone.keep.tolist()

    def test_unbalanced_records_are_left_out(self):
        records = [b'{"a": [1}', b'{"a": "x}', BASE[0], b'{"a": 1}}']
        stream = RecordStream.from_records(records, separator=b"\n")
        offsets = stream.offsets
        batch, balanced = build_record_batch(stream.payload, offsets[:, 0], offsets[:, 1])
        assert balanced.tolist() == [False, False, True, False]
        start, end = offsets[2].tolist()
        assert ((batch.keep >= start) & (batch.keep < end)).all()


def _stream(n: int) -> RecordStream:
    return RecordStream.from_records([BASE[i % 3] for i in range(n)], separator=b"\n")


def _expected_batches(stream: RecordStream, start: int = 0, stop: int | None = None) -> list[tuple[int, int]]:
    """``(records, bytes)`` of each batch the iterator forms over records
    ``[start, stop)`` of a stream of small, ordered records."""
    batches: list[tuple[int, int]] = []
    first = count = last_end = 0
    for start, end in stream.offsets[start:stop].tolist():
        if count and end - first > BATCH_BYTES:
            batches.append((count, last_end - first))
            count = 0
        if not count:
            first = start
        count += 1
        last_end = end
    if count:
        batches.append((count, last_end - first))
    return batches


class TestObservability:
    def test_one_index_build_span_per_batch_and_one_record_span_per_record(self):
        stream = _stream(1500)
        expected = _expected_batches(stream)
        assert len(expected) > 1
        tracer = repro.Tracer()
        repro.compile("$.a.b", tracer=tracer).run_records(stream)
        builds = tracer.named("index_build")
        assert [(s.attrs["records"], s.attrs["bytes"]) for s in builds] == expected
        assert len(tracer.named("record")) == len(stream)

    def test_index_counters_count_batches(self):
        stream = _stream(1500)
        expected = _expected_batches(stream)
        registry = repro.MetricsRegistry()
        repro.compile("$.a.b", metrics=registry).run_records(stream)
        assert registry.value("index.chunks_built") == len(expected)
        assert registry.value("index.words_classified") == sum(math.ceil(b / 64) for _, b in expected)
        assert registry.value("engine.records") == len(stream)

    def test_scanner_calls_counted_through_the_view(self):
        stream = _stream(120)
        for query in ("$.a.b", "$.a[*].b", "$.a[1:3]", "$.x"):
            batched, reference = repro.MetricsRegistry(), repro.MetricsRegistry()
            repro.compile(query, metrics=batched).run_records(stream)
            _per_record(repro.compile(query, metrics=reference), stream)
            calls = {(c.name, c.labels) : c.value for c in batched.counters() if c.name == "scanner.calls"}
            want = {(c.name, c.labels): c.value for c in reference.counters() if c.name == "scanner.calls"}
            assert calls == want and sum(calls.values()) > 0, query

    def test_every_record_path_observes_each_record(self):
        stream = _stream(300)
        seen = []
        for run in (
            lambda engine: engine.run_records(stream),
            lambda engine: run_with_recovery(engine, stream),
            lambda engine: list(drive_records(engine, stream, lenient=True, materialize=False)),
        ):
            tracer, registry = repro.Tracer(), repro.MetricsRegistry()
            engine = repro.compile("$.a.b", collect_stats=True, tracer=tracer, metrics=registry)
            run(engine)
            stats = engine.last_stats
            seen.append((
                registry.value("engine.records"), len(tracer.named("record")),
                stats.total_length, dict(stats.chars.items()),
            ))
        record_bytes = sum(len(stream.record(i)) for i in range(len(stream)))
        assert seen[0][:3] == (len(stream), len(stream), record_bytes)
        assert seen[1] == seen[0] and seen[2] == seen[0]

    def test_record_views_share_one_batch_index(self):
        stream = _stream(10)
        buffers = list(record_buffers(stream))
        assert len({id(b.index) for b in buffers}) == 1
        assert [b.data for b in buffers] == [stream.record(i) for i in range(len(stream))]


# ---------------------------------------------------------------------------
# The lenient record paths: run_with_recovery, pool workers, serve batches.

BIG = json.dumps({"a": [{"b": i, "pad": "x" * 40} for i in range(2000)]}).encode()


def _hostile_stream() -> RecordStream:
    """Several batches of small records with every kind of bad record
    among them: ``faults.mutate``d and unbalanced ones, one over 64 KiB,
    one whose ``$.a`` match does not decode, and junk between offsets."""
    kinds = sorted(MUTATORS)
    records = [
        mutate(BASE[i % 3], seed=i, kind=kinds[i % len(kinds)]).data if i % 37 == 5 else BASE[i % 3]
        for i in range(1100)
    ]
    records[40:42] = [b'{"a": [1}', b'{"a": "x}']
    records[300] = b'{"a": tru}'
    records[700] = BIG
    junk = b'"\\{[}]" \\ {"a": "'
    payload = bytearray()
    offsets = []
    for i, record in enumerate(records):
        payload += junk[: i % len(junk)]
        offsets.append((len(payload), len(payload) + len(record)))
        payload += record
    return RecordStream(bytes(payload), np.array(offsets))


HOSTILE = _hostile_stream()


def _value(values):
    """A record's values, with a lazy MatchList reduced to its bytes."""
    if values is None or isinstance(values, list):
        return values
    return values.offsets(), values.to_jsonl()


def _failure(failure):
    if failure is None:
        return None
    return (failure.index, failure.kind, failure.error, failure.message, failure.position)


def _reference(engine, stream, materialize=True, max_failures=None):
    """``evaluate_record`` over ``stream.record(i)``, record by record,
    ending where ``run_with_recovery`` aborts: ``(values, failures)``."""
    values: list = [None] * len(stream)
    failures = []
    for i in range(len(stream)):
        found, failure = evaluate_record(engine, i, stream.record(i), materialize)
        values[i] = _value(found)
        if failure is not None:
            failures.append(_failure(failure))
            if failure.error == "DeadlineExceededError" or len(failures) == max_failures:
                break
    return values, failures


def _lenient_outcome(result):
    return [_value(v) for v in result.values], [_failure(f) for f in result.failures]


class TestLenientPathsDifferential:
    def test_hostile_stream_has_every_failure_class(self):
        _, failures = _reference(repro.compile("$.a"), HOSTILE)
        errors = {f[2] for f in failures}
        assert {"UndecodableMatch", "JsonSyntaxError"} <= errors
        assert len(HOSTILE.record(700)) > BATCH_BYTES
        assert len(_expected_batches(HOSTILE, 0, 700)) > 1
        # Records fail both inside batches and standalone (unbalanced).
        inputs = list(record_buffers(HOSTILE))
        failing = {f[0] for q in QUERIES for f in _reference(repro.compile(q), HOSTILE, False)[1]}
        assert {isinstance(inputs[i], BatchRecord) for i in failing} == {True, False}

    @pytest.mark.parametrize("materialize", [True, False])
    @pytest.mark.parametrize("max_failures", [None, 2])
    @pytest.mark.parametrize("query", QUERIES)
    def test_run_with_recovery(self, query, max_failures, materialize):
        result = run_with_recovery(
            repro.compile(query), HOSTILE, max_failures=max_failures, materialize=materialize
        )
        reference = _reference(repro.compile(query), HOSTILE, materialize, max_failures)
        assert _lenient_outcome(result) == reference

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("query", ["$.a", "$.a[*].b", "$.a[?(@.b == 2)]"])
    def test_pool(self, query, n_workers):
        result = run_records_pool_resilient(query, HOSTILE, n_workers=n_workers, batch_size=300)
        assert _lenient_outcome(result) == _reference(repro.compile(query), HOSTILE)

    @pytest.mark.parametrize("query", QUERIES)
    def test_serve_record_batches(self, query):
        prepared = repro.compile(query, limits=Limits())
        start, step, n = 7, 250, len(HOSTILE)
        pairs = []
        for i in range(start, n, step):
            results = drive_records(prepared, HOSTILE, i, min(n, i + step), lenient=True)
            pairs.extend((v, f) for _, v, f in results)
        values, failures = _reference(repro.compile(query, limits=Limits()), HOSTILE)
        assert [_value(v) for v, _ in pairs] == values[start:]
        assert [_failure(f) for _, f in pairs if f is not None] == [
            f for f in failures if f[0] >= start
        ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_run_records(self, query):
        # Every failure is the first one of the suffix that starts after
        # the one before it: strict run_records raises there with the
        # lenient reference's error, and the records in between give its
        # values.
        values, failures = _reference(repro.compile(query), HOSTILE, materialize=False)
        offsets = HOSTILE.offsets
        start = 0
        for failure in failures + [None]:
            stop = len(HOSTILE) if failure is None else failure[0]
            segment = RecordStream(HOSTILE.payload, offsets[start:stop])
            clean = repro.compile(query).run_records(segment)
            assert clean.offsets() == [o for v in values[start:stop] for o in v[0]]
            assert clean.to_jsonl() == b"".join(v[1] for v in values[start:stop])
            if failure is None:
                break
            with pytest.raises((ReproError, ValueError)) as info:
                repro.compile(query).run_records(RecordStream(HOSTILE.payload, offsets[start:]))
            exc = info.value
            if isinstance(exc, ReproError):
                assert exc.record == stop - start
                error = type(exc).__name__
            else:  # a filter predicate met an undecodable value
                error = "UndecodableMatch"
            assert (stop, "error", error, str(exc), getattr(exc, "position", None)) == failure
            start = stop + 1
        assert 700 not in {f[0] for f in failures}


class TestBatchCountGate:
    """Every lenient record path builds stage 1 once per 64 KiB batch.

    ``index.chunks_built`` counts built indexes, one per batch index
    (see ``TestObservability``): over small records it must equal the
    number of batches, not the number of records.
    """

    STREAM = _stream(1500)

    def test_run_with_recovery(self):
        registry = repro.MetricsRegistry()
        run_with_recovery(repro.compile("$.a.b", metrics=registry), self.STREAM)
        batches = len(_expected_batches(self.STREAM))
        assert 1 < batches < len(self.STREAM)
        assert registry.value("index.chunks_built") == batches

    def test_pool_single_worker(self):
        registry = repro.MetricsRegistry()
        run_records_pool_resilient("$.a.b", self.STREAM, n_workers=1, metrics=registry)
        assert registry.value("index.chunks_built") == len(_expected_batches(self.STREAM))
        assert registry.value("parallel.batch_records") == len(self.STREAM)

    def test_serve_ndjson_request(self):
        registry = repro.MetricsRegistry()
        outcome, stream = _serve_ndjson(self.STREAM, "strict", registry)
        assert outcome == "served"
        n = len(stream)
        batches = sum(
            len(_expected_batches(stream, i, min(n, i + 256))) for i in range(0, n, 256)
        )
        assert batches < n
        assert registry.value("index.chunks_built") == batches


def _serve_ndjson(stream: RecordStream, mode: str, registry) -> tuple[str, RecordStream]:
    """One ``$.a.b`` NDJSON request in ``mode`` over ``stream``'s payload,
    its engine metered on ``registry``, in batches of 256 records:
    ``(outcome, the corpus's record stream)``."""
    import asyncio

    from repro.serve import CorpusRegistry, QueryService, ServeConfig

    class Writer:
        def write(self, data: bytes) -> None:
            pass

        async def drain(self) -> None:
            pass

    corpora = CorpusRegistry()
    corpus = corpora.register("t", stream.payload)
    service = QueryService(corpora, ServeConfig(batch_size=256))
    service.registry.compile = lambda query, engine, limits: repro.compile(
        query, engine=engine, limits=limits, metrics=registry
    )
    spec = {"corpus": corpus, "query": "$.a.b", "engine": "jsonski", "offset": 0, "workers": 0}
    limits = service.base_limits(60.0)
    outcome = asyncio.run(service._dispatch_streaming(spec, limits, mode, Writer()))
    return outcome, corpus.records_for(mode)


class TestServeStopsAtTheFailure:
    """An NDJSON request runs no record past the one that ends it."""

    def test_strict_batch(self):
        records = [BASE[i % 3] for i in range(256)]
        records[2] = b'{"a": [1}'
        registry = repro.MetricsRegistry()
        stream = RecordStream.from_records(records, separator=b"\n")
        outcome, _ = _serve_ndjson(stream, "strict", registry)
        assert outcome == "failed"
        assert registry.value("engine.records") == 3 and registry.value("engine.runs") == 2

    def test_deadline_in_a_lenient_batch(self):
        from repro.serve.app import _frame_pairs

        class Expiring:
            """Its third run meets an expired deadline."""

            last_stats = None
            runs = 0

            def run(self, record):
                self.runs += 1
                if self.runs == 3:
                    raise DeadlineExceededError("deadline expired")
                return MatchList()

        engine = Expiring()
        results = drive_records(engine, _stream(256), 0, 256, lenient=True)
        framed, emitted, skipped, stop_at = _frame_pairs(results, strict=False)
        assert engine.runs == 3 and stop_at.index == 2 and stop_at.error == "DeadlineExceededError"
        assert framed.count(b'"index"') == 2 and skipped == 0
