"""Resilience layer: mutators, guards, recovery, lenient boundaries."""

from __future__ import annotations

import json
import time

import pytest

import repro
from repro.errors import (
    DeadlineExceededError,
    DepthLimitError,
    JsonSyntaxError,
    RecordTooLargeError,
    ReproError,
    ResourceLimitError,
    StreamExhaustedError,
    format_error_context,
)
from repro.resilience import (
    DEFAULT_MAX_DEPTH,
    Deadline,
    Limits,
    MUTATORS,
    corpus,
    evaluate_record,
    mutate,
    run_with_recovery,
)
from repro.stream.records import RecordStream

RECORD = json.dumps(
    {"a": {"b": [1, 2, 3]}, "tags": ["x", "y"], "n": 7, "s": "héllo ✓"}
).encode()

ALL_ENGINES = tuple(repro.ENGINES)


class TestMutators:
    def test_deterministic(self):
        for kind in MUTATORS:
            a = mutate(RECORD, seed=42, kind=kind)
            b = mutate(RECORD, seed=42, kind=kind)
            assert a.data == b.data and a.detail == b.detail

    def test_seed_selects_kind(self):
        kinds = {mutate(RECORD, seed=s).kind for s in range(64)}
        assert kinds == set(MUTATORS)  # every fault class reachable

    def test_corpus_reproducible(self):
        c1 = corpus([RECORD], 32, seed=5)
        c2 = corpus([RECORD], 32, seed=5)
        assert [m.data for m in c1] == [m.data for m in c2]
        assert len(c1) == 32

    def test_truncate_shrinks(self):
        m = mutate(RECORD, seed=3, kind="truncate")
        assert len(m.data) < len(RECORD)
        assert RECORD.startswith(m.data)

    def test_nesting_bomb_is_deep(self):
        m = mutate(RECORD, seed=9, kind="nesting_bomb")
        depth = max(m.data.count(b"["), m.data.count(b"{"))
        assert depth >= 400


class TestDepthGuard:
    BOMB = b'{"a":' * (DEFAULT_MAX_DEPTH + 50) + b"1" + b"}" * (DEFAULT_MAX_DEPTH + 50)

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_default_guard_blocks_bomb_or_skips_safely(self, name):
        # Contract: never a bare RecursionError.  Engines whose recursion
        # is query-bounded (JSONSki skips deep regions iteratively) may
        # legitimately succeed; everyone else raises DepthLimitError.
        engine = repro.ENGINES[name]("$..k" if repro.ENGINES[name].supports_descendant else "$.a")
        try:
            engine.run(self.BOMB)
        except DepthLimitError:
            pass

    @pytest.mark.parametrize(
        "name", [n for n in ALL_ENGINES if n not in ("jsonski", "jsonski-word")]
    )
    def test_depth_limit_error_on_deep_input(self, name):
        engine = repro.ENGINES[name]("$.a", limits=Limits(max_depth=8))
        deep = b'{"a":' * 20 + b"1" + b"}" * 20
        with pytest.raises(DepthLimitError) as excinfo:
            engine.run(deep)
        assert isinstance(excinfo.value, ResourceLimitError)

    def test_jsonski_descendant_depth_guard(self):
        engine = repro.ENGINES["jsonski"]("$..k", limits=Limits(max_depth=8))
        deep = b'{"a":' * 20 + b"1" + b"}" * 20
        with pytest.raises(DepthLimitError):
            engine.run(deep)

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_legal_depth_unaffected(self, name):
        engine = repro.ENGINES[name]("$.a.b")
        assert engine.run(b'{"a": {"b": 5}}').values() == [5]


class TestSizeGuard:
    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_record_too_large(self, name):
        engine = repro.ENGINES[name]("$.a", limits=Limits(max_record_bytes=8))
        with pytest.raises(RecordTooLargeError):
            engine.run(b'{"a": 1234567890}')

    def test_size_under_limit_ok(self):
        engine = repro.ENGINES["jsonski"]("$.a", limits=Limits(max_record_bytes=1000))
        assert engine.run(b'{"a": 1}').values() == [1]


class TestDeadline:
    def test_deadline_expires(self):
        d = Deadline.after(-1.0)
        assert d.expired() and d.remaining() < 0
        with pytest.raises(DeadlineExceededError):
            d.check(5)

    @pytest.mark.parametrize("name", ("jsonski", "rds", "jpstream"))
    def test_streaming_engines_abandon(self, name):
        big = json.dumps({"b": list(range(50_000))}).encode()
        engine = repro.ENGINES[name](
            "$.a", limits=Limits(deadline=Deadline(time.monotonic() - 1))
        )
        with pytest.raises(DeadlineExceededError):
            engine.run(big)

    def test_generous_deadline_is_invisible(self):
        engine = repro.ENGINES["jsonski"]("$.a", limits=Limits().with_deadline(60.0))
        assert engine.run(b'{"a": 1}').values() == [1]


class TestCaretAlignment:
    def test_ascii(self):
        ctx = format_error_context(b'{"a": !}', 6)
        text, caret = ctx.splitlines()
        assert text[caret.index("^")] == "!"

    def test_multibyte_utf8_before_error(self):
        # é is two bytes; the caret must not drift left.
        data = '{"é": "ü", "x": !}'.encode()
        position = data.index(b"!")
        text, caret = format_error_context(data, position).splitlines()
        assert text[caret.index("^")] == "!"

    def test_invalid_bytes_render_one_column_each(self):
        data = b'{"a": \xff\xfe!}'
        position = data.index(b"!")
        text, caret = format_error_context(data, position).splitlines()
        assert text[caret.index("^")] == "!"

    def test_window_prefix(self):
        data = b"x" * 100 + b"\xc3\xa9" * 10 + b"!" + b"y" * 100
        position = data.index(b"!")
        text, caret = format_error_context(data, position).splitlines()
        assert text[caret.index("^")] == "!"


class TestRecovery:
    def test_skips_malformed_and_reports(self):
        stream = RecordStream.from_records(
            [b'{"a": 1}', b'{"a": ', b'{"a": 3}']
        )
        engine = repro.ENGINES["jsonski"]("$.a")
        result = run_with_recovery(engine, stream)
        assert result.values[0] == [1] and result.values[2] == [3]
        assert result.values[1] is None
        assert not result.ok and result.records_ok == 2
        assert result.failures[0].index == 1
        assert result.all_values() == [1, 3]
        assert "1" in result.describe()

    def test_metrics_counters(self):
        from repro.observe import MetricsRegistry

        registry = MetricsRegistry()
        stream = RecordStream.from_records([b'{"a": 1}', b"{oops", b'{"a": 2}'])
        run_with_recovery(repro.ENGINES["rds"]("$.a"), stream, metrics=registry)
        assert registry.value("stream.records_ok") == 2
        snapshot = registry.as_dict()
        assert any(
            c["name"] == "stream.records_skipped" and c["value"] == 1
            for c in snapshot["counters"]
        )

    def test_deadline_aborts_run(self):
        stream = RecordStream.from_records([b'{"a": 1}'] * 5)
        engine = repro.ENGINES["jsonski"](
            "$.a", limits=Limits(deadline=Deadline(time.monotonic() - 1))
        )
        result = run_with_recovery(engine, stream)
        assert result.records_ok == 0
        assert any(f.error == "DeadlineExceededError" for f in result.failures)

    def test_evaluate_record_taxonomy(self):
        engine = repro.JsonSki("$.a")
        assert evaluate_record(engine, 4, b'{"a": [1]}') == ([[1]], None)
        values, failure = evaluate_record(engine, 4, b'{"a": ', materialize=False)
        assert values is None
        assert (failure.index, failure.kind, failure.error) == (4, "error", "JsonSyntaxError")
        lazy, failure = evaluate_record(engine, 4, b'{"a": 7}', materialize=False)
        assert failure is None and lazy.values() == [7]

        class Undecodable:
            """run() tolerated the record, but the matched slice is not JSON."""

            def run(self, record):
                return self

            def values(self):
                raise ValueError("Expecting value")

        values, failure = evaluate_record(Undecodable(), 2, b"{}")
        assert values is None
        assert (failure.index, failure.error, failure.message) == (
            2, "UndecodableMatch", "Expecting value"
        )

    def test_max_failures_stops_early(self):
        stream = RecordStream.from_records([b"{bad"] * 10)
        engine = repro.ENGINES["jsonski"]("$.a")
        result = run_with_recovery(engine, stream, max_failures=3)
        assert len(result.failures) == 3


class TestLenientBoundaries:
    def test_strict_trailing_partial_is_exhaustion(self):
        with pytest.raises(StreamExhaustedError):
            RecordStream.from_concatenated(b'{"a": 1} {"b": ')

    def test_strict_garbage_still_syntax_error(self):
        with pytest.raises(JsonSyntaxError):
            RecordStream.from_concatenated(b'{"a": 1} junk {"b": 2}')

    def test_lenient_resyncs_at_next_opener(self):
        stream, skipped = RecordStream.from_concatenated_lenient(
            b'{"a": 1} junk {"b": 2}]{"c": 3}'
        )
        assert [bytes(r) for r in stream] == [b'{"a": 1}', b'{"b": 2}', b'{"c": 3}']
        reasons = [reason for _, reason in skipped]
        assert "non-whitespace between records" in reasons
        assert "unbalanced closing bracket" in reasons

    def test_lenient_trailing_partial_reported(self):
        stream, skipped = RecordStream.from_concatenated_lenient(b'{"a": 1}{"b": ')
        assert len(stream) == 1
        assert skipped == [(8, "unclosed trailing record")]

    def test_lenient_clean_payload_no_skips(self):
        stream, skipped = RecordStream.from_concatenated_lenient(b'{"a": 1} {"b": 2}')
        assert len(stream) == 2 and skipped == []


class TestFailurePositionMapping:
    """Lenient resync + recovery: positions map to the *original* payload.

    After ``from_concatenated_lenient`` discards garbage stretches, record
    ``i`` of the resynced stream generally does not start at payload byte
    ``i``-anything: the skipped regions are still part of the payload.  A
    ``RecordFailure.position`` is relative to the failing record, so the
    original-payload byte is ``stream.offsets[index][0] + position`` — and
    the skip report's offsets are original-payload offsets already.
    """

    PAYLOAD = b'{"a": {"b": 1}} @@garbage@@ {"a": {"b" 5}} ] {"a": {"b": 3}}'

    def test_failure_position_maps_to_original_payload(self):
        stream, skipped = RecordStream.from_concatenated_lenient(self.PAYLOAD)
        assert len(stream) == 3
        result = run_with_recovery(repro.JsonSki("$.a.b"), stream)
        assert result.all_values() == [1, 3]
        [failure] = result.failures
        assert failure.index == 1 and failure.position is not None

        start, end = stream.offsets[failure.index]
        absolute = int(start) + failure.position
        # The absolute offset lands inside the failing record and on the
        # same byte the record-relative position names.
        assert start <= absolute < end
        bad_record = stream.record(failure.index)
        assert self.PAYLOAD[absolute : absolute + 1] == bad_record[failure.position : failure.position + 1]
        # The mapping genuinely required the offset array: the record does
        # not start at byte 0, so record-relative != payload-absolute.
        assert start > 0 and absolute != failure.position

    def test_skip_report_offsets_are_payload_offsets(self):
        _, skipped = RecordStream.from_concatenated_lenient(self.PAYLOAD)
        by_reason = {reason: pos for pos, reason in skipped}
        garbage_at = by_reason["non-whitespace between records"]
        assert self.PAYLOAD[garbage_at:].lstrip().startswith(b"@@garbage@@")
        stray_at = by_reason["unbalanced closing bracket"]
        assert self.PAYLOAD[stray_at : stray_at + 1] == b"]"

    def test_records_slice_original_payload(self):
        stream, _ = RecordStream.from_concatenated_lenient(self.PAYLOAD)
        for i in range(len(stream)):
            start, end = stream.offsets[i]
            assert stream.record(i) == self.PAYLOAD[int(start) : int(end)]


class TestUniformLimitsKwarg:
    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_compile_accepts_limits(self, name):
        info = repro.ENGINES[name]
        query = "$.a" if not info.supports_descendant else "$.a"
        engine = repro.compile(query, engine=name, limits=Limits.unlimited())
        assert engine.run(b'{"a": 1}').values() == [1]

    def test_multi_engine_accepts_limits(self):
        engine = repro.JsonSkiMulti(["$.a", "$.b"], limits=Limits(max_record_bytes=4))
        with pytest.raises(RecordTooLargeError):
            engine.run(b'{"a": 1, "b": 2}')
