"""The prepare/index/run two-stage API (``repro.compile`` / ``repro.index``)."""

from __future__ import annotations

import json

import pytest

import repro
from repro.engine.prepared import IndexedBuffer, PreparedQuery
from repro.stream.buffer import StreamBuffer, as_stream_buffer

DATA = json.dumps(
    {"pd": [{"id": 1, "sp": "a"}, {"id": 2, "sp": "b"}, {"x": 0}], "mt": {"id": 9}}
).encode()


class TestCompileReturnsPrepared:
    def test_compile_wraps_engine(self):
        prepared = repro.compile("$.pd[*].id")
        assert isinstance(prepared, PreparedQuery)
        assert prepared.info is repro.ENGINES["jsonski"]
        assert prepared.run(DATA).values() == [1, 2]

    def test_full_engine_surface_delegates(self):
        prepared = repro.compile("$.pd[*].id", collect_stats=True)
        assert prepared.run(DATA).values() == [1, 2]
        assert prepared.last_stats is not None
        assert prepared.last_stats.total_length == len(DATA)
        assert prepared.first(DATA).value() == 1
        assert prepared.exists(DATA)
        assert prepared.mode == "vector"  # __getattr__ passthrough

    def test_run_with_paths_and_trace(self):
        prepared = repro.compile("$.mt.id")
        pairs = prepared.run_with_paths(DATA)
        assert [(p, m.value()) for p, m in pairs] == [(("mt", "id"), 9)]
        matches, events = prepared.trace_run(DATA)
        assert matches.values() == [9]
        assert events  # at least one fast-forward was logged

    def test_unknown_engine_and_bogus_kwarg(self):
        with pytest.raises(KeyError):
            repro.compile("$.a", engine="nope")
        with pytest.raises(TypeError):
            repro.compile("$.a", bogus=True)


class TestIndexedBuffer:
    def test_module_level_index(self):
        indexed = repro.index(DATA)
        assert isinstance(indexed, IndexedBuffer)
        assert indexed.mode == "vector"
        assert len(indexed) == len(DATA)
        assert indexed.data == DATA

    def test_index_reused_across_queries(self):
        indexed = repro.index(DATA).warm()
        built_after_warm = indexed.buffer.index.chunks_built
        ids = repro.compile("$.pd[*].id").run(indexed)
        sps = repro.compile("$.pd[*].sp").run(indexed)
        assert ids.values() == [1, 2]
        assert sps.values() == ["a", "b"]
        # stage 1 was not redone: no further chunk builds after warm()
        assert indexed.buffer.index.chunks_built == built_after_warm

    def test_prepared_index_inherits_engine_mode(self):
        word = repro.compile("$.pd[*].id", engine="jsonski-word")
        indexed = word.index(DATA)
        assert indexed.mode == "word"
        assert word.run(indexed).values() == [1, 2]

    def test_all_views_accept_indexed(self):
        prepared = repro.compile("$.pd[*].id")
        indexed = repro.index(DATA)
        assert prepared.run(indexed).values() == [1, 2]
        assert prepared.first(indexed).value() == 1
        assert prepared.exists(indexed)
        assert [m.value() for _, m in prepared.run_with_paths(indexed)] == [1, 2]

    @pytest.mark.parametrize("engine", list(repro.ENGINES))
    def test_every_engine_runs_an_indexed_buffer(self, engine):
        # Engines without a stage 1 of their own get the indexed bytes.
        data = b'{"a": 7}'
        prepared = repro.compile("$.a", engine=engine)
        assert prepared.run(repro.index(data)).values() == prepared.run(data).values() == [7]

    def test_legacy_engine_accepts_indexed(self):
        # the one-shot surface and the two-stage surface share coercion
        engine = repro.JsonSki("$.pd[*].id")
        assert engine.run(repro.index(DATA)).values() == [1, 2]

    def test_multi_engine_accepts_indexed(self):
        indexed = repro.index(DATA)
        ids, sps = repro.JsonSkiMulti(["$.pd[*].id", "$.pd[*].sp"]).run(indexed)
        assert ids.values() == [1, 2]
        assert sps.values() == ["a", "b"]


class TestAsStreamBuffer:
    def test_coercions(self):
        buf = StreamBuffer(DATA)
        assert as_stream_buffer(buf) is buf
        indexed = IndexedBuffer(DATA)
        assert as_stream_buffer(indexed) is indexed.buffer
        fresh = as_stream_buffer(DATA, mode="word")
        assert fresh.mode == "word" and fresh.data == DATA

    def test_str_input(self):
        assert as_stream_buffer('{"a": 1}').data == b'{"a": 1}'


class TestTwoStageFlag:
    def test_registry_flags(self):
        assert repro.ENGINES["jsonski"].two_stage
        assert repro.ENGINES["jsonski-word"].two_stage
        assert not repro.ENGINES["pison"].two_stage
        assert not repro.ENGINES["stdlib"].two_stage

    def test_observed_prepared_run(self):
        from repro.observe import MetricsRegistry

        registry = MetricsRegistry()
        prepared = repro.compile("$.pd[*].id", metrics=registry)
        prepared.run(repro.index(DATA))
        assert registry.value("engine.runs") == 1
        assert registry.value("engine.matches") == 2
