"""MappedFile and the real process pool; plus doctest integration."""

from __future__ import annotations

import doctest

import pytest

import repro
from repro.data.datasets import record_stream
from repro.parallel import run_records_pool_resilient
from repro.stream.filestream import MappedFile


class TestMappedFile:
    def test_engines_run_over_mmap(self, tmp_path, tweet_record):
        path = tmp_path / "r.json"
        path.write_bytes(tweet_record)
        with MappedFile(path) as data:
            assert repro.JsonSki("$.place.name").run(data).values() == ["Manhattan"]
            assert repro.JsonSki("$.user.id", mode="word").run(data).values() == [6253282]

    def test_matches_valid_inside_block(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_bytes(b'{"a": "value"}')
        with MappedFile(path) as data:
            match = repro.JsonSki("$.a").run(data)[0]
            assert match.text == b'"value"'

    def test_mapping_closed_after_block(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_bytes(b'{"a": 1}')
        manager = MappedFile(path)
        with manager as data:
            pass
        with pytest.raises(ValueError):
            data[0]  # mmap closed

    def test_empty_file_yields_empty_buffer(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_bytes(b"")
        with MappedFile(path) as data:
            assert data == b""
            assert len(data) == 0

    def test_empty_file_exit_is_clean(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_bytes(b"")
        manager = MappedFile(path)
        with manager:
            pass
        assert manager._handle is None and manager._map is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            with MappedFile(tmp_path / "nope.json"):
                pass


class TestRealPool:
    @pytest.fixture(scope="class")
    def stream(self):
        return record_stream("TT", 25_000, seed=6)

    def test_single_worker_reference(self, stream):
        values = run_records_pool_resilient("$.text", stream, 1).values
        assert len(values) == len(stream)
        assert all(len(v) == 1 for v in values)

    def test_pool_equals_serial(self, stream):
        serial = run_records_pool_resilient("$.text", stream, 1).values
        pooled = run_records_pool_resilient("$.text", stream, 2, batch_size=4).values
        assert pooled == serial

    def test_order_preserved_across_batches(self, stream):
        pooled = run_records_pool_resilient("$.user.id", stream, 2, batch_size=3).values
        engine = repro.JsonSki("$.user.id")
        expected = [engine.run(stream.record(i)).values() for i in range(len(stream))]
        assert pooled == expected


class TestIterJsonl:
    def test_lazy_iteration(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"a": 1}\n  \n{"a": 2}\n')
        from repro.stream.filestream import iter_jsonl

        records = list(iter_jsonl(path))
        assert records == [b'{"a": 1}', b'{"a": 2}']

    def test_engine_iter_matches(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"a": [1, 2]}\n{"b": 9}\n{"a": [3]}\n')
        got = [(i, m.value()) for i, m in repro.JsonSki("$.a[*]").iter_matches_jsonl(str(path))]
        assert got == [(0, 1), (0, 2), (2, 3)]

    def test_works_for_baselines_too(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"a": 1}\n{"a": 2}\n')
        got = [m.value() for _, m in repro.JPStream("$.a").iter_matches_jsonl(str(path))]
        assert got == [1, 2]

    def test_matches_survive_iteration(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"a": "x"}\n{"a": "y"}\n')
        matches = [m for _, m in repro.JsonSki("$.a").iter_matches_jsonl(str(path))]
        assert [m.text for m in matches] == [b'"x"', b'"y"']


class TestDocstrings:
    """Executable examples in docstrings must stay true."""

    @pytest.mark.parametrize("module_name", [
        "repro.engine.jsonski",
        "repro.engine.multi",
        "repro.engine.events",
        "repro.extract",
        "repro.analysis",
        "repro.jsonpath.parser",
        "repro.query.explain",
    ])
    def test_module_doctests(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        failures, _ = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
        assert failures == 0
