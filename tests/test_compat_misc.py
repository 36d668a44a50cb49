"""MatchList.to_jsonl and generator seed stability."""

from __future__ import annotations

import json

import pytest

import repro
from repro.data.datasets import large_record
from repro.engine.stats import GROUPS


class TestToJsonl:
    def test_roundtrip(self):
        matches = repro.JsonSki("$.a[*]").run(b'{"a": [1, {"b": 2}, "x"]}')
        out = matches.to_jsonl()
        lines = out.decode().splitlines()
        assert [json.loads(line) for line in lines] == [1, {"b": 2}, "x"]
        assert out.endswith(b"\n")

    def test_empty(self):
        assert repro.JsonSki("$.z").run(b"{}").to_jsonl() == b""

    def test_pipe_composition(self):
        # The to_jsonl output feeds straight back in as a record stream.
        out = repro.JsonSki("$.pd[*]").run(b'{"pd": [{"nm": "a"}, {"nm": "b"}]}').to_jsonl()
        stream = repro.RecordStream.from_jsonl(out)
        assert repro.JsonSki("$.nm").run_records(stream).values() == ["a", "b"]


class TestSeedStability:
    """Table 6's shape must not depend on the generator seed."""

    @pytest.mark.parametrize("name,query,expected_dominant", [
        ("NSPL", "$.mt.vw.co[*].nm", "G4"),
        ("WM", "$.it[*].bmrpr.pr", "G1"),
        ("GMD", "$[*].atm", "G2"),
    ])
    def test_dominant_group_stable_across_seeds(self, name, query, expected_dominant):
        for seed in (1, 7, 99):
            data = large_record(name, 60_000, seed=seed)
            engine = repro.JsonSki(query, collect_stats=True)
            engine.run(data)
            ratios = {g: engine.last_stats.ratio(g) for g in GROUPS}
            dominant = max(ratios, key=ratios.get)
            assert dominant == expected_dominant, (seed, ratios)
            assert engine.last_stats.overall_ratio > 0.9, seed
