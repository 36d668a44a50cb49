"""Tests for the extension surface: unions, explain, stdlib engine,
record-boundary detection."""

from __future__ import annotations

import json
import random

import pytest

import repro
from repro.data.synth import random_json
from repro.jsonpath.ast import MultiIndex, MultiName
from repro.query.explain import explain
from repro.reference import evaluate_bytes
from repro.stream.records import RecordStream


class TestUnionSelectors:
    def test_parse_and_normalize(self):
        path = repro.parse_path("$[3,1,1]")
        assert path.steps == (MultiIndex((1, 3)),)
        path = repro.parse_path("$['b','a']")
        assert path.steps == (MultiName(("a", "b")),)

    def test_document_order_matches(self):
        doc = b'{"c": 1, "a": 2, "b": 3}'
        assert repro.JsonSki("$['b','c']").run(doc).values() == [1, 3]

    def test_index_union_with_g5_envelope(self):
        qa = repro.compile_query("$[2,5]")
        assert qa.element_range(qa.start_state) == (2, 6)
        doc = b"[0, 1, 2, 3, 4, 5, 6]"
        assert repro.JsonSki("$[2,5]").run(doc).values() == [2, 5]

    def test_union_in_deep_query(self):
        doc = b'{"pd": [{"a": 1, "b": 2, "c": 3}, {"b": 4}]}'
        assert repro.JsonSki("$.pd[*]['a','c']").run(doc).values() == [1, 3]

    @pytest.mark.parametrize("engine_name", ["jsonski", "jpstream", "rapidjson", "simdjson", "pison", "stdlib"])
    def test_all_engines(self, engine_name):
        doc = b'{"x": [10, 20, 30], "y": {"p": 1, "q": 2}}'
        assert repro.ENGINES[engine_name]("$.x[0,2]").run(doc).values() == [10, 30]
        assert repro.ENGINES[engine_name]("$.y['p','q']").run(doc).values() == [1, 2]


class TestExplain:
    def test_plan_levels(self):
        plan = explain("$.pd[*].cp[1:3].id")
        assert len(plan.levels) == 5
        assert plan.levels[0].expected_value == "array"
        assert plan.levels[0].g4_object_skip
        assert plan.levels[3].g5_window == (1, 3)
        assert plan.levels[4].expected_value == "unknown"

    def test_descendant_disables_inference_below(self):
        plan = explain("$.a..b.c")
        assert plan.has_descendant
        assert plan.levels[0].expected_value == "unknown"  # next step is '..'
        assert not plan.levels[1].g4_object_skip
        assert plan.levels[2].expected_value == "unknown"

    def test_describe_mentions_groups(self):
        text = explain("$.a[2:4].b").describe()
        assert "G1" in text and "G4" in text and "G5" in text

    def test_cli_explain(self):
        import io

        from repro.cli import main

        out = io.StringIO()
        assert main(["$.a[1:2]", "--explain"], out=out, err=io.StringIO()) == 0
        assert "G5" in out.getvalue()


class TestStdlibEngine:
    def test_values_match_oracle(self):
        rng = random.Random(4)
        doc = json.dumps(random_json(rng, 4)).encode()
        engine = repro.StdlibJson("$.a[*]")
        assert engine.run(doc).values() == evaluate_bytes("$.a[*]", doc)

    def test_rejects_malformed_with_library_error(self):
        with pytest.raises(repro.JsonSyntaxError):
            repro.StdlibJson("$.a").run(b'{"a": nope}')

    def test_match_text_is_canonical_json(self):
        match = repro.StdlibJson("$.a").run(b'{"a": { "b" : 1 }}')[0]
        assert json.loads(match.text) == {"b": 1}


class TestFromConcatenated:
    def test_back_to_back_records(self):
        payload = b'{"a": 1} {"a": 2}\n\n[3, 4]{"a": 5}'
        stream = RecordStream.from_concatenated(payload)
        assert len(stream) == 4
        assert repro.JsonSki("$.a").run_records(stream).values() == [1, 2, 5]

    def test_nested_closings_do_not_split(self):
        payload = b'{"a": {"b": [1, 2]}}{"c": 3}'
        stream = RecordStream.from_concatenated(payload)
        assert len(stream) == 2

    def test_strings_with_braces(self):
        payload = b'{"s": "}{"} {"t": "]["}'
        assert len(RecordStream.from_concatenated(payload)) == 2

    def test_garbage_between_records_rejected(self):
        with pytest.raises(repro.JsonSyntaxError):
            RecordStream.from_concatenated(b'{"a": 1} junk {"a": 2}')

    def test_unclosed_record_rejected(self):
        with pytest.raises(repro.JsonSyntaxError):
            RecordStream.from_concatenated(b'{"a": 1} {"b": ')

    def test_empty_payload(self):
        assert len(RecordStream.from_concatenated(b"  \n ")) == 0
