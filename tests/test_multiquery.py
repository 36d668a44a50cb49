"""Multi-query engine tests: one streaming pass, several JSONPaths."""

from __future__ import annotations

import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import DATASETS, large_record
from repro.data.synth import random_json, random_path
from repro.engine import JsonSki, JsonSkiMulti
from repro.query.automaton import QueryAutomaton
from repro.reference import evaluate_bytes


@functools.lru_cache(maxsize=None)
def _large(name: str) -> bytes:
    return large_record(name, 200_000, seed=1)


class TestBasics:
    def test_per_query_results(self):
        engine = JsonSkiMulti(["$.a", "$.b[0]"])
        a, b = engine.run(b'{"a": 1, "b": [2, 3]}')
        assert a.values() == [1]
        assert b.values() == [2]

    def test_same_value_matches_several_queries(self):
        engine = JsonSkiMulti(["$.a.b", "$.*.b"])
        first, second = engine.run(b'{"a": {"b": 7}, "c": {"b": 8}}')
        assert first.values() == [7]
        assert second.values() == [7, 8]

    def test_requires_a_query(self):
        with pytest.raises(ValueError):
            JsonSkiMulti([])

    def test_run_records(self):
        from repro.stream.records import RecordStream

        stream = RecordStream.from_records([b'{"a": 1}', b'{"b": 2}', b'{"a": 3, "b": 4}'])
        a, b = JsonSkiMulti(["$.a", "$.b"]).run_records(stream)
        assert a.values() == [1, 3]
        assert b.values() == [2, 4]

    def test_accepts_a_generator_of_queries(self):
        engine = JsonSkiMulti(q for q in ["$.a", "$.b"])
        a, b = engine.run(b'{"a": 1, "b": 2}')
        assert (a.values(), b.values()) == ([1], [2])

    def test_run_records_matches_single_engine_bookkeeping(self):
        from repro.observe import MetricsRegistry, Tracer
        from repro.stream.records import RecordStream

        stream = RecordStream.from_records([b'{"a":{"x":1},"b":[1,2,3]}'] * 3)
        for query in ("$.a.x", "$.b[1:]"):
            single_reg, multi_reg = MetricsRegistry(), MetricsRegistry()
            single_tracer, multi_tracer = Tracer(), Tracer()
            single = JsonSki(query, collect_stats=True, metrics=single_reg, tracer=single_tracer)
            multi = JsonSkiMulti([query], collect_stats=True, metrics=multi_reg, tracer=multi_tracer)
            expected = single.run_records(stream)
            (got,) = multi.run_records(stream)
            assert got.values() == expected.values()
            assert multi.last_stats.total_length == single.last_stats.total_length == 75
            assert dict(multi.last_stats.chars) == dict(single.last_stats.chars)
            assert multi_reg.value("engine.records") == single_reg.value("engine.records") == 3
            assert multi_reg.value("engine.matches") == single_reg.value("engine.matches")
            assert len(multi_tracer.named("record")) == len(single_tracer.named("record")) == 3

    def test_descendant_query_in_mix(self):
        engine = JsonSkiMulti(["$..c", "$.a"])
        c, a = engine.run(b'{"a": {"c": 1}, "c": 2}')
        assert c.values() == [1, 2]
        assert a.values() == [{"c": 1}]


class TestGuidanceConjunction:
    def test_g4_shared_name_still_skips(self):
        qa = QueryAutomaton("$.a.x", "$.a.y")
        assert qa.object_skippable(qa.start_state)  # both wait for 'a'

    def test_g4_divergent_names_disable_skip(self):
        qa = QueryAutomaton("$.a.x", "$.b.y")
        assert not qa.object_skippable(qa.start_state)

    def test_expected_type_conflict_is_unknown(self):
        qa = QueryAutomaton("$.a.x", "$.a[0]")
        s = qa.on_key(qa.start_state, "a")
        assert qa.expected_type(s) == "unknown"

    def test_expected_type_agreement_survives(self):
        qa = QueryAutomaton("$.a.x", "$.a.y")
        assert qa.expected_type(qa.start_state) == "object"

    def test_element_range_envelope(self):
        qa = QueryAutomaton("$[2:4]", "$[7]")
        assert qa.element_range(qa.start_state) == (2, 8)

    def test_accepting_ids(self):
        qa = QueryAutomaton("$.a", "$.b", "$.a.c")
        s = qa.on_key(qa.start_state, "a")
        assert qa.accepting(s) == (0,)
        s2 = qa.on_key(s, "c")
        assert qa.accepting(s2) == (2,)


class TestDifferential:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40)
    def test_equals_individual_runs(self, seed):
        rng = random.Random(seed)
        doc = json.dumps(random_json(rng, 4), indent=rng.choice([None, 1])).encode()
        queries = [random_path(rng) for _ in range(rng.randrange(1, 4))]
        results = JsonSkiMulti(queries).run(doc)
        for query, got in zip(queries, results):
            assert got.values() == evaluate_bytes(query, doc), (query, queries)

    def test_twelve_paper_queries_single_pass(self):
        """All twelve Table 5 queries over one synthetic record base."""
        from repro.data.datasets import large_record

        data = large_record("TT", 30_000, seed=21)
        queries = ["$[*].en.urls[*].url", "$[*].text", "$[*].user.id", "$[3:5].lang"]
        results = JsonSkiMulti(queries).run(data)
        for query, got in zip(queries, results):
            assert got.values() == JsonSki(query).run(data).values(), query


class TestSingleQueryEquivalence:
    """``JsonSkiMulti([q])`` is ``JsonSki(q)``: same matches, same skips."""

    CASES = [
        (spec.name, q.large, mode)
        for spec in DATASETS.values()
        for q in spec.queries
        for mode in ("vector", "word")
    ]

    @pytest.mark.parametrize("name,query,mode", CASES)
    def test_table5_query(self, name, query, mode):
        data = _large(name)
        single = JsonSki(query, mode=mode, collect_stats=True)
        multi = JsonSkiMulti([query], mode=mode, collect_stats=True)
        expected = single.run(data)
        (got,) = multi.run(data)
        assert [(m.start, m.end) for m in got] == [(m.start, m.end) for m in expected]
        assert dict(multi.last_stats.chars) == dict(single.last_stats.chars)
        assert sum(single.last_stats.chars.values()) > 0
