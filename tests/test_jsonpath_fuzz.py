"""Parser fuzzing: arbitrary text must parse or raise JsonPathSyntaxError."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synth import random_path
from repro.engine.jsonski import JsonSki
from repro.errors import JsonPathSyntaxError
from repro.jsonpath.ast import Child, Index, MultiIndex
from repro.jsonpath.parser import parse_path
from repro.reference import evaluate_bytes


class TestNeverCrashes:
    @given(st.text(max_size=40))
    @settings(max_examples=80)
    def test_arbitrary_text(self, text):
        try:
            path = parse_path(text)
        except JsonPathSyntaxError:
            return
        # Anything accepted must round-trip.
        assert parse_path(path.unparse()) == path

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60)
    def test_mutated_valid_paths(self, seed):
        rng = random.Random(seed)
        text = random_path(rng)
        if rng.random() < 0.7:
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice("$.[]()*:,'x0 ") + text[i + 1 :]
        try:
            path = parse_path(text)
        except JsonPathSyntaxError:
            return
        assert parse_path(path.unparse()) == path

    @given(st.text(alphabet="$.[]*:,'\"0123456789ab\\", max_size=30))
    @settings(max_examples=80)
    def test_metachar_soup(self, text):
        try:
            path = parse_path(text)
        except JsonPathSyntaxError:
            return
        assert path.unparse()


class TestSingleDistinctMultiSteps:
    """A union with one distinct member is that member's plain step, so
    ``parse_path(p.unparse()) == p`` holds for it (``[0,0]`` used to
    parse to ``MultiIndex((0,))``, unparse as ``[0]`` and reparse as
    ``Index(0)``; hypothesis seed 16557564 of
    ``test_mutated_valid_paths`` draws ``$[0,4].a[3][0,0]``)."""

    DOC = b'[{"a": [0, 1, 2, [[5, 6], 7]]}, 1, 2, 3, {"a": [9, 9, 9, [8]]}]'

    @pytest.mark.parametrize(
        "text, plain",
        [
            ("$.a[0,0]", "$.a[0]"),
            ("$.a[3,3,3]", "$.a[3]"),
            ("$[0,4].a[3][0,0]", "$[0,4].a[3][0]"),
            ("$['a','a'][0]", "$.a[0]"),
        ],
    )
    def test_round_trip_and_oracle(self, text, plain):
        path = parse_path(text)
        assert path == parse_path(plain)
        assert parse_path(path.unparse()) == path
        assert evaluate_bytes(path, self.DOC) == evaluate_bytes(parse_path(plain), self.DOC)
        assert evaluate_bytes(path, self.DOC) == JsonSki(path).run(self.DOC).values()

    def test_step_types(self):
        assert parse_path("$.a[0,0]").steps[-1] == Index(0)
        assert parse_path("$['b','b']").steps[-1] == Child("b")
        steps = parse_path("$[0,4].a[3][0,0]").steps
        assert steps[0] == MultiIndex((0, 4)) and steps[-1] == Index(0)

    def test_fuzz_seed_that_drew_the_duplicate_union(self):
        rng = random.Random(16557564)
        text = random_path(rng)
        if rng.random() < 0.7:
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice("$.[]()*:,'x0 ") + text[i + 1 :]
        assert text == "$[0,4].a[3][0,0]"
        path = parse_path(text)
        assert parse_path(path.unparse()) == path
