"""Fast-forward function tests (Table 1 semantics, crafted + property)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.synth import random_json
from repro.engine.fastforward import FastForwarder, make_fastforwarder
from repro.errors import StreamExhaustedError
from repro.stream.buffer import StreamBuffer


def ff_for(data: bytes, mode: str = "vector", chunk_size: int = 64) -> FastForwarder:
    return make_fastforwarder(StreamBuffer(data, mode=mode, chunk_size=chunk_size))


def _matching_close(data: bytes, pos: int) -> int:
    """Oracle: the matching closer of the container opening at ``pos``."""
    opener = data[pos : pos + 1]
    closer = b"}" if opener == b"{" else b"]"
    depth = 0
    in_string = False
    i = pos
    while i < len(data):
        c = data[i : i + 1]
        if in_string:
            if c == b"\\":
                i += 2
                continue
            if c == b'"':
                in_string = False
        elif c == b'"':
            in_string = True
        elif c == opener:
            depth += 1
        elif c == closer:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    raise AssertionError("unbalanced input")


class TestGoOverObj:
    def test_flat(self):
        data = b'{"a": 1} tail'
        assert ff_for(data).go_over_obj(0) == 8

    def test_nested(self):
        data = b'{"a": {"b": {"c": 1}}, "d": {}} rest'
        assert ff_for(data).go_over_obj(0) == data.index(b" rest")

    def test_braces_in_strings_ignored(self):
        data = b'{"a": "}}}{{{", "b": 1}x'
        assert ff_for(data).go_over_obj(0) == len(data) - 1

    def test_requires_brace(self):
        with pytest.raises(StreamExhaustedError):
            ff_for(b"[1]").go_over_obj(0)

    def test_unclosed_raises(self):
        with pytest.raises(StreamExhaustedError):
            ff_for(b'{"a": {"b": 1}').go_over_obj(0)

    @given(st.randoms(use_true_random=False))
    def test_matches_oracle_on_random_objects(self, rng):
        value = {"k": random_json(rng, 3)}
        data = json.dumps(value).encode() + b" tail"
        for mode in ("vector", "word"):
            assert ff_for(data, mode=mode).go_over_obj(0) == _matching_close(data, 0) + 1


class TestGoOverAry:
    def test_nested(self):
        data = b'[[1, [2]], [3]] rest'
        assert ff_for(data).go_over_ary(0) == 15

    def test_crossing_chunks(self):
        data = b"[" + b"8," * 200 + b"9]!"
        for mode in ("vector", "word"):
            assert ff_for(data, mode=mode, chunk_size=64).go_over_ary(0) == len(data) - 1

    @given(st.randoms(use_true_random=False))
    def test_matches_oracle(self, rng):
        data = json.dumps([random_json(rng, 3), 1]).encode()
        assert ff_for(data).go_over_ary(0) == _matching_close(data, 0) + 1


class TestGoToEnds:
    def test_go_to_obj_end_from_inside(self):
        data = b'{"a": 1, "b": {"c": 2}} t'
        # From just after the first attribute's comma.
        assert ff_for(data).go_to_obj_end(9) == 23

    def test_go_to_ary_end_from_inside(self):
        data = b'[1, [2, 3], 4] t'
        assert ff_for(data).go_to_ary_end(3) == 14


class TestGoOverPri:
    def test_attr_delimited_by_comma(self):
        data = b'{"a": 123, "b": 2}'
        assert ff_for(data).go_over_pri(6, in_object=True) == 9

    def test_last_attr_delimited_by_brace(self):
        data = b'{"a": 123}'
        assert ff_for(data).go_over_pri(6, in_object=True) == 9

    def test_string_value_with_pseudo_delimiters(self):
        data = b'{"a": "x,y}", "b": 2}'
        assert ff_for(data).go_over_pri(6, in_object=True) == 12

    def test_element(self):
        data = b"[12, 34]"
        assert ff_for(data).go_over_pri(1, in_object=False) == 3
        assert ff_for(data).go_over_pri(5, in_object=False) == 7

    def test_exhausted(self):
        with pytest.raises(StreamExhaustedError):
            ff_for(b"[123").go_over_pri(1, in_object=False)


class TestGoToObjAttr:
    def test_skips_primitive_run_to_object(self):
        data = b'{"a": 1, "b": "s", "place": {"name": 1}}'
        ended, name_start, name_raw, vpos = ff_for(data).go_to_obj_attr(1, "object")
        assert not ended
        assert name_raw == b"place"
        assert data[vpos : vpos + 1] == b"{"
        assert data[name_start : name_start + 1] == b'"'

    def test_skips_wrong_structured_type(self):
        data = b'{"a": [1, {"x": 2}], "b": {"y": 3}}'
        ended, _, name_raw, vpos = ff_for(data).go_to_obj_attr(1, "object")
        assert not ended and name_raw == b"b"

    def test_wants_array(self):
        data = b'{"a": {"x": [9]}, "b": [1]}'
        ended, _, name_raw, vpos = ff_for(data).go_to_obj_attr(1, "array")
        assert not ended and name_raw == b"b"
        assert data[vpos : vpos + 1] == b"["

    def test_object_ends_without_match(self):
        data = b'{"a": 1, "b": 2} tail'
        ended, end_pos, _, _ = ff_for(data).go_to_obj_attr(1, "object")
        assert ended and end_pos == 16

    def test_name_with_escaped_quote(self):
        data = b'{"we\\"ird": {"x": 1}}'
        ended, _, name_raw, _ = ff_for(data).go_to_obj_attr(1, "object")
        assert not ended and name_raw == b'we\\"ird'


class TestGoToAryElem:
    def test_counts_commas(self):
        data = b'[1, "s", [2], {"x": 1}] t'
        ended, pos, commas = ff_for(data).go_to_ary_elem(1, "object")
        assert not ended
        assert data[pos : pos + 1] == b"{"
        assert commas == 3

    def test_skips_wrong_container_counting(self):
        data = b"[[1], [2], {}]"
        ended, pos, commas = ff_for(data).go_to_ary_elem(1, "object")
        assert not ended and commas == 2

    def test_array_ends(self):
        data = b"[1, 2, 3]!"
        ended, end_pos, commas = ff_for(data).go_to_ary_elem(1, "object")
        assert ended and end_pos == 9 and commas == 2


class TestGoOverElems:
    def test_skips_exactly_k(self):
        data = b'[10, [20], {"x": 1}, 40, 50]'
        ended, pos, skipped = ff_for(data).go_over_elems(1, 3)
        assert not ended and skipped == 3
        assert data[pos : pos + 2] == b"40"

    def test_array_ends_early(self):
        data = b"[1, 2]"
        ended, end_pos, skipped = ff_for(data).go_over_elems(1, 5)
        assert ended and end_pos == 6 and skipped == 1

    def test_nested_values_skipped_whole(self):
        data = b"[[1, 2, 3], 9]"
        ended, pos, skipped = ff_for(data).go_over_elems(1, 1)
        assert not ended and data[pos : pos + 1] == b"9"


class TestModesAgree:
    @given(st.randoms(use_true_random=False))
    def test_word_and_vector_identical(self, rng):
        value = [random_json(rng, 3) for _ in range(3)]
        data = json.dumps({"w": value, "z": 1}).encode()
        a = ff_for(data, mode="vector", chunk_size=64)
        b = ff_for(data, mode="word", chunk_size=64)
        assert a.go_over_obj(0) == b.go_over_obj(0)
        assert a.go_to_obj_attr(1, "array") == b.go_to_obj_attr(1, "array")
