"""Edge-case coverage for the fast-forward fast paths and boundaries.

The go_over_pri memchr fast paths and the name-recovery backward scan
have subtle correctness arguments (documented in the code); each claim
gets a test here, including the fallback triggers.
"""

from __future__ import annotations

import pytest

from repro.engine.fastforward import FastForwarder, make_fastforwarder
from repro.errors import StreamExhaustedError
from repro.stream.buffer import StreamBuffer


def ff_for(data: bytes, chunk_size: int = 64) -> FastForwarder:
    return make_fastforwarder(StreamBuffer(data, chunk_size=chunk_size))


class TestGoOverPriFastPaths:
    def test_number_delimited_by_comma(self):
        data = b'{"a": 125, "b": 1}'
        assert ff_for(data).go_over_pri(6, True) == 9

    def test_number_last_in_object(self):
        data = b'{"a": 125}'
        assert ff_for(data).go_over_pri(6, True) == 9

    def test_number_then_comma_inside_later_string(self):
        # The text comma nearest to the number IS the delimiter even
        # though another comma appears inside a following string.
        data = b'{"a": 1, "s": "x,y"}'
        assert ff_for(data).go_over_pri(6, True) == 7

    def test_number_closer_before_text_comma(self):
        # Inner object ends before any comma: the '}' must win the race.
        data = b'{"o": {"a": 1}, "b": 2}'
        assert ff_for(data).go_over_pri(12, True) == 13

    def test_string_fast_path(self):
        data = b'{"a": "plain", "b": 1}'
        assert ff_for(data).go_over_pri(6, True) == 13

    def test_string_with_ws_before_delimiter(self):
        data = b'{"a": "x"   , "b": 1}'
        assert ff_for(data).go_over_pri(6, True) == 12

    def test_string_with_escaped_quote_falls_back(self):
        data = rb'{"a": "x\"y", "b": 1}'
        assert ff_for(data).go_over_pri(6, True) == 12

    def test_string_with_double_backslash_before_quote(self):
        # Closing quote preceded by a backslash that is itself escaped:
        # the memchr guard must defer to the bitmap, which knows better.
        data = rb'{"a": "x\\", "b": 1}'
        assert ff_for(data).go_over_pri(6, True) == data.index(b",")

    def test_string_containing_comma_and_closer(self):
        data = b'{"a": ",}],[", "b": 1}'
        assert ff_for(data).go_over_pri(6, True) == 13

    def test_element_variants(self):
        data = b'[1, "a,b", [2], 3]'
        ff = ff_for(data)
        assert ff.go_over_pri(1, False) == 2
        assert ff.go_over_pri(4, False) == 9

    def test_true_false_null(self):
        data = b"[true, false, null]"
        ff = ff_for(data)
        assert ff.go_over_pri(1, False) == 5
        assert ff.go_over_pri(7, False) == 12
        assert ff.go_over_pri(14, False) == 18

    def test_exhaustion_on_truncation(self):
        with pytest.raises(StreamExhaustedError):
            ff_for(b"[125").go_over_pri(1, False)
        with pytest.raises(StreamExhaustedError):
            ff_for(b'["unterminated').go_over_pri(1, False)


class TestNameRecovery:
    def test_name_right_before_value(self):
        data = b'{"k":{"x":1}}'
        ended, name_start, name_raw, vpos = ff_for(data).go_to_obj_attr(1, "object")
        assert (name_start, name_raw) == (1, b"k")

    def test_name_with_heavy_whitespace(self):
        data = b'{ "key"   :   {"x": 1} }'
        ended, name_start, name_raw, _ = ff_for(data).go_to_obj_attr(2, "object")
        assert name_raw == b"key"

    def test_name_after_skipped_string_values(self):
        data = b'{"s1": "v{1", "s2": "v}2", "obj": {"x": 1}}'
        ended, _, name_raw, _ = ff_for(data).go_to_obj_attr(1, "object")
        assert name_raw == b"obj"

    def test_empty_name(self):
        data = b'{"": {"x": 1}}'
        ended, _, name_raw, _ = ff_for(data).go_to_obj_attr(1, "object")
        assert name_raw == b""


class TestPairingAcrossChunks:
    def test_object_spanning_many_chunks(self):
        body = b",".join(b'"k%d": {"v": %d}' % (i, i) for i in range(64))
        data = b"{" + body + b"} tail"
        for chunk in (64, 128):
            assert ff_for(data, chunk_size=chunk).go_over_obj(0) == len(data) - 5

    def test_string_straddling_chunk_boundary(self):
        # A string whose body crosses the boundary carries the in-string
        # state; the brace inside it must not confuse pairing.
        data = b'{"pad": "' + b"x" * 60 + b'{" , "a": 1}'
        assert ff_for(data, chunk_size=64).go_over_obj(0) == len(data)

    def test_backslash_run_straddling_boundary(self):
        data = b'{"pad": "' + b"y" * 53 + b"\\\\" + b'", "a": {"b": 2}} z'
        ff = ff_for(data, chunk_size=64)
        assert ff.go_over_obj(0) == len(data) - 2


class TestGoToAryElemEdges:
    def test_all_primitives_then_end(self):
        data = b"[1, 2, 3]"
        ended, end_pos, commas = ff_for(data).go_to_ary_elem(1, "object")
        assert ended and end_pos == len(data) and commas == 2

    def test_empty_array(self):
        data = b"[] tail"
        ended, end_pos, commas = ff_for(data).go_to_ary_elem(1, "object")
        assert ended and end_pos == 2 and commas == 0

    def test_first_element_matches(self):
        data = b'[{"x": 1}]'
        ended, pos, commas = ff_for(data).go_to_ary_elem(1, "object")
        assert not ended and pos == 1 and commas == 0

    def test_deeply_mixed(self):
        data = b'[1, [2, [3]], "s", {"a": 1}]'
        ended, pos, commas = ff_for(data).go_to_ary_elem(1, "object")
        assert not ended and data[pos : pos + 1] == b"{" and commas == 3
