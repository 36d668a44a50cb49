"""Scanner primitive tests: word vs vector vs brute-force oracle."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bits.classify import CharClass
from repro.bits.index import BufferIndex
from repro.bits.posindex import PositionBufferIndex
from repro.bits.scanner import NOT_FOUND, VectorScanner, WordScanner
from repro.bits.strings import naive_string_mask
from repro.engine.fastforward import FastForwarder, VectorFastForwarder, make_fastforwarder
from repro.stream.buffer import StreamBuffer

_DENSE = st.lists(st.sampled_from(list(b'a" \\{}[]:,')), max_size=250).map(bytes)
_CLASSES = [cls for cls in CharClass if cls is not CharClass.BACKSLASH]


def _oracle_positions(data: bytes, cls: CharClass) -> list[int]:
    """Brute-force string-filtered positions of a class."""
    mask = naive_string_mask(data)
    if cls is CharClass.QUOTE:
        return [i for i in range(len(data)) if mask.unescaped_quotes >> i & 1]
    return [
        i
        for i, c in enumerate(data)
        if c in cls.chars and not (mask.in_string >> i & 1)
    ]


def _scanners(data: bytes, chunk_size: int = 64):
    word = WordScanner(BufferIndex(data, chunk_size=chunk_size, cache_chunks=None))
    vector = VectorScanner(PositionBufferIndex(data, chunk_size=chunk_size, cache_chunks=None))
    return word, vector


class TestBackendChoice:
    """``StreamBuffer`` picks the index, scanner and fast-forwarder
    together, by mode."""

    def test_known_modes(self):
        for mode, index, scanner, ff in [
            ("word", BufferIndex, WordScanner, FastForwarder),
            ("vector", PositionBufferIndex, VectorScanner, VectorFastForwarder),
        ]:
            buffer = StreamBuffer(b"{}", mode=mode, chunk_size=64)
            assert type(buffer.index) is index
            assert type(buffer.scanner) is scanner
            assert type(make_fastforwarder(buffer)) is ff

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match=r"unknown scanner mode 'simd'; expected one of \['vector', 'word'\]"):
            StreamBuffer(b"{}", mode="simd", chunk_size=64)


class TestPrimitivesAgainstOracle:
    @given(_DENSE, st.sampled_from(_CLASSES))
    def test_find_next(self, data, cls):
        word, vector = _scanners(data)
        oracle = _oracle_positions(data, cls)
        for pos in range(len(data) + 1):
            want = next((p for p in oracle if p >= pos), NOT_FOUND)
            assert word.find_next(cls, pos) == want
            assert vector.find_next(cls, pos) == want

    @given(_DENSE, st.sampled_from(_CLASSES))
    def test_find_prev(self, data, cls):
        word, vector = _scanners(data)
        oracle = _oracle_positions(data, cls)
        for pos in range(len(data) + 1):
            want = next((p for p in reversed(oracle) if p <= pos), NOT_FOUND)
            assert word.find_prev(cls, pos) == want
            assert vector.find_prev(cls, pos) == want

    # count_range and kth_in_range are the word scanner's own: Algorithm
    # 4's POPCNT and getPosition under its interval-walk pair_close.

    @given(_DENSE, st.sampled_from(_CLASSES), st.data())
    def test_count_range(self, data, cls, draw):
        word, _ = _scanners(data)
        oracle = _oracle_positions(data, cls)
        n = len(data)
        lo = draw.draw(st.integers(min_value=0, max_value=max(n, 1)))
        hi = draw.draw(st.integers(min_value=0, max_value=max(n, 1) + 5))
        want = sum(1 for p in oracle if lo <= p < hi)
        assert word.count_range(cls, lo, hi) == want

    @given(_DENSE, st.sampled_from(_CLASSES), st.integers(min_value=1, max_value=10))
    def test_kth_in_range(self, data, cls, k):
        word, _ = _scanners(data)
        oracle = _oracle_positions(data, cls)
        for lo in range(0, len(data) + 1, 7):
            eligible = [p for p in oracle if p >= lo]
            want = eligible[k - 1] if len(eligible) >= k else NOT_FOUND
            assert word.kth_in_range(cls, lo, k) == want

    def test_kth_invalid_k(self):
        word, _ = _scanners(b"{}")
        with pytest.raises(ValueError):
            word.kth_in_range(CharClass.LBRACE, 0, 0)


def _oracle_pair_close(data: bytes, open_cls, close_cls, pos: int, num_open: int) -> int:
    """Reference matching-close via a linear depth scan."""
    opens = set(_oracle_positions(data, open_cls))
    closes = set(_oracle_positions(data, close_cls))
    depth = num_open
    for p in range(pos, len(data)):
        if p in opens:
            depth += 1
        elif p in closes:
            depth -= 1
            if depth == 0:
                return p
    return NOT_FOUND


class TestPairClose:
    @given(_DENSE, st.integers(min_value=1, max_value=3))
    def test_matches_depth_scan(self, data, num_open):
        word, vector = _scanners(data)
        for pos in range(0, len(data) + 1, 5):
            want = _oracle_pair_close(data, CharClass.LBRACE, CharClass.RBRACE, pos, num_open)
            assert word.pair_close(CharClass.LBRACE, CharClass.RBRACE, pos, num_open) == want
            assert vector.pair_close(CharClass.LBRACE, CharClass.RBRACE, pos, num_open) == want

    def test_nested_object_end(self):
        data = b'{"a": {"b": {}}, "c": {}} tail'
        _, vector = _scanners(data)
        assert vector.pair_close(CharClass.LBRACE, CharClass.RBRACE, 1, 1) == 24

    def test_crossing_chunk_boundaries(self):
        inner = b'{"k": [' + b"1," * 100 + b"2]}"
        data = b'{"pad": "' + b"x" * 70 + b'", "v": ' + inner + b"}"
        word, vector = _scanners(data, chunk_size=64)
        want = len(data) - 1
        assert word.pair_close(CharClass.LBRACE, CharClass.RBRACE, 1, 1) == want
        assert vector.pair_close(CharClass.LBRACE, CharClass.RBRACE, 1, 1) == want

    def test_unclosed_returns_not_found(self):
        _, vector = _scanners(b'{"a": {')
        assert vector.pair_close(CharClass.LBRACE, CharClass.RBRACE, 1, 1) == NOT_FOUND


class TestLeveledQueries:
    """The leveled G1/G5 lookups behind VectorFastForwarder (this is the
    vectorized stage-2 hot path; boundary semantics are pinned here and
    cross-checked against word mode by the equivalence suite)."""

    DATA = b'{"a": 1, "b": {"x": [9]}, "c": [10, {"d": 2}, [3], 11], "e": 4}'
    #       0123456789...
    _LBRACE, _LBRACKET = 0x7B, 0x5B

    def _vector(self, data=None, chunk_size=64):
        data = self.DATA if data is None else data
        return VectorScanner(PositionBufferIndex(data, chunk_size=chunk_size, cache_chunks=None))

    def test_leveled_obj_attr_finds_object_value(self):
        sc = self._vector()
        # from just inside the root object, next object-typed value is $.b's
        end, found, opening, closing = sc.leveled_obj_attr_named(1, self._LBRACE)
        assert self.DATA[found] == self._LBRACE
        assert found == self.DATA.index(b'{"x"')
        assert self.DATA[end] == 0x7D and end == len(self.DATA) - 1
        assert self.DATA[opening + 1 : closing] == b"b"

    def test_leveled_obj_attr_skips_nested_opens(self):
        sc = self._vector()
        # array-typed value of the root: $.c's '[' — not the nested
        # '[9]' inside $.b (deeper) and not '[3]' inside $.c
        end, found, opening, closing = sc.leveled_obj_attr_named(1, self._LBRACKET)
        assert found == self.DATA.index(b'[10')
        assert self.DATA[opening + 1 : closing] == b"c"

    def test_leveled_obj_attr_not_found(self):
        sc = self._vector(b'{"a": 1, "b": 2}')
        # the closing '}', no wanted open, hence no name
        assert sc.leveled_obj_attr_named(1, self._LBRACE) == (15, NOT_FOUND, NOT_FOUND, NOT_FOUND)

    def test_leveled_ary_elem_counts_commas(self):
        sc = self._vector()
        start = self.DATA.index(b'10')
        end, found, commas = sc.leveled_ary_elem(start, self._LBRACE)
        assert found == self.DATA.index(b'{"d"')
        assert commas == 1  # one top-level comma crossed before it
        end2, found2, commas2 = sc.leveled_ary_elem(start, self._LBRACKET)
        assert found2 == self.DATA.index(b'[3]')
        assert commas2 == 2

    def test_leveled_ary_elem_exhausted(self):
        sc = self._vector(b'[1, 2, 3]')
        end, found, commas = sc.leveled_ary_elem(1, self._LBRACE)
        assert found == NOT_FOUND
        assert end == 8 and commas == 2

    def test_close_at_combined_depth(self):
        sc = self._vector()
        # first depth-0 close at/after position 1 is the final '}'
        assert sc.close_at_combined_depth(0, 1) == len(self.DATA) - 1
        # inside $.c, depth-1 close is $.c's ']'
        start = self.DATA.index(b'10')
        assert sc.close_at_combined_depth(1, start) == self.DATA.index(b'], "e"')

    def test_count_commas_at_depth(self):
        sc = self._vector()
        start = self.DATA.index(b'[10') + 1
        stop = self.DATA.index(b'], "e"')
        # $.c has 3 element-separating commas; nested containers' commas
        # (none here) would sit deeper
        assert sc.commas_at_depth(2, start, stop, 4) == (NOT_FOUND, 3)

    def test_open_at_depth_bounded(self):
        sc = self._vector()
        lo = self.DATA.index(b'[10') + 1
        hi = self.DATA.index(b'], "e"')
        assert sc.open_at_depth(self._LBRACE, 3, lo, hi) == self.DATA.index(b'{"d"')
        # no object open in ["d"'s value .. hi) at that depth
        assert sc.open_at_depth(self._LBRACE, 3, self.DATA.index(b'{"d"') + 1, hi) == NOT_FOUND

    def test_prev_quote_pair(self):
        sc = self._vector()
        vstart = self.DATA.index(b'{"x"')
        opening, closing = sc.prev_quote_pair(vstart - 1)
        assert self.DATA[opening + 1 : closing] == b"b"

    def test_prev_quote_pair_cross_chunk_fallback(self):
        data = b'{"' + b"k" * 100 + b'": {"x": 1}}'
        sc = self._vector(data, chunk_size=64)
        vstart = data.index(b'{"x"')
        opening, closing = sc.prev_quote_pair(vstart - 1)
        assert data[opening + 1 : closing] == b"k" * 100

    def test_leveled_obj_attr_named_cross_chunk_name(self):
        data = b'{"' + b"k" * 100 + b'": {"x": 1}}'
        sc = self._vector(data, chunk_size=64)
        end, found, opening, closing = sc.leveled_obj_attr_named(1, self._LBRACE)
        assert found == data.index(b'{"x"') and end == len(data) - 1
        assert data[opening + 1 : closing] == b"k" * 100

    def test_leveled_skip_elems(self):
        sc = self._vector()
        start = self.DATA.index(b"10")
        end = self.DATA.index(b'], "e"')
        # $.c = [10, {"d": 2}, [3], 11]: the 2nd element-level comma
        # precedes [3]; the nested object's interior holds no comma at
        # the element depth.
        assert sc.leveled_skip_elems(start, 2) == (end, self.DATA.index(b", [3]"), 2)
        # Fewer than k elements left: the array end and the commas crossed.
        assert sc.leveled_skip_elems(start, 9) == (end, NOT_FOUND, 3)

    def test_leveled_skip_elems_exhausted(self):
        sc = self._vector(b"[1, 2, 3")
        assert sc.leveled_skip_elems(1, 1) == (NOT_FOUND, NOT_FOUND, 0)
        assert sc.leveled_skip_elems(8, 1) == (NOT_FOUND, NOT_FOUND, 0)

    def test_leveled_skip_elems_cross_chunk(self):
        data = b"[" + b", ".join(b"%d" % i for i in range(60)) + b"]"
        sc = self._vector(data, chunk_size=64)
        comma, n = sc.commas_at_depth(1, 1, len(data) - 1, 40)
        assert sc.leveled_skip_elems(1, 40) == (len(data) - 1, comma, 40)
        assert sc.leveled_skip_elems(1, 99) == (len(data) - 1, NOT_FOUND, 59)

    def test_leveled_queries_cross_chunk(self):
        # force the container end and the wanted open into later chunks
        pad = b'"' + b"p" * 200 + b'", '
        data = b'{"a": ' + pad + b'"b": {"x": 1}, "c": 2}'
        sc = self._vector(data, chunk_size=64)
        end, found, opening, closing = sc.leveled_obj_attr_named(1, self._LBRACE)
        assert found == data.index(b'{"x"')
        assert end == len(data) - 1
        assert data[opening + 1 : closing] == b"b"
