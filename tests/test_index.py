"""Tests for the chunked structural index (word-bitmap flavour)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bits.classify import CharClass
from repro.bits.index import BufferIndex, build_chunk_index
from repro.bits.strings import INITIAL_CARRY, naive_string_mask


class TestBuildChunkIndex:
    def test_string_filtering(self):
        chunk = b'{"a{": ","}'
        ci = build_chunk_index(chunk, 0)
        # The '{' at position 3 and ',' at 8 are inside strings.
        assert list(ci.positions_list(CharClass.LBRACE)) == [0]
        assert list(ci.positions_list(CharClass.COMMA)) == []
        assert list(ci.positions_list(CharClass.COLON)) == [5]

    def test_quote_positions_are_unescaped_only(self):
        chunk = b'{"a\\"b": 1}'
        ci = build_chunk_index(chunk, 0)
        assert list(ci.positions_list(CharClass.QUOTE)) == [1, 6]

    def test_absolute_offsets(self):
        ci = build_chunk_index(b"{}", 1000)
        assert list(ci.positions_list(CharClass.LBRACE)) == [1000]
        assert list(ci.positions_list(CharClass.RBRACE)) == [1001]
        assert ci.start == 1000 and ci.end == 1002

    def test_derived_union_positions(self):
        ci = build_chunk_index(b"[{}]", 0)
        assert list(ci.positions_list(CharClass.OPEN)) == [0, 1]
        assert list(ci.positions_list(CharClass.CLOSE)) == [2, 3]
        assert list(ci.positions_list(CharClass.ANY)) == [0, 1, 2, 3]


class TestBufferIndex:
    def test_chunk_math(self):
        idx = BufferIndex(b"x" * 200, chunk_size=64, cache_chunks=None)
        assert idx.n_chunks == 4
        assert idx.chunk_of(0) == 0
        assert idx.chunk_of(63) == 0
        assert idx.chunk_of(64) == 1
        assert idx.chunk_start(3) == 192
        assert idx.get(3).length == 200 - 192

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BufferIndex(b"x", chunk_size=100)
        with pytest.raises(ValueError):
            BufferIndex(b"x", chunk_size=64, cache_chunks=1)
        with pytest.raises(IndexError):
            BufferIndex(b"x", chunk_size=64).get(5)

    def test_forward_build_chains_carries(self):
        # A string spanning three chunks must mask metachars throughout.
        data = b'{"k": "' + b"{" * 150 + b'"}'
        idx = BufferIndex(data, chunk_size=64, cache_chunks=None)
        braces = [p for cid in range(idx.n_chunks) for p in list(idx.get(cid).positions_list(CharClass.LBRACE))]
        assert braces == [0]

    def test_lru_eviction_and_rebuild(self):
        data = (b'{"a": 1}' * 100).ljust(1024)
        idx = BufferIndex(data, chunk_size=64, cache_chunks=2)
        idx.get(idx.n_chunks - 1)  # builds everything forward
        built_once = idx.chunks_built
        assert built_once == idx.n_chunks
        # Old chunks were evicted; asking again rebuilds from stored carries.
        first = idx.get(0)
        assert idx.chunks_built == built_once + 1
        assert first.carry_in == INITIAL_CARRY

    def test_unbounded_cache_never_rebuilds(self):
        data = b'[1, 2, 3]' * 50
        idx = BufferIndex(data, chunk_size=64, cache_chunks=None)
        for _ in range(3):
            for cid in range(idx.n_chunks):
                idx.get(cid)
        assert idx.chunks_built == idx.n_chunks

    @given(st.binary(max_size=300))
    def test_rebuilt_chunk_identical(self, data):
        """Eviction must be invisible: rebuilt chunks equal originals."""
        if not data:
            return
        full = BufferIndex(data, chunk_size=64, cache_chunks=None)
        lru = BufferIndex(data, chunk_size=64, cache_chunks=2)
        lru.get(lru.n_chunks - 1)
        for cid in range(full.n_chunks):
            a, b = full.get(cid), lru.get(cid)
            for cls in (CharClass.ANY, CharClass.QUOTE):
                assert list(a.positions_list(cls)) == list(b.positions_list(cls))

    @given(st.binary(max_size=256))
    def test_in_string_matches_oracle(self, data):
        idx = BufferIndex(data, chunk_size=64, cache_chunks=None)
        carry = INITIAL_CARRY
        for cid in range(idx.n_chunks):
            chunk = idx.get(cid)
            want = naive_string_mask(data[chunk.start : chunk.end], carry)
            mask = (1 << chunk.length) - 1
            assert chunk.in_string & mask == want.in_string
            carry = want.carry_out


class TestResumeCursor:
    """An index entered mid-chunk with :meth:`BufferIndex.carry_at`'s
    cursor (a resumed suspendable run) answers like the whole index."""

    CLASSES = [cls for cls in CharClass if cls is not CharClass.BACKSLASH]

    @staticmethod
    def _pair(data: bytes, pos: int, mode: str):
        from repro.stream.buffer import StreamBuffer

        whole = StreamBuffer(data, mode=mode, chunk_size=64, cache_chunks=None)
        for cid in range(whole.index.n_chunks):
            whole.index.get(cid)
        resumed = StreamBuffer(data, mode=mode, chunk_size=64, cache_chunks=None)
        resumed.index.seed_carries(whole.index.carries_snapshot())
        resumed.index.seed_cursor(pos, whole.index.carry_at(pos))
        return whole, resumed

    @given(
        data=st.binary(min_size=1, max_size=300).map(
            lambda raw: bytes(b'"\\{}[]:, a'[b % 10] for b in raw)
        ),
        at=st.floats(min_value=0, max_value=1, exclude_max=True),
        mode=st.sampled_from(["vector", "word"]),
    )
    def test_entry_chunk_matches_whole_index(self, data, at, mode):
        pos = int(at * len(data))
        whole, resumed = self._pair(data, pos, mode)
        cid = pos // 64
        entry, reference = resumed.index.get(cid), whole.index.get(cid)
        assert entry.start == pos and entry.carry_out == reference.carry_out
        for cls in self.CLASSES:
            expected = reference.positions(cls)
            assert list(entry.positions(cls)) == list(expected[expected >= pos])
        assert resumed.index.carry_at(pos) == whole.index.carry_at(pos)
        if mode == "vector":
            assert entry.depth_out == reference.depth_out

    @given(
        data=st.binary(min_size=65, max_size=300).map(
            lambda raw: bytes(b'"\\{}[]:, a'[b % 10] for b in raw)
        ),
        mode=st.sampled_from(["vector", "word"]),
    )
    def test_backward_lookup_below_entry_point_widens(self, data, mode):
        pos = len(data) - 1
        whole, resumed = self._pair(data, pos, mode)
        for cls in (CharClass.QUOTE, CharClass.LBRACE, CharClass.COMMA):
            assert resumed.scanner.find_next(cls, pos) == whole.scanner.find_next(cls, pos)
            for probe in range(len(data) - 1, -1, -7):
                assert resumed.scanner.find_prev(cls, probe) == whole.scanner.find_prev(cls, probe)
        assert resumed.index.get(pos // 64).start == (pos // 64) * 64
