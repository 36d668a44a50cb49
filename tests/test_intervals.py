"""Tests for structural intervals (Definition 4.1, Algorithm 3).

An interval starts at a position and ends at the next string-filtered
occurrence of a metacharacter class, which is ``find_next``; ``NOT_FOUND``
is the open interval running to the end of the stream.  The per-word
bitmaps of Figure 8's multi-word spill are ``words.interval_between``.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.bits.classify import CharClass
from repro.bits.index import BufferIndex
from repro.bits.posindex import PositionBufferIndex
from repro.bits.scanner import NOT_FOUND, VectorScanner, WordScanner
from repro.bits.strings import naive_string_mask
from repro.bits.words import WORD_BITS, interval_between

_DENSE = st.lists(st.sampled_from(list(b'a" {}[]:,')), max_size=300).map(bytes)


def scanners(data: bytes, chunk_size: int = 64):
    return (
        WordScanner(BufferIndex(data, chunk_size=chunk_size, cache_chunks=None)),
        VectorScanner(PositionBufferIndex(data, chunk_size=chunk_size, cache_chunks=None)),
    )


def word_bitmaps(start: int, end: int):
    """``(word_base, bitmap)`` pieces covering ``[start, end)``."""
    base = start - start % WORD_BITS
    while base < end:
        b_start = 1 << (max(start, base) - base)
        b_end = 1 << (end - base) if end < base + WORD_BITS else 0
        yield base, interval_between(b_start, b_end)
        base += WORD_BITS


def _oracle_next(data: bytes, cls: CharClass, pos: int) -> int:
    mask = naive_string_mask(data)
    for i in range(pos, len(data)):
        if data[i] in cls.chars and not (mask.in_string >> i & 1):
            return i
    return NOT_FOUND


class TestBuild:
    def test_figure1_style(self):
        data = b'{ "user": { "id": 6253282 } }'
        for scanner in scanners(data):
            assert scanner.find_next(CharClass.COLON, 0) == data.index(b":")

    def test_pos_itself_can_delimit(self):
        for scanner in scanners(b":abc:"):
            assert scanner.find_next(CharClass.COLON, 0) == 0

    def test_no_occurrence_gives_open_interval(self):
        for scanner in scanners(b"abcdef"):
            assert scanner.find_next(CharClass.COLON, 2) == NOT_FOUND

    def test_pseudo_metachars_excluded(self):
        for scanner in scanners(b'"a:b" :'):
            assert scanner.find_next(CharClass.COLON, 0) == 6

    def test_spans_word_boundaries(self):
        data = b"a" * 100 + b":"
        for scanner in scanners(data):
            assert scanner.find_next(CharClass.COLON, 0) == 100

    @given(_DENSE, st.sampled_from([CharClass.COLON, CharClass.COMMA, CharClass.LBRACE]))
    def test_matches_oracle(self, data, cls):
        word, vector = scanners(data)
        for pos in range(len(data) + 1):
            want = _oracle_next(data, cls, pos)
            assert word.find_next(cls, pos) == want
            assert vector.find_next(cls, pos) == want


class TestNext:
    def test_enumerates_successive_intervals(self):
        for scanner in scanners(b"a,bb,ccc,"):
            ends, pos = [], 0
            for _ in range(3):
                pos = scanner.find_next(CharClass.COMMA, pos)
                ends.append(pos)
                pos += 1
            assert ends == [1, 4, 8]

    def test_independent_cursors_per_class(self):
        # Interleaved queries for two classes do not disturb each other.
        for scanner in scanners(b"a,b:c,d:"):
            assert scanner.find_next(CharClass.COMMA, 0) == 1
            assert scanner.find_next(CharClass.COLON, 0) == 3
            assert scanner.find_next(CharClass.COMMA, 2) == 5
            assert scanner.find_next(CharClass.COLON, 4) == 7


class TestWordBitmaps:
    @given(_DENSE)
    def test_bitmap_union_covers_interval(self, data):
        """The per-word bitmaps must set exactly the interval's positions
        (Figure 8's multi-word spill)."""
        if not data:
            return
        word, _ = scanners(data)
        end = word.find_next(CharClass.COMMA, 0)
        if end == NOT_FOUND:
            end = word.size
        covered = set()
        for word_base, bitmap in word_bitmaps(0, end):
            for bit in range(WORD_BITS):
                if bitmap >> bit & 1:
                    covered.add(word_base + bit)
        assert covered == set(range(0, end))
