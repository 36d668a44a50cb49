"""Additional structural-interval behaviours (successive ends, spills, edges)."""

from __future__ import annotations

from repro.bits.classify import CharClass
from repro.bits.scanner import NOT_FOUND

from tests.test_intervals import scanners, word_bitmaps


def successive_ends(scanner, cls: CharClass, count: int) -> list[int]:
    """End of each of ``count`` metachar-to-metachar intervals (Figure 7):
    every interval starts one past the previous one's end."""
    ends, pos = [], 0
    for _ in range(count):
        end = scanner.find_next(cls, pos)
        ends.append(end)
        pos = scanner.size if end == NOT_FOUND else end + 1
    return ends


class TestCursorSemantics:
    def test_next_crosses_chunk_boundaries(self):
        data = (b"x" * 70 + b",") * 3
        for scanner in scanners(data):
            assert successive_ends(scanner, CharClass.COMMA, 3) == [70, 141, 212]

    def test_next_exhausts_to_open_interval(self):
        for scanner in scanners(b"a,b"):
            # A further query keeps returning the open interval at the stream end.
            assert successive_ends(scanner, CharClass.COMMA, 3) == [1, NOT_FOUND, NOT_FOUND]


class TestBuildEdges:
    def test_build_past_end(self):
        for scanner in scanners(b"ab"):
            assert scanner.find_next(CharClass.COMMA, 10) == NOT_FOUND

    def test_zero_length_interval(self):
        for scanner in scanners(b",x"):
            assert scanner.find_next(CharClass.COMMA, 0) == 0
        word, _ = scanners(b",x")
        assert word.count_range(CharClass.COMMA, 0, 0) == 0

    def test_string_filtered(self):
        for scanner in scanners(b'"a,b",'):
            assert scanner.find_next(CharClass.COMMA, 0) == 5


class TestWordBitmapSpills:
    def test_three_word_spill(self):
        data = b"a" * 150 + b"," + b"a" * 9
        word, vector = scanners(data, chunk_size=256)
        end = word.find_next(CharClass.COMMA, 10)
        assert end == vector.find_next(CharClass.COMMA, 10) == 150
        assert word.count_range(CharClass.COMMA, 10, end) == 0
        pieces = list(word_bitmaps(10, end))
        assert len(pieces) == 3  # words 0, 64, 128
        assert pieces[0][0] == 0 and pieces[-1][0] == 128
        covered = sum(bitmap.bit_count() for _, bitmap in pieces)
        assert covered == 150 - 10

    def test_open_interval_bitmaps_reach_stream_end(self):
        data = b"a" * 100
        word, _ = scanners(data, chunk_size=128)
        assert word.find_next(CharClass.COMMA, 90) == NOT_FOUND
        pieces = list(word_bitmaps(90, word.size))
        covered = sum(bitmap.bit_count() for _, bitmap in pieces)
        assert covered == 10

    def test_empty_interval_yields_nothing(self):
        word, _ = scanners(b",")
        end = word.find_next(CharClass.COMMA, 0)
        assert end == 0
        assert list(word_bitmaps(0, end)) == []
