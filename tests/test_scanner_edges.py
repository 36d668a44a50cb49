"""Scanner boundary coverage beyond the oracle property tests."""

from __future__ import annotations

from repro.bits.classify import CharClass
from repro.bits.index import BufferIndex
from repro.bits.posindex import PositionBufferIndex
from repro.bits.scanner import NOT_FOUND, VectorScanner, WordScanner
from repro.errors import format_error_context


def scanners(data: bytes, chunk_size: int = 64):
    return (
        WordScanner(BufferIndex(data, chunk_size=chunk_size, cache_chunks=None)),
        VectorScanner(PositionBufferIndex(data, chunk_size=chunk_size, cache_chunks=None)),
    )


class TestExactBoundaries:
    def test_metachar_at_chunk_edges(self):
        # Braces at positions 63, 64, 127, 128 with 64-byte chunks.
        data = bytearray(b"a" * 200)
        for pos in (0, 63, 64, 127, 128, 199):
            data[pos] = ord("{")
        data = bytes(data)
        for scanner in scanners(data):
            assert scanner.find_next(CharClass.LBRACE, 0) == 0
            assert scanner.find_next(CharClass.LBRACE, 1) == 63
            assert scanner.find_next(CharClass.LBRACE, 64) == 64
            assert scanner.find_next(CharClass.LBRACE, 65) == 127
            assert scanner.find_next(CharClass.LBRACE, 129) == 199
            assert scanner.find_prev(CharClass.LBRACE, 126) == 64
            assert scanner.find_prev(CharClass.LBRACE, 63) == 63
        word, _ = scanners(data)
        assert word.count_range(CharClass.LBRACE, 0, 200) == 6
        assert word.count_range(CharClass.LBRACE, 63, 129) == 4
        assert word.kth_in_range(CharClass.LBRACE, 1, 4) == 128

    def test_query_at_exact_end(self):
        data = b"a" * 63 + b"{"
        for scanner in scanners(data):
            assert scanner.find_next(CharClass.LBRACE, 63) == 63
            assert scanner.find_next(CharClass.LBRACE, 64) == NOT_FOUND
            assert scanner.find_prev(CharClass.LBRACE, 1000) == 63

    def test_empty_input(self):
        for scanner in scanners(b""):
            assert scanner.find_next(CharClass.LBRACE, 0) == NOT_FOUND
            assert scanner.find_prev(CharClass.LBRACE, 0) == NOT_FOUND
        assert scanners(b"")[0].count_range(CharClass.LBRACE, 0, 10) == 0


class TestPairCloseDeep:
    def test_num_open_greater_than_one(self):
        #       01234567
        data = b"{{}}{}}}"
        for scanner in scanners(data):
            # From pos 2 with two opens outstanding: closers at 2 and 3.
            assert scanner.pair_close(CharClass.LBRACE, CharClass.RBRACE, 2, 2) == 3
            # From pos 4: the '{' at 4 raises the debt; three closers needed.
            assert scanner.pair_close(CharClass.LBRACE, CharClass.RBRACE, 4, 2) == 7
            # Unbalanceable debt reports NOT_FOUND.
            assert scanner.pair_close(CharClass.LBRACE, CharClass.RBRACE, 4, 4) == NOT_FOUND

    def test_num_open_across_chunks(self):
        deep = b"{" * 40 + b"x" * 60 + b"}" * 40
        for scanner in scanners(deep):
            assert scanner.pair_close(CharClass.LBRACE, CharClass.RBRACE, 40, 40) == len(deep) - 1
            assert scanner.pair_close(CharClass.LBRACE, CharClass.RBRACE, 40, 1) == 100

    def test_interleaved_opens_per_interval(self):
        # Algorithm 4's interval accounting: each interval holds some
        # closers but never enough until the end.
        data = b"{" + b'{"a":1},' * 20 + b"}"
        for scanner in scanners(data):
            assert scanner.pair_close(CharClass.LBRACE, CharClass.RBRACE, 1, 1) == len(data) - 1


class TestWordScannerInternals:
    def test_masked_first_word(self):
        data = b"{{{" + b"a" * 61
        scanner, _ = scanners(data)
        assert scanner.find_next(CharClass.LBRACE, 2) == 2
        assert scanner.count_range(CharClass.LBRACE, 1, 3) == 2

    def test_kth_spanning_words(self):
        data = (b"{" + b"a" * 31) * 8  # one '{' per 32 bytes
        scanner, _ = scanners(data)
        for k in range(1, 9):
            assert scanner.kth_in_range(CharClass.LBRACE, 0, k) == (k - 1) * 32


class TestErrorContext:
    def test_caret_points_at_position(self):
        text = format_error_context(b'{"a": 1; "b": 2}', 7)
        lines = text.splitlines()
        assert lines[0][7] == ";"
        assert lines[1].index("^") == 7

    def test_window_and_ellipses(self):
        data = b"x" * 100 + b"!" + b"y" * 100
        text = format_error_context(data, 100, width=10)
        lines = text.splitlines()
        assert lines[0].startswith("...") and lines[0].endswith("...")
        assert lines[0][lines[1].index("^")] == "!"

    def test_nonprintable_sanitized(self):
        text = format_error_context(b"\x00\x01{bad", 2)
        assert text.splitlines()[0].startswith("..")

    def test_position_past_end_clamped(self):
        text = format_error_context(b"ab", 99)
        assert "^" in text
