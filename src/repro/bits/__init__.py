"""Bit-parallel substrate (paper Section 4.1, Algorithm 3).

This subpackage provides everything below the fast-forward algorithms:

- :mod:`repro.bits.words` — 64-bit word primitives (the bit tricks of
  Algorithm 3: isolate lowest set bit, clear lowest set bit, interval
  subtraction, popcount, position of the interval end).
- :mod:`repro.bits.classify` — numpy-vectorized character classification of
  a chunk into per-metacharacter word bitmaps (the SIMD substitute).
- :mod:`repro.bits.strings` — the escaped-character and in-string masks
  (simdjson-style odd-backslash-run and prefix-XOR algorithms) used to
  remove pseudo-metacharacters inside strings.
- :mod:`repro.bits.index` — :class:`ChunkIndex` and :class:`BufferIndex`,
  the lazily-built, forward-only streaming index over the input.
- :mod:`repro.bits.posindex` — :class:`PositionBufferIndex`, the
  vector mode's index of sorted structural positions and depth tables.
- :mod:`repro.bits.scanner` — the scanners the fast-forward functions
  are written against: the paper-faithful word-at-a-time
  :class:`WordScanner`, whose ``find_next`` is the end of a structural
  interval (Definition 4.1) and whose ``pair_close`` is Algorithm 4's
  interval walk, and the depth-table :class:`VectorScanner`.
"""

from repro.bits.classify import CharClass, classify_chunk
from repro.bits.index import BufferIndex, ChunkIndex
from repro.bits.posindex import PositionBufferIndex, PositionChunk, build_position_chunk
from repro.bits.scanner import Scanner, VectorScanner, WordScanner
from repro.bits.words import (
    WORD_BITS,
    WORD_MASK,
    clear_lowest_bit,
    interval_between,
    interval_end,
    lowest_bit,
    mask_from,
    mask_up_to,
    popcount,
    select_kth_bit,
)

__all__ = [
    "WORD_BITS",
    "WORD_MASK",
    "BufferIndex",
    "CharClass",
    "ChunkIndex",
    "PositionBufferIndex",
    "PositionChunk",
    "Scanner",
    "VectorScanner",
    "WordScanner",
    "build_position_chunk",
    "classify_chunk",
    "clear_lowest_bit",
    "interval_between",
    "interval_end",
    "lowest_bit",
    "mask_from",
    "mask_up_to",
    "popcount",
    "select_kth_bit",
]
