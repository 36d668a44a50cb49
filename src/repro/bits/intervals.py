"""Structural intervals (paper Definition 4.1, Algorithm 3, Figures 7-8).

    Given the current streaming position ``pos`` and a metacharacter of
    interest ``α``, the *structural interval* for ``α`` is the sequence of
    consecutive characters between ``pos`` (inclusive) and the following
    closest ``α`` (exclusive).

This module gives structural intervals a literal, paper-shaped API: an
interval is constructed from its per-word *interval bitmaps* exactly as
Algorithm 3 does (mask bits below the start, isolate the next
metacharacter with ``b & -b``, subtract to fill the span), spilling across
words when the metacharacter lies beyond the current word (Figure 8).

The production engines query interval boundaries through
:class:`repro.bits.scanner.Scanner` (whose ``find_next`` *is* the interval
end); this module exists so the abstraction in the paper is directly
testable and demonstrable, word bitmaps included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.bits.classify import CharClass
from repro.bits.index import BufferIndex
from repro.bits.words import (
    WORD_BITS,
    WORD_MASK,
    interval_between,
    lowest_bit,
)


@dataclass(frozen=True)
class StructuralInterval:
    """A structural interval ``[start, end)`` for metacharacter ``cls``.

    ``end`` is the absolute position of the delimiting metacharacter, or
    ``None`` when no further occurrence exists (the interval extends to the
    end of the stream — the paper's open interval case).
    """

    cls: CharClass
    start: int
    end: int | None

    @property
    def is_open(self) -> bool:
        """True when no delimiting metacharacter was found."""
        return self.end is None

    def length_to(self, stream_size: int) -> int:
        """Character count of the interval, closing open intervals at
        ``stream_size``."""
        end = stream_size if self.end is None else self.end
        return max(0, end - self.start)

    def __contains__(self, pos: int) -> bool:
        if pos < self.start:
            return False
        return self.end is None or pos < self.end


class IntervalBuilder:
    """Constructs structural intervals word by word, per Algorithm 3.

    The builder walks the mirrored word bitmaps of a
    :class:`BufferIndex`; each step applies the paper's exact bit
    sequence::

        b_start    = 1 << pos                 # mask start position
        mask_start = b_start ^ (b_start - 1)  # bits up to start
        bitmap    &= ~mask_start              # clear below start
        b_end      = bitmap & -bitmap         # next metacharacter
        interval   = b_end - b_start          # the interval bitmap
    """

    def __init__(self, index: BufferIndex) -> None:
        self.index = index
        self._cursor: dict[CharClass, int] = {}

    def _word(self, cls: CharClass, word_pos: int) -> int:
        """Mirrored bitmap word covering absolute position ``word_pos``."""
        chunk = self.index.get(self.index.chunk_of(word_pos))
        word_id = (word_pos - chunk.start) // WORD_BITS
        return int(chunk.words[cls][word_id])

    def build(self, pos: int, cls: CharClass) -> StructuralInterval:
        """``buildInterval(pos, char)``: interval from ``pos`` (inclusive)
        to the next ``cls`` metacharacter (exclusive)."""
        size = len(self.index)
        if pos >= size:
            return StructuralInterval(cls, pos, None)
        bit = pos % WORD_BITS
        word_base = pos - bit
        # Algorithm 3 lines 4-6: mask the start position and reset the bits
        # below it.  ``pos`` itself stays eligible: a metacharacter at the
        # current position delimits a zero-length interval.
        b_start = 1 << bit
        bitmap = self._word(cls, word_base) & ~(b_start - 1) & WORD_MASK
        while True:
            b_end = lowest_bit(bitmap)
            if b_end:
                end = word_base + (b_end.bit_length() - 1)
                return StructuralInterval(cls, pos, end)
            word_base += WORD_BITS
            if word_base >= size:
                return StructuralInterval(cls, pos, None)
            bitmap = self._word(cls, word_base)

    def next(self, cls: CharClass) -> StructuralInterval:
        """``nextInterval(char)``: the interval between the next two ``cls``
        occurrences after the builder's cursor for that class.

        The first call behaves like ``build(0, cls)``; subsequent calls
        start one past the previous interval's end, so successive calls
        enumerate the metachar-to-metachar intervals of Figure 7.
        """
        start = self._cursor.get(cls, 0)
        interval = self.build(start, cls)
        if interval.end is not None:
            self._cursor[cls] = interval.end + 1
        else:
            self._cursor[cls] = len(self.index)
        return interval

    def reset(self, cls: CharClass | None = None) -> None:
        """Reset ``next`` cursors (all classes, or one)."""
        if cls is None:
            self._cursor.clear()
        else:
            self._cursor.pop(cls, None)

    def word_bitmaps(self, interval: StructuralInterval) -> Iterator[tuple[int, int]]:
        """Yield ``(word_start, interval_bitmap)`` per word the interval
        touches — the multi-word spill of Figure 8.

        Each bitmap has 1s exactly at the interval's positions within that
        word, built with :func:`repro.bits.words.interval_between`.
        """
        size = len(self.index)
        end = size if interval.end is None else interval.end
        if end <= interval.start:
            return
        first_word = interval.start - interval.start % WORD_BITS
        last_word = (end - 1) - (end - 1) % WORD_BITS
        for word_base in range(first_word, last_word + WORD_BITS, WORD_BITS):
            b_start = 1 << (interval.start - word_base) if word_base == first_word else 1
            # In the last word the delimiter sits at ``end`` unless the
            # interval runs through the word boundary (open within word).
            if word_base == last_word and end - word_base < WORD_BITS:
                b_end = 1 << (end - word_base)
            else:
                b_end = 0
            yield word_base, interval_between(b_start, b_end)

