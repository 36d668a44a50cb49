"""Streaming structural index over the input (paper Section 4.1).

The index is the chunked, lazily-built store of string-filtered
metacharacter bitmaps that every fast-forward algorithm reads.  It is the
reproduction's stand-in for the paper's "build the bitmaps for the current
word on demand": we classify a whole *chunk* (default 1 MiB,
:data:`DEFAULT_CHUNK_SIZE`) at a time with numpy — the SIMD substitute —
and expose the result both as mirrored
``uint64`` words (for the paper-faithful word-at-a-time scanner) and as
sorted position arrays (for the vectorized scanner).

Streaming discipline: chunks are built strictly forward (the string-mask
carries chain across chunks) and old chunks are evicted from a small LRU,
so memory stays ``O(input + chunk)`` — the property Figure 13 measures.
Preprocessing-style baselines reuse the same machinery with an unbounded
cache.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.bits.classify import (
    DERIVED_CLASSES,
    STRUCTURAL_CLASSES,
    CharClass,
    classify_chunk,
    int_to_words,
    packed_to_int,
)
from repro.bits.strings import INITIAL_CARRY, StringCarry, compute_string_mask

#: Default index chunk: 1 MiB balances per-chunk decode cost against
#: chunk-crossing overhead in the scanner; the streaming engines' bounded
#: auxiliary memory is O(chunk_size), configurable per engine (the paper:
#: "memory consumption is actually configurable by adjusting the input
#: buffer size").
DEFAULT_CHUNK_SIZE = 1 << 20

_WORD_BITS = 64
_BACKSLASH = 0x5C


@dataclass
class ChunkIndex:
    """Structural bitmaps for one chunk of the input.

    Attributes
    ----------
    start:
        Absolute byte offset of the chunk's first character.
    length:
        Number of input characters covered (the final chunk may be short;
        bitmap pad bits beyond ``length`` are zero).
    words:
        Mirrored ``uint64`` word bitmaps per :class:`CharClass`.  The six
        structural classes and the derived unions are string-filtered;
        ``QUOTE`` holds *unescaped* quotes (not string-filtered — it is the
        map used to find where strings begin and end).
    in_string:
        Chunk-wide in-string mask as a Python integer (kept for validation
        and for the primitive tokenizer).
    carry_in, carry_out:
        String-mask state chained across chunks.
    """

    start: int
    length: int
    words: dict[CharClass, np.ndarray]
    in_string: int
    carry_in: StringCarry
    carry_out: StringCarry
    _positions: dict[CharClass, np.ndarray] = field(default_factory=dict, repr=False)
    _positions_list: dict[CharClass, "array[int]"] = field(default_factory=dict, repr=False)

    @property
    def end(self) -> int:
        """Absolute offset one past the chunk's last character."""
        return self.start + self.length

    @property
    def n_words(self) -> int:
        return len(self.words[CharClass.LBRACE])

    def positions(self, cls: CharClass) -> np.ndarray:
        """Sorted absolute positions of ``cls`` occurrences in this chunk.

        Decoded lazily from the word bitmaps (``np.flatnonzero`` over the
        unpacked bits) and cached; this is the data structure behind
        :class:`repro.bits.scanner.VectorScanner`.
        """
        cached = self._positions.get(cls)
        if cached is None:
            packed = self.words[cls].view(np.uint8)
            bits = np.unpackbits(packed, bitorder="little", count=self.length)
            cached = np.flatnonzero(bits).astype(np.int64) + self.start
            self._positions[cls] = cached
        return cached

    def positions_list(self, cls: CharClass) -> "array[int]":
        """The same positions as a compact ``array('q')``.

        Scalar binary searches (``bisect``) over an array are several
        times faster than ``np.searchsorted`` calls from Python, and the
        scanner issues millions of them; decoded once per chunk per class
        at 8 bytes per position (no boxed ints).
        """
        cached = self._positions_list.get(cls)
        if cached is None:
            cached = array("q")
            cached.frombytes(np.ascontiguousarray(self.positions(cls)).tobytes())
            self._positions_list[cls] = cached
        return cached


def build_chunk_index(chunk: bytes, start: int, carry: StringCarry = INITIAL_CARRY) -> ChunkIndex:
    """Classify one chunk and produce its :class:`ChunkIndex`.

    This is the per-chunk pipeline of Algorithm 3's ``buildMetacharBitmap``:
    raw classification, escaped-character removal, in-string masking, and
    the AND that strips pseudo-metacharacters.
    """
    raw = classify_chunk(chunk)
    n_words = len(raw[CharClass.LBRACE]) // 8
    bits = n_words * _WORD_BITS

    quotes_int = packed_to_int(raw[CharClass.QUOTE])
    backslashes_int = packed_to_int(raw[CharClass.BACKSLASH])
    mask_result = compute_string_mask(quotes_int, backslashes_int, bits, carry, length=len(chunk))
    not_string = ~mask_result.in_string & ((1 << bits) - 1)

    words: dict[CharClass, np.ndarray] = {}
    for cls in STRUCTURAL_CLASSES:
        filtered = packed_to_int(raw[cls]) & not_string
        words[cls] = int_to_words(filtered, n_words)
    for derived, members in DERIVED_CLASSES.items():
        union = words[members[0]]
        for member in members[1:]:
            union = np.bitwise_or(union, words[member])
        words[derived] = union
    words[CharClass.QUOTE] = int_to_words(mask_result.unescaped_quotes, n_words)

    # The final chunk of a stream may end mid-string or mid-escape; the
    # carry computed over zero-padded bits is still correct because pad
    # bits contain no quotes or backslashes.
    return ChunkIndex(
        start=start,
        length=len(chunk),
        words=words,
        in_string=mask_result.in_string,
        carry_in=carry,
        carry_out=mask_result.carry_out,
    )


class BufferIndex:
    """Lazily-built, forward-chained chunk index over an in-memory buffer.

    Parameters
    ----------
    data:
        The JSON text (the paper preloads inputs into memory too).
    chunk_size:
        Characters per chunk; must be a multiple of 64.
    cache_chunks:
        LRU capacity in chunks, or ``None`` for unbounded retention
        (preprocessing baselines).  Streaming engines use a small value so
        index memory stays bounded.
    """

    def __init__(
        self,
        data: bytes,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        cache_chunks: int | None = 4,
    ) -> None:
        if chunk_size % _WORD_BITS:
            raise ValueError("chunk_size must be a multiple of 64")
        if cache_chunks is not None and cache_chunks < 2:
            raise ValueError("cache_chunks must be at least 2 (boundary straddling)")
        self.data = data
        self.chunk_size = chunk_size
        self.cache_chunks = cache_chunks
        self.n_chunks = max(1, -(-len(data) // chunk_size))
        self._cache: OrderedDict[int, ChunkIndex] = OrderedDict()
        # carry_out per built chunk id; tiny, retained forever so an evicted
        # chunk can be rebuilt without rescanning from the stream start.
        self._carries: list[StringCarry] = []
        # (position, entry carry) of a resumed run's entry chunk
        # (seed_cursor); consumed by its build.
        self._resume: tuple[int, Any] | None = None
        # Observability counters (always on: one integer add per chunk
        # build/eviction, i.e. once per MiB of input).  An attached
        # engine copies the deltas into its MetricsRegistry per run.
        self.chunks_built = 0
        self.chunks_evicted = 0
        self.words_built = 0
        #: Optional repro.observe tracer; when enabled, every chunk
        #: build is wrapped in an ``index_build`` span.
        self.tracer = None
        self._metrics: Any = None
        self._metric_counters: tuple[Any, Any, Any] | None = None

    def __len__(self) -> int:
        return len(self.data)

    def attach_metrics(self, registry: Any) -> None:
        """Count chunk builds, evictions and classified words into
        ``registry`` (``index.chunks_built``, ``index.chunks_evicted``,
        ``index.words_classified``) as they happen, whichever run or
        caller triggers them.  Idempotent per registry; like
        :attr:`tracer`, the last attached registry wins.
        """
        if registry is None or registry is self._metrics:
            return
        self._metrics = registry
        self._metric_counters = (
            registry.counter("index.chunks_built"),
            registry.counter("index.chunks_evicted"),
            registry.counter("index.words_classified"),
        )

    def chunk_of(self, pos: int) -> int:
        """Chunk id containing absolute position ``pos``."""
        return pos // self.chunk_size

    # -- suspend/resume carry transfer ---------------------------------

    def carries_snapshot(self) -> list[tuple[int, int]]:
        """The cross-chunk string-mask carries of every chunk built so far,
        as plain ``(escape, in_string)`` pairs (JSON-serializable).

        With them a fresh process rebuilds any already-visited chunk's
        bitmaps without rescanning the stream from byte zero — two bits
        per chunk, the suspension payoff of the forward-chained index
        design.  A resumed run that re-enters a chunk mid-way also needs
        the state at the re-entry point itself, :meth:`carry_at`, so it
        classifies that chunk from there instead of from its start.
        """
        return [(carry.escape, carry.in_string) for carry in self._carries]

    def seed_carries(self, carries: Iterable[tuple[int, int]]) -> None:
        """Pre-load carries captured by :meth:`carries_snapshot`.

        Must be called on a fresh index (nothing built yet).  Afterwards
        chunk ``i`` for any ``i <= len(carries)`` is buildable directly
        from its own bytes, because its carry-in is already known; a
        cursor from :meth:`carry_at` (:meth:`seed_cursor`) narrows the
        first build to the bytes from the resume position on.
        """
        if self._carries or self._cache:
            raise ValueError("seed_carries requires a fresh index (no chunks built)")
        carries = list(carries)
        if len(carries) > self.n_chunks:
            raise ValueError(
                f"{len(carries)} carries for an input of {self.n_chunks} chunks"
            )
        self._carries = [StringCarry(int(escape), int(in_string)) for escape, in_string in carries]

    def carry_at(self, pos: int) -> tuple[int, ...] | None:
        """The index's own carry at ``pos`` — ``(escape, in_string)``:
        whether the byte at ``pos`` is escaped, and whether the bytes
        before it leave the scan inside a string (a position index adds
        its depth counters; the shape :meth:`carries_snapshot` uses).

        A chunk classified from ``pos`` with this carry holds exactly the
        positions at or after ``pos`` of the chunk classified from its
        start.  ``None`` when the chunk holding ``pos`` is not cached:
        building it only to read the carry would cost what the cursor
        saves.
        """
        chunk = self._cache.get(self.chunk_of(pos))
        if chunk is None or not chunk.start <= pos < chunk.end:
            return None
        return self._cursor_at(chunk, pos)

    def _cursor_at(self, chunk: Any, pos: int) -> tuple[int, ...]:
        # The in-string mask covers the bytes through ``pos - 1``.
        offset = pos - chunk.start
        if offset == 0:
            return (self._escape_at(chunk, pos), chunk.carry_in.in_string)
        return (self._escape_at(chunk, pos), (chunk.in_string >> (offset - 1)) & 1)

    def _escape_at(self, chunk: Any, pos: int) -> int:
        """Whether the byte at ``pos`` is escaped: the backslash run
        ending just before it has odd length, counting only from the
        chunk start, where the chunk's carry-in may escape the first."""
        data, lo = self.data, chunk.start
        run = 0
        while pos - run > lo and data[pos - run - 1] == _BACKSLASH:
            run += 1
        if pos - run == lo:
            run -= chunk.carry_in.escape
        return run & 1

    def seed_cursor(self, pos: int, cursor: Iterable[int]) -> None:
        """Build the chunk holding ``pos`` from ``pos`` on, entered with
        ``cursor`` — a :meth:`carry_at` value captured over the same
        data.  Must be called on a fresh index, after
        :meth:`seed_carries`.  The chunk's positions before ``pos`` are
        then absent until a backward lookup needs them
        (:meth:`widen`).
        """
        if self._cache:
            raise ValueError("seed_cursor requires a fresh index (no chunks built)")
        self._resume = (pos, self._entry_from(tuple(cursor)))

    def widen(self, chunk_id: int) -> Any:
        """Chunk ``chunk_id`` classified from its own start.

        Only a resumed index's entry chunk (:meth:`seed_cursor`) starts
        later; a backward lookup that reaches below its start rebuilds
        it whole from the chained carries.
        """
        chunk = self.get(chunk_id)
        if chunk.start != self.chunk_start(chunk_id):
            del self._cache[chunk_id]
            chunk = self.get(chunk_id)
        return chunk

    def chunk_start(self, chunk_id: int) -> int:
        return chunk_id * self.chunk_size

    def get(self, chunk_id: int) -> ChunkIndex:
        """Return the index of ``chunk_id``, building forward as needed."""
        if not 0 <= chunk_id < self.n_chunks:
            raise IndexError(f"chunk {chunk_id} out of range (0..{self.n_chunks - 1})")
        cached = self._cache.get(chunk_id)
        if cached is not None:
            # LRU bookkeeping only matters once eviction is possible.
            if self.cache_chunks is not None and len(self._cache) >= self.cache_chunks:
                self._cache.move_to_end(chunk_id)
            return cached
        # The string-mask carries chain forward, so any chunk whose carry-in
        # is still unknown must be built first (forward scans need those
        # chunks' bitmaps anyway).
        for cid in range(len(self._carries), chunk_id):
            self._build(cid)
        return self._build(chunk_id)

    def _entry(self, chunk_id: int) -> Any:
        """The carry a build of chunk ``chunk_id`` from its start enters
        with (subclasses chain more state; see :meth:`_entry_from`)."""
        return INITIAL_CARRY if chunk_id == 0 else self._carries[chunk_id - 1]

    def _entry_from(self, cursor: tuple[int, ...]) -> Any:
        """:meth:`_entry`'s form of a :meth:`carry_at` cursor."""
        escape, in_string = cursor
        return StringCarry(escape, in_string)

    def _build_chunk(self, chunk: bytes, start: int, entry: Any) -> Any:
        """Per-chunk build; subclasses may produce a different chunk type
        (see :class:`repro.bits.posindex.PositionBufferIndex`)."""
        return build_chunk_index(chunk, start, entry)

    def _build(self, chunk_id: int) -> Any:
        start = self.chunk_start(chunk_id)
        end = start + self.chunk_size
        resume = self._resume
        if resume is not None and self.chunk_of(resume[0]) == chunk_id:
            # A resumed run's entry chunk: classify from the suspension
            # point, not from the chunk start.
            self._resume = None
            start, entry = resume
        else:
            entry = self._entry(chunk_id)
        raw = self.data[start:end]
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("index_build", **self._span_attrs(chunk_id, len(raw))):
                chunk = self._build_chunk(raw, start, entry)
        else:
            chunk = self._build_chunk(raw, start, entry)
        if chunk_id == len(self._carries):
            self._carries.append(chunk.carry_out)
        words = (chunk.length + _WORD_BITS - 1) // _WORD_BITS
        self.chunks_built += 1
        self.words_built += words
        counters = self._metric_counters
        if counters is not None:
            counters[0].add(1)
            counters[2].add(words)
        self._cache[chunk_id] = chunk
        self._cache.move_to_end(chunk_id)
        if self.cache_chunks is not None:
            while len(self._cache) > self.cache_chunks:
                self.chunks_evicted += 1
                if counters is not None:
                    counters[1].add(1)
                self._cache.popitem(last=False)
        return chunk

    def _span_attrs(self, chunk_id: int, nbytes: int) -> dict[str, int]:
        """Attributes of the ``index_build`` span for one chunk build."""
        return {"chunk": chunk_id, "bytes": nbytes}
