"""Scanner primitives over the structural index.

Every stage-2 fast-forward starts from two queries over the
string-filtered metacharacter bitmaps, which every scanner answers:

- ``find_next(cls, pos)`` — position of the next occurrence of ``cls`` at
  or after ``pos`` (the end of a structural interval, Definition 4.1);
- ``find_prev(cls, pos)`` — the last occurrence at or before ``pos`` (G1's
  attribute-name recovery);

plus ``pair_close``, the counting-based pairing of Theorem 4.3 that
locates every object and array end.  Each scanner keeps only what its
stage 2 calls:

- :class:`WordScanner` walks the mirrored 64-bit words of a
  :class:`~repro.bits.index.BufferIndex` one at a time with the bit
  tricks of Algorithm 3 — the paper-faithful mode.  Its ``pair_close``
  is Algorithm 4's interval walk over two more word primitives,
  ``count_range`` (the POPCNT) and ``kth_in_range`` (``getPosition``),
  which the word-mode G1 array sweep also counts commas with.
- :class:`VectorScanner` answers from the per-chunk sorted position
  arrays and depth tables of a
  :class:`~repro.bits.posindex.PositionBufferIndex` with ``bisect`` —
  the wide-SIMD stand-in.  Its ``pair_close`` is two binary searches in
  the depth tables, and it fuses each of stage 2's G1/G5 moves into one
  leveled lookup (:meth:`VectorScanner.leveled_obj_attr_named`,
  :meth:`VectorScanner.leveled_ary_elem`,
  :meth:`VectorScanner.leveled_skip_elems`).

:class:`repro.stream.buffer.StreamBuffer` picks the index and its
scanner together, by mode, and the fast-forwarder follows the scanner
(:func:`repro.engine.fastforward.make_fastforwarder`); no other pairing
is built.  Both are exact; the property-based test suite asserts they
agree everywhere, and ablation A2 measures the performance gap.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from typing import Any

from repro.bits.classify import CharClass
from repro.bits.index import BufferIndex, ChunkIndex
from repro.bits.posindex import PositionBufferIndex
from repro.bits.words import WORD_BITS, WORD_MASK, lowest_bit_position, popcount, select_kth_bit

#: Sentinel returned when no further occurrence exists in the stream.
NOT_FOUND = -1

_LBRACE = CharClass.LBRACE
#: A per-chunk cursor that matches no chunk.
_NO_CURSOR: tuple[int, Any] = (-1, None)


class Scanner(ABC):
    """Positional queries over one :class:`BufferIndex`."""

    #: The query methods stage 2 calls, which :meth:`attach_metrics`
    #: counts; each subclass adds the ones it defines.
    METERED_OPS: tuple[str, ...] = ("find_next", "find_prev", "pair_close")

    def __init__(self, index: BufferIndex) -> None:
        self.index = index
        self._metrics_registry = None

    @property
    def size(self) -> int:
        return len(self.index)

    def attach_metrics(self, registry: Any) -> None:
        """Count scanner primitive calls into ``registry``.

        Wraps each of the class's :attr:`METERED_OPS` with a per-op
        counter (``scanner.calls{op=...}``) as an *instance* attribute,
        so the metrics-off path — and every consumer that cached a bound
        method before attachment — pays nothing.  Idempotent per
        registry; a second attachment with a different registry rebinds
        the wrappers.  Must be called before fast-forwarders bind the
        methods (the engine attaches in ``_buffer()``, ahead of run
        construction).
        """
        if registry is None or registry is self._metrics_registry:
            return
        self._metrics_registry = registry
        for op in self.METERED_OPS:
            # Unwrap first so re-attachment wraps the class implementation,
            # not a previous registry's wrapper.
            self.__dict__.pop(op, None)
            inner = getattr(self, op)
            counter = registry.counter("scanner.calls", op=op)

            def wrapper(*args: Any, _inner: Any = inner, _counter: Any = counter) -> Any:
                _counter.value += 1
                return _inner(*args)

            setattr(self, op, wrapper)

    @abstractmethod
    def find_next(self, cls: CharClass, pos: int) -> int:
        """Absolute position of the next ``cls`` at or after ``pos``.

        Returns :data:`NOT_FOUND` when the stream has no further
        occurrence (an open structural interval extending to the end).
        """

    @abstractmethod
    def find_prev(self, cls: CharClass, pos: int) -> int:
        """Absolute position of the last ``cls`` at or before ``pos``.

        Used by G1 fast-forwarding to recover an attribute name *after*
        jumping to its value: the name's closing quote is the nearest
        unescaped quote behind the value start.
        """

    @abstractmethod
    def pair_close(self, open_cls: CharClass, close_cls: CharClass, pos: int, num_open: int) -> int:
        """Counting-based pairing (Algorithm 4 / Theorem 4.3): position of
        the ``close_cls`` character that balances ``num_open`` outstanding
        ``open_cls`` characters, scanning from ``pos``; :data:`NOT_FOUND`
        if the stream ends first.  Every caller passes the brace or the
        bracket pair.
        """


class WordScanner(Scanner):
    """Word-at-a-time scanner: literal Algorithm 3/4 bit manipulation.

    Each 64-bit word is lifted to a Python int and interrogated with
    ``b & -b`` / popcount / k-th-bit selection — the exact operations the
    paper issues per word, at word (not character) granularity.
    """

    METERED_OPS = (*Scanner.METERED_OPS, "count_range", "kth_in_range")

    def find_next(self, cls: CharClass, pos: int) -> int:
        if pos >= self.size:
            return NOT_FOUND
        for chunk_id in range(self.index.chunk_of(pos), self.index.n_chunks):
            chunk = self.index.get(chunk_id)
            found = self._chunk_find(chunk, cls, max(pos, chunk.start))
            if found != NOT_FOUND:
                return found
        return NOT_FOUND

    def find_prev(self, cls: CharClass, pos: int) -> int:
        pos = min(pos, self.size - 1)
        if pos < 0:
            return NOT_FOUND
        for chunk_id in range(self.index.chunk_of(pos), -1, -1):
            chunk = self.index.get(chunk_id)
            found = NOT_FOUND
            if pos >= chunk.start:
                found = self._chunk_find_prev(chunk, cls, min(pos, chunk.end - 1))
            if found == NOT_FOUND and chunk.start != self.index.chunk_start(chunk_id):
                # A resumed index's entry chunk starts at the suspension
                # point; the answer may lie before it.
                chunk = self.index.widen(chunk_id)
                found = self._chunk_find_prev(chunk, cls, min(pos, chunk.end - 1))
            if found != NOT_FOUND:
                return found
        return NOT_FOUND

    def pair_close(self, open_cls: CharClass, close_cls: CharClass, pos: int, num_open: int) -> int:
        """Algorithm 4's interval walk: across the structural intervals
        between successive opens, count the closers per interval; the
        interval holding at least ``num_open`` of them ends the
        structure at its ``num_open``-th closer, otherwise the unpaired
        count is carried into the next interval."""
        cur = pos
        while True:
            next_open = self.find_next(open_cls, cur)
            interval_end = next_open if next_open != NOT_FOUND else self.size
            n_close = self.count_range(close_cls, cur, interval_end)
            if n_close >= num_open:
                return self.kth_in_range(close_cls, cur, num_open)
            if next_open == NOT_FOUND:
                return NOT_FOUND
            num_open += 1 - n_close
            cur = next_open + 1

    def count_range(self, cls: CharClass, lo: int, hi: int) -> int:
        """Number of ``cls`` occurrences in ``[lo, hi)``."""
        if hi <= lo:
            return 0
        hi = min(hi, self.size)
        total = 0
        for chunk_id in range(self.index.chunk_of(lo), self.index.chunk_of(max(hi - 1, lo)) + 1):
            chunk = self.index.get(chunk_id)
            total += self._chunk_count(chunk, cls, max(lo, chunk.start), min(hi, chunk.end))
        return total

    def kth_in_range(self, cls: CharClass, lo: int, k: int) -> int:
        """Position of the ``k``-th (1-based) ``cls`` at or after ``lo``."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if lo >= self.size:
            return NOT_FOUND
        remaining = k
        for chunk_id in range(self.index.chunk_of(lo), self.index.n_chunks):
            chunk = self.index.get(chunk_id)
            found, remaining = self._chunk_kth(chunk, cls, max(lo, chunk.start), remaining)
            if found != NOT_FOUND:
                return found
        return NOT_FOUND

    # -- per-chunk word walks -------------------------------------------

    def _chunk_find(self, chunk: ChunkIndex, cls: CharClass, pos: int) -> int:
        """First occurrence of ``cls`` at or after ``pos`` within ``chunk``."""
        words = chunk.words[cls]
        offset = pos - chunk.start
        word_id = offset // WORD_BITS
        if word_id >= len(words):
            return NOT_FOUND
        first = int(words[word_id]) & ~((1 << (offset % WORD_BITS)) - 1)
        if first:
            return chunk.start + word_id * WORD_BITS + lowest_bit_position(first)
        for wid in range(word_id + 1, len(words)):
            word = int(words[wid])
            if word:
                return chunk.start + wid * WORD_BITS + lowest_bit_position(word)
        return NOT_FOUND

    def _chunk_count(self, chunk: ChunkIndex, cls: CharClass, lo: int, hi: int) -> int:
        """Occurrences of ``cls`` in ``[lo, hi)`` within ``chunk``."""
        if hi <= lo:
            return 0
        words = chunk.words[cls]
        lo_off, hi_off = lo - chunk.start, hi - chunk.start
        lo_word, hi_word = lo_off // WORD_BITS, (hi_off - 1) // WORD_BITS
        total = 0
        for wid in range(lo_word, hi_word + 1):
            word = int(words[wid])
            if wid == lo_word:
                word &= ~((1 << (lo_off % WORD_BITS)) - 1)
            if wid == hi_word and hi_off % WORD_BITS:
                word &= (1 << (hi_off % WORD_BITS)) - 1
            total += popcount(word)
        return total

    def _chunk_kth(self, chunk: ChunkIndex, cls: CharClass, lo: int, k: int) -> tuple[int, int]:
        """``(position, 0)`` of the ``k``-th occurrence at or after ``lo`` in
        ``chunk``, or ``(NOT_FOUND, remaining)`` with the count still owed."""
        words = chunk.words[cls]
        offset = lo - chunk.start
        word_id = offset // WORD_BITS
        remaining = k
        for wid in range(word_id, len(words)):
            word = int(words[wid])
            if wid == word_id:
                word &= ~((1 << (offset % WORD_BITS)) - 1)
            count = popcount(word)
            if count >= remaining:
                bit = select_kth_bit(word, remaining)
                return chunk.start + wid * WORD_BITS + bit, 0
            remaining -= count
        return NOT_FOUND, remaining

    def _chunk_find_prev(self, chunk: ChunkIndex, cls: CharClass, pos: int) -> int:
        """Last occurrence of ``cls`` at or before ``pos`` within ``chunk``."""
        words = chunk.words[cls]
        offset = pos - chunk.start
        word_id = offset // WORD_BITS
        bit = offset % WORD_BITS
        mask = WORD_MASK if bit == WORD_BITS - 1 else (1 << (bit + 1)) - 1
        first = int(words[word_id]) & mask
        if first:
            return chunk.start + word_id * WORD_BITS + (first.bit_length() - 1)
        for wid in range(word_id - 1, -1, -1):
            word = int(words[wid])
            if word:
                return chunk.start + wid * WORD_BITS + (word.bit_length() - 1)
        return NOT_FOUND


class VectorScanner(Scanner):
    """Vectorized scanner over per-chunk sorted position lists and
    depth tables of a :class:`~repro.bits.posindex.PositionBufferIndex`.

    Each class's positions are decoded once per chunk (a selection of
    the position index's classified stream — the batch, SIMD-like
    step); every query then becomes a scalar binary search over the
    decoded positions.  The public methods are flat ``bisect`` loops
    because the fast-forward algorithms issue these queries millions
    of times.
    """

    METERED_OPS = (
        *Scanner.METERED_OPS, "leveled_obj_attr_named", "leveled_ary_elem", "leveled_skip_elems",
    )

    def __init__(self, index: PositionBufferIndex) -> None:
        super().__init__(index)
        self._n_chunks = index.n_chunks
        self._chunk_size = index.chunk_size
        self._size = len(index)
        # Per-class cursor: (chunk_id, positions_list) of the most recently
        # touched chunk.  Streaming access is overwhelmingly chunk-local,
        # so this removes the index/dict hops from the common path while
        # leaving eviction behaviour (bounded memory) to the BufferIndex.
        self._cursor: dict[CharClass, tuple[int, list[int]]] = {}
        self._dt_cursor: tuple[int, Any] | None = None
        # Per pair class: (chunk_id, PairTable) of the chunk the last
        # depth-table pair_close started in, and the quote list of the
        # last G1 name lookup — the state that lets the in-chunk cases
        # answer without a tables fetch (attributes, not a dict: an
        # enum-keyed lookup costs a Python-level hash).
        self._brace_cursor: tuple[int, Any] = _NO_CURSOR
        self._bracket_cursor: tuple[int, Any] = _NO_CURSOR
        self._quote_cursor: tuple[int, Any] = _NO_CURSOR

    def _tables(self, chunk_id: int) -> Any:
        cursor = self._dt_cursor
        if cursor is not None and cursor[0] == chunk_id:
            return cursor[1]
        tables = self.index.get(chunk_id).depth_tables()
        self._dt_cursor = (chunk_id, tables)
        return tables

    def _list(self, cls: CharClass, chunk_id: int) -> list[int]:
        cursor = self._cursor.get(cls)
        if cursor is not None and cursor[0] == chunk_id:
            return cursor[1]
        positions = self.index.get(chunk_id).positions_list(cls)
        self._cursor[cls] = (chunk_id, positions)
        return positions

    def find_next(self, cls: CharClass, pos: int) -> int:
        if pos >= self._size:
            return NOT_FOUND
        for chunk_id in range(pos // self._chunk_size, self._n_chunks):
            positions = self._list(cls, chunk_id)
            idx = bisect_left(positions, pos)
            if idx < len(positions):
                return positions[idx]
        return NOT_FOUND

    def find_prev(self, cls: CharClass, pos: int) -> int:
        pos = min(pos, self._size - 1)
        if pos < 0:
            return NOT_FOUND
        for chunk_id in range(pos // self._chunk_size, -1, -1):
            positions = self._list(cls, chunk_id)
            idx = bisect_right(positions, pos)
            if idx == 0 and self.index.get(chunk_id).start != chunk_id * self._chunk_size:
                # A resumed index's entry chunk starts at the suspension
                # point; the answer may lie before it.  The cursors hold
                # the narrow chunk's lists, so they go too.
                self._cursor.clear()
                self._dt_cursor = None
                self._brace_cursor = self._bracket_cursor = self._quote_cursor = _NO_CURSOR
                positions = self.index.widen(chunk_id).positions_list(cls)
                idx = bisect_right(positions, pos)
            if idx > 0:
                return positions[idx - 1]
        return NOT_FOUND

    def pair_close(self, open_cls: CharClass, close_cls: CharClass, pos: int, num_open: int) -> int:
        """Counting-based pairing as two binary searches (stage 2).

        The chunk's :class:`~repro.bits.posindex.DepthTables` answer directly:
        the closer ending ``num_open`` outstanding opens is the first
        closer at or after ``pos`` whose pair depth *after* processing it
        equals ``depth_before(pos) - num_open``.  Pair depth moves by ±1
        per event, so that closer is exactly where Algorithm 4's interval
        walk (:meth:`WordScanner.pair_close`) first owes no closer — on
        well-formed and malformed byte streams alike.  Depths are
        absolute, so a miss continues into later chunks with the same
        target.

        The in-chunk case — every G2/G4 skip whose closer lies in the
        chunk of the previous skip — is answered inline: one cursor
        check, two bisects and one dict get.  Only the brace and bracket
        pairs have depth tables; every caller passes one of them.
        """
        cursor = self._brace_cursor if open_cls is _LBRACE else self._bracket_cursor
        if cursor[0] == pos // self._chunk_size:
            pair = cursor[1]
            j = bisect_left(pair.events, pos)
            arr = pair.closes_by_depth.get((pair.after[j - 1] if j else pair.depth_in) - num_open)
            if arr is not None:
                i = bisect_left(arr, pos)
                if i < len(arr):
                    return arr[i]
        return self._pair_close_tables(open_cls, close_cls, pos, num_open)

    def _pair_close_tables(self, open_cls: CharClass, close_cls: CharClass, pos: int, num_open: int) -> int:
        """:meth:`pair_close` of a brace or bracket pair through the
        tables of ``pos``'s chunk and the later ones; sets the pair
        cursor for the in-chunk case."""
        if pos >= self._size:
            return NOT_FOUND
        brace = open_cls is _LBRACE
        chunk_id = pos // self._chunk_size
        tables = self._tables(chunk_id)
        pair = tables.brace if brace else tables.bracket
        if brace:
            self._brace_cursor = (chunk_id, pair)
        else:
            self._bracket_cursor = (chunk_id, pair)
        target = pair.depth_before(pos) - num_open
        found = pair.close_at_depth(target, pos)
        if found >= 0:
            return found
        for cid in range(chunk_id + 1, self._n_chunks):
            tables = self._tables(cid)
            pair = tables.brace if brace else tables.bracket
            found = pair.first_close_at_depth(target)
            if found >= 0:
                return found
        return NOT_FOUND

    # -- leveled (depth-keyed) queries ----------------------------------

    def commas_at_depth(self, depth: int, lo: int, hi: int, k: int) -> tuple[int, int]:
        """Commas whose combined structural depth is ``depth`` in
        ``[lo, hi)``: ``(position of the k-th, k)`` when at least ``k``
        exist, else ``(NOT_FOUND, total count)``.

        This is the Pison-style leveled comma map promoted into the main
        engine: element separators of a container at depth ``d`` are
        precisely the commas at depth ``d``, so G5's ``goOverElems(k)``
        becomes this single lookup.
        """
        if hi <= lo:
            return NOT_FOUND, 0
        hi = min(hi, self._size)
        first = lo // self._chunk_size
        last = max(hi - 1, lo) // self._chunk_size
        remaining = k
        seen = 0
        for chunk_id in range(first, last + 1):
            arr = self._tables(chunk_id).commas_by_depth.get(depth)
            if not arr:
                continue
            i = bisect_left(arr, lo) if chunk_id == first else 0
            j = bisect_left(arr, hi) if chunk_id == last else len(arr)
            if j - i >= remaining:
                return arr[i + remaining - 1], k
            seen += j - i
            remaining -= j - i
        return NOT_FOUND, seen

    def open_at_depth(self, open_byte: int, depth: int, lo: int, hi: int) -> int:
        """First ``{`` (``open_byte=0x7B``) or ``[`` (``0x5B``) in
        ``[lo, hi)`` opening a container at combined depth ``depth``.

        This is the leveled G1 sweep: the structured values of a container
        whose interior sits at depth ``d`` are exactly the opens at depth
        ``d + 1``, so "next attribute/element of the wanted type" is one
        binary search — nested opens inside wrong-type siblings are at
        deeper levels and never surface.
        """
        if hi <= lo:
            return NOT_FOUND
        hi = min(hi, self._size)
        first = lo // self._chunk_size
        last = max(hi - 1, lo) // self._chunk_size
        for chunk_id in range(first, last + 1):
            arr = self._tables(chunk_id).opens_by_depth(open_byte).get(depth)
            if not arr:
                continue
            i = bisect_left(arr, lo) if chunk_id == first else 0
            if i < len(arr):
                found = arr[i]
                # Positions only grow from here on; past ``hi`` means done.
                return found if found < hi else NOT_FOUND
        return NOT_FOUND

    def close_at_combined_depth(self, depth: int, pos: int) -> int:
        """First ``}``/``]`` at or after ``pos`` whose combined depth
        after processing it equals ``depth``.

        On well-formed input this is the end of the enclosing container
        when called with ``depth_before(pos) - 1`` — the fused bound the
        leveled G1 sweeps use instead of a full ``pair_close``.
        """
        if pos >= self._size:
            return NOT_FOUND
        first = pos // self._chunk_size
        for chunk_id in range(first, self._n_chunks):
            arr = self._tables(chunk_id).closes_by_depth.get(depth)
            if not arr:
                continue
            i = bisect_left(arr, pos) if chunk_id == first else 0
            if i < len(arr):
                return arr[i]
        return NOT_FOUND

    # -- fused G1/G5 seeks: one scanner call per fast-forward ------------

    def _enclosing_close(self, pos: int, chunk_id: int, end: int) -> tuple[Any, int, int]:
        """The step every fused lookup starts with: ``(tables, depth,
        end)`` — the depth tables of ``pos``'s chunk ``chunk_id``, the
        combined depth before ``pos``, and the enclosing container's
        closer, the first close at or after ``pos`` at ``depth - 1``
        (:data:`NOT_FOUND` if the stream ends first).  The closer is
        read from the chunk's tables, or on spill from
        :meth:`close_at_combined_depth` over the later chunks — unless
        the caller already knows it (``end >= pos``: an earlier lookup in
        the same container returned it), which is then used as is."""
        tables = self._tables(chunk_id)
        depth = tables.depth_before(pos)
        if end >= pos:
            return tables, depth, end
        closes = tables.closes_by_depth.get(depth - 1)
        if closes:
            i = bisect_left(closes, pos)
            if i < len(closes):
                return tables, depth, closes[i]
        return tables, depth, self.close_at_combined_depth(depth - 1, (chunk_id + 1) * self._chunk_size)

    def leveled_obj_attr_named(self, pos: int, want_byte: int, end: int = NOT_FOUND) -> tuple[int, int, int, int]:
        """Fused object G1 sweep:
        ``(container_end, wanted_open, name_open, name_close)``.

        ``container_end`` is the enclosing container's closer
        (:data:`NOT_FOUND` if the stream ends first, in which case the
        rest is meaningless) — ``end`` itself when the caller passes the
        closer an earlier lookup in the same container returned, so each
        container's closer is found once; ``wanted_open`` is the first
        ``want_byte`` open at value depth before that end, or
        :data:`NOT_FOUND`; the name's quotes are :meth:`prev_quote_pair`
        just before it (both :data:`NOT_FOUND` without a wanted open).
        The in-chunk case — overwhelmingly common with megabyte chunks —
        resolves with one tables fetch and four binary searches;
        chunk-spill falls back to the decomposed cross-chunk queries.
        """
        chunk_id = pos // self._chunk_size
        tables, depth, end = self._enclosing_close(pos, chunk_id, end)
        if end == NOT_FOUND:
            return NOT_FOUND, NOT_FOUND, NOT_FOUND, NOT_FOUND
        chunk_end = (chunk_id + 1) * self._chunk_size
        found = NOT_FOUND
        opens = tables.opens_by_depth(want_byte).get(depth + 1)
        j = bisect_left(opens, pos) if opens else 0
        if opens and j < len(opens):
            # Positions only grow: past ``end`` here means past it in
            # every later chunk too.
            if opens[j] < end:
                found = opens[j]
        elif end >= chunk_end:
            found = self.open_at_depth(want_byte, depth + 1, chunk_end, end)
        if found == NOT_FOUND:
            return end, NOT_FOUND, NOT_FOUND, NOT_FOUND
        return (end, found, *self.prev_quote_pair(found - 1))

    def leveled_ary_elem(self, pos: int, want_byte: int, end: int = NOT_FOUND) -> tuple[int, int, int]:
        """Fused array G1 sweep: ``(array_end, wanted_open, commas)``.

        Same bound (and known ``end``) and open as
        :meth:`leveled_obj_attr_named` plus the count of element-level
        commas crossed up to the wanted open (or up to the array end when
        there is none) — Algorithm 5's counter as one range count on the
        leveled comma map.
        """
        chunk_id = pos // self._chunk_size
        tables, depth, end = self._enclosing_close(pos, chunk_id, end)
        if end == NOT_FOUND:
            return NOT_FOUND, NOT_FOUND, 0
        chunk_end = (chunk_id + 1) * self._chunk_size
        found = NOT_FOUND
        spill = True
        opens = tables.opens_by_depth(want_byte).get(depth + 1)
        if opens:
            j = bisect_left(opens, pos)
            if j < len(opens):
                spill = False
                f = opens[j]
                if f < end:
                    found = f
        if spill and end >= chunk_end:
            found = self.open_at_depth(want_byte, depth + 1, chunk_end, end)
        bound = end if found == NOT_FOUND else found
        if bound <= chunk_end:
            commas = tables.commas_by_depth.get(depth)
            n = (bisect_left(commas, bound) - bisect_left(commas, pos)) if commas else 0
            return end, found, n
        # More commas than bytes cannot exist: this ``k`` only counts.
        return end, found, self.commas_at_depth(depth, pos, bound, bound - pos + 1)[1]

    def leveled_skip_elems(self, pos: int, k: int) -> tuple[int, int, int]:
        """Fused G5 ``goOverElems(k)``: ``(array_end, kth_comma, crossed)``.

        ``array_end`` is the first closer at or after ``pos`` at combined
        depth ``depth_before(pos) - 1`` (:data:`NOT_FOUND` if the stream
        ends first; the rest is then meaningless); ``kth_comma`` and
        ``crossed`` are :meth:`commas_at_depth` at ``depth_before(pos)``
        over ``[pos, array_end)``.  The in-chunk case takes one tables
        fetch and at most four binary searches.
        """
        if pos >= self._size:
            return NOT_FOUND, NOT_FOUND, 0
        chunk_id = pos // self._chunk_size
        tables, depth, end = self._enclosing_close(pos, chunk_id, NOT_FOUND)
        if end == NOT_FOUND:
            return NOT_FOUND, NOT_FOUND, 0
        if end >= (chunk_id + 1) * self._chunk_size:
            comma, crossed = self.commas_at_depth(depth, pos, end, k)
            return end, comma, crossed
        commas = tables.commas_by_depth.get(depth)
        if not commas:
            return end, NOT_FOUND, 0
        i = bisect_left(commas, pos)
        j = i + k - 1
        if j < len(commas) and commas[j] < end:
            return end, commas[j], k
        return end, NOT_FOUND, bisect_left(commas, end, i) - i

    def prev_quote_pair(self, pos: int) -> tuple[int, int]:
        """The two nearest unescaped quotes at or before ``pos`` as
        ``(opening, closing)`` — the G1 name-recovery lookup, fused into
        one binary search when both quotes sit in ``pos``'s chunk."""
        if pos < 0:
            return NOT_FOUND, NOT_FOUND
        chunk_id = pos // self._chunk_size
        cursor = self._quote_cursor
        if cursor[0] != chunk_id:
            cursor = self._quote_cursor = (chunk_id, self._list(CharClass.QUOTE, chunk_id))
        quotes = cursor[1]
        i = bisect_right(quotes, pos)
        if i >= 2:
            return quotes[i - 2], quotes[i - 1]
        close = self.find_prev(CharClass.QUOTE, pos)
        if close == NOT_FOUND:
            return NOT_FOUND, NOT_FOUND
        return self.find_prev(CharClass.QUOTE, close - 1), close
