"""Position-based structural index (the vector-mode fast path).

:class:`repro.bits.index.ChunkIndex` materializes mirrored word bitmaps —
what the paper's word-at-a-time algorithms consume.  The vectorized
scanner, however, only ever needs each class's *sorted positions*, so
this module builds those directly from one classification pass:

1. ``bytes.translate`` over the chunk's own bytes marks every
   metacharacter, quote and backslash with 1; viewed as ``bool``, one
   ``flatnonzero`` turns that mask into the *interesting stream* (the
   positions of those bytes, and one ``take`` their values);
2. backslash runs are reduced to (start, end, length) triples, giving
   each quote's escaped/unescaped status (odd-run rule, carried across
   chunks exactly like :func:`repro.bits.words.escaped_positions`);
3. the in-string parity of every structural character is a prefix
   XOR scan (``np.logical_xor.accumulate``) of the unescaped quotes
   along the interesting stream — the sparse-stream form of simdjson's
   prefix-XOR string mask;
4. every selection — the structural characters outside strings, the
   per-class position lists (built lazily) — is one ``flatnonzero`` of
   its mask and one ``take`` per array sharing that mask, never a
   boolean-mask gather.

The result is semantically identical to filtering the word bitmaps (the
property-based tests assert equality against the word path) but costs a
dozen short array operations per chunk — which is what makes the
streaming engine competitive on kilobyte-sized records, where fixed
per-record indexing cost dominates (paper Section 5.2, Figure 11).

Beyond the flat per-class arrays, each chunk can materialize
:class:`DepthTables` — the stage-1 artifacts of the two-stage hot path
(see ``docs/two-stage.md``):

- per pair class (``{}``/``[]``), closer positions grouped by the pair
  depth *after* the closer, which turns the counting-based pairing of
  Algorithm 4 / Theorem 4.3 into two binary searches (the first closer at
  depth ``depth_before(pos) - num_open`` is exactly the closer the
  reference interval walk returns, on any byte stream);
- Pison-style leveled comma, opener and closer position maps keyed by
  combined structural depth, which turn the paper's G5
  ``goOverElems(k)`` into a single k-th-comma-at-depth lookup.

Depth values are absolute (carried across chunks like the string mask),
so a lookup that misses one chunk continues into the next with the same
target.

The same classification kernel also indexes a run of small records as
one chunk (:func:`build_record_batch`, :class:`RecordBatchIndex`), each
record classified as if it stood alone — batched stage 1 for record
streams (``docs/two-stage.md``, "Record streams").
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.bits.classify import CharClass
from repro.bits.index import DEFAULT_CHUNK_SIZE, BufferIndex
from repro.bits.strings import INITIAL_CARRY, StringCarry

#: ``bytes.translate`` table marking every metacharacter, quote and
#: backslash with 1 — the interesting-byte mask, read back as ``bool``.
_INTERESTING = bytes(c in b'{}[]:,"\\' for c in range(256))

_QUOTE, _BACKSLASH = 0x22, 0x5C
_LBRACE, _RBRACE = 0x7B, 0x7D
_LBRACKET, _RBRACKET = 0x5B, 0x5D
_COMMA = 0x2C

#: Byte values selected by each character class.
_CLASS_BYTES: dict[CharClass, tuple[int, ...]] = {
    cls: tuple(cls.chars) for cls in CharClass
}

#: ``+1`` for openers, ``-1`` for closers, ``0`` for ``:``/``,``/quotes.
_DELTA = np.zeros(256, dtype=np.int64)
_DELTA[_LBRACE] = _DELTA[_LBRACKET] = 1
_DELTA[_RBRACE] = _DELTA[_RBRACKET] = -1
#: The same split per pair class (a record's brace and bracket nets).
_BRACE_DELTA = np.zeros(256, dtype=np.int64)
_BRACE_DELTA[_LBRACE], _BRACE_DELTA[_RBRACE] = 1, -1
_BRACKET_DELTA = np.zeros(256, dtype=np.int64)
_BRACKET_DELTA[_LBRACKET], _BRACKET_DELTA[_RBRACKET] = 1, -1


class DepthCarry(NamedTuple):
    """Structural depth state at a chunk boundary.

    ``depth`` is the combined open-container count (braces + brackets);
    ``brace``/``bracket`` are the per-pair-class counts Algorithm 4's
    counting argument runs on.  Three small ints per chunk, chained
    forward exactly like :class:`~repro.bits.strings.StringCarry` — and
    serialized next to it by checkpoint suspension.
    """

    depth: int = 0
    brace: int = 0
    bracket: int = 0


DEPTH_ZERO = DepthCarry(0, 0, 0)

_INT16_MIN, _INT16_MAX = np.iinfo(np.int16).min, np.iinfo(np.int16).max


def _q_array(values: np.ndarray) -> "array[int]":
    """``values`` as an ``array('q')``: one copy, read through a byte
    view of the int64 buffer."""
    arr: "array[int]" = array("q")
    arr.frombytes(np.ascontiguousarray(values, dtype=np.int64).view(np.uint8))
    return arr


def _group_by_depth(pos: np.ndarray, depth: np.ndarray) -> dict[int, "array[int]"]:
    """``{depth: sorted positions at that depth}`` from parallel arrays.

    A stable argsort keeps each depth group in ascending position order;
    groups are stored as ``array('q')`` so lookups are plain ``bisect``
    calls (no numpy scalar boxing on the hot path).  The sort key is
    int16 whenever the chunk's depths fit (numpy's stable sort is then a
    radix sort), int64 otherwise — an input property, not a setting.
    """
    groups: dict[int, "array[int]"] = {}
    if not len(pos):
        return groups
    key = depth
    if _INT16_MIN <= int(depth.min()) and int(depth.max()) <= _INT16_MAX:
        key = depth.astype(np.int16)
    order = np.argsort(key, kind="stable")
    sorted_depth = depth.take(order)
    sorted_pos = pos.take(order)
    bounds = np.flatnonzero(sorted_depth[1:] != sorted_depth[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(sorted_depth)]))
    for s, e in zip(starts, ends):
        groups[int(sorted_depth[s])] = _q_array(sorted_pos[s:e])
    return groups


class PairTable:
    """One pair class's (``{}`` or ``[]``) depth view of a chunk.

    ``close_at_depth(d, pos)`` returns the first closer at or after
    ``pos`` whose pair depth *after* processing it equals ``d`` — which,
    because pair depth moves by ±1 per event, is exactly the closer that
    balances ``depth_before(pos) - d`` outstanding opens (Theorem 4.3).
    """

    __slots__ = ("depth_in", "events", "after", "closes_by_depth")

    def __init__(self, pos: np.ndarray, vals: np.ndarray, open_byte: int, close_byte: int, depth_in: int) -> None:
        sel = np.flatnonzero((vals == open_byte) | (vals == close_byte))
        events = pos.take(sel)
        ev_vals = vals.take(sel)
        after = depth_in + np.cumsum(_DELTA.take(ev_vals))
        self.depth_in = depth_in
        self.events = _q_array(events)
        self.after = _q_array(after)
        closes = np.flatnonzero(ev_vals == close_byte)
        self.closes_by_depth = _group_by_depth(events.take(closes), after.take(closes))

    def depth_before(self, pos: int) -> int:
        """Pair depth just before absolute position ``pos``."""
        j = bisect_left(self.events, pos)
        return self.depth_in if j == 0 else self.after[j - 1]

    def close_at_depth(self, depth: int, pos: int) -> int:
        """First closer at or after ``pos`` with after-depth ``depth``
        (``-1`` when this chunk has none)."""
        arr = self.closes_by_depth.get(depth)
        if arr is None:
            return -1
        i = bisect_left(arr, pos)
        return arr[i] if i < len(arr) else -1

    def first_close_at_depth(self, depth: int) -> int:
        """First closer in the chunk with after-depth ``depth`` (or -1)."""
        arr = self.closes_by_depth.get(depth)
        return arr[0] if arr else -1


class DepthTables:
    """Stage-1 depth artifacts of one chunk.

    Combined-depth leveled maps for ``,``, the ``{``/``[`` openers and
    the merged ``}``/``]`` closers, plus one :class:`PairTable` per
    brace/bracket pair.  All depths are absolute (seeded from the
    chunk's :class:`DepthCarry`), so queries compose across chunk
    boundaries without rebasing.

    Only the combined event/depth arrays are built up front; each
    component table materializes on first access, so a query that only
    pairs braces never pays for comma maps (and vice versa).
    """

    __slots__ = (
        "depth_in", "events", "after", "_pos", "_vals", "_after_np",
        "_brace", "_bracket", "_commas", "_obj_opens", "_ary_opens",
        "_closes",
    )

    def __init__(self, pos: np.ndarray, vals: np.ndarray, depth_in: DepthCarry) -> None:
        after = depth_in.depth + np.cumsum(_DELTA.take(vals))
        self.depth_in = depth_in
        self.events = _q_array(pos)
        self.after = _q_array(after)
        self._pos = pos
        self._vals = vals
        self._after_np = after
        self._brace: PairTable | None = None
        self._bracket: PairTable | None = None
        self._commas: dict[int, "array[int]"] | None = None
        self._obj_opens: dict[int, "array[int]"] | None = None
        self._ary_opens: dict[int, "array[int]"] | None = None
        self._closes: dict[int, "array[int]"] | None = None

    @property
    def brace(self) -> PairTable:
        table = self._brace
        if table is None:
            table = self._brace = PairTable(self._pos, self._vals, _LBRACE, _RBRACE, self.depth_in.brace)
        return table

    @property
    def bracket(self) -> PairTable:
        table = self._bracket
        if table is None:
            table = self._bracket = PairTable(self._pos, self._vals, _LBRACKET, _RBRACKET, self.depth_in.bracket)
        return table

    def _grouped(self, mask: np.ndarray) -> dict[int, "array[int]"]:
        """The events selected by ``mask``, grouped by their after-depth."""
        sel = np.flatnonzero(mask)
        return _group_by_depth(self._pos.take(sel), self._after_np.take(sel))

    @property
    def commas_by_depth(self) -> dict[int, "array[int]"]:
        groups = self._commas
        if groups is None:
            groups = self._commas = self._grouped(self._vals == _COMMA)
        return groups

    def opens_by_depth(self, open_byte: int) -> dict[int, "array[int]"]:
        """``{``/``[`` positions grouped by the combined depth *after* the
        opener — i.e. the depth of the container it starts.  A container
        value at interior depth ``d`` opens at group key ``d + 1``, which
        is what makes the G1 sweeps single lookups."""
        if open_byte == _LBRACE:
            groups = self._obj_opens
            if groups is None:
                groups = self._obj_opens = self._grouped(self._vals == _LBRACE)
            return groups
        groups = self._ary_opens
        if groups is None:
            groups = self._ary_opens = self._grouped(self._vals == _LBRACKET)
        return groups

    @property
    def closes_by_depth(self) -> dict[int, "array[int]"]:
        """``}``/``]`` positions (merged) grouped by the combined depth
        *after* the closer — i.e. the depth outside the container it
        ends.  The end of a container whose interior sits at depth ``d``
        is the first close at group key ``d - 1``, making "skip to the
        enclosing end" a single lookup on well-formed input."""
        groups = self._closes
        if groups is None:
            groups = self._closes = self._grouped(_DELTA.take(self._vals) == -1)
        return groups

    def depth_before(self, pos: int) -> int:
        """Combined structural depth just before absolute position ``pos``."""
        j = bisect_left(self.events, pos)
        return self.depth_in.depth if j == 0 else self.after[j - 1]


@dataclass
class PositionChunk:
    """Per-chunk sorted positions of every character class.

    ``keep``/``keep_vals`` hold the string-filtered structural positions
    (absolute) and their byte values; ``quotes`` holds the unescaped
    quotes.  Class lists are materialized lazily — a typical query
    touches only a handful of classes.
    """

    start: int
    length: int
    keep: np.ndarray
    keep_vals: np.ndarray
    quotes: np.ndarray
    carry_in: StringCarry
    carry_out: StringCarry
    depth_in: DepthCarry = DEPTH_ZERO
    depth_out: DepthCarry = DEPTH_ZERO
    _lists: dict[CharClass, "array[int]"] = field(default_factory=dict, repr=False)
    _arrays: dict[CharClass, np.ndarray] = field(default_factory=dict, repr=False)
    _depth: DepthTables | None = field(default=None, repr=False)

    @property
    def end(self) -> int:
        return self.start + self.length

    def positions(self, cls: CharClass) -> np.ndarray:
        if cls is CharClass.ANY:
            return self.keep
        if cls is CharClass.QUOTE:
            return self.quotes
        cached = self._arrays.get(cls)
        if cached is not None:
            return cached
        bytes_ = _CLASS_BYTES[cls]
        mask = self.keep_vals == bytes_[0]
        for b in bytes_[1:]:
            mask |= self.keep_vals == b
        selected = self._arrays[cls] = self.keep.take(np.flatnonzero(mask))
        return selected

    def depth_tables(self) -> DepthTables:
        """This chunk's :class:`DepthTables`, built once on first use."""
        tables = self._depth
        if tables is None:
            tables = self._depth = DepthTables(self.keep, self.keep_vals, self.depth_in)
        return tables

    def positions_list(self, cls: CharClass) -> "array[int]":
        """Positions as a compact ``array('q')``.

        ``bisect`` over an ``array`` is within ~15% of a plain list while
        taking 8 bytes per position instead of ~36 (boxed ints), which
        keeps the streaming engines' bounded-memory story honest
        (Figure 13): the per-chunk index is a small multiple of the chunk.
        """
        cached = self._lists.get(cls)
        if cached is None:
            cached = self._lists[cls] = _q_array(self.positions(cls))
        return cached


#: Segment arrays of an unsegmented classification (see
#: :func:`_classify_segments`).
_NO_SEGMENTS = np.empty(0, dtype=np.int64)


class _Classified(NamedTuple):
    """Output of :func:`_classify_segments` (positions relative to the buffer)."""

    keep: np.ndarray
    keep_vals: np.ndarray
    quotes: np.ndarray
    #: Segment id of each ``keep``/``quotes`` entry (empty: one segment).
    keep_seg: np.ndarray
    quote_seg: np.ndarray
    carry_out: StringCarry


def _classify_segments(
    raw: bytes,
    carry: StringCarry,
    starts: np.ndarray = _NO_SEGMENTS,
    ends: np.ndarray = _NO_SEGMENTS,
) -> _Classified:
    """The stage-1 classification kernel.

    ``raw`` is the chunk's bytes; a ``bytes`` object (what both callers
    pass) is read in place, any other buffer is copied first.

    With ``starts``/``ends`` (sorted, disjoint ``[start, end)`` segments
    of ``raw``) every segment is classified as if it stood alone:
    bytes outside the segments are ignored, and backslash runs and
    string parity restart at every segment start (depth restarts in
    :func:`build_record_batch`).
    Without them the whole buffer is one segment entered with
    ``carry`` — the chunk-at-a-time case.  ``carry`` is the state at
    byte 0: its escape can only reach a segment starting there, and its
    in-string bit is the parity every segment starts from.
    """
    segmented = starts.size > 0
    raw = bytes(raw)
    buf = np.frombuffer(raw, dtype=np.uint8)
    idx = np.flatnonzero(np.frombuffer(raw.translate(_INTERESTING), dtype=bool))
    seg = _NO_SEGMENTS
    if segmented:
        seg = np.searchsorted(starts, idx, side="right") - 1
        inside = np.flatnonzero((seg >= 0) & (idx < ends.take(seg)))
        idx = idx.take(inside)
        seg = seg.take(inside)
    vals = buf.take(idx)

    quote_mask = vals == _QUOTE
    backslash_mask = vals == _BACKSLASH
    q_sel = np.flatnonzero(quote_mask)
    q = idx.take(q_sel)
    pending_in = bool(carry.escape)

    # --- backslash runs -> escaped-quote detection --------------------
    b_sel = np.flatnonzero(backslash_mask)
    if b_sel.size:
        b = idx.take(b_sel)
        new_run = np.empty(b.size, dtype=bool)
        new_run[0] = True
        np.not_equal(b[1:], b[:-1] + 1, out=new_run[1:])
        if segmented:
            # A run never continues across a segment start.
            b_seg = seg.take(b_sel)
            new_run[1:] |= b_seg[1:] != b_seg[:-1]
        first = np.flatnonzero(new_run)
        run_starts = b.take(first)
        # Each run ends just before the next one starts.
        run_ends = b.take(np.append(first[1:] - 1, b.size - 1))
        run_lens = run_ends - run_starts + 1
    else:
        run_starts = run_ends = run_lens = np.empty(0, dtype=np.int64)

    # Unescaped quotes: their positions and their mask over the stream.
    uq, unescaped = q, quote_mask
    q_seg = seg.take(q_sel) if segmented else _NO_SEGMENTS
    if q.size and (run_ends.size or pending_in):
        if run_ends.size:
            ri = np.searchsorted(run_ends, q - 1)
            ri_c = np.minimum(ri, len(run_ends) - 1)
            run_start = run_starts.take(ri_c)
            has_run = run_ends.take(ri_c) == q - 1
            if segmented:
                # A run in the previous segment does not escape a quote
                # that opens this one.
                has_run &= run_start >= starts.take(q_seg)
            eff = run_lens.take(ri_c) - ((run_start == 0) & pending_in)
            escaped = has_run & (eff % 2 == 1)
        else:
            escaped = np.zeros(q.size, dtype=bool)
        if pending_in:
            escaped |= q == 0  # a carry-escape consumes the first char
        if escaped.any():
            kept = np.flatnonzero(np.logical_not(escaped))
            uq = q.take(kept)
            if segmented:
                q_seg = q_seg.take(kept)
            unescaped = quote_mask.copy()
            unescaped[q_sel.take(np.flatnonzero(escaped))] = False

    # --- escape carry out ----------------------------------------------
    n = len(buf)
    pending_out = False
    if n and run_ends.size and run_ends[-1] == n - 1:
        eff_len = int(run_lens[-1]) - (1 if (run_starts[-1] == 0 and pending_in) else 0)
        pending_out = bool(eff_len % 2 == 1)
    elif n == 0:
        pending_out = pending_in

    # --- in-string filtering of structural characters -------------------
    # A structural character is inside a string when an odd number of
    # unescaped quotes precede it: a prefix XOR over the interesting
    # stream.
    parity = np.logical_xor.accumulate(unescaped)
    if segmented:
        # Parity restarts at each segment: cancel the quotes before it.
        parity ^= (np.searchsorted(uq, starts) & 1).astype(bool).take(seg)
    outside = np.flatnonzero(
        ~quote_mask & ~backslash_mask & (parity == bool(carry.in_string))
    )
    keep = idx.take(outside)
    keep_vals = vals.take(outside)
    s_seg = seg.take(outside) if segmented else _NO_SEGMENTS
    in_string_out = int((len(uq) + carry.in_string) % 2)
    return _Classified(keep, keep_vals, uq, s_seg, q_seg, StringCarry(int(pending_out), in_string_out))


def build_position_chunk(
    chunk: bytes,
    start: int,
    carry: StringCarry = INITIAL_CARRY,
    depth_in: DepthCarry = DEPTH_ZERO,
) -> PositionChunk:
    """Classify one chunk into string-filtered position arrays."""
    out = _classify_segments(chunk, carry)
    keep_vals = out.keep_vals
    net_brace = int(np.count_nonzero(keep_vals == _LBRACE)) - int(np.count_nonzero(keep_vals == _RBRACE))
    net_bracket = int(np.count_nonzero(keep_vals == _LBRACKET)) - int(np.count_nonzero(keep_vals == _RBRACKET))
    depth_out = DepthCarry(
        depth_in.depth + net_brace + net_bracket,
        depth_in.brace + net_brace,
        depth_in.bracket + net_bracket,
    )

    return PositionChunk(
        start=start,
        length=len(chunk),
        keep=out.keep + start,
        keep_vals=keep_vals,
        quotes=out.quotes + start,
        carry_in=carry,
        carry_out=out.carry_out,
        depth_in=depth_in,
        depth_out=depth_out,
    )


def build_record_batch(region: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[PositionChunk, np.ndarray]:
    """Classify the records ``[starts[i], ends[i])`` of ``region`` in one
    pass; returns the batch's chunk and a per-record *balanced* mask.

    A record is balanced when its string-filtered brace and bracket
    counts each net to zero and it holds an even number of unescaped
    quotes.  Only balanced records stay in the chunk's arrays: every
    record before a balanced one then ends at depth 0 outside any
    string, so one running depth over the whole batch (what
    :class:`DepthTables` computes from ``DEPTH_ZERO``) restarts at 0 at
    each record start, exactly as a standalone index of that record
    would.  Unbalanced records are left for the caller to index alone.
    """
    out = _classify_segments(region, INITIAL_CARRY, starts, ends)
    n_records = len(starts)
    keep, keep_vals, quotes = out.keep, out.keep_vals, out.quotes
    brace = np.bincount(out.keep_seg, weights=_BRACE_DELTA.take(keep_vals), minlength=n_records)
    bracket = np.bincount(out.keep_seg, weights=_BRACKET_DELTA.take(keep_vals), minlength=n_records)
    parity = np.bincount(out.quote_seg, minlength=n_records) % 2
    balanced = (brace == 0) & (bracket == 0) & (parity == 0)
    if not balanced.all():
        kept = np.flatnonzero(balanced.take(out.keep_seg))
        keep, keep_vals = keep.take(kept), keep_vals.take(kept)
        quotes = quotes.take(np.flatnonzero(balanced.take(out.quote_seg)))
    chunk = PositionChunk(
        start=0,
        length=len(region),
        keep=keep,
        keep_vals=keep_vals,
        quotes=quotes,
        carry_in=INITIAL_CARRY,
        carry_out=INITIAL_CARRY,
    )
    return chunk, balanced


class PositionBufferIndex(BufferIndex):
    """Forward-chained chunked index producing :class:`PositionChunk`.

    Shares the chunking, carry-chaining, and LRU machinery of
    :class:`BufferIndex`; only the per-chunk build differs.  In addition
    to the string-mask carries it chains a :class:`DepthCarry` per chunk,
    so every chunk's :class:`DepthTables` speak absolute depths and any
    evicted chunk can be rebuilt — depth state included — from its own
    bytes.
    """

    def __init__(
        self,
        data: bytes,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        cache_chunks: int | None = 4,
    ) -> None:
        super().__init__(data, chunk_size=chunk_size, cache_chunks=cache_chunks)
        self._depth_carries: list[DepthCarry] = []

    def _entry(self, chunk_id: int) -> tuple[StringCarry, DepthCarry]:
        if chunk_id == 0:
            return INITIAL_CARRY, DEPTH_ZERO
        return self._carries[chunk_id - 1], self._depth_carries[chunk_id - 1]

    def _entry_from(self, cursor: tuple[int, ...]) -> tuple[StringCarry, DepthCarry]:
        escape, in_string, depth, brace, bracket = cursor
        return StringCarry(escape, in_string), DepthCarry(depth, brace, bracket)

    def _build_chunk(
        self, chunk: bytes, start: int, entry: tuple[StringCarry, DepthCarry]
    ) -> PositionChunk:
        carry, depth_in = entry
        built = build_position_chunk(chunk, start, carry, depth_in=depth_in)
        if start // self.chunk_size == len(self._depth_carries):
            self._depth_carries.append(built.depth_out)
        return built

    def carries_snapshot(self) -> list[tuple[int, int, int, int, int]]:
        """Per-chunk carries as ``(escape, in_string, depth, brace,
        bracket)`` 5-tuples — the string carry plus the depth carry the
        vector hot path needs (the "array cursors" of the two-stage
        suspension contract).  :meth:`carry_at` gives the same 5-tuple
        at any position of a cached chunk."""
        return [
            (string.escape, string.in_string, depth.depth, depth.brace, depth.bracket)
            for string, depth in zip(self._carries, self._depth_carries)
        ]

    def seed_carries(self, carries) -> None:
        carries = list(carries)
        if any(len(item) != 5 for item in carries):
            raise ValueError(
                "position-index carries must be (escape, in_string, depth, brace, bracket) 5-tuples"
            )
        super().seed_carries([(escape, in_string) for escape, in_string, _, _, _ in carries])
        self._depth_carries = [
            DepthCarry(int(depth), int(brace), int(bracket))
            for _, _, depth, brace, bracket in carries
        ]

    def _cursor_at(self, chunk: PositionChunk, pos: int) -> tuple[int, ...]:
        """``(escape, in_string, depth, brace, bracket)`` at ``pos``: the
        string state from the unescaped quotes before ``pos``, the depth
        counters from the structural characters before it."""
        in_string = chunk.carry_in.in_string ^ (int(np.searchsorted(chunk.quotes, pos)) & 1)
        before = chunk.keep_vals[: int(np.searchsorted(chunk.keep, pos))]
        net_brace = int(_BRACE_DELTA[before].sum())
        net_bracket = int(_BRACKET_DELTA[before].sum())
        depth_in = chunk.depth_in
        depth = depth_in.depth + net_brace + net_bracket
        brace, bracket = depth_in.brace + net_brace, depth_in.bracket + net_bracket
        return (self._escape_at(chunk, pos), in_string, depth, brace, bracket)


class RecordBatchIndex(PositionBufferIndex):
    """Stage-1 index of a run of small records, built as one chunk.

    ``region`` holds consecutive records at ``[starts[i], ends[i])``
    (relative to the region, sorted and disjoint); bytes between them
    are ignored.  The single chunk is classified by
    :func:`build_record_batch`, so one pass — and one set of lazily built
    :class:`DepthTables` — serves every balanced record of the batch;
    :attr:`balanced` tells the caller which records those are once the
    chunk is built.  Positions are region-relative: stage 2 runs each
    balanced record in these coordinates, bounded by its offsets, and
    rebases its results to the record at the end of the run (see
    :mod:`repro.stream.batches`).
    """

    def __init__(self, region: bytes, starts: np.ndarray, ends: np.ndarray) -> None:
        # One chunk covering the whole region (rounded up to whole words),
        # never evicted.
        chunk_size = max(64, -(-len(region) // 64) * 64)
        super().__init__(region, chunk_size=chunk_size, cache_chunks=None)
        self.starts = starts
        self.ends = ends
        #: Per-record balanced mask; set by the chunk build.
        self.balanced: np.ndarray | None = None

    def _build_chunk(self, chunk: bytes, start: int, entry: object) -> PositionChunk:
        built, self.balanced = build_record_batch(chunk, self.starts, self.ends)
        return built

    def _span_attrs(self, chunk_id: int, nbytes: int) -> dict[str, int]:
        return {"chunk": chunk_id, "bytes": nbytes, "records": len(self.starts)}
