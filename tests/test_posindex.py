"""Tests for the position-based index (vector-mode fast path).

The defining property: for every chunk and every class, the position
lists must be *identical* to those derived from the word-bitmap index —
the two are alternative materializations of the same structural facts.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.bits.classify import CharClass
from repro.bits.index import BufferIndex
from repro.bits.posindex import (
    DEPTH_ZERO,
    DepthCarry,
    PositionBufferIndex,
    build_position_chunk,
    build_record_batch,
)
from repro.bits.strings import StringCarry
from repro.data.datasets import DATASETS, large_record, record_stream
from repro.stream.records import RecordStream

_JSONISH = st.binary(max_size=400)
_DENSE = st.lists(st.sampled_from(list(b'ab"\\ {}[]:,')), max_size=400).map(bytes)

_CLASSES = [cls for cls in CharClass if cls is not CharClass.BACKSLASH]


class TestBuildPositionChunk:
    def test_simple_record(self):
        chunk = build_position_chunk(b'{"a": [1, 2]}', 0)
        assert list(chunk.positions_list(CharClass.LBRACE)) == [0]
        assert list(chunk.positions_list(CharClass.COLON)) == [4]
        assert list(chunk.positions_list(CharClass.COMMA)) == [8]
        assert list(chunk.positions_list(CharClass.QUOTE)) == [1, 3]

    def test_string_filtering(self):
        chunk = build_position_chunk(b'{"x": "a{b,c}"}', 0)
        assert list(chunk.positions_list(CharClass.LBRACE)) == [0]
        assert list(chunk.positions_list(CharClass.COMMA)) == []

    def test_escaped_quote(self):
        chunk = build_position_chunk(b'"a\\"b" {', 0)
        assert list(chunk.positions_list(CharClass.QUOTE)) == [0, 5]
        assert list(chunk.positions_list(CharClass.LBRACE)) == [7]

    def test_carry_in_escape(self):
        # Previous chunk ended with an odd backslash run: the first quote
        # here is escaped and must not open a string.
        chunk = build_position_chunk(b'"x{', 0, StringCarry(escape=1, in_string=1))
        assert list(chunk.positions_list(CharClass.QUOTE)) == []
        assert list(chunk.positions_list(CharClass.LBRACE)) == []  # still in string

    def test_carry_in_string(self):
        chunk = build_position_chunk(b'x" {', 0, StringCarry(escape=0, in_string=1))
        assert list(chunk.positions_list(CharClass.LBRACE)) == [3]
        assert chunk.carry_out.in_string == 0

    def test_offsets_are_absolute(self):
        chunk = build_position_chunk(b"{}", 500)
        assert list(chunk.positions_list(CharClass.ANY)) == [500, 501]

    def test_empty(self):
        chunk = build_position_chunk(b"", 0, StringCarry(1, 1))
        assert list(chunk.positions_list(CharClass.ANY)) == []
        assert chunk.carry_out == StringCarry(1, 1)


class TestEquivalenceWithWordIndex:
    @given(_DENSE, st.sampled_from([64, 128, 256]))
    def test_dense_metachar_soup(self, data, chunk_size):
        self._check(data, chunk_size)

    @given(_JSONISH)
    def test_arbitrary_bytes(self, data):
        self._check(data, 64)

    @staticmethod
    def _check(data: bytes, chunk_size: int) -> None:
        wi = BufferIndex(data, chunk_size=chunk_size, cache_chunks=None)
        pi = PositionBufferIndex(data, chunk_size=chunk_size, cache_chunks=None)
        assert wi.n_chunks == pi.n_chunks
        for cid in range(wi.n_chunks):
            wc, pc = wi.get(cid), pi.get(cid)
            assert wc.carry_out == pc.carry_out, (cid, data)
            for cls in _CLASSES:
                assert list(wc.positions_list(cls)) == list(pc.positions_list(cls)), (cid, cls, data)


class TestSingleDecode:
    """Regression: ``positions()`` used to re-filter the keep array on
    every call — one decode per class per chunk is the contract (the
    two-stage story depends on stage-1 artifacts being built once)."""

    DATA = b'{"a": [1, 2], "b": {"c": [3]}}'

    def test_positions_decodes_once(self):
        chunk = build_position_chunk(self.DATA, 0)
        counter = {"eq": 0}

        class Counting(np.ndarray):
            def __eq__(self, other):  # each decode compares keep_vals once per byte value
                counter["eq"] += 1
                return np.ndarray.__eq__(self, other)

        chunk.keep_vals = chunk.keep_vals.view(Counting)
        for _ in range(5):
            chunk.positions(CharClass.COLON)
        assert counter["eq"] == 1, f"COLON decoded {counter['eq']} times"

    def test_positions_and_lists_are_memoized(self):
        chunk = build_position_chunk(self.DATA, 0)
        for cls in (CharClass.COMMA, CharClass.LBRACE, CharClass.OPEN):
            assert chunk.positions(cls) is chunk.positions(cls)
            assert chunk.positions_list(cls) is chunk.positions_list(cls)
        assert chunk.depth_tables() is chunk.depth_tables()

    def test_memoized_positions_still_correct(self):
        chunk = build_position_chunk(self.DATA, 0)
        first = list(chunk.positions_list(CharClass.COMMA))
        again = list(chunk.positions_list(CharClass.COMMA))
        assert first == again == [8, 12]


# ---------------------------------------------------------------------------
# Stage-1 reference: the classification kernel and the depth tables against
# plain-Python walks over the bytes and the events.
# ---------------------------------------------------------------------------

_QUOTE, _BACKSLASH = 0x22, 0x5C
_STRUCTURAL = frozenset(b"{}[]:,")
_CARRIES = [StringCarry(escape, in_string) for escape in (0, 1) for in_string in (0, 1)]


def _walk_classify(data: bytes, carry: StringCarry, segments: list[tuple[int, int]] | None):
    """Byte-at-a-time twin of ``_classify_segments``.

    A pending escape swallows the next quote or backslash; any other
    escaped byte is classified as usual (only quotes toggle strings).
    Unsegmented, the whole buffer is one segment entered with ``carry``.
    Segmented, every segment restarts its backslash runs, its escape
    state is ``carry.escape`` only when it starts at byte 0, and every
    segment starts from ``carry.in_string``.
    """
    segmented = segments is not None
    if not segmented:
        segments = [(0, len(data))]
    keep, keep_vals, quotes, keep_seg, quote_seg = [], [], [], [], []
    escape_out = bool(carry.escape) if not data else False
    n_quotes = 0
    for sid, (start, end) in enumerate(segments):
        escape = bool(carry.escape) and start == 0
        in_string = bool(carry.in_string)
        for i in range(start, end):
            c = data[i]
            if escape:
                escape = False
                if c == _QUOTE or c == _BACKSLASH:
                    continue
            if c == _BACKSLASH:
                escape = True
            elif c == _QUOTE:
                quotes.append(i)
                quote_seg.append(sid)
                n_quotes += 1
                in_string = not in_string
            elif c in _STRUCTURAL and not in_string:
                keep.append(i)
                keep_vals.append(c)
                keep_seg.append(sid)
        if data and end == len(data):
            escape_out = escape
    carry_out = StringCarry(int(escape_out), (carry.in_string + n_quotes) % 2)
    if not segmented:
        keep_seg = quote_seg = []
    return keep, keep_vals, quotes, keep_seg, quote_seg, carry_out


def _kernel(data: bytes, carry: StringCarry, segments: list[tuple[int, int]] | None):
    from repro.bits.posindex import _classify_segments

    buf = np.frombuffer(data, dtype=np.uint8)
    if segments is None:
        out = _classify_segments(buf, carry)
    else:
        starts = np.array([s for s, _ in segments], dtype=np.int64)
        ends = np.array([e for _, e in segments], dtype=np.int64)
        out = _classify_segments(buf, carry, starts, ends)
    return (
        out.keep.tolist(), out.keep_vals.tolist(), out.quotes.tolist(),
        out.keep_seg.tolist(), out.quote_seg.tolist(), out.carry_out,
    )


@st.composite
def _segmented(draw):
    """A dense byte soup and sorted, disjoint ``[start, end)`` segments
    (adjacent ones included, so runs and strings must restart)."""
    data = draw(_DENSE.filter(bool))
    cuts = sorted(set(draw(st.lists(st.integers(0, len(data)), min_size=2, max_size=12))))
    segments = []
    for lo, hi in zip(cuts, cuts[1:]):
        if draw(st.booleans()):
            segments.append((lo, hi))
    return data, segments or [(cuts[0], cuts[-1])]


def _walk_depth(keep: list[int], vals: list[int], depth_in: DepthCarry):
    """Per-event depth walk: each event's combined, brace and bracket
    depth *after* it."""
    depth, brace, bracket = depth_in
    rows = []
    for pos, c in zip(keep, vals):
        if c == 0x7B:
            brace += 1
        elif c == 0x7D:
            brace -= 1
        elif c == 0x5B:
            bracket += 1
        elif c == 0x5D:
            bracket -= 1
        depth = depth_in.depth + (brace - depth_in.brace) + (bracket - depth_in.bracket)
        rows.append((pos, c, depth, brace, bracket))
    return rows


def _grouped(rows, wanted: frozenset[int], key: int) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for row in rows:
        if row[1] in wanted:
            groups.setdefault(row[key], []).append(row[0])
    return groups


def _as_lists(groups) -> dict[int, list[int]]:
    return {depth: list(arr) for depth, arr in groups.items()}


#: Depth carries entering a chunk: zero, shallow, negative (a stray closer
#: earlier in the stream), and deep enough that the depth range needs
#: more than 16 bits.
_DEPTH_INS = [
    DepthCarry(0, 0, 0),
    DepthCarry(3, 1, 2),
    DepthCarry(-2, -1, -1),
    DepthCarry(40_000, 40_000, 0),
    DepthCarry(40_000, 20_000, 20_000),
]


class TestStage1Reference:
    """``_classify_segments`` and every :class:`DepthTables` grouping
    equal plain-Python walks, for every string carry, segmented and
    unsegmented, at depths that need either sort key of
    ``_group_by_depth``."""

    @given(_DENSE, st.sampled_from(_CARRIES))
    def test_unsegmented_kernel_matches_byte_walk(self, data, carry):
        assert _kernel(data, carry, None) == _walk_classify(data, carry, None)

    @given(_segmented(), st.sampled_from(_CARRIES))
    def test_segmented_kernel_matches_byte_walk(self, case, carry):
        data, segments = case
        assert _kernel(data, carry, segments) == _walk_classify(data, carry, segments)

    @given(_DENSE, st.sampled_from(_CARRIES), st.sampled_from(_DEPTH_INS))
    def test_depth_tables_match_event_walk(self, data, carry, depth_in):
        self._check_depth_tables(data, carry, depth_in)

    def test_kernel_matches_byte_walk_on_a_document(self):
        # Thousands of quotes, so any fixed-width count in the kernel
        # wraps many times over.
        doc = large_record("TT", 20_000, seed=1)
        cuts = list(range(0, len(doc), 997)) + [len(doc)]
        segments = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo % 2 == 0]
        for carry in _CARRIES:
            assert _kernel(doc, carry, None) == _walk_classify(doc, carry, None)
            assert _kernel(doc, carry, segments) == _walk_classify(doc, carry, segments)

    def test_inputs_reach_both_sort_keys(self):
        # Documents large enough that every depth group holds many
        # events, so an order-losing sort shows.
        doc = large_record("BB", 20_000, seed=1)
        # Deep: every depth above the int16 range (int64 key).
        deep_in = DepthCarry(40_000, 20_000, 20_000)
        self._check_depth_tables(doc, StringCarry(0, 0), deep_in)
        rows = _walk_depth(*self._keep(doc, StringCarry(0, 0)), deep_in)
        assert min(row[2] for row in rows) > 32_767
        # Stray closers: the depth goes negative from a zero carry
        # (int16 key).
        stray = b"]}]" + doc
        self._check_depth_tables(stray, StringCarry(0, 0), DEPTH_ZERO)
        rows = _walk_depth(*self._keep(stray, StringCarry(0, 0)), DEPTH_ZERO)
        assert min(row[2] for row in rows) < 0

    @staticmethod
    def _keep(data: bytes, carry: StringCarry):
        keep, keep_vals, *_ = _walk_classify(data, carry, None)
        return keep, keep_vals

    def _check_depth_tables(self, data: bytes, carry: StringCarry, depth_in: DepthCarry) -> None:
        start = 4096
        chunk = build_position_chunk(data, start, carry, depth_in=depth_in)
        keep, keep_vals = self._keep(data, carry)
        rows = _walk_depth([start + p for p in keep], keep_vals, depth_in)
        if rows:
            _, _, depth, brace, bracket = rows[-1]
            assert chunk.depth_out == DepthCarry(depth, brace, bracket)
        else:
            assert chunk.depth_out == depth_in
        tables = chunk.depth_tables()
        assert list(tables.events) == [row[0] for row in rows]
        assert list(tables.after) == [row[2] for row in rows]
        assert _as_lists(tables.commas_by_depth) == _grouped(rows, frozenset(b","), 2)
        assert _as_lists(tables.opens_by_depth(0x7B)) == _grouped(rows, frozenset(b"{"), 2)
        assert _as_lists(tables.opens_by_depth(0x5B)) == _grouped(rows, frozenset(b"["), 2)
        assert _as_lists(tables.closes_by_depth) == _grouped(rows, frozenset(b"}]"), 2)
        for pair, opener, closer, key in ((tables.brace, 0x7B, 0x7D, 3), (tables.bracket, 0x5B, 0x5D, 4)):
            events = [row for row in rows if row[1] in (opener, closer)]
            assert list(pair.events) == [row[0] for row in events]
            assert list(pair.after) == [row[key] for row in events]
            assert _as_lists(pair.closes_by_depth) == _grouped(events, frozenset((closer,)), key)


class TestKernelOutputLayout:
    """What the sidecar writer and ``_q_array`` read from a chunk:
    ``keep`` and ``quotes`` are int64, absolute and strictly ascending,
    and ``keep_vals`` is uint8 — for a chunk built at an offset and for
    record batches with and without unbalanced records."""

    @staticmethod
    def _check(chunk, data: bytes, start: int) -> None:
        for arr in (chunk.keep, chunk.quotes):
            assert arr.dtype == np.int64
            assert (np.diff(arr) > 0).all()
            assert ((arr >= start) & (arr < start + len(data))).all()
        assert chunk.keep_vals.dtype == np.uint8
        # Absolute: each position, less the chunk start, names its byte.
        assert bytes(chunk.keep_vals) == bytes(data[p - start] for p in chunk.keep.tolist())
        assert set(data[p - start] for p in chunk.quotes.tolist()) == {0x22}

    def test_chunk_build(self):
        for name in DATASETS:
            doc = large_record(name, 20_000, seed=1)
            for carry in _CARRIES:
                chunk = build_position_chunk(doc, 4096, carry, DepthCarry(3, 1, 2))
                self._check(chunk, doc, 4096)
                assert chunk.quotes.size and (chunk.keep.size or carry.in_string)

    def test_record_batches(self):
        rng = random.Random("layout")
        for name in DATASETS:
            records = list(record_stream(name, 20_000, seed=1))
            stray = [_insert_stray(r, rng) if i % 3 == 0 else r for i, r in enumerate(records)]
            stray[1] = b'"' + stray[1]  # at least one unbalanced record
            for recs in (records, stray):
                stream = RecordStream.from_records(recs, separator=b"\n")
                offsets = stream.offsets
                chunk, balanced = build_record_batch(stream.payload, offsets[:, 0], offsets[:, 1])
                self._check(chunk, stream.payload, 0)
                assert chunk.keep.size and chunk.quotes.size
                assert balanced.all() if recs is records else not balanced.all()
                inside = np.zeros(len(stream.payload), dtype=bool)
                for start, end in offsets[balanced].tolist():
                    inside[start:end] = True
                assert inside.take(chunk.keep).all() and inside.take(chunk.quotes).all()


def _insert_stray(record: bytes, rng: random.Random) -> bytes:
    at = rng.randrange(len(record))
    return record[:at] + bytes([rng.choice(b'"\\{]')]) + record[at:]
