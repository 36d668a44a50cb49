"""Stage 2 at one scanner call per fast-forward: equivalence and metering.

Each fused lookup must answer exactly what the decomposed queries it
replaced answer:

- the in-chunk ``pair_close`` (G2/G4 closer skips) — the depth-table
  lookup from ``pos``'s chunk on (``_pair_close_tables``, itself held
  to Algorithm 4's interval walk by ``tests/test_scanner.py``);
- ``leveled_obj_attr_named`` (object G1) — what ``leveled_obj_attr``
  answered (the enclosing ``close_at_combined_depth``, then the first
  wanted ``open_at_depth`` before it) and then ``prev_quote_pair``
  before the wanted value; handed that closer as its known ``end``, it
  and ``leveled_ary_elem`` answer the same;
- ``leveled_skip_elems`` (G5) — the structural depth before ``pos``,
  ``close_at_combined_depth`` one level up and ``commas_at_depth``.

They are checked at every structural position (and the byte after it)
of the six Table 5 documents and of a stray-byte corpus, at 4 KiB and
1 MiB chunks.  For record streams, every fast-forward of a balanced
record run in its batch's coordinates — bounded by the record's
``[start, end)`` on the batch's one scanner — must answer what the same
move over a standalone index of the record answers, shifted by
``start``: positions, :data:`NOT_FOUND` outcomes and errors alike.

``tests/data/scanner_calls_v1.json`` holds the per-op ``scanner.calls``
totals of the twelve Table 5 queries over one seeded large record each
(vector mode at the default chunk size and at 4 KiB chunks, and word
mode) and of the small-record queries over one seeded record stream.
The counters are each scanner's ``METERED_OPS``, the calls its stage 2
makes, so a fast-forward that stops going through a metered primitive
— or starts going through one twice — fails here, as does any change
in how often stage 2 asks.

Regenerate the fixture (only deliberately) with
``PYTHONPATH=src python tests/test_fused_lookups.py``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import repro
from repro.bits.classify import CharClass
from repro.bits.posindex import PositionBufferIndex
from repro.bits.scanner import NOT_FOUND, Scanner, VectorScanner
from repro.data.datasets import DATASETS, large_record, record_stream
from repro.engine.fastforward import make_fastforwarder
from repro.errors import ReproError, StreamExhaustedError
from repro.stream.batches import BatchRecord, record_buffers
from repro.stream.records import RecordStream

FIXTURE = Path(__file__).parent / "data" / "scanner_calls_v1.json"

DOC_BYTES = 120_000
STREAM_BYTES = 60_000
SEED = 11
#: Document cases: ``kind -> (engine, chunk size or None for the default)``.
DOC_KINDS = {"default": ("jsonski", None), "4k": ("jsonski", 4096), "word": ("jsonski-word", None)}

TABLE5 = [(name, q) for name, spec in DATASETS.items() for q in spec.queries]


def _calls(registry: repro.MetricsRegistry) -> dict[str, int]:
    return {
        dict(c.labels)["op"]: int(c.value)
        for c in sorted(registry.counters(), key=lambda c: sorted(c.labels))
        if c.name == "scanner.calls" and c.value
    }


def _doc_calls(name: str, query: str, kind: str) -> dict[str, int]:
    registry = repro.MetricsRegistry()
    engine, chunk_size = DOC_KINDS[kind]
    opts = {} if chunk_size is None else {"chunk_size": chunk_size}
    repro.compile(query, engine=engine, metrics=registry, **opts).run(large_record(name, DOC_BYTES, seed=SEED))
    return _calls(registry)


def _records_calls(name: str, query: str) -> dict[str, int]:
    registry = repro.MetricsRegistry()
    repro.compile(query, metrics=registry).run_records(record_stream(name, STREAM_BYTES, seed=SEED))
    return _calls(registry)


def _cases() -> list[tuple[str, str, str, str]]:
    """``(case id, dataset, query, kind)`` in fixture order."""
    cases = []
    for name, spec in TABLE5:
        for kind in DOC_KINDS:
            cases.append((f"{spec.qid}/doc/{kind}", name, spec.large, kind))
        if spec.small is not None:
            cases.append((f"{spec.qid}/records", name, spec.small, "records"))
    return cases


def _measure(name: str, query: str, kind: str) -> dict[str, int]:
    if kind == "records":
        return _records_calls(name, query)
    return _doc_calls(name, query, kind)


def regenerate() -> None:
    calls = {case: _measure(name, query, kind) for case, name, query, kind in _cases()}
    lines = ",\n".join(f"{json.dumps(case)}:{json.dumps(ops, sort_keys=True)}" for case, ops in calls.items())
    FIXTURE.write_text('{"version":1,"calls":{\n' + lines + "\n}}\n")


def _fixture() -> dict[str, dict[str, int]]:
    return json.loads(FIXTURE.read_text())["calls"]


def test_fixture_covers_every_case():
    assert sorted(_fixture()) == sorted(case for case, *_ in _cases())


@pytest.mark.parametrize("case, name, query, kind", _cases(), ids=[c[0] for c in _cases()])
def test_scanner_calls_match_fixture(case, name, query, kind):
    assert _measure(name, query, kind) == _fixture()[case]



# ---------------------------------------------------------------------------
# Fused lookups equal the decomposed queries they replace.
# ---------------------------------------------------------------------------

#: Bytes the stray-byte corpus inserts: each shifts the string parity, the
#: escape state or the structural depth of everything after it.
STRAY_BYTES = b'"\\{]'
EQUIV_CHUNKS = (4096, 1 << 20)
_PAIRS = ((CharClass.LBRACE, CharClass.RBRACE), (CharClass.LBRACKET, CharClass.RBRACKET))
_WANTS = (0x7B, 0x5B)


def _stray(data: bytes, rng: random.Random, n: int) -> bytes:
    for _ in range(n):
        at = rng.randrange(len(data))
        data = data[:at] + bytes([rng.choice(STRAY_BYTES)]) + data[at:]
    return data


def _documents() -> list[tuple[str, bytes]]:
    docs = [(f"{name}/table5", large_record(name, 20_000, seed=SEED)) for name in DATASETS]
    for name in DATASETS:
        rng = random.Random(f"fused-{name}")
        base = large_record(name, 8_000, seed=2)
        for i in range(3):
            docs.append((f"{name}/stray{i}", _stray(base, rng, 1 + i)))
    return docs


def _positions(scanner: Scanner, size: int) -> list[int]:
    """Every structural position and the byte after it (where stage 2
    asks from), inside the stream."""
    found, pos = [], 0
    while True:
        pos = scanner.find_next(CharClass.ANY, pos)
        if pos == NOT_FOUND:
            return sorted({p for q in found for p in (q, q + 1) if p < size})
        found.append(pos)
        pos += 1


def _outcome(call):
    try:
        return call()
    except ReproError as exc:
        return (type(exc), str(exc))


def _depth_before(scanner: VectorScanner, pos: int) -> int:
    index = scanner.index
    return index.get(pos // index.chunk_size).depth_tables().depth_before(pos)


def _decomposed_obj_attr(scanner: VectorScanner, pos: int, want: int) -> tuple[int, int, int, int]:
    """The former ``leveled_obj_attr`` — the enclosing closer, then the
    first wanted open one level down before it — and ``prev_quote_pair``."""
    depth = _depth_before(scanner, pos)
    end = scanner.close_at_combined_depth(depth - 1, pos)
    if end == NOT_FOUND:
        return NOT_FOUND, NOT_FOUND, NOT_FOUND, NOT_FOUND
    found = scanner.open_at_depth(want, depth + 1, pos, end)
    if found == NOT_FOUND:
        return end, NOT_FOUND, NOT_FOUND, NOT_FOUND
    return (end, found, *scanner.prev_quote_pair(found - 1))


def _decomposed_skip_elems(scanner: VectorScanner, pos: int, k: int) -> tuple[int, int, int]:
    depth = _depth_before(scanner, pos)
    end = scanner.close_at_combined_depth(depth - 1, pos)
    if end == NOT_FOUND:
        return NOT_FOUND, NOT_FOUND, 0
    return (end, *scanner.commas_at_depth(depth, pos, end, k))


def _after_closer(scanner: VectorScanner, open_cls: CharClass, close_cls: CharClass, pos: int) -> int:
    """The G4 closer skip from the depth tables alone: the position after
    the closer of the container ``pos`` is in, or the skip's
    end-of-stream error."""
    end = scanner._pair_close_tables(open_cls, close_cls, pos, 1)
    if end == NOT_FOUND:
        raise StreamExhaustedError(f"stream ended with unclosed {open_cls.value!r}", scanner.size)
    return end + 1


def _check_fused(fused: Scanner, buffer: repro.StreamBuffer, where: str) -> int:
    """Compare ``fused`` against the decomposed queries of ``buffer``'s
    scanner at every structural position; returns the number of
    positions checked."""
    alone = buffer.scanner
    ff = make_fastforwarder(buffer)
    positions = _positions(alone, len(buffer))
    for pos in positions:
        for open_cls, close_cls in _PAIRS:
            for num_open in (1, 2):
                got = fused.pair_close(open_cls, close_cls, pos, num_open)
                assert got == alone._pair_close_tables(open_cls, close_cls, pos, num_open), (where, pos)
            got = _outcome(lambda: (ff.go_to_obj_end if open_cls is CharClass.LBRACE else ff.go_to_ary_end)(pos))
            want = _outcome(lambda: _after_closer(alone, open_cls, close_cls, pos))
            assert got == want, (where, pos)
        for want in _WANTS:
            expected = _decomposed_obj_attr(alone, pos, want)
            assert fused.leveled_obj_attr_named(pos, want) == expected, (where, pos)
            # Handed the closer it found, a G1 lookup answers the same.
            if expected[0] != NOT_FOUND:
                assert fused.leveled_obj_attr_named(pos, want, expected[0]) == expected, (where, pos)
            elem = fused.leveled_ary_elem(pos, want)
            if elem[0] != NOT_FOUND:
                assert fused.leveled_ary_elem(pos, want, elem[0]) == elem, (where, pos)
        for k in (1, 3):
            assert fused.leveled_skip_elems(pos, k) == _decomposed_skip_elems(alone, pos, k), (where, pos)
    return len(positions)


@pytest.mark.parametrize("chunk_size", EQUIV_CHUNKS, ids=["4k", "1m"])
def test_fused_lookups_equal_decomposed_vector(chunk_size):
    checked = 0
    for where, data in _documents():
        scanner = VectorScanner(PositionBufferIndex(data, chunk_size=chunk_size, cache_chunks=None))
        alone = repro.StreamBuffer(data, chunk_size=chunk_size, cache_chunks=None)
        checked += _check_fused(scanner, alone, where)
    assert checked > 50_000


#: Every bounded stage-2 move, with its arguments after the position.
_MOVES = (
    ("go_over_obj", ()), ("go_over_ary", ()), ("go_to_obj_end", ()), ("go_to_ary_end", ()),
    ("go_over_pri", (True,)), ("go_over_pri", (False,)),
    ("go_to_obj_attr", ("object",)), ("go_to_obj_attr", ("array",)),
    ("go_to_ary_elem", ("object",)), ("go_to_ary_elem", ("array",)),
    ("go_over_elems", (1,)), ("go_over_elems", (3,)),
)


def _unshifted(call, shift: int):
    """``call()``'s answer with every position in it moved ``shift``
    bytes left; an error as ``(type, message, position)``, likewise."""
    try:
        got = call()
    except ReproError as exc:
        message = str(exc).removesuffix(f" (at byte {exc.position})")
        return type(exc), message, exc.position - shift
    if isinstance(got, int):
        return got - shift
    ended, position, *rest = got
    if len(rest) == 2 and not ended:  # an attribute: (name, value position)
        return ended, position - shift, rest[0], rest[1] - shift
    return (ended, position - shift, *rest)


#: Balanced records whose structure reaches past their bounds: a
#: container closed only after the record, or a value with no name
#: quotes before it in the record (only in a record before it).
BOUNDARY_RECORDS = [
    b'{"a": 1}]  [',
    b'}{"k": [{"b": 1}, 2]',
    b'}{"a": "b"',
    b'{1: {"b": 1}, "c": [2]}',
    b'[{x: [1]}, {}]',
]


@pytest.mark.parametrize("chunk_size", EQUIV_CHUNKS, ids=["4k", "1m"])
def test_batch_coordinates_equal_standalone_records(chunk_size):
    records_checked = 0
    for name in DATASETS:
        rng = random.Random(f"fused-records-{name}")
        stream = record_stream(name, 20_000, seed=SEED)
        records = [stream.record(i) for i in range(len(stream))]
        records = [_stray(r, rng, 1) if rng.random() < 0.3 else r for r in records]
        for i, record in enumerate(BOUNDARY_RECORDS):
            records.insert(1 + 3 * i, record)
        stream = RecordStream.from_records(records, separator=b"\n")
        for record, item in zip(records, record_buffers(stream)):
            if not isinstance(item, BatchRecord):
                continue
            alone = repro.StreamBuffer(record, chunk_size=chunk_size, cache_chunks=None)
            standalone = make_fastforwarder(alone)
            bounded = make_fastforwarder(item.batch, item.start, item.end)
            for pos in _positions(alone.scanner, len(record)):
                for move, args in _MOVES:
                    got = _unshifted(lambda: getattr(bounded, move)(pos + item.start, *args), item.start)
                    want = _unshifted(lambda: getattr(standalone, move)(pos, *args), 0)
                    assert got == want, (name, record[:60], pos, move, args)
            records_checked += 1
    assert records_checked > 100


if __name__ == "__main__":
    regenerate()
