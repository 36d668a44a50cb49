"""Batched stage 1 for record streams.

Running stage 1 once per small record pays a fixed cost — a fresh index,
scanner, position chunk and depth tables, each a few dozen short numpy
calls — that dominates kilobyte-sized records (paper Figure 11).
:func:`record_buffers` instead classifies a run of consecutive records
in one vectorized pass (:class:`~repro.bits.posindex.RecordBatchIndex`)
and hands out each record as a :class:`BatchRecord`: the batch's one
buffer (its bytes, index and :class:`~repro.bits.scanner.VectorScanner`)
with the record's ``[start, end)`` in it.  Stage 2 walks the batch's
index in place, bounded by those offsets, and rebases its output to the
record once, at the end of the run (see ``repro.engine.jsonski``), so
match offsets, errors and per-record limits are those of a standalone
run.

Records that cannot share a batch get an ordinary standalone buffer:
records larger than :data:`BATCH_BYTES` (their own chunked index keeps
their memory bounded), empty or out-of-range offsets, and *unbalanced*
records (see :func:`~repro.bits.posindex.build_record_batch`) — so the
errors of malformed records come out of the same code as ever.  Word
mode keeps one standalone buffer per record.  Every record path takes
its inputs from here through :func:`repro.resilience.recovery.drive_records`.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.bits.index import DEFAULT_CHUNK_SIZE
from repro.bits.posindex import RecordBatchIndex
from repro.bits.scanner import VectorScanner
from repro.stream.buffer import StreamBuffer
from repro.stream.records import RecordStream

#: Most bytes one batch index covers, from its first record's start to
#: its last record's end.  Memory for stage 1 of a record stream is one
#: such index at a time.
BATCH_BYTES = 64 * 1024


class _BatchBuffer(StreamBuffer):
    """The buffer every balanced record of one batch runs over: the
    batch's bytes, its :class:`RecordBatchIndex` and one scanner."""

    def __init__(self, index: RecordBatchIndex) -> None:
        self.data = index.data
        self.mode = "vector"
        self.index = index
        self.scanner = VectorScanner(index)


class BatchRecord:
    """One balanced record of a batch: the batch's buffer and the
    record's ``[start, end)`` in its coordinates."""

    __slots__ = ("batch", "start", "end")

    def __init__(self, batch: StreamBuffer, start: int, end: int) -> None:
        self.batch = batch
        self.start = start
        self.end = end

    @property
    def data(self) -> bytes:
        """The record's own bytes (a copy)."""
        return self.batch.data[self.start : self.end]

    @property
    def index(self) -> RecordBatchIndex:
        """The batch's stage-1 index, shared by all its records."""
        return self.batch.index


def record_buffers(
    stream: RecordStream,
    start: int = 0,
    stop: int | None = None,
    *,
    mode: str = "vector",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    cache_chunks: int | None = 4,
    tracer: Any = None,
    metrics: Any = None,
) -> Iterator[StreamBuffer | BatchRecord]:
    """Yield the stage-2 input of each record of ``stream`` in
    ``[start, stop)`` (``stop=None``: to the end), in order: a
    :class:`BatchRecord`, or a standalone :class:`StreamBuffer`.

    In vector mode consecutive records are indexed in batches of at most
    :data:`BATCH_BYTES`; each batch is built when its first record is
    reached, with ``tracer`` receiving its ``index_build`` span and
    ``metrics`` its ``index.*`` counters.  ``chunk_size``/``cache_chunks``
    apply to the standalone buffers.
    """
    payload = stream.payload
    # Local indexes below are relative to ``start``.
    offsets = stream.offsets[start:stop].tolist()
    n = len(offsets)

    def standalone(i: int) -> StreamBuffer:
        return StreamBuffer(stream.record(start + i), mode=mode, chunk_size=chunk_size, cache_chunks=cache_chunks)

    if mode != "vector":
        for i in range(n):
            yield standalone(i)
        return
    size = len(payload)
    i = 0
    while i < n:
        first, end = offsets[i]
        if not 0 <= first < end <= size or end - first > BATCH_BYTES:
            yield standalone(i)
            i += 1
            continue
        # Extend the batch over following records that start at or after
        # the previous one's end and keep the span within BATCH_BYTES.
        j = i + 1
        while j < n:
            lo, hi = offsets[j]
            if not end <= lo < hi <= size or hi - first > BATCH_BYTES:
                break
            end = hi
            j += 1
        bounds = np.array(offsets[i:j], dtype=np.int64) - first
        index = RecordBatchIndex(payload[first:end], bounds[:, 0], bounds[:, 1])
        index.tracer = tracer
        index.attach_metrics(metrics)
        index.get(0)
        batch = _BatchBuffer(index)
        balanced = index.balanced.tolist()
        for k in range(i, j):
            lo, hi = offsets[k]
            if balanced[k - i]:
                yield BatchRecord(batch, lo - first, hi - first)
            else:
                yield standalone(k)
        i = j
