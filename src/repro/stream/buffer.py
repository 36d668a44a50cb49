"""The indexed input buffer shared by the streaming engines.

As in the paper's evaluation, inputs are preloaded into memory; streaming
refers to the *single forward pass* and the bounded auxiliary state (the
chunked structural index with a small LRU — see
:class:`repro.bits.index.BufferIndex`).
"""

from __future__ import annotations

from repro.bits.classify import WHITESPACE
from repro.bits.index import DEFAULT_CHUNK_SIZE, BufferIndex
from repro.bits.posindex import PositionBufferIndex
from repro.bits.scanner import Scanner, VectorScanner, WordScanner
from repro.errors import ConfigurationError

_WS = frozenset(WHITESPACE)


class StreamBuffer:
    """JSON text plus its lazily-built structural index and scanner.

    Parameters mirror :class:`BufferIndex`; ``mode`` selects the stage-1
    index and the scanner over it, together: ``'vector'`` (default) a
    :class:`PositionBufferIndex` with a
    :class:`~repro.bits.scanner.VectorScanner`, ``'word'`` the
    paper-faithful word bitmaps with a
    :class:`~repro.bits.scanner.WordScanner`.  This is the one place the
    pair is chosen; the fast-forwarder follows the scanner.
    """

    def __init__(
        self,
        data: bytes | str,
        mode: str = "vector",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        cache_chunks: int | None = 4,
    ) -> None:
        if isinstance(data, str):
            data = data.encode("utf-8")
        self.data = data
        self.mode = mode
        # Vector mode reads only per-class positions and depth tables,
        # so it uses the position-based index; word mode needs the
        # mirrored word bitmaps of Algorithm 3.
        self.scanner: Scanner
        if mode == "vector":
            self.index = PositionBufferIndex(data, chunk_size=chunk_size, cache_chunks=cache_chunks)
            self.scanner = VectorScanner(self.index)
        elif mode == "word":
            self.index = BufferIndex(data, chunk_size=chunk_size, cache_chunks=cache_chunks)
            self.scanner = WordScanner(self.index)
        else:
            raise ConfigurationError(f"unknown scanner mode {mode!r}; expected one of ['vector', 'word']")

    def __len__(self) -> int:
        return len(self.data)

    def byte_at(self, pos: int) -> int:
        """Byte value at ``pos`` (-1 past the end)."""
        return self.data[pos] if pos < len(self.data) else -1

    def skip_ws(self, pos: int) -> int:
        """First position at or after ``pos`` holding a non-whitespace byte.

        JSON whitespace between tokens is typically zero or one character
        in machine-generated data, so a byte loop suffices here; heavy
        indentation would make this the only character-at-a-time path in
        the engine.
        """
        data = self.data
        n = len(data)
        while pos < n and data[pos] in _WS:
            pos += 1
        return pos

    def slice(self, start: int, end: int) -> bytes:
        """Raw text of ``[start, end)``."""
        return self.data[start:end]

    def rstrip_ws(self, start: int, end: int) -> int:
        """End position of ``[start, end)`` after trimming trailing
        whitespace (used when capturing primitive match values)."""
        data = self.data
        while end > start and data[end - 1] in _WS:
            end -= 1
        return end


def as_stream_buffer(
    data,
    mode: str = "vector",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    cache_chunks: int | None = 4,
) -> StreamBuffer:
    """Coerce engine input to a :class:`StreamBuffer` — the one place all
    engines share.

    Accepts raw ``bytes``/``str`` (a fresh buffer is built with the given
    index parameters), an existing :class:`StreamBuffer` (used as-is, its
    already-built index intact), or anything carrying one in a ``buffer``
    attribute — i.e. a reusable
    :class:`~repro.engine.prepared.IndexedBuffer` (duck-typed here to
    keep this low-level module free of engine imports).
    """
    if isinstance(data, StreamBuffer):
        return data
    inner = getattr(data, "buffer", None)
    if isinstance(inner, StreamBuffer):
        return inner
    return StreamBuffer(data, mode=mode, chunk_size=chunk_size, cache_chunks=cache_chunks)
