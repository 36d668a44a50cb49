"""Persistent structural-index sidecar (stage-1 cache on disk).

A sidecar file freezes one input's stage-1 artifacts — the per-chunk
string-filtered position arrays (``keep``/``keep_vals``/``quotes``) plus
the forward-chained string and depth carries — so a later process can
mmap them back and skip stage 1 entirely (the jXBW-style reusable
structural index, persisted).  Depth tables are *not* stored: they
rebuild lazily from the loaded position arrays exactly as they do from
freshly classified ones, so the format stays small and the lazy-build
contract of :class:`~repro.bits.posindex.PositionChunk` is unchanged.

Format (all integers little-endian)::

    offset 0   MAGIC            8 bytes  b"REPRIDX\\x01"
    offset 8   header_len       uint64
    offset 16  header           JSON (utf-8), then zero padding to 8
    aligned    payload          concatenated raw arrays, each 8-aligned

The header carries a ``format_version``, the corpus fingerprint
(length + CRC-32) and a payload CRC-32; any mismatch — magic, version,
fingerprint, truncation, checksum, engine mode, chunk size — raises
:class:`~repro.errors.IndexSidecarError`, which callers treat as
"rebuild from the bytes" (see
:meth:`repro.engine.prepared.IndexedBuffer.load_or_build`).  The payload
is mapped read-only, so many processes serving the same corpus share one
set of physical pages.

Only ``vector`` mode is covered: the word-at-a-time index stores full
bitmap words per chunk (32× larger) and exists for paper fidelity, not
production reuse.
"""

from __future__ import annotations

import json
import mmap
import struct
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.bits.posindex import DEPTH_ZERO, DepthCarry, PositionChunk
from repro.bits.strings import StringCarry
from repro.errors import IndexSidecarError
from repro.storage import REAL_FS, RealFS, atomic_write
from repro.stream.buffer import StreamBuffer

MAGIC = b"REPRIDX\x01"
FORMAT_VERSION = 1

#: Sidecar filename suffix (one sidecar per corpus/mode/chunk-size).
SUFFIX = ".ridx"


def _crc(data) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _align8(n: int) -> int:
    return (n + 7) & ~7


def fingerprint(data: bytes) -> dict[str, int]:
    """Cheap corpus identity: byte length + CRC-32 (as the checkpoint
    store uses for stream identity)."""
    return {"len": len(data), "crc32": _crc(data)}


def sidecar_path(
    cache_dir: str | Path, data: bytes, chunk_size: int, fp: dict | None = None
) -> Path:
    """Deterministic sidecar location for ``data`` (fingerprint ``fp``) under ``cache_dir``."""
    fp = fp or fingerprint(data)
    return Path(cache_dir) / f"idx-{fp['crc32']:08x}-{fp['len']}-c{chunk_size}{SUFFIX}"


def save_buffer(
    buffer: StreamBuffer,
    path: str | Path,
    *,
    fs: RealFS = REAL_FS,
    metrics: Any = None,
    fp: dict | None = None,
) -> Path:
    """Write ``buffer``'s fully-built stage-1 index to ``path`` (corpus
    fingerprint ``fp``, if known).

    Builds any not-yet-built chunk first (the sidecar is a snapshot of
    the *complete* index), then persists through
    :func:`repro.storage.atomic_write`: temp-in-dir + fsync + rename +
    parent-directory fsync, temp file unlinked on any failure.  A
    killed or failed writer never leaves a torn sidecar — or a stranded
    ``.tmp<pid>`` — behind.  ``fs`` is the injectable syscall shim the
    disk-chaos harness uses to prove exactly that.
    """
    if buffer.mode != "vector":
        raise IndexSidecarError(
            f"index sidecars cover vector mode only, not {buffer.mode!r}"
        )
    index = buffer.index
    chunks = [index.get(cid) for cid in range(index.n_chunks)]

    blobs: list[bytes] = []
    offset = 0

    def blob(arr: np.ndarray, dtype: Any) -> list[int]:
        nonlocal offset
        raw = np.ascontiguousarray(arr, dtype=dtype).tobytes()
        padded = raw + b"\x00" * (_align8(len(raw)) - len(raw))
        blobs.append(padded)
        meta = [offset, int(len(arr))]
        offset += len(padded)
        return meta

    chunk_meta = []
    for ch in chunks:
        chunk_meta.append(
            {
                "start": ch.start,
                "length": ch.length,
                "keep": blob(ch.keep, np.int64),
                "vals": blob(ch.keep_vals, np.uint8),
                "quotes": blob(ch.quotes, np.int64),
                "carry_out": [ch.carry_out.escape, ch.carry_out.in_string],
                "depth_out": [ch.depth_out.depth, ch.depth_out.brace, ch.depth_out.bracket],
            }
        )

    payload = b"".join(blobs)
    header = {
        "format_version": FORMAT_VERSION,
        "mode": buffer.mode,
        "chunk_size": index.chunk_size,
        "n_chunks": index.n_chunks,
        "corpus": fp or fingerprint(buffer.data),
        "payload_len": len(payload),
        "payload_crc32": _crc(payload),
        "chunks": chunk_meta,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix = MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes
    prefix += b"\x00" * (_align8(len(prefix)) - len(prefix))

    return atomic_write(path, (prefix, payload), fs=fs, metrics=metrics, kind="sidecar")


def _fail(message: str, reason: str) -> "IndexSidecarError":
    return IndexSidecarError(f"index sidecar rejected: {message}", reason=reason)


def load_buffer(
    path: str | Path,
    data: bytes,
    chunk_size: int | None = None,
    fp: dict | None = None,
) -> StreamBuffer:
    """Reconstruct a fully-warm vector :class:`StreamBuffer` for ``data``
    (fingerprint ``fp``, if known) from the sidecar at ``path``.

    Position arrays are ``np.frombuffer`` views over a read-only mmap of
    the sidecar (zero copy, pages shared across processes); the chunk
    cache is pre-seeded so ``index.chunks_built`` stays 0 — stage 1 is
    truly skipped, not replayed.  Every validation failure raises
    :class:`~repro.errors.IndexSidecarError`.
    """
    try:
        with open(path, "rb") as handle:
            mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except FileNotFoundError as exc:
        raise _fail(f"no sidecar at {path}", "missing") from exc
    except (OSError, ValueError) as exc:
        raise _fail(f"unreadable file: {exc}", "unreadable") from exc

    if len(mm) < 16 or mm[:8] != MAGIC:
        raise _fail("bad magic (not a sidecar, or a future incompatible layout)", "magic")
    (header_len,) = struct.unpack_from("<Q", mm, 8)
    if header_len > len(mm) - 16:
        raise _fail("truncated header", "truncated")
    try:
        # repro: ignore[RS010] -- parses the sidecar's own tiny metadata
        # header once per load, not matched corpus bytes.
        header = json.loads(mm[16 : 16 + header_len].decode("utf-8"))
        version = header["format_version"]
        mode = header["mode"]
        stored_chunk_size = int(header["chunk_size"])
        n_chunks = int(header["n_chunks"])
        corpus = header["corpus"]
        payload_len = int(header["payload_len"])
        payload_crc = int(header["payload_crc32"])
        chunk_meta = header["chunks"]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise _fail(f"unparseable header: {exc}", "header") from exc

    if version != FORMAT_VERSION:
        raise _fail(f"format version {version} (this build reads {FORMAT_VERSION})", "version")
    if mode != "vector":
        raise _fail(f"mode {mode!r} (vector only)", "mode")
    if chunk_size is not None and stored_chunk_size != chunk_size:
        raise _fail(f"chunk size {stored_chunk_size} (caller needs {chunk_size})", "chunk_size")
    if corpus != (fp or fingerprint(data)):
        raise _fail(
            "corpus fingerprint mismatch (data changed since the sidecar was written)",
            "fingerprint",
        )
    if len(chunk_meta) != n_chunks:
        raise _fail(f"{len(chunk_meta)} chunk entries for n_chunks={n_chunks}", "layout")

    payload_start = _align8(16 + header_len)
    if payload_start + payload_len > len(mm):
        raise _fail("truncated payload", "truncated")
    # A memoryview slice: checksums the mapped pages without copying them.
    if _crc(memoryview(mm)[payload_start : payload_start + payload_len]) != payload_crc:
        raise _fail("payload checksum mismatch (corrupt sidecar)", "checksum")

    def arr(meta: Any, dtype: Any, itemsize: int) -> np.ndarray:
        off, count = int(meta[0]), int(meta[1])
        if off < 0 or count < 0 or off + count * itemsize > payload_len:
            raise _fail("array bounds outside payload", "layout")
        return np.frombuffer(mm, dtype=dtype, count=count, offset=payload_start + off)

    buffer = StreamBuffer(data, mode="vector", chunk_size=stored_chunk_size, cache_chunks=None)
    index = buffer.index
    if index.n_chunks != n_chunks:
        raise _fail(
            f"n_chunks {n_chunks} for this corpus/chunk-size (expected {index.n_chunks})",
            "layout",
        )

    try:
        carries = [
            (
                int(meta["carry_out"][0]),
                int(meta["carry_out"][1]),
                int(meta["depth_out"][0]),
                int(meta["depth_out"][1]),
                int(meta["depth_out"][2]),
            )
            for meta in chunk_meta
        ]
        index.seed_carries(carries)
        for cid, meta in enumerate(chunk_meta):
            start = int(meta["start"])
            if start != cid * stored_chunk_size:
                raise _fail(f"chunk {cid} start {start} out of place", "layout")
            carry_in = StringCarry(0, 0) if cid == 0 else StringCarry(*carries[cid - 1][:2])
            depth_in = DEPTH_ZERO if cid == 0 else DepthCarry(*carries[cid - 1][2:])
            index._cache[cid] = PositionChunk(
                start=start,
                length=int(meta["length"]),
                keep=arr(meta["keep"], np.int64, 8),
                keep_vals=arr(meta["vals"], np.uint8, 1),
                quotes=arr(meta["quotes"], np.int64, 8),
                carry_in=carry_in,
                carry_out=StringCarry(*carries[cid][:2]),
                depth_in=depth_in,
                depth_out=DepthCarry(*carries[cid][2:]),
            )
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        if isinstance(exc, IndexSidecarError):
            raise
        raise _fail(f"malformed chunk table: {exc}", "layout") from exc

    # The arrays' .base keeps the mmap alive; pin it on the buffer too so
    # introspection (and an empty-payload corpus) can't lose it early.
    buffer.sidecar_mmap = mm
    return buffer
