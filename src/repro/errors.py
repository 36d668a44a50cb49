"""Exception hierarchy for the JSONSki reproduction.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations

from typing import Iterator


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class JsonPathSyntaxError(ReproError):
    """A JSONPath expression could not be parsed.

    Carries the offending expression and the character offset at which
    parsing failed, so tooling can point at the error location.
    """

    def __init__(self, message: str, expression: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position} in {expression!r})")
        self.expression = expression
        self.position = position


class UnsupportedQueryError(ReproError):
    """A parsed JSONPath uses a feature a particular engine cannot run."""


class JsonSyntaxError(ReproError):
    """The input stream is not well-formed JSON.

    ``position`` is the byte offset at which the problem was detected.
    Note that, as in the paper (Section 3.3), fast-forwarded segments are
    only validated at the level of brace/bracket pairing, so some malformed
    inputs inside skipped regions are *not* reported.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at byte {position})")
        self.position = position


class StreamExhaustedError(JsonSyntaxError):
    """The stream ended while a structure was still open."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(message, position)


class ResourceLimitError(ReproError):
    """A configured resource guard stopped the run.

    Base class for the :class:`repro.resilience.Limits` guard family:
    the input itself may or may not be well-formed, but processing it
    would exceed a limit the caller configured (or a safety default).
    """


class RecordTooLargeError(ResourceLimitError):
    """A single record exceeds an engine's supported size.

    Mirrors simdjson's documented 4 GB single-record limit (paper
    Section 5.4); the limit is configurable per engine through
    :class:`repro.resilience.Limits` (``max_record_bytes``).
    """


class DepthLimitError(ResourceLimitError):
    """Nesting exceeded the configured ``max_depth`` guard.

    Raised *before* the interpreter's own recursion limit so a nesting
    bomb surfaces as a diagnosable library error instead of a bare
    :class:`RecursionError`.  ``position`` is the byte offset of the
    container that crossed the limit (``-1`` when unknown, e.g. when a
    C-level parser hit the interpreter limit first).
    """

    def __init__(self, message: str, position: int = -1, depth: int | None = None) -> None:
        where = f" (at byte {position})" if position >= 0 else ""
        super().__init__(f"{message}{where}")
        self.position = position
        self.depth = depth


class ConfigurationError(ReproError, ValueError):
    """A caller supplied an invalid configuration value.

    Raised when an argument fails validation before any work starts
    (``keep < 1``, ``checkpoint_every < 1``, ``n_parts <= 0``).  Also a
    :class:`ValueError` so historical ``except ValueError`` callers keep
    working; new code should catch :class:`ReproError`.
    """


class InvariantError(ReproError, ValueError):
    """An internal consistency invariant was violated.

    Indicates a bug in this package (a match slot filled twice, an
    unknown AST node reached an exhaustive dispatch), not bad input.
    Also a :class:`ValueError` for backward compatibility with callers
    that caught the previous bare raises.
    """


class MatchTypeError(ReproError, TypeError):
    """A typed match accessor was used on a value of another type.

    Raised by :meth:`repro.engine.Match.as_int` and friends when the
    matched token is not of the requested type.  Also a
    :class:`TypeError` so it reads naturally at call sites that treat it
    as a conversion failure.
    """


class IndexSidecarError(ReproError):
    """A structural-index sidecar could not be used.

    Raised when a sidecar file fails validation — bad magic, format
    version mismatch, corpus content-hash mismatch, truncation, payload
    checksum mismatch, or an engine mode the format does not cover.
    Callers that hold the corpus bytes should treat this as "rebuild the
    index", never as fatal (see
    :meth:`repro.engine.prepared.IndexedBuffer.load_or_build`).

    :attr:`reason` is the machine-readable rejection category
    (``"missing"``, ``"checksum"``, ``"fingerprint"``, ...) that labels
    the ``storage.sidecar_rejects`` counter and decides quarantine
    (a ``"missing"`` sidecar is a cold start, not corruption).
    """

    def __init__(self, message: str, reason: str = "unspecified") -> None:
        super().__init__(message)
        self.reason = reason


class StorageError(ReproError):
    """A durable-storage operation failed in a way the shared substrate
    (:mod:`repro.storage`) owns — as opposed to an ``OSError`` surfaced
    verbatim from the filesystem."""


class LockTimeoutError(StorageError):
    """An advisory lock could not be acquired within its deadline.

    Raised by :func:`repro.storage.advisory_lock` when the holder stayed
    alive (a dead holder's lock is released by the kernel or stolen via
    the stale-lock protocol, never waited out).
    """


class CheckpointError(ReproError):
    """A checkpoint could not be used.

    Raised when a checkpoint file fails validation (bad magic, version
    mismatch, truncation, checksum mismatch) *and* no older generation is
    usable, or when a checkpoint does not belong to the run being resumed
    (different input payload, record count, or run kind).  A corrupt
    *newest* generation alone does not raise — the store falls back to
    the newest valid generation (see
    :class:`repro.checkpoint.CheckpointStore`).
    """


class DeadlineExceededError(ResourceLimitError):
    """A cooperative deadline expired while streaming.

    Engines check the deadline at container boundaries (and periodically
    inside long flat containers), so a run is abandoned within a bounded
    amount of extra work after the deadline passes — never mid-byte, and
    never by killing the process.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        where = f" (at byte {position})" if position >= 0 else ""
        super().__init__(f"{message}{where}")
        self.position = position


def shift_position(exc: ReproError, shift: int) -> None:
    """Move ``exc``'s byte ``position`` — and the ``(at byte N)`` that
    ends its message — ``shift`` bytes to the left: an error raised in a
    record batch's coordinates, restated in the record's own."""
    position = getattr(exc, "position", None)
    if not shift or position is None or position < 0:
        return
    exc.position = position - shift
    message, tail = str(exc), f" (at byte {position})"
    if message.endswith(tail):
        exc.args = (f"{message[: -len(tail)]} (at byte {position - shift})",)


def _iter_chars(data: bytes, lo: int, hi: int) -> Iterator[tuple[int, str]]:
    """Yield ``(byte_start, char)`` over ``data[lo:hi]``, decoding UTF-8
    one character at a time so byte offsets map exactly onto rendered
    characters (undecodable bytes render as one char each)."""
    pos = lo
    while pos < hi:
        byte = data[pos]
        if byte < 0x80:
            length = 1
        elif byte >= 0xF0:
            length = 4
        elif byte >= 0xE0:
            length = 3
        elif byte >= 0xC0:
            length = 2
        else:  # bare continuation byte
            length = 1
        length = min(length, hi - pos)
        try:
            char = data[pos : pos + length].decode("utf-8")
        except UnicodeDecodeError:
            char, length = "�", 1
        yield pos, char
        pos += length


def format_error_context(data: bytes, position: int, width: int = 30) -> str:
    """Render the input around an error position, gdb-style.

    Returns two lines: the (printable-sanitized) text surrounding
    ``position`` and a caret pointing at the offending byte.  Used by the
    CLI so a :class:`JsonSyntaxError` is actionable without a hex editor.

    The snippet is decoded character by character with an explicit
    byte-to-character map, so the caret stays aligned on multi-byte UTF-8
    input (a prefix re-decode would collapse byte counts through
    replacement characters and drift).
    """
    position = max(0, min(position, max(len(data) - 1, 0)))
    lo = max(0, position - width)
    hi = min(len(data), position + width)
    prefix = "..." if lo > 0 else ""
    suffix = "..." if hi < len(data) else ""
    rendered: list[str] = []
    caret_at = 0
    for byte_start, char in _iter_chars(data, lo, hi):
        if byte_start <= position:
            caret_at = len(prefix) + len(rendered)
        rendered.append(char if char.isprintable() else ".")
    return f"{prefix}{''.join(rendered)}{suffix}\n" + " " * caret_at + "^"
