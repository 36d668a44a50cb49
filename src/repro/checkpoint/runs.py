"""Record-granularity checkpointing: the cursor both record runners drive.

Each record runner — :func:`repro.resilience.run_with_recovery`
(serial) and :func:`repro.parallel.run_records_pool_resilient`
(multi-process) — is one loop over a :class:`_Checkpointer`.  With
``checkpoint=`` (a path or :class:`~repro.checkpoint.store.CheckpointStore`)
the checkpointer is durable: every ``checkpoint_every`` records the run
commits

- the **cursor** (index of the next unprocessed record),
- the **emitted-match count** and, when an emitter is attached, the
  **output offset** the emitted bytes end at,
- the **failure report** accumulated so far, and
- a **metrics snapshot** (:meth:`MetricsRegistry.as_dict`),

to the store.  Without ``checkpoint=`` it is the *null* checkpointer:
it starts at cursor 0, stages and commits nothing, and reports no
:class:`CheckpointInfo` — so a plain run is the checkpointed run with
nothing persisted, not a second copy of the loop.

A resumed run validates the checkpoint against the stream (record
count, payload length, sampled CRC32) and the query, skips the
completed prefix, and — this is the exactly-once part — **defers
emission to commit points**: match values are buffered between
checkpoints and written to the emitter immediately *before* the
checkpoint that covers them is saved, so the persisted
``output_offset`` always equals the bytes actually flushed.  On resume
a seekable emitter is truncated back to that offset, erasing any
partially-emitted tail from the crash window; the concatenation of
output across any number of kill/resume cycles is byte-identical to an
uninterrupted run's output.

What is *not* persisted: per-record match values (the output stream or
the caller's own sink owns them — persisting them would make every
checkpoint O(matches so far)), engine-internal caches, and wall-clock
history.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.checkpoint.store import CheckpointStore, as_store, fingerprint
from repro.engine.output import Match
from repro.errors import CheckpointError, ConfigurationError

#: ``kind`` tags distinguishing checkpoint flavours; resuming a run with
#: a checkpoint of a different kind is an error, not a silent restart.
RECOVERY_KIND = "records/recovery"
POOL_KIND = "records/pool"
#: Each runner's counter of committed ok records.
_OK_COUNTER = {RECOVERY_KIND: "stream.records_ok", POOL_KIND: "pool.records_ok"}
SUSPEND_KIND = "record/suspend"


@dataclass(frozen=True)
class CheckpointInfo:
    """How checkpointing went for one run (``result.checkpoint``)."""

    resumed_at: int  #: cursor restored from a checkpoint (0 = fresh start)
    checkpoints_written: int
    interrupted: bool  #: the ``stop`` callable ended the run early
    completed: bool  #: every record was processed (or the run aborted)
    emitted: int = 0  #: total matches emitted, *including* pre-resume work


class JsonlEmitter:
    """Match-value emitter writing one JSON value per line.

    ``handle`` must be a binary file object; when it is seekable the
    emitter supports :meth:`truncate_to` and resumed runs are
    exactly-once.  A non-seekable sink (a pipe, stdout) still works, but
    a crash in the narrow window between emission and the covering
    checkpoint re-emits that window's matches on resume (at-least-once).
    """

    def __init__(self, handle) -> None:
        self.handle = handle
        try:
            self._seekable = handle.seekable()
        except (AttributeError, OSError):
            self._seekable = False

    def emit(self, index: int, values: list[Any]) -> None:
        """Write one line per value.

        A lazy :class:`~repro.engine.output.Match` view is spliced out
        verbatim — its slice is already one valid JSON value, so the
        line needs no parse and no re-encode (the emission-bound win of
        on-demand materialization).  Anything else (a pool worker's
        already-parsed value, a plain Python object) is serialized
        compactly as before.
        """
        write = self.handle.write
        for value in values:
            if isinstance(value, Match):
                write(value.text)
            else:
                write(json.dumps(value, separators=(",", ":")).encode("utf-8"))
            write(b"\n")

    def flush(self) -> None:
        self.handle.flush()

    def tell(self) -> int | None:
        return self.handle.tell() if self._seekable else None

    def truncate_to(self, offset: int) -> None:
        if not self._seekable:
            raise CheckpointError("cannot truncate a non-seekable output")
        self.handle.seek(offset)
        self.handle.truncate(offset)


def stream_fingerprint(stream) -> dict:
    """Cheap identity of a :class:`~repro.stream.records.RecordStream`."""
    return {
        "records": len(stream),
        "payload_len": stream.size,
        "crc": fingerprint(stream.payload),
    }


class _Checkpointer:
    """Restore/commit machinery for both record runners.

    ``store=None`` is the null checkpointer of a run without
    ``checkpoint=``: cursor 0, :meth:`stage` and :meth:`commit` do
    nothing, and :meth:`info` is ``None``.
    """

    def __init__(
        self,
        kind: str,
        store: CheckpointStore | None,
        stream,
        query: str | None,
        emitter,
        metrics,
        resume: bool,
    ) -> None:
        self.kind = kind
        self.store = store
        self.stream_id = stream_fingerprint(stream) if store is not None else None
        self.query = query
        self.emitter = emitter
        self.metrics = metrics
        self.cursor = 0
        self.emitted = 0
        self.failures: list = []
        self.extra: dict = {}
        self.resumed_at = 0
        self.written = 0
        self.done = False
        self.aborted = False
        #: (index, values) pairs awaiting the next commit.
        self._pending: list[tuple[int, list]] = []
        #: Ok records staged since the last commit.
        self._pending_ok = 0
        if store is None:
            return
        if resume:
            self._restore()
        else:
            store.clear()

    def _restore(self) -> None:
        from repro.resilience.recovery import RecordFailure

        record = self.store.load_latest()
        if record is None:
            return  # nothing to resume from: fresh start
        payload = record.payload
        if payload.get("kind") != self.kind:
            raise CheckpointError(
                f"checkpoint {record.path} is a {payload.get('kind')!r} "
                f"checkpoint, not {self.kind!r}"
            )
        if payload.get("stream") != self.stream_id:
            raise CheckpointError(
                f"checkpoint {record.path} was written for a different "
                f"stream ({payload.get('stream')} vs {self.stream_id})"
            )
        if self.query is not None and payload.get("query") not in (None, self.query):
            raise CheckpointError(
                f"checkpoint {record.path} was written for query "
                f"{payload.get('query')!r}, not {self.query!r}"
            )
        self.cursor = self.resumed_at = int(payload["cursor"])
        self.emitted = int(payload.get("emitted", 0))
        self.done = bool(payload.get("done", False))
        self.aborted = bool(payload.get("aborted", False))
        self.extra = dict(payload.get("extra", {}))
        self.failures = [
            RecordFailure(
                index=f["index"], kind=f["kind"], error=f["error"],
                message=f["message"], position=f.get("position"),
            )
            for f in payload.get("failures", ())
        ]
        if self.metrics is not None and payload.get("metrics") is not None:
            self.metrics.merge_dict(payload["metrics"])
        offset = payload.get("output_offset")
        if self.emitter is not None and offset is not None:
            truncate = getattr(self.emitter, "truncate_to", None)
            if truncate is not None:
                truncate(offset)
            # No truncate support: the sink keeps whatever the crashed
            # process wrote past the checkpoint (at-least-once).

    def stage(self, index: int, values: list | None) -> None:
        """Queue one record's match values for the next commit."""
        self._pending_ok += values is not None
        if values and self.store is not None:
            # list(): a lazy MatchList is staged as its Match views.
            self._pending.append((index, list(values)))
            self.emitted += len(values)

    def commit(self) -> None:
        """Emit everything staged, count its ok records (once emitted, and
        in the snapshot a resume restores), then persist a checkpoint."""
        if self.store is None:
            self._count_ok()
            return
        emitter = self.emitter
        offset = None
        if emitter is not None:
            for index, values in self._pending:
                emitter.emit(index, values)
            emitter.flush()
            tell = getattr(emitter, "tell", None)
            offset = tell() if tell is not None else None
        self._pending.clear()
        self._count_ok()
        payload = {
            "kind": self.kind,
            "query": self.query,
            "stream": self.stream_id,
            "cursor": self.cursor,
            "emitted": self.emitted,
            "output_offset": offset,
            "failures": [
                {
                    "index": f.index, "kind": f.kind, "error": f.error,
                    "message": f.message, "position": f.position,
                }
                for f in self.failures
            ],
            "metrics": self.metrics.as_dict() if self.metrics is not None else None,
            "extra": self.extra,
            "aborted": self.aborted,
            "done": self.done,
        }
        self.store.save(payload)
        self.written += 1

    def _count_ok(self) -> None:
        if self.metrics is not None:
            self.metrics.counter(_OK_COUNTER[self.kind]).add(self._pending_ok)
        self._pending_ok = 0

    def info(self, interrupted: bool) -> CheckpointInfo | None:
        if self.store is None:
            return None
        return CheckpointInfo(
            resumed_at=self.resumed_at,
            checkpoints_written=self.written,
            interrupted=interrupted,
            completed=self.done,
            emitted=self.emitted,
        )


def open_checkpointer(
    kind: str,
    checkpoint: CheckpointStore | str | None,
    stream,
    query: str | None,
    *,
    checkpoint_every: int,
    resume: bool,
    emitter,
    stop,
    metrics,
) -> _Checkpointer:
    """The checkpointer a record runner drives: durable or null.

    ``resume``, ``emitter`` and ``stop`` only mean something against a
    store, so passing any of them without ``checkpoint`` is a
    :class:`~repro.errors.ConfigurationError` rather than silently
    ignored.
    """
    if checkpoint_every < 1:
        raise ConfigurationError("checkpoint_every must be at least 1")
    if checkpoint is None:
        if resume or emitter is not None or stop is not None:
            raise ConfigurationError("resume=, emitter= and stop= require checkpoint=")
        return _Checkpointer(kind, None, stream, query, None, metrics, False)
    return _Checkpointer(
        kind, as_store(checkpoint), stream, query, emitter, metrics, resume
    )
