"""Record streams: one record loop (:func:`drive_records`); skip, resync, report.

A multi-gigabyte feed with one truncated record should not lose the
other billion.  :func:`run_with_recovery` evaluates a query over a
:class:`~repro.stream.records.RecordStream` record by record; a record
that raises a :class:`~repro.errors.ReproError` is skipped and the run
*resynchronizes at the next record boundary* (the stream's offset array
— the reason the paper stores small-record input as payload + offsets
makes recovery structurally trivial).  The result carries the partial
matches plus a structured failure report instead of one raw traceback.

Payload-level resynchronization (when the boundaries themselves are
damaged) lives in
:meth:`repro.stream.records.RecordStream.from_concatenated_lenient`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.engine.prepared import PreparedQuery
from repro.engine.stats import FastForwardStats
from repro.errors import ReproError, ResourceLimitError
from repro.observe import NOOP_TRACER
from repro.stream.records import RecordStream


@dataclass(frozen=True)
class RecordFailure:
    """One skipped record: where it was and why it failed.

    ``kind`` is ``"error"`` (malformed / guard-tripped input), or — from
    the resilient pool — ``"crash"`` / ``"timeout"`` for records
    quarantined because they repeatedly took a worker down with them.
    """

    index: int
    kind: str
    error: str
    message: str
    position: int | None = None


@dataclass
class RecoveryResult:
    """Partial results plus the failure report of one lenient run.

    ``values[i]`` is the list of matched values for record ``i``, or
    ``None`` when that record was skipped (its entry is in
    ``failures``).
    """

    values: list[list[Any] | None]
    failures: list[RecordFailure] = field(default_factory=list)
    #: :class:`repro.checkpoint.runs.CheckpointInfo` when the run was
    #: checkpointed (``checkpoint=`` was passed); ``None`` otherwise.
    checkpoint: Any | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def records_ok(self) -> int:
        return sum(1 for v in self.values if v is not None)

    def all_values(self) -> list[Any]:
        """Matched values across surviving records, in record order."""
        return [v for per_record in self.values if per_record is not None for v in per_record]

    def _headline(self) -> str:
        return f"{self.records_ok}/{len(self.values)} records ok, {len(self.failures)} skipped"

    def describe(self) -> str:
        lines = [self._headline()]
        for failure in self.failures[:20]:
            where = f" at byte {failure.position}" if failure.position is not None else ""
            lines.append(
                f"  record {failure.index}: [{failure.kind}] {failure.error}: "
                f"{failure.message}{where}"
            )
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more")
        return "\n".join(lines)


def evaluate_record(
    engine, index: int, record: Any, materialize: bool = True
) -> tuple[Any, RecordFailure | None]:
    """Evaluate one record: ``(values, None)`` or ``(None, failure)``.

    ``record`` is the record's bytes, its standalone buffer or its
    :class:`~repro.stream.batches.BatchRecord`, as :func:`drive_records`
    gives them.

    The one home of the per-record error taxonomy (the lenient policy of
    :func:`drive_records`): a
    :class:`~repro.errors.ReproError` becomes a ``kind="error"``
    :class:`RecordFailure` named after its class, and a ``ValueError``
    from decoding a matched slice (``run()`` tolerated a skip-region
    malformation, but the slice itself is not valid JSON) becomes
    ``"UndecodableMatch"``.  What a failure *means* — skip, abort the
    run, end the stream — is the caller's policy.

    ``materialize=False`` returns the lazy
    :class:`~repro.engine.output.MatchList` instead of decoded values;
    only a filter predicate still decodes (the values it compares), so
    only it can cause ``UndecodableMatch``.
    """
    try:
        matches = engine.run(record)
        return (matches.values() if materialize else matches), None
    except ReproError as exc:
        position = getattr(exc, "position", None)
        return None, RecordFailure(index, "error", type(exc).__name__, str(exc), position)
    except ValueError as exc:
        return None, RecordFailure(index, "error", "UndecodableMatch", str(exc))


def drive_records(
    engine: Any, stream: RecordStream, start: int = 0, stop: int | None = None,
    *, lenient: bool = False, materialize: bool = True,
) -> Iterator[tuple[int, Any, RecordFailure | None]]:
    """The record loop of every record path: ``(i, result, failure)`` for
    records ``[start, stop)`` of ``stream``, each run only when asked for.

    Inputs: a two-stage engine's batched ``record_buffers``, else each
    record's bytes.  Strict (default): ``result`` is ``engine.run``'s
    output; a record's :class:`ReproError` propagates, ``exc.record = i``.
    Lenient: :func:`evaluate_record`'s pair.  Per record: a ``record``
    span, ``engine.records``; ``engine.last_stats`` sums completed records
    (a failed run leaves the sum so far, or an older run's, in place).
    """
    if isinstance(engine, PreparedQuery):  # a record is never an IndexedBuffer to unwrap
        engine = engine.engine
    batched = getattr(engine, "record_buffers", None)
    if batched is not None:
        inputs = batched(stream, start, stop)
    else:
        inputs = (stream.record(i) for i in range(start, len(stream) if stop is None else stop))
    tracer = getattr(engine, "_tracer", NOOP_TRACER)
    metrics = getattr(engine, "_metrics", None)
    records = metrics.counter("engine.records") if metrics is not None else None
    total = None
    for i, record in enumerate(inputs, start):
        if records is not None:
            records.add(1)
        with tracer.span("record", index=i):
            if lenient:
                result, failure = evaluate_record(engine, i, record, materialize)
            else:
                try:
                    result, failure = engine.run(record), None
                except ReproError as exc:
                    exc.record = i
                    raise
        stats = engine.last_stats
        if stats is not None and stats is not total:
            if total is None:
                total = FastForwardStats()
            if failure is None:
                total.merge(stats)
            engine.last_stats = total
        yield i, result, failure


def run_with_recovery(
    engine,
    stream,
    *,
    max_failures: int | None = None,
    metrics=None,
    checkpoint=None,
    checkpoint_every: int = 1000,
    resume: bool = False,
    emitter=None,
    stop=None,
    materialize: bool = True,
) -> RecoveryResult:
    """Evaluate ``engine`` over every record, surviving malformed ones.

    Each record that raises a :class:`ReproError` becomes a
    :class:`RecordFailure` (the lenient policy of :func:`drive_records`);
    processing resumes at the next record boundary.  A
    :class:`~repro.errors.DeadlineExceededError` (the cooperative
    deadline is a property of the whole run, not of one record) and
    ``max_failures`` overruns abort the run early — the partial result
    still carries everything processed so far, with the aborting failure
    last.

    ``metrics`` receives ``stream.records_ok`` / ``stream.records_skipped``
    counters (per failure class, via the ``error`` label); ok records
    count at each commit, so a session ended by an exception keeps them.

    ``checkpoint`` (a path or :class:`~repro.checkpoint.CheckpointStore`)
    makes the run resumable (:mod:`repro.checkpoint.runs`): progress is
    committed every ``checkpoint_every`` records and at every exit path,
    ``resume=True`` skips the completed prefix of an interrupted run,
    ``emitter`` receives match values exactly once across kill/resume
    cycles, and ``stop`` (called with the next record index) requests a
    clean early exit (``result.checkpoint.interrupted``).  ``resume``,
    ``emitter`` and ``stop`` without ``checkpoint`` raise
    :class:`~repro.errors.ConfigurationError`.  A resumed run's
    ``values`` cover only records processed *this session* — entries for
    records completed before the resume are ``None`` (their output
    already lives in the emitter's sink); ``result.checkpoint.resumed_at``
    marks the boundary.

    ``engine`` may also be query text (or a parsed
    :class:`~repro.jsonpath.ast.Path`), which is compiled through the
    registry into a :class:`~repro.engine.prepared.PreparedQuery` — the
    recommended spelling for new code.

    ``materialize=False`` returns each record's lazy
    :class:`~repro.engine.output.MatchList` in ``values`` instead of
    decoded lists (and, with a checkpoint, stages/emits raw byte ranges)
    — zero ``json.loads`` unless a consumer touches a value.  The
    ``UndecodableMatch`` failure class then comes only from filter
    predicates, which decode the values they compare.
    """
    from repro.checkpoint.runs import RECOVERY_KIND, open_checkpointer
    from repro.jsonpath.ast import Path

    if isinstance(engine, (str, Path)):
        from repro.registry import compile as compile_engine

        engine = compile_engine(engine)
    # Engines keep their parsed Path; a checkpoint records its canonical
    # text so a resume against a different query is rejected, not mixed.
    path = getattr(engine, "path", None)
    query = path.unparse() if hasattr(path, "unparse") else None
    ck = open_checkpointer(
        RECOVERY_KIND, checkpoint, stream, query,
        checkpoint_every=checkpoint_every, resume=resume,
        emitter=emitter, stop=stop, metrics=metrics,
    )
    n = len(stream)
    values: list[Any] = [None] * n
    interrupted = False
    if not ck.done:
        since_commit = 0
        results = drive_records(engine, stream, ck.cursor, lenient=True, materialize=materialize)
        while ck.cursor < n:
            if stop is not None and stop(ck.cursor):
                interrupted = True
                break
            i, values[i], failure = next(results)
            if failure is not None:
                ck.failures.append(failure)
                if metrics is not None:
                    metrics.counter("stream.records_skipped", error=failure.error).add(1)
                if failure.error == "DeadlineExceededError" or (
                    max_failures is not None and len(ck.failures) >= max_failures
                ):
                    ck.aborted = True
            ck.stage(i, values[i])
            ck.cursor = i + 1
            since_commit += 1
            if ck.aborted:
                break
            if since_commit >= checkpoint_every:
                ck.commit()
                since_commit = 0
        if ck.cursor >= n or ck.aborted:
            ck.done = True
        ck.commit()
    return RecoveryResult(
        values=values, failures=list(ck.failures), checkpoint=ck.info(interrupted)
    )


__all__ = [
    "RecordFailure",
    "RecoveryResult",
    "ResourceLimitError",
    "drive_records",
    "evaluate_record",
    "run_with_recovery",
]
