"""Actual multi-process record-parallel execution.

:mod:`repro.parallel.records_parallel` *simulates* N workers from
measured serial work (necessary on the single-core reproduction
machine, and what the Figure 12 benchmark uses).  On real multi-core
hosts this module runs the same scenario for real with a process pool:
records are batched, each worker process compiles the query once and
streams its batches (stage 1 in 64 KiB passes), and match *values*
come back pickled.

Only decoded values travel across the process boundary (raw-slice
matches would drag whole payload chunks along), so the result is a list
of values per record — enough for every aggregation use; use the
in-process engines when byte offsets are needed.

One runner, :func:`run_records_pool_resilient`, which survives crashing
workers and poison records.  It is one segment loop over the checkpoint
cursor of :mod:`repro.checkpoint.runs` — a checkpointed run commits
after every ``checkpoint_every`` records, an unchecked one is the same
loop with a null store and the whole stream as one segment — and each
segment goes through one bisect/retry/isolated-trial executor.  With
``n_workers=1`` and no fault injection a segment runs in-process, the
deterministic reference the tests compare against.  Workers evaluate
records with :func:`repro.resilience.recovery.drive_records`, the same
lenient record loop as the serial runner.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro.errors import DeadlineExceededError
from repro.resilience.recovery import RecordFailure, RecoveryResult
from repro.stream.records import RecordStream

#: Upper bound on one retry backoff sleep, jittered or not.
_BACKOFF_CAP = 1.0


def retry_delay(
    backoff: float,
    attempts: int,
    jitter: float = 1.0,
    rng: random.Random | None = None,
) -> float:
    """One restart-backoff sleep: capped exponential, with *full jitter*.

    The deterministic ``backoff * 2**attempts`` schedule retries every
    worker replaced by the same fault at the same instant — a thundering
    herd against whatever resource killed them.  ``jitter`` is the
    randomized fraction of the delay (AWS-style full jitter at the
    default ``1.0``: uniform in ``[0, delay]``; ``0.0`` reproduces the
    legacy deterministic schedule).  Pass a seeded ``rng`` for
    reproducible tests.
    """
    delay = min(backoff * (2 ** attempts), _BACKOFF_CAP)
    if jitter <= 0.0 or delay <= 0.0:
        return delay
    jitter = min(jitter, 1.0)
    if rng is None:
        rng = random
    return delay * (1.0 - jitter) + rng.uniform(0.0, delay * jitter)


def _deadline_spent(limits) -> bool:
    return limits is not None and limits.deadline is not None and limits.deadline.expired()


def check_dispatch_deadline(limits) -> None:
    """Fail fast when ``limits`` carries an already-expired deadline.

    Fanning work out to a pool (or a new retry/resume segment) under an
    expired absolute deadline means every worker compiles, starts, and
    immediately aborts — pure overhead with a foregone conclusion.  The
    dispatchers call this before creating any worker; callers that want
    the work to run must convert the remaining budget into a fresh
    deadline first (``Limits.remaining()`` / ``Limits.with_deadline``).
    """
    if _deadline_spent(limits):
        raise DeadlineExceededError(
            "deadline already expired at pool dispatch; refusing to fan out "
            "(rebuild a fresh deadline from the remaining budget instead)"
        )

# Per-process engine cache: (query text) -> engine, built lazily in the
# worker so the compiled automaton is reused across batches.
_WORKER_ENGINE = None
_WORKER_QUERY = None


# ---------------------------------------------------------------------------
# Fault-tolerant pool
# ---------------------------------------------------------------------------


def _run_batch_resilient(
    query: str, records: list[bytes], inject_faults: bool = False, limits=None, metered=False
) -> tuple[list[tuple], dict | None]:
    """Worker: evaluate each record, capturing per-record failures.

    Returns the lenient :func:`~repro.resilience.recovery.drive_records`
    results ``(index, values, failure)``, indexed within the batch, and,
    when ``metered``, the snapshot of a registry fresh to this dispatch
    (``None`` otherwise), so the parent-side merge is a plain sum.  A
    record that merely raises stays a data point instead of a process
    casualty — only genuine interpreter/OS death (or the injected fault
    sentinels used by the tests) takes the worker down.  The records are
    framed as one ``RecordStream``, so a two-stage engine classifies
    them in 64 KiB batches.

    ``limits`` (a :class:`repro.resilience.Limits`, pickled across the
    process boundary; ``Deadline`` anchors to ``CLOCK_MONOTONIC``, which
    is machine-wide, so an absolute budget survives the hop) is baked
    into the worker's engine so depth/size/deadline guards hold inside
    the pool exactly as they would in-process.
    """
    global _WORKER_ENGINE, _WORKER_QUERY
    if inject_faults:
        import os

        from repro.resilience.faults import CRASH_SENTINEL, HANG_SENTINEL, HANG_SECONDS

        for record in records:
            if record == CRASH_SENTINEL:
                os._exit(1)  # simulated hard crash: no exception, no cleanup
            if record == HANG_SENTINEL:
                time.sleep(HANG_SECONDS)
    from repro.observe import MetricsRegistry
    from repro.registry import compile as compile_engine
    from repro.resilience.recovery import drive_records

    registry = MetricsRegistry() if metered else None
    if limits is not None or metered:
        # Guarded or metered runs skip the per-process cache: deadline
        # and registry are baked into the engine and differ per
        # dispatch, and compilation is microseconds against a batch.
        engine = compile_engine(query, limits=limits, metrics=registry)
    else:
        if _WORKER_QUERY != query:
            _WORKER_ENGINE = compile_engine(query)
            _WORKER_QUERY = query
        engine = _WORKER_ENGINE
    out = list(drive_records(engine, RecordStream.from_records(records), lenient=True))
    if registry is None:
        return out, None
    registry.counter("parallel.batch_records").add(len(records))
    return out, registry.as_dict()


@dataclass
class _Batch:
    start: int  # index of the first record in the stream
    records: list[bytes]
    attempts: int = 0


@dataclass
class PoolResult(RecoveryResult):
    """Outcome of one fault-tolerant pool run.

    A :class:`~repro.resilience.recovery.RecoveryResult` (``values[i]``
    is ``None`` when record ``i`` was quarantined, see ``failures``)
    plus the pool's own health counters.
    """

    worker_crashes: int = 0
    batch_retries: int = 0

    def _headline(self) -> str:
        return (
            f"{self.records_ok}/{len(self.values)} records ok, "
            f"{len(self.failures)} quarantined, "
            f"{self.worker_crashes} worker crashes, "
            f"{self.batch_retries} batch retries"
        )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even if a worker is wedged."""
    processes = list(getattr(pool, "_processes", {}).values())
    for proc in processes:
        try:
            proc.terminate()
        except OSError:  # already-dead process: nothing left to kill
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _deadline_failures(indices) -> list[RecordFailure]:
    """Quarantine records the spent deadline never let a worker start."""
    return [
        RecordFailure(i, "error", "DeadlineExceededError", "deadline expired before batch dispatch")
        for i in indices
    ]


def run_records_pool_resilient(
    query: str,
    stream: RecordStream,
    n_workers: int = 2,
    batch_size: int = 64,
    max_retries: int = 2,
    timeout: float | None = None,
    backoff: float = 0.05,
    backoff_jitter: float = 1.0,
    backoff_rng: random.Random | None = None,
    metrics=None,
    inject_faults: bool = False,
    checkpoint=None,
    checkpoint_every: int = 1000,
    resume: bool = False,
    emitter=None,
    stop=None,
    limits=None,
) -> PoolResult:
    """Evaluate ``query`` over every record using ``n_workers`` processes,
    surviving crashing workers and poison records.

    ``result.values`` holds one list of match values per record, in
    record order.  Hostile input is contained:

    - a record that raises a :class:`~repro.errors.ReproError` is
      captured *inside* the worker and quarantined (``kind="error"``) —
      it never takes a batch down;
    - a worker that dies (``BrokenProcessPool``) or exceeds ``timeout``
      is replaced by a fresh pool; the affected batches are retried with
      exponential ``backoff``.  A batch that keeps killing workers is
      bisected until the culprit record is isolated and quarantined
      (``kind="crash"`` / ``"timeout"``), so innocent records in the
      same batch still produce results;
    - the run always returns a :class:`PoolResult` with partial values
      plus a structured failure report — no raw tracebacks, no lost
      batches.

    ``inject_faults=True`` arms the test-only fault sentinels
    (:data:`repro.resilience.faults.CRASH_SENTINEL` /
    :data:`~repro.resilience.faults.HANG_SENTINEL`).  ``metrics``
    receives ``pool.worker_crashes``, ``pool.batch_retries``,
    ``pool.poison_records``, ``pool.records_ok`` and
    ``pool.records_failed`` counters, plus the workers' counters as if
    the run had been serial: each dispatch ships a snapshot of its own
    registry back with its values (``parallel.batch_records`` counts its
    records) and the parent merges the ones it harvests.

    ``backoff_jitter`` randomizes each restart sleep with full jitter
    (see :func:`retry_delay`) so simultaneously-replaced workers do not
    retry in lockstep; ``0.0`` restores the deterministic schedule and a
    seeded ``backoff_rng`` makes the jittered schedule reproducible.

    The stream is processed in segments: ``checkpoint_every`` records
    each with ``checkpoint=`` (a path or
    :class:`~repro.checkpoint.CheckpointStore`), the whole stream as one
    segment without.  After each segment its values, failures and pool
    counters are committed (:mod:`repro.checkpoint.runs`); ``stop`` is
    consulted between segments — records within a segment complete out
    of order across workers — and ``resume=True`` continues an
    interrupted run from its last commit, ``emitter`` receiving every
    match exactly once.  ``resume``, ``emitter`` and ``stop`` without
    ``checkpoint`` raise :class:`~repro.errors.ConfigurationError`.

    ``limits`` threads the uniform resource guards into every worker's
    engine.  A ``limits.deadline`` that is *already expired* fails the
    dispatch immediately with
    :class:`~repro.errors.DeadlineExceededError` — no pool is created,
    no batch is pickled, no checkpoint is restored (a resumed run must
    convert its remaining budget into a *fresh* deadline; see
    :meth:`repro.resilience.Limits.remaining`).  A deadline that expires
    mid-run stops further batch scheduling: at the next segment boundary
    (or batch dispatch) the unprocessed records are quarantined as
    ``DeadlineExceededError`` failures and the run ends, committed as
    done, with every finished record's values intact.
    """
    from repro.checkpoint.runs import POOL_KIND, open_checkpointer

    check_dispatch_deadline(limits)
    ck = open_checkpointer(
        POOL_KIND, checkpoint, stream, query,
        checkpoint_every=checkpoint_every, resume=resume,
        emitter=emitter, stop=stop, metrics=metrics,
    )
    n = len(stream)
    segment = checkpoint_every if checkpoint is not None else max(n, 1)
    result = PoolResult(
        values=[None] * n,
        failures=ck.failures,
        worker_crashes=int(ck.extra.get("worker_crashes", 0)),
        batch_retries=int(ck.extra.get("batch_retries", 0)),
    )
    interrupted = False
    if not ck.done:
        while ck.cursor < n:
            start = ck.cursor
            if stop is not None and stop(start):
                interrupted = True
                break
            first_failure = len(result.failures)
            crashes, retries = result.worker_crashes, result.batch_retries
            if _deadline_spent(limits):
                end = n
                result.failures.extend(_deadline_failures(range(start, n)))
                ck.aborted = True
            else:
                end = min(n, start + segment)
                _run_segment(
                    query, [stream.record(i) for i in range(start, end)], start, result,
                    n_workers, batch_size, max_retries, timeout, backoff,
                    backoff_jitter, backoff_rng, inject_faults, limits, metrics,
                )
            if metrics is not None:
                failed = result.failures[first_failure:]
                for name, value in (
                    ("pool.worker_crashes", result.worker_crashes - crashes),
                    ("pool.batch_retries", result.batch_retries - retries),
                    ("pool.poison_records", sum(f.kind == "error" for f in failed)),
                    ("pool.crashed_records", sum(f.kind in ("crash", "timeout") for f in failed)),
                    ("pool.records_failed", len(failed)),
                ):
                    metrics.counter(name).add(value)
            for idx in range(start, end):
                ck.stage(idx, result.values[idx])
            ck.cursor = end
            ck.extra = {
                "worker_crashes": result.worker_crashes,
                "batch_retries": result.batch_retries,
            }
            ck.commit()
        if ck.cursor >= n:
            ck.done = True
            ck.commit()
    result.checkpoint = ck.info(interrupted)
    return result


def _run_segment(
    query: str,
    records: list[bytes],
    start: int,
    result: PoolResult,
    n_workers: int,
    batch_size: int,
    max_retries: int,
    timeout: float | None,
    backoff: float,
    backoff_jitter: float,
    backoff_rng: random.Random | None,
    inject_faults: bool,
    limits,
    metrics,
) -> None:
    """Evaluate one segment — stream records ``start`` onward — into ``result``.

    The bisect/retry/isolated-trial executor: values land at their
    absolute stream index, failures are appended re-indexed, worker
    crashes and batch retries are added to ``result``'s counters, and
    only a harvested dispatch's metrics snapshot is merged into
    ``metrics``, so a retried or bisected batch counts once.
    """
    metered = metrics is not None

    def harvest(batch_start: int, out: tuple[list[tuple], dict | None]) -> None:
        results, snapshot = out
        if snapshot is not None:
            metrics.merge_dict(snapshot)
        for offset, values, failure in results:
            if failure is None:
                result.values[batch_start + offset] = values
            else:
                result.failures.append(replace(failure, index=batch_start + offset))

    if not (inject_faults or n_workers > 1):
        harvest(start, _run_batch_resilient(query, records, inject_faults, limits, metered))
        return
    pending: deque[_Batch] = deque(
        _Batch(start + i, records[i : i + batch_size])
        for i in range(0, len(records), batch_size)
    )
    pool: ProcessPoolExecutor | None = None
    try:
        while pending:
            if _deadline_spent(limits):
                # Budget spent mid-run: quarantine what's left instead of
                # dispatching batches every worker would abort anyway.
                for batch in pending:
                    result.failures.extend(
                        _deadline_failures(range(batch.start, batch.start + len(batch.records)))
                    )
                pending.clear()
                break
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=max(1, n_workers))
            # Submit every pending batch so healthy workers stay busy;
            # collect in order so a broken pool is noticed deterministically.
            inflight = [
                (
                    batch,
                    pool.submit(
                        _run_batch_resilient, query, batch.records, inject_faults, limits, metered
                    ),
                )
                for batch in pending
            ]
            pending.clear()
            for pos, (batch, future) in enumerate(inflight):
                try:
                    harvest(batch.start, future.result(timeout=timeout))
                except (BrokenProcessPool, FutureTimeoutError, OSError) as exc:
                    kind = "timeout" if isinstance(exc, FutureTimeoutError) else "crash"
                    result.worker_crashes += 1
                    if pool is not None:
                        _kill_pool(pool)
                        pool = None
                    if backoff:
                        time.sleep(
                            retry_delay(backoff, batch.attempts, backoff_jitter, backoff_rng)
                        )
                    if len(batch.records) > 1:
                        # Bisect: isolate the culprit, free the innocents.
                        mid = len(batch.records) // 2
                        pending.append(
                            _Batch(batch.start, batch.records[:mid], batch.attempts + 1)
                        )
                        pending.append(
                            _Batch(batch.start + mid, batch.records[mid:], batch.attempts + 1)
                        )
                        result.batch_retries += 1
                    elif batch.attempts < max_retries:
                        pending.append(
                            _Batch(batch.start, batch.records, batch.attempts + 1)
                        )
                        result.batch_retries += 1
                    elif _isolated_trial(
                        query, batch, timeout, inject_faults, harvest, limits, metered
                    ):
                        # Exonerated: every attempt so far may have been
                        # collateral damage — BrokenProcessPool fails all
                        # in-flight futures, so an innocent record can
                        # burn its retries on a *sibling's* crash.  Only
                        # a record that also kills a private one-worker
                        # pool is quarantined.
                        result.batch_retries += 1
                    else:
                        result.failures.append(
                            RecordFailure(
                                batch.start,
                                kind,
                                type(exc).__name__,
                                f"record repeatedly killed its worker ({kind})",
                            )
                        )
                    # Remaining in-flight futures share the dead pool:
                    # requeue them for the fresh one without burning an
                    # attempt (they are casualties, not suspects).
                    for other, other_future in inflight[pos + 1 :]:
                        if not _harvest_if_done(other, other_future, harvest):
                            pending.append(other)
                    break
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


def _isolated_trial(
    query: str, batch: _Batch, timeout, inject_faults, harvest, limits=None, metered=False
) -> bool:
    """Final verdict for a suspect record: run it alone in a fresh
    single-worker pool, where no sibling can take the worker down.
    Harvests the result and returns True if the record survives; returns
    False (quarantine is warranted) if it kills even its private worker.
    """
    trial = ProcessPoolExecutor(max_workers=1)
    try:
        future = trial.submit(
            _run_batch_resilient, query, batch.records, inject_faults, limits, metered
        )
        out = future.result(timeout=timeout)
    except (BrokenProcessPool, FutureTimeoutError, OSError):
        return False
    finally:
        _kill_pool(trial)
    harvest(batch.start, out)
    return True


def _harvest_if_done(batch: _Batch, future, harvest) -> bool:
    """Salvage a sibling future's result if it finished before the pool died."""
    if future.done() and not future.cancelled() and future.exception() is None:
        harvest(batch.start, future.result())
        return True
    return False
