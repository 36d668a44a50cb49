"""``repro.resilience``: surviving hostile input and failing workers.

The paper's fast-forwarding validates skipped regions only at the
brace/bracket level (Section 3.3); this subsystem is the production
answer to what that leaves open:

- :mod:`~repro.resilience.guards` — ``Limits`` (``max_depth``,
  ``max_record_bytes``, cooperative ``Deadline``), accepted uniformly by
  every engine's ``limits=`` keyword;
- :mod:`~repro.resilience.faults` — the seeded corpus mutator
  (truncation, bit rot, structural damage, invalid UTF-8, quote
  corruption, nesting bombs) and process-fault sentinels;
- :mod:`~repro.resilience.fuzz` — the differential fuzz harness
  asserting every engine either agrees with the reference, raises a
  :class:`~repro.errors.ReproError`, or hits the documented skip-region
  blind spot — never crashes, never hangs;
- :mod:`~repro.resilience.recovery` — the one record loop
  (:func:`~repro.resilience.recovery.drive_records`, strict or lenient)
  and record-stream resynchronization: skip a malformed record, resume
  at the next boundary, report it (:func:`run_with_recovery`).

The pool runner, :func:`repro.parallel.run_records_pool_resilient`, is
the same contract over worker processes (worker replacement, retry with
backoff, poison-record quarantine), with the same record loop and the
same per-record evaluator inside its workers.
"""

from repro.resilience.faults import (
    CRASH_SENTINEL,
    HANG_SENTINEL,
    MUTATORS,
    Mutation,
    corpus,
    mutate,
)
from repro.resilience.fuzz import (
    DEFAULT_QUERIES,
    FuzzCase,
    FuzzReport,
    differential_fuzz,
)
from repro.resilience.guards import (
    DEFAULT_LIMITS,
    DEFAULT_MAX_DEPTH,
    Deadline,
    Limits,
    depth_error_from_recursion,
    effective_limits,
)
from repro.resilience.recovery import (
    RecordFailure,
    RecoveryResult,
    evaluate_record,
    run_with_recovery,
)

__all__ = [
    "CRASH_SENTINEL",
    "DEFAULT_LIMITS",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_QUERIES",
    "Deadline",
    "FuzzCase",
    "FuzzReport",
    "HANG_SENTINEL",
    "Limits",
    "MUTATORS",
    "Mutation",
    "RecordFailure",
    "RecoveryResult",
    "corpus",
    "depth_error_from_recursion",
    "differential_fuzz",
    "effective_limits",
    "evaluate_record",
    "mutate",
    "run_with_recovery",
]
