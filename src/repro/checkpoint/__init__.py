"""Crash-consistent checkpointing and resumable streaming runs.

Three layers, smallest to largest:

- :mod:`repro.checkpoint.store` — :class:`CheckpointStore`: versioned,
  CRC32-checksummed checkpoint generations written atomically (tmp +
  fsync + rename); a corrupt newest generation falls back to the newest
  valid one.
- :mod:`repro.checkpoint.suspend` — :class:`SuspendableRun` /
  :class:`EngineState`: the JSONSki evaluation loop in byte-budgeted
  steps whose frames serialize between steps, so a single huge record
  can suspend at a member boundary and resume in a fresh process.
- :mod:`repro.checkpoint.runs` — the record-granularity cursor that the
  two record runners, :func:`repro.resilience.run_with_recovery`
  (serial) and :func:`repro.parallel.run_records_pool_resilient`
  (pool), each drive in their one loop: durable with ``checkpoint=``
  (exactly-once emission via :class:`JsonlEmitter`), a null store that
  persists nothing without it.

:mod:`repro.checkpoint.validate` checks the whole stack behaviourally:
interrupt anywhere, resume, assert byte-identical output.
"""

from repro.checkpoint.runs import (
    POOL_KIND,
    RECOVERY_KIND,
    SUSPEND_KIND,
    CheckpointInfo,
    JsonlEmitter,
    stream_fingerprint,
)
from repro.checkpoint.store import (
    DEFAULT_KEEP,
    FORMAT_VERSION,
    MAGIC,
    CheckpointRecord,
    CheckpointStore,
    as_store,
    fingerprint,
)
from repro.checkpoint.suspend import EngineState, SuspendableRun
from repro.checkpoint.validate import KillResumeReport, kill_resume_differential

__all__ = [
    "CheckpointInfo",
    "CheckpointRecord",
    "CheckpointStore",
    "DEFAULT_KEEP",
    "EngineState",
    "FORMAT_VERSION",
    "JsonlEmitter",
    "KillResumeReport",
    "MAGIC",
    "POOL_KIND",
    "RECOVERY_KIND",
    "SUSPEND_KIND",
    "SuspendableRun",
    "as_store",
    "fingerprint",
    "kill_resume_differential",
    "stream_fingerprint",
]
