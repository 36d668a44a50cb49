"""Kill-and-resume differential validation.

The checkpoint subsystem's contract is behavioural: *interrupt a run
anywhere, resume it, and the output is byte-identical to never having
been interrupted*.  This module checks that contract directly —
:func:`kill_resume_differential` runs the same query three times

1. **reference** — uninterrupted, emitting to an in-memory sink;
2. **interrupted** — checkpointed, stopped at a chosen record cursor
   (simulating the kill; the SIGKILL-mid-process variant lives in the
   subprocess tests, which share this comparison logic);
3. **resumed** — from the newest checkpoint to completion;

and compares the interrupted+resumed output stream, failure report, and
emitted-match count against the reference.  It is wired into the tier-1
fuzz smoke test and ``benchmarks/fuzz_soak.py --kill-resume``.

The harness is deliberately race-proof: if ``interrupt_at`` lands past
the end of the stream the "interrupted" run simply completes and the
resume is a no-op — equality must *still* hold, so a fuzzer can pick
interrupt points blindly.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

from repro.checkpoint.runs import JsonlEmitter


@dataclass(frozen=True)
class KillResumeReport:
    """Outcome of one interrupt/resume equivalence check."""

    ok: bool
    interrupt_at: int
    interrupted: bool  #: whether the stop actually landed mid-run
    resumed_at: int  #: cursor the resumed run restored (== interrupt_at when landed)
    n_records: int
    expected_matches: int
    got_matches: int
    detail: str = ""

    def describe(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        return (
            f"kill-resume {status}: interrupt@{self.interrupt_at}/"
            f"{self.n_records} resumed@{self.resumed_at} "
            f"matches {self.got_matches}/{self.expected_matches}"
            + (f" — {self.detail}" if self.detail else "")
        )


def _failure_key(failure) -> tuple:
    return (failure.index, failure.kind, failure.error)


def kill_resume_differential(
    query: str,
    stream,
    *,
    interrupt_at: int,
    workdir: str | Path,
    runner: str = "recovery",
    checkpoint_every: int = 2,
    n_workers: int = 2,
    engine_factory=None,
) -> KillResumeReport:
    """Check interrupt-at-``interrupt_at``-then-resume output equality.

    ``runner`` selects the checkpointed execution path: ``"recovery"``
    (serial :func:`~repro.resilience.run_with_recovery`) or ``"pool"``
    (:func:`~repro.parallel.run_records_pool_resilient` with
    ``n_workers``).  ``workdir`` holds the checkpoint generations and the
    output file; reusing a directory across calls is safe (each call
    starts fresh).  ``engine_factory`` overrides the engine constructor
    for the recovery runner (default: ``JsonSki(query)``).
    """
    from repro.engine.jsonski import JsonSki
    from repro.parallel.real_pool import run_records_pool_resilient
    from repro.resilience.recovery import run_with_recovery

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ck_base = workdir / "kill-resume.ckpt"
    out_path = workdir / "kill-resume.out.jsonl"
    make_engine = engine_factory or (lambda: JsonSki(query))

    # Each call is a "fresh process": fresh engine, fresh store object;
    # only the files carry state across.
    if runner == "pool":
        def run(**kwargs):
            return run_records_pool_resilient(
                query, stream, n_workers=n_workers,
                checkpoint_every=checkpoint_every, **kwargs,
            )
    else:
        def run(**kwargs):
            return run_with_recovery(
                make_engine(), stream, checkpoint_every=checkpoint_every, **kwargs
            )

    # 1. Reference: uninterrupted run into an in-memory emitter.  The
    # checkpointed path is used here too (with no stop) so the comparison
    # isolates the interruption, not the emission formatting.
    ref_sink = io.BytesIO()
    reference = run(
        checkpoint=ck_base.with_name(ck_base.name + ".ref"),
        emitter=JsonlEmitter(ref_sink),
    )
    expected_bytes = ref_sink.getvalue()
    expected_failures = sorted(map(_failure_key, reference.failures))

    # 2. Interrupted run: stop at the chosen cursor.
    with open(out_path, "w+b") as handle:
        first = run(
            checkpoint=ck_base, emitter=JsonlEmitter(handle),
            stop=lambda cursor: cursor >= interrupt_at,
        )

    # 3. Resume to completion.
    with open(out_path, "r+b") as handle:
        handle.seek(0, io.SEEK_END)
        second = run(checkpoint=ck_base, resume=True, emitter=JsonlEmitter(handle))

    got_bytes = out_path.read_bytes()
    got_failures = sorted(map(_failure_key, second.failures))
    problems = []
    if got_bytes != expected_bytes:
        problems.append(
            f"output differs ({len(got_bytes)} vs {len(expected_bytes)} bytes)"
        )
    if got_failures != expected_failures:
        problems.append(
            f"failure reports differ ({got_failures} vs {expected_failures})"
        )
    expected_matches = expected_bytes.count(b"\n")
    got_matches = got_bytes.count(b"\n")
    return KillResumeReport(
        ok=not problems,
        interrupt_at=interrupt_at,
        interrupted=bool(first.checkpoint and first.checkpoint.interrupted),
        resumed_at=second.checkpoint.resumed_at if second.checkpoint else 0,
        n_records=len(stream),
        expected_matches=expected_matches,
        got_matches=got_matches,
        detail="; ".join(problems),
    )
