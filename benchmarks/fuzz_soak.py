"""Long-running differential fuzz soak (the un-budgeted fuzz_smoke).

Sweeps seeded mutation corpora over every registered engine until the
requested case count (or wall-clock budget) is spent, asserting the
resilience contract continuously: every case must end in agreement, a
diagnosed :class:`~repro.errors.ReproError`, or the documented
skip-region blind spot — never a divergence, a crash, or a hang.

``--kill-resume`` soaks the checkpoint layer's contract instead: each
round builds a record stream from the mutated corpus (malformed records
included), interrupts a checkpointed run at a random cursor, resumes
it, and asserts the combined output is byte-identical to an
uninterrupted run — reported in the same agree/violation taxonomy.
Each round also suspends one intra-record run (``SuspendableRun``) over
a mutated multi-chunk record at a random step, writes its state to a
file and finishes it in a fresh ``python`` process, which must end like
the uninterrupted run: the same offsets, or the same error class.

Exit status 0 when the contract held, 1 otherwise (CI-friendly)::

    PYTHONPATH=src python benchmarks/fuzz_soak.py --mutations 5000
    PYTHONPATH=src python benchmarks/fuzz_soak.py --minutes 10 --seed 3
    PYTHONPATH=src python benchmarks/fuzz_soak.py --kill-resume --mutations 600
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.resilience import differential_fuzz

#: Base records spanning the shapes the six paper datasets exercise:
#: nested objects, object arrays, long flat arrays, deep mixed nesting.
BASE_RECORDS = [
    json.dumps({"a": {"b": 1, "k": [1, 2, 3]}, "x": "s", "n": None}).encode(),
    json.dumps([{"x": i, "k": str(i)} for i in range(20)]).encode(),
    json.dumps({"a": list(range(100)), "k": {"k": {"k": True}}}).encode(),
    json.dumps({"pd": [{"cp": [{"id": i}, {"id": i + 1}]} for i in range(10)]}).encode(),
]

BATCH = 500  # mutations per reported round

#: Queries the kill-resume soak cycles through (record-stream shapes).
KILL_RESUME_QUERIES = ("$.a.b", "$.a[*]", "$.pd[*].cp[*].id", "$.k")


def kill_resume_round(seed: int, n_records: int, workdir: str) -> tuple[int, list[str]]:
    """One kill-resume soak round: returns (cases, violation lines).

    Builds a stream of ``n_records`` mutated records (seeded, so every
    violation is replayable by seed), then checks the interrupt/resume
    equivalence at a random cursor for each query — alternating between
    the serial recovery runner and the resilient pool runner.
    """
    from repro.checkpoint import kill_resume_differential
    from repro.resilience import corpus
    from repro.stream.records import RecordStream

    rng = random.Random(seed)
    mutations = corpus(BASE_RECORDS, n_records, seed=seed)
    stream = RecordStream.from_records([m.data for m in mutations])
    cases = 0
    violations: list[str] = []
    for qi, query in enumerate(KILL_RESUME_QUERIES):
        runner = "pool" if qi % 2 else "recovery"
        interrupt_at = rng.randrange(0, len(stream) + 2)  # past-end on purpose
        report = kill_resume_differential(
            query, stream, interrupt_at=interrupt_at, workdir=workdir,
            runner=runner, checkpoint_every=max(1, n_records // 8),
        )
        cases += 1
        if not report.ok:
            violations.append(
                f"seed={seed} query={query!r} runner={runner} {report.describe()}"
            )
    return cases, violations


#: Intra-record phase: a record this large spans several index chunks
#: of this size, so a suspension point can sit in any of them.
INTRA_RECORD_BYTES = 24_000
INTRA_RECORD_CHUNK = 4096

#: Finishes a suspended run from ``argv[1]`` (input) and ``argv[2]``
#: (state) and prints its outcome as JSON.
_RESUME_CHILD = """
import json, sys
from repro.checkpoint import SuspendableRun
from repro.errors import ReproError
data = open(sys.argv[1], "rb").read()
state = json.load(open(sys.argv[2]))
try:
    run = SuspendableRun.resume(data, state)
    run.run_to_completion()
    print(json.dumps(run.match_offsets()))
except ReproError as exc:
    print(json.dumps(type(exc).__name__))
"""


def _outcome(compute) -> object:
    """``compute()``, or the class name of the error it raised."""
    from repro.errors import ReproError

    try:
        return compute()
    except ReproError as exc:
        return type(exc).__name__


def intra_record_round(seed: int, workdir: str) -> tuple[int, list[str]]:
    """Suspend one intra-record run at a random step, resume it in a
    fresh interpreter, and compare with the uninterrupted run; returns
    (cases, violation lines) like :func:`kill_resume_round`."""
    from repro import JsonSki
    from repro.checkpoint import SuspendableRun
    from repro.data.datasets import DATASETS, large_record
    from repro.resilience.faults import mutate

    rng = random.Random(seed)
    name = sorted(DATASETS)[seed % len(DATASETS)]
    query = rng.choice([spec.large for spec in DATASETS[name].queries] + ["$..id"])
    mode = rng.choice(("vector", "word"))
    mutation = mutate(large_record(name, INTRA_RECORD_BYTES, seed=seed), seed=seed)
    data = mutation.data
    budget = rng.randrange(1, 2048)
    stop_step = rng.randrange(1, 32)

    # Step to the chosen suspension point, or to the last one when the
    # run ends first; a fresh process resumes from there.  A run that
    # never suspends is checked in-process.
    state = None
    steps = 0

    def drive() -> list | None:
        nonlocal state, steps
        run = SuspendableRun.begin(query, data, mode=mode, chunk_size=INTRA_RECORD_CHUNK)
        while not run.step(budget):
            steps += 1
            state = json.loads(json.dumps(run.suspend().to_dict()))
            if steps == stop_step:
                return None
            run = SuspendableRun.resume(data, state)
        return [list(span) for span in run.match_offsets()]

    engine = JsonSki(query, mode=mode)
    expected = _outcome(lambda: [list(span) for span in engine.run(data).spans()])
    got = _outcome(drive)
    if state is not None:
        data_path = Path(workdir) / "intra-record.json"
        state_path = Path(workdir) / "intra-record.state.json"
        data_path.write_bytes(data)
        state_path.write_text(json.dumps(state))
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _RESUME_CHILD, str(data_path), str(state_path)],
            capture_output=True, timeout=120, env=env,
        )
        if proc.returncode != 0:
            got = f"child exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"
        else:
            got = json.loads(proc.stdout)
    if got == expected:
        return 1, []
    return 1, [
        f"seed={seed} query={query!r} runner=suspendable dataset={name} mode={mode} "
        f"budget={budget} mutation={mutation.kind} resumed@step {steps}: "
        f"{_brief(got)} vs uninterrupted {_brief(expected)}"
    ]


def _brief(outcome: object) -> str:
    if isinstance(outcome, list):
        return f"{len(outcome)} matches"
    return str(outcome)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mutations", type=int, default=2000,
                        help="total mutations to sweep (default 2000)")
    parser.add_argument("--minutes", type=float, default=None,
                        help="instead: keep sweeping for this many minutes")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    parser.add_argument("--engines", nargs="*", default=None,
                        help="engine names (default: every registered engine)")
    parser.add_argument("--kill-resume", action="store_true",
                        help="soak the checkpoint kill-and-resume contract "
                             "instead of the engine differential")
    args = parser.parse_args()

    engines = tuple(args.engines) if args.engines else None
    started = time.monotonic()
    total_cases = 0
    round_seed = args.seed
    swept = 0
    ok = True
    batch = 40 if args.kill_resume else BATCH  # resume rounds re-run streams 3x
    with tempfile.TemporaryDirectory(prefix="fuzz-soak-ckpt-") as workdir:
        while True:
            if args.kill_resume:
                cases, violations = kill_resume_round(round_seed, batch, workdir)
                intra_cases, intra_violations = intra_record_round(round_seed, workdir)
                cases += intra_cases
                violations += intra_violations
                total_cases += cases
                headline = (f"kill-resume: {cases} checks ok" if not violations
                            else f"kill-resume: {len(violations)} VIOLATIONS")
            else:
                report = differential_fuzz(
                    BASE_RECORDS, batch, seed=round_seed,
                    engines=engines, deadline_per_case=30.0,
                )
                total_cases += report.cases
                violations = [] if report.ok else [report.describe()]
                headline = report.describe().splitlines()[0]
            swept += batch
            minutes = (time.monotonic() - started) / 60.0
            print(f"[{minutes:6.2f} min] seed={round_seed} {headline}")
            if violations:
                print("\n".join(violations))
                ok = False
                break
            round_seed += 1
            if args.minutes is not None:
                if minutes >= args.minutes:
                    break
            elif swept >= args.mutations:
                break
    verdict = "contract held" if ok else "CONTRACT VIOLATED"
    print(f"{verdict}: {total_cases} cases over {swept} mutations "
          f"in {(time.monotonic() - started):.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
