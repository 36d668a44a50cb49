"""Checkpoint subsystem: store crash-consistency, suspend/resume, runs.

The contract under test is behavioural: *interrupt anywhere, resume,
and the output is byte-identical to never having been interrupted* —
including a real SIGKILL between checkpoints (subprocess test) and
suspension in the middle of one large record with the state carried
across a process boundary as JSON.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.checkpoint import (
    CheckpointStore,
    EngineState,
    JsonlEmitter,
    SuspendableRun,
    kill_resume_differential,
)
from repro.data.datasets import record_stream
from repro.errors import CheckpointError, ConfigurationError, UnsupportedQueryError
from repro.observe import MetricsRegistry
from repro.parallel import run_records_pool_resilient
from repro.resilience import Deadline, Limits, mutate, run_with_recovery
from repro.stream.records import RecordStream

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep * bool(env.get("PYTHONPATH", "")) + env.get("PYTHONPATH", "")
    return env


# ---------------------------------------------------------------------------
# CheckpointStore: atomic generations, corruption fallback, pruning.
# ---------------------------------------------------------------------------


class TestStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.ckpt")
        store.save({"cursor": 3, "emitted": 7})
        record = store.load_latest()
        assert record.payload == {"cursor": 3, "emitted": 7}
        assert record.generation == 1

    def test_generations_accumulate_and_prune(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.ckpt", keep=3)
        for cursor in range(5):
            store.save({"cursor": cursor})
        gens = store.generations()
        assert [g for g, _ in gens] == [3, 4, 5]  # oldest two pruned
        assert store.load_latest().payload["cursor"] == 4

    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.ckpt")
        store.save({"cursor": 1})
        newest = store.save({"cursor": 2})
        # Bit-rot the newest generation's payload; the CRC must catch it.
        raw = bytearray(newest.read_bytes())
        raw[-2] ^= 0xFF
        newest.write_bytes(bytes(raw))
        record = store.load_latest()
        assert record.payload["cursor"] == 1
        assert len(store.skipped) == 1 and "CRC32" in store.skipped[0][1]

    def test_truncated_newest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.ckpt")
        store.save({"cursor": 1})
        newest = store.save({"cursor": 2})
        newest.write_bytes(newest.read_bytes()[:-5])
        assert store.load_latest().payload["cursor"] == 1
        assert "truncated" in store.skipped[0][1]

    def test_wrong_version_is_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.ckpt")
        path = store.save({"cursor": 1})
        raw = path.read_bytes()
        header, _, body = raw.partition(b"\n")
        doc = json.loads(header)
        doc["version"] = 999
        path.write_bytes(json.dumps(doc).encode() + b"\n" + body)
        assert store.load_latest() is None
        assert "version" in store.skipped[0][1]

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.ckpt")
        store.save({"cursor": 1})
        assert not list(tmp_path.glob("*.tmp"))

    def test_clear_removes_all_generations(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.ckpt")
        store.save({"a": 1})
        store.save({"a": 2})
        store.clear()
        assert store.generations() == [] and store.load_latest() is None

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path / "run.ckpt", keep=0)


# ---------------------------------------------------------------------------
# JsonlEmitter: the exactly-once output channel.
# ---------------------------------------------------------------------------


class TestJsonlEmitter:
    def test_emits_compact_json_lines(self):
        sink = io.BytesIO()
        emitter = JsonlEmitter(sink)
        emitter.emit(0, [1, "x"])
        emitter.emit(1, [{"a": 2}])
        assert sink.getvalue() == b'1\n"x"\n{"a":2}\n'

    def test_truncate_rewinds_seekable(self):
        sink = io.BytesIO()
        emitter = JsonlEmitter(sink)
        emitter.emit(0, [1])
        offset = emitter.tell()
        emitter.emit(1, [2])
        emitter.truncate_to(offset)
        emitter.emit(2, [3])
        assert sink.getvalue().splitlines() == [b"1", b"3"]

    def test_truncate_non_seekable_raises(self):
        class Pipe:
            def write(self, data):
                return len(data)

            def flush(self):
                pass

            def seekable(self):
                return False

        emitter = JsonlEmitter(Pipe())
        assert emitter.tell() is None
        with pytest.raises(CheckpointError):
            emitter.truncate_to(0)


# ---------------------------------------------------------------------------
# Record-granularity checkpointing: stop/resume equality, exactly-once.
# ---------------------------------------------------------------------------


def _stream(n=20, bad_at=(4, 11)):
    records = [
        b'{"a": ' if i in bad_at else json.dumps({"a": {"b": i}}).encode()
        for i in range(n)
    ]
    return RecordStream.from_records(records)


#: (dataset, small-record query) pairs for the null-store differential.
DIFFERENTIAL_STREAMS = [("TT", "$.en.urls[*].url"), ("BB", "$.cp[1:3].id")]


def _mutated_stream(name: str) -> RecordStream:
    """A dataset's NDJSON records with every third one ``faults.mutate``d."""
    base = record_stream(name, 30_000, seed=11)
    return RecordStream.from_records(
        [
            mutate(base.record(i), seed=i).data if i % 3 == 1 else base.record(i)
            for i in range(len(base))
        ]
    )


def _failure_tuples(result) -> list[tuple]:
    return [(f.index, f.kind, f.error, f.message, f.position) for f in result.failures]


def _counters(registry: MetricsRegistry, prefix: str) -> list[tuple]:
    return sorted(
        (c["name"], sorted(c["labels"].items()), c["value"])
        for c in registry.as_dict()["counters"]
        if c["name"].startswith(prefix)
    )


class TestCheckpointedRecovery:
    @pytest.mark.parametrize("materialize", [True, False])
    @pytest.mark.parametrize("max_failures", [None, 3])
    @pytest.mark.parametrize("dataset,query", DIFFERENTIAL_STREAMS)
    def test_null_store_matches_checkpointed(
        self, tmp_path, dataset, query, max_failures, materialize
    ):
        """``checkpoint=None`` is the checkpointed loop with nothing persisted."""
        stream = _mutated_stream(dataset)

        def run(**kwargs):
            registry = MetricsRegistry()
            result = run_with_recovery(
                repro.JsonSki(query), stream, max_failures=max_failures,
                materialize=materialize, metrics=registry, **kwargs,
            )
            values = [
                v if v is None or materialize else v.offsets() for v in result.values
            ]
            return values, _failure_tuples(result), _counters(registry, "stream."), result

        plain_values, plain_failures, plain_counters, plain = run()
        assert plain.checkpoint is None
        assert len(plain_failures) >= 3  # max_failures=3 really aborts
        for every in (1, 7, len(stream) + 5):
            values, failures, counters, ckpt = run(
                checkpoint=tmp_path / f"run-{every}.ckpt", checkpoint_every=every
            )
            assert values == plain_values
            assert failures == plain_failures
            assert counters == plain_counters
            assert ckpt.checkpoint.completed

    def test_records_ok_counts_committed_records(self, tmp_path):
        """``stream.records_ok`` grows at each commit, so a session that
        dies (here: its emitter's second write fails) keeps the count of
        the ok records it committed."""

        class SecondWriteFails:
            writes = 0

            def emit(self, index, values):
                pass

            def flush(self):
                self.writes += 1
                if self.writes == 2:
                    raise OSError("disk full")

        registry = MetricsRegistry()
        with pytest.raises(OSError):
            run_with_recovery(
                repro.JsonSki("$.a.b"), _stream(), checkpoint=tmp_path / "run.ckpt",
                checkpoint_every=5, emitter=SecondWriteFails(), metrics=registry,
            )
        # The first commit covered records 0-4, of which record 4 failed.
        assert registry.value("stream.records_ok") == 4
        skipped = [c.value for c in registry.counters() if c.name == "stream.records_skipped"]
        assert skipped == [1]

    def test_uninterrupted_matches_plain_recovery(self, tmp_path):
        stream = _stream()
        plain = run_with_recovery(repro.JsonSki("$.a.b"), stream)
        ckpt = run_with_recovery(
            repro.JsonSki("$.a.b"), stream, checkpoint=tmp_path / "run.ckpt"
        )
        assert ckpt.values == plain.values
        assert [f.index for f in ckpt.failures] == [f.index for f in plain.failures]
        assert ckpt.checkpoint is not None and ckpt.checkpoint.completed

    @pytest.mark.parametrize("interrupt_at", [0, 1, 5, 11, 19, 500])
    def test_kill_resume_equality_recovery(self, tmp_path, interrupt_at):
        report = kill_resume_differential(
            "$.a.b", _stream(), interrupt_at=interrupt_at, workdir=tmp_path
        )
        assert report.ok, report.describe()

    def test_resume_skips_completed_prefix(self, tmp_path):
        stream = _stream()
        ck = tmp_path / "run.ckpt"
        first = run_with_recovery(
            repro.JsonSki("$.a.b"), stream, checkpoint=ck, checkpoint_every=2,
            stop=lambda cursor: cursor >= 7,
        )
        assert first.checkpoint.interrupted and not first.checkpoint.completed
        second = run_with_recovery(
            repro.JsonSki("$.a.b"), stream, checkpoint=ck, checkpoint_every=2,
            resume=True,
        )
        assert second.checkpoint.resumed_at == 7
        assert second.checkpoint.completed
        plain = run_with_recovery(repro.JsonSki("$.a.b"), stream)
        assert [f.index for f in second.failures] == [f.index for f in plain.failures]

    def test_resume_against_different_stream_rejected(self, tmp_path):
        ck = tmp_path / "run.ckpt"
        run_with_recovery(
            repro.JsonSki("$.a.b"), _stream(), checkpoint=ck,
            stop=lambda cursor: cursor >= 3,
        )
        other = RecordStream.from_records(
            [json.dumps({"a": {"b": i}}).encode() for i in range(50)]
        )
        with pytest.raises(CheckpointError):
            run_with_recovery(
                repro.JsonSki("$.a.b"), other, checkpoint=ck, resume=True
            )

    def test_resume_with_different_query_rejected(self, tmp_path):
        ck = tmp_path / "run.ckpt"
        stream = _stream()
        run_with_recovery(
            repro.JsonSki("$.a.b"), stream, checkpoint=ck,
            stop=lambda cursor: cursor >= 3,
        )
        with pytest.raises(CheckpointError):
            run_with_recovery(
                repro.JsonSki("$.a[*]"), stream, checkpoint=ck, resume=True
            )

    def test_sigkill_between_checkpoints_subprocess(self, tmp_path):
        """A real SIGKILL mid-run: the resumed output is byte-identical.

        The child checkpoints every 3 records into ``tmp_path`` and kills
        itself — no handlers, no cleanup — at record 8, after the cursor-6
        commit but before the next one.  The parent resumes from the files
        alone and compares against an uninterrupted reference.
        """
        payload_path = tmp_path / "stream.bin"
        offsets_path = tmp_path / "offsets.json"
        out_path = tmp_path / "out.jsonl"
        ck = tmp_path / "run.ckpt"
        stream = _stream()
        payload_path.write_bytes(stream.payload)
        offsets_path.write_text(json.dumps([[int(a), int(b)] for a, b in stream.offsets]))

        child = textwrap.dedent(
            f"""
            import json, os, signal
            import repro
            from repro.checkpoint import JsonlEmitter
            from repro.stream.records import RecordStream

            payload = open({str(payload_path)!r}, "rb").read()
            offsets = json.load(open({str(offsets_path)!r}))
            stream = RecordStream(payload, offsets)

            def suicide(cursor):
                if cursor >= 8:
                    os.kill(os.getpid(), signal.SIGKILL)
                return False

            with open({str(out_path)!r}, "wb") as handle:
                repro.run_with_recovery(
                    repro.JsonSki("$.a.b"), stream,
                    checkpoint={str(ck)!r}, checkpoint_every=3,
                    emitter=JsonlEmitter(handle), stop=suicide,
                )
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], env=_env(), capture_output=True, timeout=60
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

        # Only committed output may exist (exactly-once: staged values die
        # with the process; nothing past the last commit point is visible).
        committed = out_path.read_bytes()
        assert 0 < committed.count(b"\n") <= 8

        resumed = run_with_recovery(
            repro.JsonSki("$.a.b"), _stream(), checkpoint=ck, checkpoint_every=3,
            resume=True, emitter=JsonlEmitter(open(out_path, "r+b")),
        )
        assert resumed.checkpoint.completed and resumed.checkpoint.resumed_at >= 6

        ref_sink = io.BytesIO()
        run_with_recovery(
            repro.JsonSki("$.a.b"), _stream(),
            checkpoint=tmp_path / "ref.ckpt", emitter=JsonlEmitter(ref_sink),
        )
        assert out_path.read_bytes() == ref_sink.getvalue()


class TestCheckpointedPool:
    @pytest.mark.parametrize("dataset,query", DIFFERENTIAL_STREAMS)
    def test_null_store_matches_checkpointed(self, tmp_path, dataset, query):
        """The pool twin: one segment with a null store, or many committed."""
        stream = _mutated_stream(dataset)

        def run(**kwargs):
            registry = MetricsRegistry()
            result = run_records_pool_resilient(
                query, stream, n_workers=1, metrics=registry, **kwargs
            )
            return result.values, _failure_tuples(result), _counters(registry, "pool."), result

        plain_values, plain_failures, plain_counters, plain = run()
        assert plain.checkpoint is None and plain_failures
        for every in (1, 7, len(stream) + 5):
            values, failures, counters, ckpt = run(
                checkpoint=tmp_path / f"run-{every}.ckpt", checkpoint_every=every
            )
            assert values == plain_values
            assert failures == plain_failures
            assert counters == plain_counters
            assert ckpt.checkpoint.completed

    def test_null_store_matches_checkpointed_process_pool(self, tmp_path):
        stream = _mutated_stream("BB")
        plain = run_records_pool_resilient("$.cp[1:3].id", stream, n_workers=2, batch_size=5)
        ckpt = run_records_pool_resilient(
            "$.cp[1:3].id", stream, n_workers=2, batch_size=5,
            checkpoint=tmp_path / "run.ckpt", checkpoint_every=7,
        )
        assert ckpt.values == plain.values
        assert _failure_tuples(ckpt) == _failure_tuples(plain)

    def test_kill_resume_equality_pool(self, tmp_path):
        report = kill_resume_differential(
            "$.a.b", _stream(), interrupt_at=7, workdir=tmp_path,
            runner="pool", checkpoint_every=4, n_workers=2,
        )
        assert report.ok, report.describe()

    def test_isolated_trial_clears_innocent_record(self):
        """The bisection endgame must not quarantine a record whose only
        sin was sharing a batch with a genuine worker-killer."""
        from repro.parallel.real_pool import _Batch, _isolated_trial

        harvested = {}
        ok = _isolated_trial(
            "$.a", _Batch(5, [b'{"a": 42}']), 30.0, False,
            lambda start, out: harvested.update({start: out}),
        )
        # The worker's output: its lenient drive_records results (indexed
        # within the batch), and no metrics snapshot for an unmetered
        # dispatch.
        assert ok and harvested[5] == ([(0, [42], None)], None)

    def test_isolated_trial_convicts_worker_killer(self):
        from repro.parallel.real_pool import _Batch, _isolated_trial
        from repro.resilience.faults import CRASH_SENTINEL

        ok = _isolated_trial(
            "$.a", _Batch(0, [CRASH_SENTINEL]), 30.0, True, lambda *a: None
        )
        assert not ok


def _probe_stream() -> RecordStream:
    """400 small tweet records (~320 kB of NDJSON)."""
    base = record_stream("TT", 600_000, seed=0)
    return RecordStream.from_records([base.record(i) for i in range(400)])


class _StepClock:
    """A fake clock whose time jumps when the run reaches a cursor."""

    def __init__(self, expire_at: int) -> None:
        self.now = 0.0
        self.expire_at = expire_at

    def __call__(self) -> float:
        return self.now

    def stop(self, cursor: int) -> bool:
        if cursor >= self.expire_at:
            self.now = 1e9  # the budget runs out at this segment boundary
        return False


class TestDeadlinePolicy:
    """A deadline expiring mid-run ends it at a segment boundary, never by
    raising: committed records keep their values, the rest are
    ``DeadlineExceededError`` failures, and the checkpoint is done."""

    EXPIRE_AT = 225

    def test_pool_keeps_committed_values(self, tmp_path):
        stream = _probe_stream()
        reference = run_records_pool_resilient("$.text", stream, n_workers=1)
        clock = _StepClock(self.EXPIRE_AT)
        sink = io.BytesIO()
        ck = tmp_path / "run.ckpt"
        result = run_records_pool_resilient(
            "$.text", stream, n_workers=1, checkpoint=ck, checkpoint_every=1,
            limits=Limits(deadline=Deadline(10.0, clock)),
            emitter=JsonlEmitter(sink), stop=clock.stop,
        )
        assert isinstance(result, repro.PoolResult)
        cut = self.EXPIRE_AT
        assert result.values[:cut] == reference.values[:cut]
        assert result.values[cut:] == [None] * (len(stream) - cut)
        assert [f.index for f in result.failures] == list(range(cut, len(stream)))
        assert {f.error for f in result.failures} == {"DeadlineExceededError"}
        assert result.checkpoint.completed
        expected = b"".join(
            json.dumps(v, separators=(",", ":")).encode() + b"\n"
            for values in reference.values[:cut] for v in values
        )
        assert sink.getvalue() == expected

        again = run_records_pool_resilient(
            "$.text", stream, n_workers=1, checkpoint=ck, checkpoint_every=1,
            resume=True, limits=Limits(deadline=Deadline.after(30.0)),
        )
        assert again.checkpoint.checkpoints_written == 0  # nothing reprocessed
        assert again.values == [None] * len(stream)
        assert _failure_tuples(again) == _failure_tuples(result)

    def test_unchecked_pool_quarantines_at_segment_boundary(self):
        # Live at the dispatch check, spent by the (only) segment boundary.
        ticks = iter([0.0])
        limits = Limits(deadline=Deadline(10.0, lambda: next(ticks, 1e9)))
        stream = _probe_stream()
        result = run_records_pool_resilient("$.text", stream, n_workers=1, limits=limits)
        assert result.values == [None] * len(stream)
        assert [f.index for f in result.failures] == list(range(len(stream)))
        assert {f.error for f in result.failures} == {"DeadlineExceededError"}


class TestArgumentsNeedACheckpoint:
    """``resume`` / ``emitter`` / ``stop`` mean nothing without a
    ``checkpoint``, so both runners refuse them instead of ignoring them."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"resume": True},
            {"emitter": JsonlEmitter(io.BytesIO())},
            {"stop": lambda cursor: False},
        ],
        ids=["resume", "emitter", "stop"],
    )
    @pytest.mark.parametrize("runner", ["recovery", "pool"])
    def test_rejected_without_checkpoint(self, runner, kwargs):
        with pytest.raises(ConfigurationError):
            if runner == "pool":
                run_records_pool_resilient("$.a.b", _stream(), n_workers=1, **kwargs)
            else:
                run_with_recovery(repro.JsonSki("$.a.b"), _stream(), **kwargs)


#: Checkpoint generations and partial outputs written by an earlier
#: version of both runners, each killed mid-stream by a ``stop``
#: callable that raised; ``<kind>.expected.jsonl`` is that version's
#: uninterrupted output.  ``manifest.json`` holds the query,
#: ``checkpoint_every`` and the uninterrupted run's failure report and
#: counters.  Resuming them pins the payload format across versions.
LEGACY_CHECKPOINTS = Path(__file__).parent / "data" / "record_checkpoints_v1"


class TestLegacyCheckpoints:
    @pytest.mark.parametrize("kind", ["recovery", "pool"])
    def test_resume_is_byte_identical(self, tmp_path, kind):
        shutil.copytree(LEGACY_CHECKPOINTS, tmp_path, dirs_exist_ok=True)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        spec = manifest["runs"][kind]
        offsets = json.loads((tmp_path / "offsets.json").read_text())
        stream = RecordStream((tmp_path / "stream.bin").read_bytes(), offsets)
        registry = MetricsRegistry()
        options = dict(
            checkpoint=tmp_path / f"{kind}.ckpt",
            checkpoint_every=spec["checkpoint_every"],
            resume=True, metrics=registry,
        )
        with open(tmp_path / f"{kind}.out.jsonl", "r+b") as handle:
            handle.seek(0, io.SEEK_END)
            if kind == "pool":
                result = run_records_pool_resilient(
                    manifest["query"], stream, n_workers=1,
                    emitter=JsonlEmitter(handle), **options,
                )
            else:
                result = run_with_recovery(
                    repro.JsonSki(manifest["query"]), stream,
                    emitter=JsonlEmitter(handle), **options,
                )
        assert result.checkpoint.resumed_at > 0 and result.checkpoint.completed
        got = (tmp_path / f"{kind}.out.jsonl").read_bytes()
        assert got == (tmp_path / f"{kind}.expected.jsonl").read_bytes()
        assert _failure_tuples(result) == [tuple(f) for f in spec["failures"]]
        expected = MetricsRegistry()
        expected.merge_dict(spec["metrics"])
        # The manifest pins the runners' own counters.  The version that
        # wrote these checkpoints added stream.records_ok once, at the end
        # of a session, so the killed session's share never reached them;
        # the resumed session counts its own committed ok records.
        def pinned(counters):
            return [
                c for c in counters
                if c[0].startswith(("pool.", "stream.")) and c[0] != "stream.records_ok"
            ]

        assert pinned(_counters(registry, "")) == pinned(_counters(expected, ""))
        session_ok = sum(v is not None for v in result.values)
        if kind == "pool":
            # Worker counters (new since these checkpoints) cover the
            # records this session dispatched.
            resumed = len(stream) - result.checkpoint.resumed_at
            assert registry.value("parallel.batch_records") == resumed
            assert registry.value("engine.runs") == session_ok
        else:
            assert registry.value("stream.records_ok") == session_ok


# ---------------------------------------------------------------------------
# Intra-record suspension: EngineState across a process boundary.
# ---------------------------------------------------------------------------

LARGE_QUERY = "$.pd[*].cp[1:3].id"


def _large_record(size=120_000):
    from repro.data.datasets import large_record

    return large_record("BB", size, seed=7)


class TestSuspendableRun:
    def test_stepwise_equals_oneshot(self):
        data = _large_record(40_000)
        expected = repro.JsonSki(LARGE_QUERY).run(data).values()
        run = SuspendableRun.begin(LARGE_QUERY, data)
        steps = 0
        while not run.step(max_bytes=1500):
            steps += 1
        assert run.matches().values() == expected
        assert steps > 5  # the budget genuinely suspended the scan

    def test_state_json_roundtrip_every_step(self):
        data = _large_record(30_000)
        expected = repro.JsonSki(LARGE_QUERY).run(data).values()
        run = SuspendableRun.begin(LARGE_QUERY, data, chunk_size=4096, cache_chunks=2)
        while not run.step(max_bytes=1000):
            wire = json.dumps(run.suspend().to_dict())
            run = SuspendableRun.resume(data, EngineState.from_dict(json.loads(wire)))
        assert run.matches().values() == expected

    def test_resume_in_fresh_process(self, tmp_path):
        """Suspend mid-record, finish the scan in a separate interpreter."""
        data = _large_record(60_000)
        expected = [(m.start, m.end) for m in repro.JsonSki(LARGE_QUERY).run(data)]

        run = SuspendableRun.begin(LARGE_QUERY, data)
        done = run.step(max_bytes=len(data) // 3)  # stop ~1/3 through
        assert not done
        data_path = tmp_path / "record.json"
        state_path = tmp_path / "state.json"
        data_path.write_bytes(data)
        state_path.write_text(json.dumps(run.suspend().to_dict()))

        child = textwrap.dedent(
            f"""
            import json
            from repro.checkpoint import EngineState, SuspendableRun

            data = open({str(data_path)!r}, "rb").read()
            state = EngineState.from_dict(json.load(open({str(state_path)!r})))
            run = SuspendableRun.resume(data, state)
            run.run_to_completion()
            print(json.dumps(run.match_offsets()))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], env=_env(), capture_output=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr.decode()
        got = [tuple(pair) for pair in json.loads(proc.stdout)]
        assert got == list(expected)

    def test_word_mode_suspends_too(self):
        data = _large_record(20_000)
        expected = repro.JsonSki(LARGE_QUERY, mode="word").run(data).values()
        run = SuspendableRun.begin(LARGE_QUERY, data, mode="word")
        while not run.step(max_bytes=2000):
            run = SuspendableRun.resume(
                data, EngineState.from_dict(run.suspend().to_dict())
            )
        assert run.matches().values() == expected

    def test_resume_rejects_changed_input(self):
        data = _large_record(20_000)
        run = SuspendableRun.begin(LARGE_QUERY, data)
        run.step(max_bytes=500)
        state = run.suspend()
        tampered = data[:-10] + b"0123456789"
        with pytest.raises(CheckpointError):
            SuspendableRun.resume(tampered, state)

    def test_state_version_mismatch_rejected(self):
        data = _large_record(20_000)
        run = SuspendableRun.begin(LARGE_QUERY, data)
        run.step(max_bytes=500)
        doc = run.suspend().to_dict()
        doc["version"] = 999
        with pytest.raises(CheckpointError):
            EngineState.from_dict(doc)

    def test_filter_queries_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            SuspendableRun.begin("$.a[?(@.x > 1)]", b'{"a": []}')

    def test_run_to_completion_without_budget(self):
        data = b'{"a": {"b": [1, 2, 3]}}'
        run = SuspendableRun.begin("$.a.b[*]", data)
        run.run_to_completion()
        assert run.matches().values() == [1, 2, 3]
