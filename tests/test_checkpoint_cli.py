"""CLI checkpoint flags: --checkpoint / --checkpoint-every / --resume.

Covers the in-process paths (flag validation, run-to-completion, resume,
the exit-code table) and the real-signal path: a subprocess interrupted
by SIGTERM must exit with code 6, leave a valid checkpoint behind, and
resume to byte-identical combined output.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.checkpoint import SUSPEND_KIND, CheckpointStore, SuspendableRun
from repro.cli import EXIT_CODES, EXIT_INTERRUPTED, exit_code_table, main
from repro.data.datasets import DATASETS, large_record

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
REPO = os.path.dirname(SRC)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def jsonl_file(tmp_path):
    path = tmp_path / "docs.jsonl"
    lines = [json.dumps({"a": {"b": i}}).encode() for i in range(40)]
    lines[17] = b'{"a": '  # one malformed record
    path.write_bytes(b"\n".join(lines) + b"\n")
    return str(path)


@pytest.fixture()
def big_file(tmp_path):
    path = tmp_path / "big.json"
    rows = [{"name": f"n{i}", "v": i} for i in range(500)]
    path.write_bytes(json.dumps({"rows": rows}).encode())
    return str(path)


class TestExitCodeTable:
    def test_epilog_matches_constants(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = capsys.readouterr().out
        for code, meaning in EXIT_CODES.items():
            assert f"{code}  {meaning}" in help_text

    def test_table_covers_zero_through_six_contiguously(self):
        assert sorted(EXIT_CODES) == list(range(7))
        assert EXIT_CODES[EXIT_INTERRUPTED].startswith("interrupted")

    def test_docs_table_matches_constants(self):
        api_md = open(os.path.join(REPO, "docs", "api.md")).read()
        for code, meaning in EXIT_CODES.items():
            assert f"| {code} | {meaning} |" in api_md, (
                f"docs/api.md exit-code table is missing or stale for code {code}"
            )

    def test_exit_code_table_renders_every_code(self):
        text = exit_code_table()
        assert text.startswith("exit codes:")
        assert all(str(code) in text for code in EXIT_CODES)


class TestFlagValidation:
    def test_resume_requires_checkpoint(self, jsonl_file):
        code, _, err = run_cli(["$.a.b", jsonl_file, "--jsonl", "--resume"])
        assert code == 2 and "--checkpoint" in err

    def test_checkpoint_rejects_paths_flag(self, jsonl_file):
        code, _, err = run_cli(
            ["$.a.b", jsonl_file, "--jsonl", "--checkpoint", jsonl_file + ".ck", "--paths"]
        )
        assert code == 2

    def test_single_record_checkpoint_needs_jsonski(self, big_file, tmp_path):
        code, _, err = run_cli(
            ["$.rows[*].v", big_file, "--engine", "rds",
             "--checkpoint", str(tmp_path / "ck")]
        )
        assert code == 2 and "jsonski" in err

    @pytest.mark.parametrize("flag", [["--stats"], ["--metrics"], ["--trace", "-"]], ids=lambda f: f[0])
    def test_single_record_checkpoint_rejects_observability_flags(self, big_file, tmp_path, flag):
        # A suspended run's steps collect no stats, metrics or spans, so
        # these flags would report nothing (or zeros) for a scanned record.
        code, out, err = run_cli(["$.rows[1]", big_file, "--checkpoint", str(tmp_path / "ck"), *flag])
        assert code == 2 and out == ""
        assert f"--checkpoint on a single record does not support {flag[0]}" in err


class TestRecordMode:
    def test_run_and_resume_after_completion(self, jsonl_file, tmp_path):
        ck = str(tmp_path / "run.ckpt")
        code, out, err = run_cli(
            ["$.a.b", jsonl_file, "--jsonl", "--checkpoint", ck, "--checkpoint-every", "5"]
        )
        assert code == 0
        assert len(out.splitlines()) == 39  # one record malformed
        assert "skipped" in err
        # Resuming a completed run does not redo or re-emit anything.
        code2, out2, err2 = run_cli(
            ["$.a.b", jsonl_file, "--jsonl", "--checkpoint", ck, "--resume", "--count"]
        )
        assert code2 == 0 and out2.strip() == "39"

    def test_fresh_run_clears_stale_checkpoint(self, jsonl_file, tmp_path):
        ck = str(tmp_path / "run.ckpt")
        run_cli(["$.a.b", jsonl_file, "--jsonl", "--checkpoint", ck])
        # Without --resume a second run starts from scratch (same output).
        code, out, _ = run_cli(["$.a.b", jsonl_file, "--jsonl", "--checkpoint", ck])
        assert code == 0 and len(out.splitlines()) == 39


class TestSingleRecordMode:
    def test_large_record_checkpointed_run(self, big_file, tmp_path):
        ck = str(tmp_path / "big.ckpt")
        code, out, _ = run_cli(
            ["$.rows[*].name", big_file, "--checkpoint", ck,
             "--checkpoint-every", "4096", "--count"]
        )
        assert code == 0 and out.strip() == "500"

    def test_resume_after_completion_reprints(self, big_file, tmp_path):
        ck = str(tmp_path / "big.ckpt")
        run_cli(["$.rows[*].v", big_file, "--checkpoint", ck, "--count"])
        code, out, _ = run_cli(
            ["$.rows[*].v", big_file, "--checkpoint", ck, "--resume", "--count"]
        )
        assert code == 0 and out.strip() == "500"

    def test_resume_with_different_query_rejected(self, big_file, tmp_path):
        ck = str(tmp_path / "big.ckpt")
        run_cli(["$.rows[*].v", big_file, "--checkpoint", ck, "--count"])
        code, _, err = run_cli(
            ["$.rows[*].name", big_file, "--checkpoint", ck, "--resume", "--count"]
        )
        assert code == 2 and "query" in err

    def test_resume_of_state_written_at_one_mib_chunking(self, tmp_path):
        # A checkpoint whose run indexed in 1 MiB chunks, not the
        # default 256 KiB, resumes with that chunking.
        data = large_record("TT", 1_200_000, seed=4)
        query = DATASETS["TT"].queries[0].large
        path = tmp_path / "tt.json"
        path.write_bytes(data)
        ck = str(tmp_path / "tt.ckpt")
        run = SuspendableRun.begin(query, data, chunk_size=1 << 20, cache_chunks=4)
        assert not run.step(300 * 1024)
        store = CheckpointStore(ck)
        store.save({
            "kind": SUSPEND_KIND,
            "query": query,
            "done": False,
            "engine_state": run.suspend().to_dict(),
        })
        code, out, _ = run_cli([query, str(path), "--checkpoint", ck, "--resume", "--raw"])
        _, expected, _ = run_cli([query, str(path), "--raw"])
        assert code == 0 and out == expected
        state = store.load_latest().payload["engine_state"]
        assert state["done"] and state["chunk_size"] == 1 << 20


class TestSignalInterrupt:
    """Real SIGTERM against a subprocess: exit 6, then resume to equality.

    The signal is sent once the run's first checkpoint generation exists:
    by then the clean-stop handlers are armed (the CLI arms them before
    the run starts), and with a commit every 500 of 30,000 records the
    run still has almost all of its stream ahead of it.
    """

    def _write_stream(self, tmp_path, n=30_000):
        path = tmp_path / "many.jsonl"
        with open(path, "wb") as handle:
            for i in range(n):
                handle.write(json.dumps({"a": {"b": i}}).encode() + b"\n")
        return str(path)

    def _spawn(self, argv, stdout):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=stdout, stderr=subprocess.PIPE, env=env,
        )

    def test_sigterm_exits_6_and_resume_is_byte_identical(self, tmp_path):
        stream_path = self._write_stream(tmp_path)
        ck = str(tmp_path / "run.ckpt")
        ref_path = tmp_path / "ref.out"
        out_path = tmp_path / "part.out"

        with open(ref_path, "wb") as ref_out:
            proc = self._spawn(
                ["$.a.b", stream_path, "--jsonl", "--checkpoint", ck + ".ref"], ref_out
            )
            assert proc.wait(timeout=120) == 0

        with open(out_path, "wb") as part_out:
            proc = self._spawn(
                ["$.a.b", stream_path, "--jsonl", "--checkpoint", ck,
                 "--checkpoint-every", "500"],
                part_out,
            )
            # Interrupt once the first generation is on disk.
            store = CheckpointStore(ck)
            deadline = time.monotonic() + 60
            while not store.generations() and proc.poll() is None:
                assert time.monotonic() < deadline, "no checkpoint generation after 60 s"
                time.sleep(0.005)
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=120)
            stderr = proc.stderr.read().decode()
        if code == 0:
            pytest.skip("run finished before the signal landed (slow machine?)")
        assert code == EXIT_INTERRUPTED, stderr
        assert "resume" in stderr

        with open(out_path, "ab") as part_out:
            proc = self._spawn(
                ["$.a.b", stream_path, "--jsonl", "--checkpoint", ck, "--resume"],
                part_out,
            )
            assert proc.wait(timeout=120) == 0

        assert out_path.read_bytes() == ref_path.read_bytes()
