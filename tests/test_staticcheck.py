"""Fixture tests for the engine-contract checker (repro.staticcheck).

Per rule: one minimal failing snippet, one passing snippet.  Plus the
suppression machinery, the CLI surface, module naming, and the
meta-properties the CI gate depends on: the real tree and the
benchmarks subset are clean, deleting the clamp from
``repro.bits.words.mask_from`` trips RS001, and undoing each of four
real concurrency fixes in ``src/`` trips RS012, RS013 or RS014.
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.staticcheck import RULE_REGISTRY, check_paths, check_sources
from repro.staticcheck.cli import main as cli_main

SRC = Path(__file__).resolve().parent.parent / "src"

#: Synthetic paths that land each snippet in the right rule scope.
BITS = "src/repro/bits/snippet.py"
ENGINE = "src/repro/engine/snippet.py"
CHECKPOINT = "src/repro/checkpoint/snippet.py"
FUZZ = "src/repro/resilience/fuzz.py"
SERVE = "src/repro/serve/snippet.py"
DATASETS = "src/repro/data/datasets.py"
BENCH = "benchmarks/snippet.py"
ELSEWHERE = "src/repro/harness/snippet.py"


def codes(findings):
    return [finding.rule for finding in findings]


def check_one(path, source, select=None):
    return check_sources({path: source}, select=select)


# ---------------------------------------------------------------------------
# RS001 — unmasked word arithmetic in repro/bits/


class TestRS001:
    def test_unmasked_invert_fails(self):
        findings = check_one(BITS, "def f(w):\n    return ~w\n")
        assert codes(findings) == ["RS001"]
        assert findings[0].line == 2

    def test_clamped_invert_passes(self):
        src = "M = (1 << 64) - 1\ndef f(w):\n    return M & ~w\n"
        assert check_one(BITS, src) == []

    def test_unmasked_shift_fails(self):
        findings = check_one(BITS, "def f(w, n):\n    return w << n\n")
        assert codes(findings) == ["RS001"]

    def test_single_bit_shift_passes(self):
        assert check_one(BITS, "def f(n):\n    return 1 << n\n") == []

    def test_mask_idiom_passes(self):
        assert check_one(BITS, "def f(n):\n    return (1 << n) - 1\n") == []

    def test_single_bit_borrow_passes(self):
        src = "def f(n):\n    b = 1 << n\n    return b ^ (b - 1)\n"
        assert check_one(BITS, src) == []

    def test_word_addition_fails(self):
        src = "def f(a, m):\n    w = a & m\n    return w + w\n"
        findings = check_one(BITS, src)
        assert codes(findings) == ["RS001"]

    def test_clamped_word_addition_passes(self):
        src = "def f(a, m):\n    w = a & m\n    return (w + w) & m\n"
        assert check_one(BITS, src) == []

    def test_augmented_shift_fails(self):
        findings = check_one(BITS, "def f(w):\n    w <<= 1\n    return w\n")
        assert codes(findings) == ["RS001"]

    def test_numpy_boolean_index_passes(self):
        assert check_one(BITS, "def f(q, mask):\n    return q[~mask]\n") == []

    def test_out_of_scope_file_passes(self):
        assert check_one(ELSEWHERE, "def f(w):\n    return ~w\n") == []


# ---------------------------------------------------------------------------
# RS002 — raise taxonomy


class TestRS002:
    def test_builtin_raise_fails(self):
        src = "def f():\n    raise ValueError('nope')\n"
        assert codes(check_one(ENGINE, src)) == ["RS002"]

    def test_repro_error_passes(self):
        src = (
            "from repro.errors import JsonSyntaxError\n"
            "def f():\n    raise JsonSyntaxError('bad', 0)\n"
        )
        assert check_one(ENGINE, src) == []

    def test_private_control_flow_exception_passes(self):
        src = (
            "class _Suspend(Exception):\n    pass\n"
            "def f():\n    raise _Suspend\n"
        )
        assert check_one(ENGINE, src) == []

    def test_not_implemented_passes(self):
        src = "def f():\n    raise NotImplementedError\n"
        assert check_one(ENGINE, src) == []

    def test_out_of_scope_file_passes(self):
        src = "def f():\n    raise ValueError('fine here')\n"
        assert check_one(ELSEWHERE, src) == []


# ---------------------------------------------------------------------------
# RS003 — limits= threading


ENGINE_CLASS_OK = """
class EngineBase: pass
class Thing(EngineBase):
    def __init__(self, query, limits=None): pass
"""

ENGINE_CLASS_MISSING = """
class EngineBase: pass
class Thing(EngineBase):
    def __init__(self, query): pass
"""


class TestRS003:
    def test_init_without_limits_fails(self):
        findings = check_one(ENGINE, ENGINE_CLASS_MISSING, select=["RS003"])
        assert codes(findings) == ["RS003"]
        assert "Thing" in findings[0].message

    def test_init_with_limits_passes(self):
        assert check_one(ENGINE, ENGINE_CLASS_OK, select=["RS003"]) == []

    def test_init_with_kwargs_passes(self):
        src = (
            "class EngineBase: pass\n"
            "class Thing(EngineBase):\n"
            "    def __init__(self, query, **kw): pass\n"
        )
        assert check_one(ENGINE, src, select=["RS003"]) == []

    def test_nested_call_without_limits_fails(self):
        src = ENGINE_CLASS_OK + "def make():\n    return Thing('$.a')\n"
        findings = check_one(ENGINE, src, select=["RS003"])
        assert codes(findings) == ["RS003"]
        assert "forward" in findings[0].message

    def test_nested_call_with_limits_passes(self):
        src = ENGINE_CLASS_OK + (
            "def make(limits):\n    return Thing('$.a', limits=limits)\n"
        )
        assert check_one(ENGINE, src, select=["RS003"]) == []

    def test_nested_call_with_kwargs_forwarding_passes(self):
        src = ENGINE_CLASS_OK + "def make(**kw):\n    return Thing('$.a', **kw)\n"
        assert check_one(ENGINE, src, select=["RS003"]) == []

    def test_abstract_base_is_not_an_engine(self):
        src = (
            "class EngineBase:\n"
            "    def __init__(self, query): pass\n"
            "    def run(self, data):\n"
            "        raise NotImplementedError\n"
            "    def run_records(self, stream):\n"
            "        return [self.run(r) for r in stream]\n"
        )
        assert check_one(ENGINE, src, select=["RS003"]) == []


# ---------------------------------------------------------------------------
# RS004 — checkpoint payload serializability


class TestRS004:
    def test_non_json_field_fails(self):
        src = (
            "from dataclasses import dataclass\n"
            "from pathlib import Path\n"
            "@dataclass\n"
            "class State:\n"
            "    where: Path\n"
            "    def to_dict(self): return {}\n"
        )
        findings = check_one(CHECKPOINT, src)
        assert codes(findings) == ["RS004"]
        assert "Path" in findings[0].message

    def test_json_composable_fields_pass(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class State:\n"
            "    pos: int\n"
            "    label: str | None\n"
            "    frames: list[dict]\n"
            "    matches: list[list[int] | None]\n"
            "    def to_dict(self): return {}\n"
        )
        assert check_one(CHECKPOINT, src) == []

    def test_non_serialized_dataclass_ignored(self):
        src = (
            "from dataclasses import dataclass\n"
            "from pathlib import Path\n"
            "@dataclass\n"
            "class ReadView:\n"
            "    where: Path\n"
        )
        assert check_one(CHECKPOINT, src) == []


# ---------------------------------------------------------------------------
# RS005 — determinism on resume/fuzz paths


class TestRS005:
    def test_wall_clock_fails(self):
        src = "import time\ndef f():\n    return time.time()\n"
        assert codes(check_one(CHECKPOINT, src)) == ["RS005"]

    def test_module_level_random_fails(self):
        src = "import random\ndef f():\n    return random.random()\n"
        assert codes(check_one(FUZZ, src)) == ["RS005"]

    def test_seeded_rng_passes(self):
        src = "import random\ndef f(seed):\n    return random.Random(seed)\n"
        assert check_one(FUZZ, src) == []

    def test_unseeded_rng_fails(self):
        src = "import random\ndef f():\n    return random.Random()\n"
        assert codes(check_one(FUZZ, src)) == ["RS005"]

    def test_set_iteration_fails(self):
        src = "def f(items):\n    for x in set(items):\n        yield x\n"
        assert codes(check_one(CHECKPOINT, src)) == ["RS005"]

    def test_sorted_iteration_passes(self):
        src = "def f(items):\n    for x in sorted(set(items)):\n        yield x\n"
        assert check_one(CHECKPOINT, src) == []

    def test_out_of_scope_file_passes(self):
        src = "import time\ndef f():\n    return time.time()\n"
        assert check_one(ELSEWHERE, src) == []

    # The regression that got past the rule's old scope: str hashes are
    # salted per process, so this "seeded" generator differed per run.
    HASH_SEED = (
        "import random\n"
        "def _unit_strings(spec, target_bytes, seed):\n"
        "    rng = random.Random((hash(spec.name) ^ seed) & 0xFFFF_FFFF)\n"
    )

    def test_hash_seed_in_datasets_fails(self):
        findings = check_one(DATASETS, self.HASH_SEED, select=["RS005"])
        assert codes(findings) == ["RS005"]
        assert findings[0].line == 3
        assert "zlib.crc32" in findings[0].message

    def test_crc32_seed_in_datasets_passes(self):
        src = (
            "import random\n"
            "import zlib\n"
            "def _unit_strings(spec, target_bytes, seed):\n"
            "    rng = random.Random((zlib.crc32(spec.name.encode()) ^ seed) & 0xFFFF_FFFF)\n"
        )
        assert check_one(DATASETS, src, select=["RS005"]) == []

    def test_hash_in_benchmarks_and_checkpoint_fails(self):
        assert codes(check_one(BENCH, self.HASH_SEED, select=["RS005"])) == ["RS005"]
        assert codes(check_one(CHECKPOINT, self.HASH_SEED, select=["RS005"])) == ["RS005"]

    def test_clock_check_stays_out_of_benchmarks_and_data(self):
        src = "import time\ndef f():\n    return time.perf_counter()\n"
        assert check_one(BENCH, src, select=["RS005"]) == []
        assert check_one(DATASETS, src, select=["RS005"]) == []

    def test_hash_out_of_scope_passes(self):
        assert check_one(ELSEWHERE, self.HASH_SEED, select=["RS005"]) == []


# ---------------------------------------------------------------------------
# RS006 — exception swallowing


class TestRS006:
    def test_swallowing_broad_except_fails(self):
        src = "def f():\n    try:\n        g()\n    except Exception:\n        pass\n"
        assert codes(check_one(ELSEWHERE, src)) == ["RS006"]

    def test_bare_except_fails(self):
        src = "def f():\n    try:\n        g()\n    except:\n        pass\n"
        assert codes(check_one(ELSEWHERE, src)) == ["RS006"]

    def test_reraise_passes(self):
        src = "def f():\n    try:\n        g()\n    except Exception:\n        raise\n"
        assert check_one(ELSEWHERE, src) == []

    def test_using_bound_exception_passes(self):
        src = (
            "def f(out):\n    try:\n        g()\n"
            "    except Exception as exc:\n        out.failures = exc\n"
        )
        assert check_one(ELSEWHERE, src) == []

    def test_recording_metric_passes(self):
        src = (
            "def f(metrics):\n    try:\n        g()\n"
            "    except Exception:\n        metrics.count('errors')\n"
        )
        assert check_one(ELSEWHERE, src) == []

    def test_narrow_except_passes(self):
        src = "def f():\n    try:\n        g()\n    except OSError:\n        pass\n"
        assert check_one(ELSEWHERE, src) == []


# ---------------------------------------------------------------------------
# RS003 (serve extension) — dispatch sites must pass limits=


class TestRS003Serve:
    def test_compile_without_limits_fails(self):
        src = (
            "def dispatch(registry, query):\n"
            "    return registry.compile(query, engine='jsonski')\n"
        )
        findings = check_one(SERVE, src, select=["RS003"])
        assert codes(findings) == ["RS003"]
        assert "limits" in findings[0].message

    def test_compile_engine_without_limits_fails(self):
        src = (
            "from repro.registry import compile as compile_engine\n"
            "def dispatch(query):\n"
            "    return compile_engine(query)\n"
        )
        assert codes(check_one(SERVE, src, select=["RS003"])) == ["RS003"]

    def test_compile_with_limits_passes(self):
        src = (
            "def dispatch(registry, query, limits):\n"
            "    return registry.compile(query, engine='jsonski', limits=limits)\n"
        )
        assert check_one(SERVE, src, select=["RS003"]) == []

    def test_kwargs_forwarding_passes(self):
        src = (
            "def dispatch(registry, query, **opts):\n"
            "    return registry.compile(query, **opts)\n"
        )
        assert check_one(SERVE, src, select=["RS003"]) == []

    def test_re_compile_is_exempt(self):
        src = "import re\nPATTERN = re.compile(r'x+')\n"
        assert check_one(SERVE, src, select=["RS003"]) == []

    def test_outside_serve_not_checked(self):
        src = "def f(registry, q):\n    return registry.compile(q)\n"
        assert check_one(ELSEWHERE, src, select=["RS003"]) == []


# ---------------------------------------------------------------------------
# RS009 — bounded queues and timed client I/O in repro/serve/


class TestRS009:
    def test_untimed_readline_fails(self):
        src = (
            "async def handle(reader):\n"
            "    line = await reader.readline()\n"
        )
        findings = check_one(SERVE, src, select=["RS009"])
        assert codes(findings) == ["RS009"]
        assert "readline" in findings[0].message

    def test_untimed_drain_fails(self):
        src = (
            "async def push(writer, data):\n"
            "    writer.write(data)\n"
            "    await writer.drain()\n"
        )
        assert codes(check_one(SERVE, src, select=["RS009"])) == ["RS009"]

    def test_wait_for_wrapped_passes(self):
        src = (
            "import asyncio\n"
            "async def handle(reader, timeout):\n"
            "    return await asyncio.wait_for(reader.readline(), timeout)\n"
        )
        assert check_one(SERVE, src, select=["RS009"]) == []

    def test_unbounded_queue_fails(self):
        src = "import asyncio\nq = asyncio.Queue()\n"
        findings = check_one(SERVE, src, select=["RS009"])
        assert codes(findings) == ["RS009"]
        assert "maxsize" in findings[0].message

    def test_bounded_queue_passes(self):
        src = "import asyncio\nq = asyncio.Queue(maxsize=16)\n"
        assert check_one(SERVE, src, select=["RS009"]) == []

    def test_non_client_await_passes(self):
        src = (
            "async def work(loop, pool, fn):\n"
            "    return await loop.run_in_executor(pool, fn)\n"
        )
        assert check_one(SERVE, src, select=["RS009"]) == []

    def test_outside_serve_not_checked(self):
        src = "async def f(reader):\n    return await reader.readline()\n"
        assert check_one(ELSEWHERE, src, select=["RS009"]) == []

    def test_suppression_honored(self):
        src = (
            "async def wait_forever(event):\n"
            "    # repro: ignore[RS009] -- fixture: sleeps until SIGTERM\n"
            "    await event.wait()\n"
        )
        assert check_one(SERVE, src, select=["RS009"]) == []


# ---------------------------------------------------------------------------
# RS011 — durable writes go through repro.storage


STORAGE = "src/repro/storage/snippet.py"


class TestRS011:
    def test_os_replace_fails(self):
        src = "import os\ndef f(tmp, path):\n    os.replace(tmp, path)\n"
        findings = check_one(ENGINE, src, select=["RS011"])
        assert codes(findings) == ["RS011"]
        assert "atomic_write" in findings[0].message

    def test_os_fsync_fails(self):
        src = "import os\ndef f(handle):\n    os.fsync(handle.fileno())\n"
        assert codes(check_one(CHECKPOINT, src, select=["RS011"])) == ["RS011"]

    def test_os_rename_fails(self):
        src = "import os\ndef f(a, b):\n    os.rename(a, b)\n"
        assert codes(check_one(ELSEWHERE, src, select=["RS011"])) == ["RS011"]

    def test_tmp_publish_idiom_fails(self):
        src = (
            "def f(path, data):\n"
            "    tmp = path.with_suffix('.tmp')\n"
            "    tmp.write_bytes(data)\n"
            "    tmp.rename(path)\n"
        )
        findings = check_one(ENGINE, src, select=["RS011"])
        assert codes(findings) == ["RS011", "RS011"]

    def test_inside_storage_package_exempt(self):
        src = "import os\ndef f(tmp, path):\n    os.replace(tmp, path)\n"
        assert check_one(STORAGE, src, select=["RS011"]) == []

    def test_atomic_write_call_passes(self):
        src = (
            "from repro.storage import atomic_write\n"
            "def f(path, data):\n"
            "    return atomic_write(path, data)\n"
        )
        assert check_one(ENGINE, src, select=["RS011"]) == []

    def test_plain_string_replace_passes(self):
        src = "def f(text):\n    return text.replace('a', 'b')\n"
        assert check_one(ENGINE, src, select=["RS011"]) == []

    def test_suppression_honored(self):
        src = (
            "import os\n"
            "def f(tmp, path):\n"
            "    # repro: ignore[RS011] -- fixture: non-durable scratch file\n"
            "    os.replace(tmp, path)\n"
        )
        assert check_one(ENGINE, src, select=["RS011"]) == []


# ---------------------------------------------------------------------------
# Suppressions


class TestSuppressions:
    FAILING = "def f(w):\n    return ~w\n"

    def test_trailing_suppression_honored(self):
        src = "def f(w):\n    return ~w  # repro: ignore[RS001] -- fixture\n"
        assert check_one(BITS, src) == []

    def test_standalone_suppression_covers_next_code_line(self):
        src = (
            "def f(w):\n"
            "    # repro: ignore[RS001] -- fixture reason\n"
            "    # (continuation comment lines are skipped)\n"
            "    return ~w\n"
        )
        assert check_one(BITS, src) == []

    def test_suppression_without_reason_is_rs000(self):
        src = "def f(w):\n    return ~w  # repro: ignore[RS001]\n"
        found = codes(check_one(BITS, src))
        assert "RS000" in found and "RS001" in found

    def test_wrong_code_does_not_suppress(self):
        src = "def f(w):\n    return ~w  # repro: ignore[RS006] -- wrong rule\n"
        assert codes(check_one(BITS, src)) == ["RS001"]

    def test_malformed_code_list_is_rs000(self):
        src = "def f(w):\n    return ~w  # repro: ignore[banana] -- reason\n"
        found = codes(check_one(BITS, src))
        assert "RS000" in found


# ---------------------------------------------------------------------------
# Framework / CLI


class TestFramework:
    def test_syntax_error_reported_not_crashed(self):
        findings = check_one(BITS, "def f(:\n")
        assert codes(findings) == ["RS000"]

    def test_unknown_select_raises(self):
        with pytest.raises(KeyError):
            check_one(BITS, "x = 1\n", select=["RS999"])

    def test_cli_clean_exit_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert cli_main([str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_findings_exit_one_with_location(self, tmp_path, capsys):
        bits = tmp_path / "repro" / "bits"
        bits.mkdir(parents=True)
        target = bits / "bad.py"
        target.write_text("def f(w):\n    return ~w\n")
        assert cli_main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:2" in out and "RS001" in out

    def test_cli_json_format(self, tmp_path, capsys):
        bits = tmp_path / "repro" / "bits"
        bits.mkdir(parents=True)
        (bits / "bad.py").write_text("def f(w):\n    return ~w\n")
        assert cli_main([str(bits), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1
        assert doc["findings"][0]["rule"] == "RS001"
        assert "RS001" in doc["rules"]

    def test_cli_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == [
            "RS001", "RS002", "RS003", "RS004", "RS005", "RS006",
            "RS009", "RS011", "RS012", "RS013", "RS014",
        ]
        assert listed == sorted(RULE_REGISTRY)

    def test_docs_document_exactly_the_registered_rules(self):
        """docs/static-analysis.md has one ``### RSxxx`` section per
        registered rule, so it cannot keep describing a deleted one."""
        doc = (SRC.parent / "docs" / "static-analysis.md").read_text(encoding="utf-8")
        headings = re.findall(r"^### (RS\d{3}) ", doc, flags=re.MULTILINE)
        assert headings == sorted(RULE_REGISTRY)

    def test_cli_bad_select_exit_two(self, capsys):
        assert cli_main(["--select", "RS123", "."]) == 2


# ---------------------------------------------------------------------------
# The CI gate itself


# ---------------------------------------------------------------------------
# RS012 — blocking call reachable from the event loop


class TestRS012:
    def test_direct_blocking_call_in_async_def_fails(self):
        src = (
            "import time\n"
            "async def handler():\n"
            "    time.sleep(1)\n"
        )
        findings = check_one(SERVE, src, select=["RS012"])
        assert codes(findings) == ["RS012"]
        assert findings[0].line == 3
        assert "time.sleep" in findings[0].message

    def test_transitive_blocking_path_fails_with_chain(self):
        src = (
            "import os\n"
            "def flush(fd):\n"
            "    os.fsync(fd)\n"
            "def persist(fd):\n"
            "    flush(fd)\n"
            "async def handler(fd):\n"
            "    persist(fd)\n"
        )
        findings = check_one(SERVE, src, select=["RS012"])
        assert codes(findings) == ["RS012"]
        # The diagnostic reconstructs the call chain down to the primitive.
        assert "os.fsync" in findings[0].message

    def test_call_soon_callback_is_a_loop_root(self):
        src = (
            "import time\n"
            "def tick():\n"
            "    time.sleep(1)\n"
            "def schedule(loop):\n"
            "    loop.call_soon(tick)\n"
        )
        findings = check_one(SERVE, src, select=["RS012"])
        assert codes(findings) == ["RS012"]

    def test_executor_hop_passes(self):
        src = (
            "import asyncio\n"
            "import time\n"
            "def blocking():\n"
            "    time.sleep(1)\n"
            "async def handler():\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, blocking)\n"
        )
        assert check_one(SERVE, src, select=["RS012"]) == []

    def test_blocking_helper_never_reached_from_loop_passes(self):
        src = (
            "import time\n"
            "def warm_cache():\n"
            "    time.sleep(1)\n"
            "async def handler():\n"
            "    return 1\n"
        )
        assert check_one(SERVE, src, select=["RS012"]) == []


# ---------------------------------------------------------------------------
# RS013 — shared mutable state written from >=2 execution contexts


_RS013_SHARED = """\
import threading

class Stats:
    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1

STATS = Stats()

async def handle():
    STATS.bump()

def _worker():
    STATS.bump()

def start():
    threading.Thread(target=_worker).start()
"""


class TestRS013:
    def test_unguarded_write_from_loop_and_thread_fails(self):
        findings = check_one(SERVE, _RS013_SHARED, select=["RS013"])
        assert codes(findings) == ["RS013"]
        assert "Stats.count" in findings[0].message
        assert "loop" in findings[0].message and "thread" in findings[0].message

    def test_lock_guarded_write_passes(self):
        src = _RS013_SHARED.replace(
            "    def bump(self):\n        self.count += 1\n",
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.count += 1\n",
        )
        assert src != _RS013_SHARED
        assert check_one(SERVE, src, select=["RS013"]) == []

    def test_single_context_write_passes(self):
        # Only the async path touches the object: one context, no race.
        src = _RS013_SHARED.replace(
            "def start():\n    threading.Thread(target=_worker).start()\n", ""
        )
        assert check_one(SERVE, src, select=["RS013"]) == []

    def test_init_writes_exempt(self):
        # __init__ runs before the object is reachable from anywhere
        # else; the fixture above would otherwise flag `self.count = 0`.
        findings = check_one(SERVE, _RS013_SHARED, select=["RS013"])
        assert all(f.line != 5 for f in findings)

    def test_mutating_method_on_module_global_fails(self):
        # `push` itself is reachable from both the loop (via the async
        # caller) and a spawned thread, so its append races with itself.
        src = (
            "import threading\n"
            "PENDING = []\n"
            "def push(item):\n"
            "    PENDING.append(item)\n"
            "async def enqueue(item):\n"
            "    push(item)\n"
            "def start():\n"
            "    threading.Thread(target=push).start()\n"
        )
        findings = check_one(SERVE, src, select=["RS013"])
        assert codes(findings) == ["RS013"]
        assert "PENDING" in findings[0].message


# ---------------------------------------------------------------------------
# RS014 — read-modify-write split across an await


class TestRS014:
    def test_attribute_rmw_across_await_fails(self):
        src = (
            "import asyncio\n"
            "class Session:\n"
            "    def __init__(self):\n"
            "        self.seq = 0\n"
            "    async def bump(self):\n"
            "        current = self.seq\n"
            "        await asyncio.sleep(0)\n"
            "        self.seq = current + 1\n"
        )
        findings = check_one(SERVE, src, select=["RS014"])
        assert codes(findings) == ["RS014"]
        assert findings[0].line == 8
        assert "Session.seq" in findings[0].message

    def test_recompute_after_await_passes(self):
        src = (
            "import asyncio\n"
            "class Session:\n"
            "    def __init__(self):\n"
            "        self.seq = 0\n"
            "    async def bump(self):\n"
            "        await asyncio.sleep(0)\n"
            "        self.seq = self.seq + 1\n"
        )
        assert check_one(SERVE, src, select=["RS014"]) == []

    def test_lock_held_across_rmw_passes(self):
        src = (
            "import asyncio\n"
            "class Session:\n"
            "    def __init__(self):\n"
            "        self.seq = 0\n"
            "        self._lock = asyncio.Lock()\n"
            "    async def bump(self):\n"
            "        async with self._lock:\n"
            "            current = self.seq\n"
            "            await asyncio.sleep(0)\n"
            "            self.seq = current + 1\n"
        )
        assert check_one(SERVE, src, select=["RS014"]) == []

    def test_module_global_rmw_across_await_fails(self):
        src = (
            "import asyncio\n"
            "TOTAL = 0\n"
            "async def add(delta):\n"
            "    global TOTAL\n"
            "    current = TOTAL\n"
            "    await asyncio.sleep(0)\n"
            "    TOTAL = current + delta\n"
        )
        findings = check_one(SERVE, src, select=["RS014"])
        assert codes(findings) == ["RS014"]
        assert "TOTAL" in findings[0].message


# ---------------------------------------------------------------------------
# Suppression budget (the CI ratchet)


class TestSuppressionBudget:
    def _tree(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "import os\n"
            "os.replace('x', 'y')  # repro: ignore[RS011] -- test fixture\n"
        )
        (tmp_path / "b.py").write_text(
            "x = 1  # repro: ignore[RS001] -- reasoned\n"
            "y = 2  # repro: ignore[RS001]\n"  # malformed: RS000, not budget
        )
        return tmp_path

    def test_count_ignores_malformed(self, tmp_path):
        from repro.staticcheck.core import count_suppressions

        counts = count_suppressions([str(self._tree(tmp_path))])
        assert sum(counts.values()) == 2

    def test_within_budget_exit_zero(self, tmp_path):
        from repro.staticcheck.cli import enforce_budget

        tree = self._tree(tmp_path)
        budget = tmp_path / "budget.txt"
        budget.write_text("# comment\nbudget: 2\n")
        status, message = enforce_budget(str(budget), [str(tree)])
        assert status == 0
        assert "within budget" in message

    def test_over_budget_exit_one_names_files(self, tmp_path):
        from repro.staticcheck.cli import enforce_budget

        tree = self._tree(tmp_path)
        budget = tmp_path / "budget.txt"
        budget.write_text("budget: 1\n")
        status, message = enforce_budget(str(budget), [str(tree)])
        assert status == 1
        assert "exceeded" in message and "a.py" in message

    def test_missing_budget_line_exit_two(self, tmp_path):
        from repro.staticcheck.cli import enforce_budget

        budget = tmp_path / "budget.txt"
        budget.write_text("# no number here\n")
        status, message = enforce_budget(str(budget), [str(tmp_path)])
        assert status == 2

    def test_cli_flag_enforces(self, tmp_path, capsys):
        tree = self._tree(tmp_path)
        budget = tmp_path / "budget.txt"
        budget.write_text("budget: 0\n")
        # b.py's bare suppression is RS000 on its own, so findings also
        # drive the exit code; assert the budget message still prints.
        status = cli_main(
            [str(tree / "a.py"), "--suppression-budget", str(budget)]
        )
        assert status == 1
        assert "suppression budget exceeded" in capsys.readouterr().err

    def test_repo_budget_file_is_current(self):
        """The checked-in ratchet matches the tree: a new suppression
        must raise staticcheck-budget.txt in the same commit."""
        from repro.staticcheck.cli import enforce_budget

        root = SRC.parent
        status, message = enforce_budget(
            str(root / "staticcheck-budget.txt"),
            [str(SRC), str(root / "benchmarks")],
        )
        assert status == 0, message


class TestTreeIsClean:
    def test_src_tree_is_clean(self):
        findings = check_paths([str(SRC)])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_deleting_word_mask_clamp_trips_rs001(self):
        """The acceptance tripwire: removing the clamp from
        repro/bits/words.py mask_from must produce an RS001 diagnostic
        naming the file and line."""
        words = SRC / "repro" / "bits" / "words.py"
        source = words.read_text()
        clamp = "return WORD_MASK & ~((1 << pos) - 1)"
        assert clamp in source
        mutated = source.replace(clamp, "return ~((1 << pos) - 1)")
        findings = check_sources({str(words): mutated}, select=["RS001"])
        assert [f.rule for f in findings] == ["RS001"]
        assert findings[0].line == source.splitlines().index(
            "    " + clamp
        ) + 1

    def test_benchmarks_subset_is_clean(self):
        """CI's benchmarks subset, given as an absolute path."""
        findings = check_paths(
            [str(SRC.parent / "benchmarks")],
            select=["RS002", "RS005", "RS006", "RS011", "RS012", "RS014"],
        )
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_module_runs_as_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.staticcheck", str(SRC)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout


# ---------------------------------------------------------------------------
# Module names: a file's package must not depend on how its path is given


@pytest.mark.parametrize("path, module", [
    ("src/repro/bits/words.py", "repro.bits.words"),
    ("/abs/repo/src/repro/bits/words.py", "repro.bits.words"),
    ("src/repro/storage/__init__.py", "repro.storage"),
    ("benchmarks/serve_chaos.py", "benchmarks.serve_chaos"),
    ("/abs/repo/benchmarks/serve_chaos.py", "benchmarks.serve_chaos"),
    ("../repo/benchmarks/serve_chaos.py", "benchmarks.serve_chaos"),
    ("src/repro/harness/benchmarks.py", "repro.harness.benchmarks"),
    ("tools/helper.py", "tools.helper"),
])
def test_module_name_is_anchored_at_the_package(path, module):
    from repro.staticcheck.core import FileContext

    assert FileContext(path, "", ast.parse("")).module == module


def test_benchmarks_scope_holds_for_an_absolute_path(tmp_path, monkeypatch):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    (bench / "b.py").write_text(
        "import random\n"
        "def seeded(name):\n"
        "    if not name:\n"
        "        raise ValueError('empty name')\n"
        "    return random.Random(hash(name))\n"
    )
    monkeypatch.chdir(tmp_path)
    relative = check_paths(["benchmarks"], select=["RS002", "RS005"])
    absolute = check_paths([str(bench)], select=["RS002", "RS005"])
    assert [(f.rule, f.line, f.col) for f in relative] == [
        ("RS002", 4, 8), ("RS005", 5, 25)
    ]
    assert [(f.rule, f.line, f.col, f.message) for f in absolute] == [
        (f.rule, f.line, f.col, f.message) for f in relative
    ]


# ---------------------------------------------------------------------------
# Tripwires for the whole-program inference: each undoes one real fix in
# src/ (in memory) and expects the exact finding.  The one-file fixtures
# above never need receiver types, re-exports or BLOCKING_ATTRS; these do.


_LOOP_FIX = "hop to the executor before entering it"


def _mutated_tree_findings(relpath, old, new, rule):
    """Check all of src/ with one real file edited; return the findings,
    the edited file's path and the 1-based line where ``new`` starts."""
    sources = {str(p): p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))}
    path = str(SRC / relpath)
    assert sources[path].count(old) == 1
    head = sources[path][: sources[path].index(old)]
    sources[path] = sources[path].replace(old, new)
    line = head.count("\n") + 1
    return check_sources(sources, select=[rule]), path, line


class TestInferenceTripwires:
    def test_unlocked_counter_add_trips_rs013(self):
        """Needs return-annotation, constructor, local-binding and
        unique-name inference to see ``Counter.add`` run on both sides."""
        findings, path, line = _mutated_tree_findings(
            "repro/observe/metrics.py",
            "        with self._lock:\n            self.value += n\n",
            "        self.value += n\n",
            "RS013",
        )
        assert [(f.rule, f.path, f.line, f.col) for f in findings] == [
            ("RS013", path, line, 8)
        ]
        assert findings[0].message.startswith(
            "unguarded write to shared attribute Counter.value "
            "from contexts {executor, loop}:"
        )

    def test_hoisting_indexed_out_of_the_executor_trips_rs012(self):
        """Needs re-export following to reach the stage-1 lock."""
        findings, path, line = _mutated_tree_findings(
            "repro/serve/app.py",
            "                framed, emitted, _, stop_at = await loop.run_in_executor(\n"
            "                    self.executor,\n"
            "                    lambda: _frame_pairs(\n"
            "                        [(0, *evaluate_record(prepared, 0, corpus.indexed(prepared)))],\n",
            "                buffer = corpus.indexed(prepared)\n"
            "                framed, emitted, _, stop_at = await loop.run_in_executor(\n"
            "                    self.executor,\n"
            "                    lambda: _frame_pairs(\n"
            "                        [(0, *evaluate_record(prepared, 0, buffer))],\n",
            "RS012",
        )
        assert [(f.rule, f.path, f.line, f.col) for f in findings] == [
            ("RS012", path, line, 25)
        ]
        assert findings[0].message == (
            "await-free blocking path: Corpus.indexed -> PreparedQuery.index"
            " -> IndexedBuffer.load_or_build -> build_once -> advisory_lock"
            " -> mkdir runs on the event-loop thread — " + _LOOP_FIX
        )

    def test_flushing_metrics_on_the_loop_trips_rs012(self):
        """Needs BLOCKING_ATTRS: ``Path.write_text`` has no typed receiver."""
        findings, path, line = _mutated_tree_findings(
            "repro/serve/app.py",
            "        await asyncio.get_running_loop().run_in_executor(None, self._flush_metrics)\n",
            "        self._flush_metrics()\n",
            "RS012",
        )
        assert [(f.rule, f.path, f.line, f.col) for f in findings] == [
            ("RS012", path, line, 8)
        ]
        assert findings[0].message == (
            "await-free blocking path: QueryService._flush_metrics -> write_text"
            " runs on the event-loop thread — " + _LOOP_FIX
        )

    def test_claiming_the_terminator_after_the_drain_trips_rs014(self):
        findings, path, line = _mutated_tree_findings(
            "repro/serve/protocol.py",
            "        self.finished = True\n"
            "        self.writer.write(frame_line(terminator) + b\"0\\r\\n\\r\\n\")\n"
            "        await asyncio.wait_for(self.writer.drain(), self.timeout)\n",
            "        self.writer.write(frame_line(terminator) + b\"0\\r\\n\\r\\n\")\n"
            "        await asyncio.wait_for(self.writer.drain(), self.timeout)\n"
            "        self.finished = True\n",
            "RS014",
        )
        assert [(f.rule, f.path, f.line, f.col) for f in findings] == [
            ("RS014", path, line + 2, 8)
        ]
        assert findings[0].message.startswith(
            "read-modify-write of shared NdjsonStream.finished spans an await"
        )
