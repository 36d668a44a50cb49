"""Dataset generator tests (Table 4 / Table 5 substrate)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.data.datasets import DATASETS, dataset, large_record, record_stream
from repro.data.stats import structural_stats
from repro.reference import evaluate_bytes

SIZE = 60_000


@pytest.fixture(scope="module")
def larges():
    return {name: large_record(name, SIZE, seed=11) for name in DATASETS}


@pytest.fixture(scope="module")
def streams():
    return {name: record_stream(name, SIZE, seed=11) for name in DATASETS}


class TestValidity:
    def test_large_records_are_valid_json(self, larges):
        for name, data in larges.items():
            json.loads(data)

    def test_small_records_are_valid_json(self, streams):
        for name, stream in streams.items():
            assert len(stream) > 1, name
            for record in stream:
                json.loads(record)

    def test_sizes_near_target(self, larges):
        for name, data in larges.items():
            assert SIZE <= len(data) <= SIZE * 1.5, (name, len(data))


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        assert large_record("TT", 20_000, seed=3) == large_record("TT", 20_000, seed=3)

    def test_different_seed_differs(self):
        assert large_record("TT", 20_000, seed=3) != large_record("TT", 20_000, seed=4)

    def test_same_bytes_under_any_hash_seed(self):
        # Generation must not depend on the per-process str hash salt.
        child = (
            "import sys, zlib\n"
            "from repro.data.datasets import DATASETS, large_record, record_stream\n"
            "for name in DATASETS:\n"
            "    doc = large_record(name, 20_000, seed=5)\n"
            "    records = record_stream(name, 20_000, seed=5)\n"
            "    print(name, zlib.crc32(doc), zlib.crc32(records.payload), records.offsets.tolist())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
            proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == len(DATASETS)


class TestQueries:
    def test_every_query_matches_oracle(self, larges):
        for name, spec in DATASETS.items():
            for q in spec.queries:
                expected = evaluate_bytes(q.large, larges[name])
                got = repro.JsonSki(q.large).run(larges[name]).values()
                assert got == expected, q.qid

    def test_main_queries_find_matches(self, larges):
        # The rare-attribute queries (BB2/GMD2/WM1/WP1/WP2) may be empty at
        # tiny sizes; the structural queries must always hit.
        for qid, name, query in [
            ("TT1", "TT", "$[*].en.urls[*].url"),
            ("TT2", "TT", "$[*].text"),
            ("BB1", "BB", "$.pd[*].cp[1:3].id"),
            ("GMD1", "GMD", "$[*].rt[*].lg[*].st[*].dt.tx"),
            ("NSPL2", "NSPL", "$.dt[*][*][2:4]"),
            ("WM2", "WM", "$.it[*].nm"),
        ]:
            assert len(repro.JsonSki(query).run(larges[name])) > 0, qid

    def test_nspl1_exact_match_count(self, larges):
        # Table 5: exactly 44 column names, found early in the stream.
        assert len(repro.JsonSki("$.mt.vw.co[*].nm").run(larges["NSPL"])) == 44

    def test_small_queries_consistent_with_large(self, larges, streams):
        """Where both formats exist, total match counts agree (the same
        units underlie both)."""
        for name, spec in DATASETS.items():
            for q in spec.queries:
                if q.small is None:
                    continue
                engine = repro.JsonSki(q.small)
                small_total = len(engine.run_records(streams[name]))
                # Large inputs wrap the same number of units only when the
                # unit lists match; sizes match here, so compare counts.
                large_total = len(repro.JsonSki(q.large).run(larges[name]))
                assert small_total == large_total, q.qid


class TestStructuralCharacter:
    """The Table 4 *shape* each generator must reproduce."""

    def test_wm_nearly_array_free(self, larges):
        stats = structural_stats(larges["WM"])
        assert stats.n_objects > 20 * max(stats.n_arrays, 1)

    def test_nspl_primitive_matrix(self, larges):
        stats = structural_stats(larges["NSPL"])
        assert stats.n_arrays > 5 * stats.n_objects
        assert stats.n_primitives > 10 * stats.n_attributes

    def test_gmd_object_heavy(self, larges):
        stats = structural_stats(larges["GMD"])
        assert stats.n_objects > 5 * stats.n_arrays
        assert stats.depth >= 7

    def test_wp_deep_objects(self, larges):
        stats = structural_stats(larges["WP"])
        assert stats.n_objects > 3 * stats.n_arrays
        assert stats.depth >= 6

    def test_tt_mixed(self, larges):
        stats = structural_stats(larges["TT"])
        assert stats.depth >= 5
        assert 0.3 < stats.n_arrays / stats.n_objects < 3


class TestRegistry:
    def test_lookup(self):
        assert dataset("BB").root_key == "pd"
        with pytest.raises(KeyError):
            dataset("NOPE")

    def test_twelve_queries_total(self):
        assert sum(len(s.queries) for s in DATASETS.values()) == 12

    def test_paper_exclusions(self):
        # NSPL1 and WP2 are not applicable to small records (Section 5.2).
        by_id = {q.qid: q for s in DATASETS.values() for q in s.queries}
        assert by_id["NSPL1"].small is None
        assert by_id["WP2"].small is None
        assert sum(1 for q in by_id.values() if q.small is not None) == 10
