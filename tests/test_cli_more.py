"""Additional CLI combinations and error paths."""

from __future__ import annotations

import io

import pytest

from repro.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def doc(tmp_path):
    path = tmp_path / "d.json"
    path.write_bytes(b'{"a": [10, 20, 30], "s": "hi"}')
    return str(path)


@pytest.fixture()
def jsonl(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(b'{"a": [1]}\n{"a": [2, 3]}\n')
    return str(path)


class TestFlagCombinations:
    def test_first_with_non_jsonski_engine(self, doc):
        code, out, _ = run_cli(["$.a[*]", doc, "--first", "--engine", "jpstream"])
        assert code == 0 and out.strip() == "10"

    def test_first_and_raw(self, doc):
        code, out, _ = run_cli(["$.s", doc, "--first", "--raw"])
        assert out.strip() == '"hi"'

    def test_count_jsonl(self, jsonl):
        code, out, _ = run_cli(["$.a[*]", jsonl, "--jsonl", "--count"])
        assert code == 0 and out.strip() == "3"

    def test_paths_jsonl(self, jsonl):
        code, out, _ = run_cli(["$.a[0]", jsonl, "--jsonl", "--paths"])
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("$['a'][0]\t") for line in lines)

    def test_paths_first(self, doc):
        code, out, _ = run_cli(["$.a[*]", doc, "--paths", "--first"])
        assert out.strip().splitlines() == ["$['a'][0]\t10"]

    def test_paths_requires_jsonski(self, doc):
        code, _, err = run_cli(["$.a", doc, "--paths", "--engine", "pison"])
        assert code == 2

    def test_union_query_via_cli(self, doc):
        code, out, _ = run_cli(["$.a[0,2]", doc])
        assert out.split() == ["10", "30"]

    def test_explain_bad_query(self):
        code, _, err = run_cli(["$.[", "--explain"])
        assert code == 2 and "error" in err

    def test_error_context_printed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"a": {"b": 1}; "c": 2}')
        code, _, err = run_cli(["$.*.b", str(path)])
        assert code == 4
        assert "^" in err  # the caret line

    @pytest.mark.parametrize("extra", [[], ["--paths"]])
    def test_jsonl_error_context_is_the_failing_record(self, tmp_path, extra):
        bad = b'{"a":{"b":2},"c":[1,2,3}'
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"a":{"b":1}}\n' + bad + b'\n{"a":{"b":3}}\n')
        code, _, err = run_cli(["$.a.b", str(path), "--jsonl", *extra])
        message, context, caret = err.splitlines()
        assert code == 4 and message.startswith("error: record 1: ")
        position = int(message.rsplit("(at byte ", 1)[1].rstrip(")"))
        assert context == bad.decode() and caret == " " * position + "^"

    @pytest.mark.parametrize("query, name, extra", [
        ("$.a[0].b", "u.json", []),
        ("$.a[0].b", "u.jsonl", ["--jsonl"]),
        ("$.a[?(@.b == 2)]", "u.jsonl", ["--jsonl"]),
    ], ids=["printed", "printed-jsonl", "filter-predicate"])
    def test_undecodable_match_is_malformed_input(self, tmp_path, query, name, extra):
        # Stage 2 skips ``tru`` unvalidated; decoding the match (to print
        # it, or for the predicate's comparison) is what rejects it.
        path = tmp_path / name
        path.write_bytes(b'{"a":[{"b":tru}]}\n')
        code, out, err = run_cli([query, str(path), *extra])
        assert code == 4 and out == ""
        assert err.startswith("error: undecodable match: ") and "Traceback" not in err

    def test_stdlib_engine_from_cli(self, doc):
        code, out, _ = run_cli(["$.a[1]", doc, "--engine", "stdlib"])
        assert code == 0 and out.strip() == "20"

    def test_exit_one_without_matches_count_mode(self, doc):
        code, out, _ = run_cli(["$.nothing", doc, "--count"])
        assert code == 1 and out.strip() == "0"
