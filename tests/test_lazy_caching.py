"""On-demand materialization and the two caching layers.

Three contracts under test:

1. **Lazy match views** (:mod:`repro.engine.output`): a matched byte
   range decodes at most once, on first touch, and the zero-parse
   terminal ops (``count``/``spans``/``texts``/``to_jsonl``) never touch
   the decoder at all.
2. **Structural-index sidecars** (:mod:`repro.engine.sidecar`): a warm
   load is byte-validated against the corpus and builds zero chunks;
   every corruption class degrades to a rebuild, never to wrong answers.
3. **Compiled-query LRU** (:class:`repro.engine.prepared.CompiledQueryCache`):
   eviction changes timing only — results stay equal to cache-free
   compilation, including under the differential fuzzer.
"""

from __future__ import annotations

import io
import json

import pytest

import repro
from repro.checkpoint import JsonlEmitter
from repro.engine import output as output_mod
from repro.engine import prepared as prepared_mod
from repro.engine import sidecar
from repro.engine.output import Match, MatchList
from repro.engine.prepared import CompiledQueryCache, IndexedBuffer
from repro.errors import IndexSidecarError, MatchTypeError
from repro.resilience import run_with_recovery
from repro.resilience.fuzz import differential_fuzz
from repro.stream.records import RecordStream


@pytest.fixture()
def decode_counter(monkeypatch):
    """Count every json.loads the lazy views perform."""
    calls = {"n": 0}
    real = output_mod._decode

    def counting(text):
        calls["n"] += 1
        return real(text)

    monkeypatch.setattr(output_mod, "_decode", counting)
    return calls


DOC = b'{"a": [1, 2, 3], "b": {"c": "hi"}, "d": null}'


# ---------------------------------------------------------------------------
# 1. Lazy Match views


class TestLazyMatch:
    def test_value_parses_once(self, decode_counter):
        m = Match(b'{"k": [1]}', 0, 10)
        assert not m.touched
        assert m.value() == {"k": [1]}
        assert m.touched
        assert m.value() == {"k": [1]}
        assert decode_counter["n"] == 1

    def test_raw_is_zero_copy(self):
        source = b'[10, 20]'
        m = Match(source, 1, 3)
        view = m.raw
        assert isinstance(view, memoryview)
        assert bytes(view) == b"10" == m.text
        assert view.obj is source  # no slice copy was made

    def test_zero_parse_terminals(self, decode_counter):
        matches = repro.compile("$.a[*]").run(DOC)
        assert matches.count() == len(matches) == 3
        assert matches.spans() == [(7, 8), (10, 11), (13, 14)]
        assert matches.texts() == [b"1", b"2", b"3"]
        assert matches.to_jsonl() == b"1\n2\n3\n"
        assert decode_counter["n"] == 0

    def test_values_memoized_across_consumers(self, decode_counter):
        matches = repro.compile("$.a[*]").run(DOC)
        assert matches.values() == [1, 2, 3]
        assert matches.values() == [1, 2, 3]
        assert [m.value() for m in matches] == [1, 2, 3]
        assert decode_counter["n"] <= 3

    def test_views_are_shared(self):
        matches = repro.compile("$.a[*]").run(DOC)
        assert matches[0] is matches[0]
        assert matches[0] is next(iter(matches))
        assert matches[-1].text == b"3"

    def test_as_int(self):
        assert Match(b"42", 0, 2).as_int() == 42
        assert Match(b" -7 ", 0, 4).as_int() == -7
        with pytest.raises(MatchTypeError):
            Match(b'"x"', 0, 3).as_int()
        with pytest.raises(MatchTypeError):
            Match(b"1.5", 0, 3).as_int()

    def test_as_int_rejects_memoized_bool(self):
        m = Match(b"true", 0, 4)
        assert m.as_bool() is True
        with pytest.raises(MatchTypeError):
            m.as_int()

    def test_as_float(self):
        assert Match(b"1.5", 0, 3).as_float() == 1.5
        assert Match(b"3", 0, 1).as_float() == 3.0
        m = Match(b"2", 0, 1)
        assert m.as_int() == 2
        assert m.as_float() == 2.0  # memoized int upgrades
        with pytest.raises(MatchTypeError):
            Match(b"null", 0, 4).as_float()

    def test_as_str_fast_path_skips_decoder(self, decode_counter):
        assert Match(b'"hi"', 0, 4).as_str() == "hi"
        assert decode_counter["n"] == 0
        assert Match(b'"a\\nb"', 0, 6).as_str() == "a\nb"
        assert decode_counter["n"] == 1  # escapes go through the decoder
        with pytest.raises(MatchTypeError):
            Match(b"12", 0, 2).as_str()

    def test_as_bool_and_is_null_never_parse(self, decode_counter):
        assert Match(b"false", 0, 5).as_bool() is False
        assert Match(b"null", 0, 4).is_null()
        assert not Match(b"0", 0, 1).is_null()
        with pytest.raises(MatchTypeError):
            Match(b"1", 0, 1).as_bool()
        assert decode_counter["n"] == 0

    def test_typed_accessor_agrees_with_value(self):
        m = Match(b'"hey"', 0, 5)
        assert m.as_str() == "hey"
        assert m.value() == "hey"  # memo reused, types agree

    def test_add_match_adopts_memoized_view(self, decode_counter):
        m = Match(b"[1,2]", 0, 5)
        assert m.value() == [1, 2]
        ml = MatchList()
        ml.add_match(m)
        assert ml[0] is m
        assert ml.values() == [[1, 2]]
        assert decode_counter["n"] == 1

    def test_extend_preserves_views(self, decode_counter):
        a, b = MatchList(), MatchList()
        a.add(b"1", 0, 1)
        touched = Match(b"2", 0, 1)
        touched.value()
        b.add_match(touched)
        a.extend(b)
        assert a.texts() == [b"1", b"2"]
        assert a[1] is touched
        assert a.values() == [1, 2]
        assert decode_counter["n"] == 2  # one for "1", one (earlier) for "2"

    def test_match_equality_and_hash(self):
        src = b"[1, 1]"
        assert Match(src, 1, 2) == Match(src, 1, 2)
        assert Match(src, 1, 2) != Match(src, 4, 5)
        assert hash(Match(src, 1, 2)) == hash(Match(bytes(src), 1, 2))


class TestFilteredSingleParse:
    """The filter predicate and the consumer share one parse (the old
    code parsed the candidate in the predicate, then re-parsed it in
    ``values()``)."""

    def test_bare_at_predicate_parses_once_per_candidate(self, decode_counter):
        doc = b'{"items": [1, 5, 2, 9]}'
        matches = repro.compile("$.items[?(@ > 3)]").run(doc)
        assert matches.values() == [5, 9]
        # 4 candidates parsed by the predicate; the 2 survivors are
        # adopted views, so values() adds no further decodes.
        assert decode_counter["n"] == 4

    def test_subpath_predicate_result_unchanged(self):
        doc = b'{"items": [{"p": 5, "n": "a"}, {"p": 15, "n": "b"}]}'
        matches = repro.compile("$.items[?(@.p > 10)].n").run(doc)
        assert matches.values() == ["b"]


# ---------------------------------------------------------------------------
# 2. Structural-index sidecars


def _corpus(n=400):
    rows = [{"a": {"b": i}, "tag": "x" * (i % 13)} for i in range(n)]
    return ("[" + ",".join(json.dumps(r) for r in rows) + "]").encode()


CHUNK = 1 << 12


class TestSidecar:
    def test_roundtrip_is_fully_warm_and_equal(self, tmp_path):
        data = _corpus()
        built = IndexedBuffer(data, chunk_size=CHUNK).warm()
        path = built.save(tmp_path / "c.ridx")
        loaded = IndexedBuffer.load(path, data, chunk_size=CHUNK)
        assert loaded.buffer.index.chunks_built == 0  # stage 1 skipped
        eng = repro.compile("$[*].a.b")
        assert eng.run(loaded).values() == eng.run(built).values()

    def test_corrupt_payload_raises_then_rebuilds(self, tmp_path):
        data = _corpus()
        built = IndexedBuffer(data, chunk_size=CHUNK).warm()
        path = built.save(sidecar.sidecar_path(tmp_path, data, CHUNK))
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexSidecarError):
            IndexedBuffer.load(path, data, chunk_size=CHUNK)
        # The caching entry point silently rebuilds (and rewrites).
        indexed = IndexedBuffer.load_or_build(data, tmp_path, chunk_size=CHUNK)
        assert repro.compile("$[*].a.b").run(indexed).count() == 400
        assert IndexedBuffer.load(path, data, chunk_size=CHUNK).buffer.index.chunks_built == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ridx"
        path.write_bytes(b"not a sidecar at all" * 4)
        with pytest.raises(IndexSidecarError):
            IndexedBuffer.load(path, _corpus(), chunk_size=CHUNK)

    def test_truncated_file_rejected(self, tmp_path):
        data = _corpus()
        path = IndexedBuffer(data, chunk_size=CHUNK).warm().save(tmp_path / "t.ridx")
        path.write_bytes(path.read_bytes()[:-64])
        with pytest.raises(IndexSidecarError):
            IndexedBuffer.load(path, data, chunk_size=CHUNK)

    def test_version_mismatch_rejected(self, tmp_path, monkeypatch):
        data = _corpus()
        path = IndexedBuffer(data, chunk_size=CHUNK).warm().save(tmp_path / "v.ridx")
        monkeypatch.setattr(sidecar, "FORMAT_VERSION", 2)
        with pytest.raises(IndexSidecarError, match="version"):
            IndexedBuffer.load(path, data, chunk_size=CHUNK)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        data = _corpus()
        path = IndexedBuffer(data, chunk_size=CHUNK).warm().save(tmp_path / "f.ridx")
        other = data[:-1] + b" "
        with pytest.raises(IndexSidecarError, match="corpus"):
            IndexedBuffer.load(path, other, chunk_size=CHUNK)

    def test_chunk_size_mismatch_rejected(self, tmp_path):
        data = _corpus()
        path = IndexedBuffer(data, chunk_size=CHUNK).warm().save(tmp_path / "k.ridx")
        with pytest.raises(IndexSidecarError):
            IndexedBuffer.load(path, data, chunk_size=CHUNK * 2)

    def test_word_mode_save_refused_and_builds_plain(self, tmp_path):
        data = _corpus(50)
        with pytest.raises(IndexSidecarError):
            IndexedBuffer(data, mode="word").save(tmp_path / "w.ridx")
        indexed = IndexedBuffer.load_or_build(data, tmp_path, mode="word")
        assert indexed.sidecar is None
        assert list(tmp_path.iterdir()) == []

    def test_load_or_build_miss_then_hit(self, tmp_path):
        data = _corpus()
        first = IndexedBuffer.load_or_build(data, tmp_path, chunk_size=CHUNK)
        assert first.sidecar is not None and first.sidecar.exists()
        second = IndexedBuffer.load_or_build(data, tmp_path, chunk_size=CHUNK)
        assert second.sidecar == first.sidecar
        assert second.buffer.index.chunks_built == 0

    def test_warm_load_checksums_the_corpus_once(self, tmp_path, monkeypatch):
        data = _corpus()
        IndexedBuffer.load_or_build(data, tmp_path, chunk_size=CHUNK)
        sizes = []
        crc = sidecar._crc
        monkeypatch.setattr(sidecar, "_crc", lambda b: sizes.append(len(b)) or crc(b))
        warm = IndexedBuffer.load_or_build(data, tmp_path, chunk_size=CHUNK)
        assert warm.buffer.index.chunks_built == 0
        # One pass over the corpus (name and fingerprint check), one over
        # the sidecar payload (its checksum).
        assert len(sizes) == 2 and sizes.count(len(data)) == 1

    def test_cold_build_checksums_the_corpus_once(self, tmp_path, monkeypatch):
        data = _corpus()
        sizes = []
        crc = sidecar._crc
        monkeypatch.setattr(sidecar, "_crc", lambda b: sizes.append(len(b)) or crc(b))
        cold = IndexedBuffer.load_or_build(data, tmp_path, chunk_size=CHUNK)
        assert cold.sidecar is not None
        # One pass over the corpus (name and header fingerprint), one
        # over the written payload (its checksum).
        assert len(sizes) == 2 and sizes.count(len(data)) == 1
        warm = IndexedBuffer.load_or_build(data, tmp_path, chunk_size=CHUNK)
        assert warm.buffer.index.chunks_built == 0

    def test_prepared_index_routes_through_cache(self, tmp_path):
        data = _corpus()
        eng = repro.compile("$[*].a.b")
        indexed = eng.index(data, chunk_size=CHUNK, cache_dir=tmp_path)
        assert indexed.sidecar is not None
        again = eng.index(data, chunk_size=CHUNK, cache_dir=tmp_path)
        assert again.buffer.index.chunks_built == 0
        assert eng.run(again).count() == eng.run(indexed).count() == 400


# ---------------------------------------------------------------------------
# 3. Compiled-query LRU


QUERIES = ["$.a[*]", "$.b.c", "$.d", "$.a[1:3]", "$..c"]


class TestCompiledQueryCache:
    def test_parse_hit_miss_accounting(self):
        cache = CompiledQueryCache(maxsize=8)
        p1 = cache.parse("$.a.b")
        p2 = cache.parse("$.a.b")
        assert p1 is p2
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_automaton_shared_for_equal_paths(self):
        cache = CompiledQueryCache(maxsize=8)
        a1 = cache.automaton(cache.parse("$.a[*]"))
        a2 = cache.automaton(cache.parse("$.a[*]"))
        assert a1 is a2

    def test_eviction_keeps_results_correct(self):
        cache = CompiledQueryCache(maxsize=2)
        expected = {q: repro.compile(q).run(DOC).values() for q in QUERIES}
        for _ in range(3):  # cycle far past capacity
            for q in QUERIES:
                path = cache.parse(q)
                cache.automaton(path)
                assert repro.compile(q).run(DOC).values() == expected[q]
        stats = cache.stats()
        assert stats["misses"] > 2 * len(QUERIES)  # eviction really happened

    def test_syntax_errors_never_cached(self):
        cache = CompiledQueryCache(maxsize=4)
        for _ in range(2):
            with pytest.raises(repro.JsonPathSyntaxError):
                cache.parse("$.a[")
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 2
        assert cache.stats()["paths"] == 0

    def test_clear_resets(self):
        cache = CompiledQueryCache(maxsize=4)
        cache.parse("$.a")
        cache.clear()
        assert cache.stats()["misses"] == 0
        cache.parse("$.a")
        assert cache.stats()["misses"] == 1

    def test_global_cache_hit_via_compile(self, monkeypatch):
        monkeypatch.setattr(prepared_mod, "QUERY_CACHE", CompiledQueryCache(maxsize=8))
        repro.compile("$.b.c")
        repro.compile("$.b.c")
        stats = prepared_mod.QUERY_CACHE.stats()
        assert stats["hits"] >= 1

    def test_tiny_cache_survives_differential_fuzz(self, monkeypatch):
        monkeypatch.setattr(prepared_mod, "QUERY_CACHE", CompiledQueryCache(maxsize=1))
        records = [
            json.dumps({"a": [i, {"b": i}], "c": "x"}).encode() for i in range(4)
        ]
        report = differential_fuzz(
            records, 20, seed=3, engines=("jsonski",), deadline_per_case=None
        )
        assert report.ok, report.describe()


# ---------------------------------------------------------------------------
# Lazy checkpointed runs: exactly-once, byte-identical, zero-decode


def _records(n=12):
    return RecordStream.from_records(
        [json.dumps({"a": {"b": [i, i + 1]}}).encode() for i in range(n)]
    )


class TestLazyCheckpointedRuns:
    def test_emitter_splices_raw_match_bytes(self, tmp_path, decode_counter):
        sink = io.BytesIO()
        run_with_recovery(
            repro.compile("$.a.b"), _records(), checkpoint=tmp_path / "run.ckpt",
            emitter=JsonlEmitter(sink), materialize=False,
        )
        lines = sink.getvalue().splitlines()
        # Raw splices: the exact source bytes, spaces and all.
        assert lines == [f"[{i}, {i + 1}]".encode() for i in range(12)]
        assert decode_counter["n"] == 0  # zero json.loads end-to-end

    def test_lazy_values_are_matchlists(self, decode_counter):
        result = run_with_recovery(repro.compile("$.a.b"), _records(), materialize=False)
        assert all(isinstance(v, MatchList) for v in result.values)
        assert decode_counter["n"] == 0
        assert result.values[3].values() == [[3, 4]]  # decodes only on touch

    def test_interrupt_resume_byte_identical_lazy(self, tmp_path, decode_counter):
        stream = _records(20)
        ref_sink = io.BytesIO()
        run_with_recovery(
            repro.compile("$.a.b"), stream, checkpoint=tmp_path / "ref.ckpt",
            checkpoint_every=3, emitter=JsonlEmitter(ref_sink), materialize=False,
        )
        out_path = tmp_path / "out.jsonl"
        ck = tmp_path / "run.ckpt"
        with open(out_path, "w+b") as handle:
            first = run_with_recovery(
                repro.compile("$.a.b"), stream, checkpoint=ck, checkpoint_every=3,
                emitter=JsonlEmitter(handle), materialize=False,
                stop=lambda cursor: cursor >= 7,
            )
            assert first.checkpoint.interrupted
        with open(out_path, "r+b") as handle:
            handle.seek(0, io.SEEK_END)
            second = run_with_recovery(
                repro.compile("$.a.b"), stream, checkpoint=ck, checkpoint_every=3,
                emitter=JsonlEmitter(handle), materialize=False, resume=True,
            )
            assert second.checkpoint.completed
        assert out_path.read_bytes() == ref_sink.getvalue()
        assert decode_counter["n"] == 0  # no decode anywhere in the cycle

    def test_lazy_and_eager_agree_semantically(self, tmp_path):
        stream = _records()
        lazy_sink, eager_sink = io.BytesIO(), io.BytesIO()
        run_with_recovery(
            repro.compile("$.a.b"), stream, checkpoint=tmp_path / "l.ckpt",
            emitter=JsonlEmitter(lazy_sink), materialize=False,
        )
        run_with_recovery(
            repro.compile("$.a.b"), stream, checkpoint=tmp_path / "e.ckpt",
            emitter=JsonlEmitter(eager_sink),
        )
        decode = lambda blob: [json.loads(line) for line in blob.splitlines()]
        assert decode(lazy_sink.getvalue()) == decode(eager_sink.getvalue())


# ---------------------------------------------------------------------------
# Wiring: CLI --index-cache, serve registry


class TestCliIndexCache:
    def test_index_cache_persists_and_reuses(self, tmp_path):
        from repro.cli import main

        doc = tmp_path / "doc.json"
        doc.write_bytes(b'{"a": [1, 2, 3]}')
        cache = tmp_path / "ridx"
        cache.mkdir()

        def run():
            out = io.StringIO()
            code = main(["$.a[*]", str(doc), "--index-cache", str(cache)], out=out, err=io.StringIO())
            return code, out.getvalue()

        code, out = run()
        assert code == 0 and out.splitlines() == ["1", "2", "3"]
        sidecars = list(cache.glob("*" + sidecar.SUFFIX))
        assert len(sidecars) == 1
        code, out = run()  # warm: served from the sidecar
        assert code == 0 and out.splitlines() == ["1", "2", "3"]

    def test_corrupt_cache_is_not_fatal(self, tmp_path):
        from repro.cli import main

        doc = tmp_path / "doc.json"
        doc.write_bytes(b'{"a": [7]}')
        cache = tmp_path / "ridx"
        cache.mkdir()
        assert main(["$.a[*]", str(doc), "--index-cache", str(cache)],
                    out=io.StringIO(), err=io.StringIO()) == 0
        (ridx,) = cache.glob("*" + sidecar.SUFFIX)
        ridx.write_bytes(b"garbage")
        out = io.StringIO()
        assert main(["$.a[*]", str(doc), "--index-cache", str(cache)],
                    out=out, err=io.StringIO()) == 0
        assert out.getvalue().strip() == "7"


class TestServeRegistryCaching:
    def test_corpus_index_sidecar_shared_across_registries(self, tmp_path):
        from repro.serve.registry import CorpusRegistry

        payload = b'{"a": {"b": [1, 2, 3]}}'
        first = CorpusRegistry(index_cache=tmp_path)
        corpus = first.register("doc", payload, format="json")
        eng = first.compile("$.a.b[*]", "jsonski", limits=None)
        indexed = corpus.indexed(eng)
        assert indexed.sidecar is not None and indexed.sidecar.exists()
        # A fresh registry (a restarted process) loads, not builds.
        second = CorpusRegistry(index_cache=tmp_path)
        corpus2 = second.register("doc", payload, format="json")
        indexed2 = corpus2.indexed(second.compile("$.a.b[*]", "jsonski", limits=None))
        assert indexed2.buffer.index.chunks_built == 0
        assert eng.run(indexed2).values() == [1, 2, 3]

    def test_parse_goes_through_shared_query_cache(self, monkeypatch):
        from repro.serve.registry import CorpusRegistry

        monkeypatch.setattr(prepared_mod, "QUERY_CACHE", CompiledQueryCache(maxsize=8))
        registry = CorpusRegistry()
        registry.parse("$.a.b")
        registry.parse("$.a.b")
        assert prepared_mod.QUERY_CACHE.stats()["hits"] >= 1
