"""One function per paper table/figure (the per-experiment index of
DESIGN.md maps each to its benchmark module).

Every function returns ``(title, headers, rows)`` ready for
:func:`repro.harness.tables.render_table`, plus enough structure for the
benchmark asserts.  Input sizes default to ``REPRO_BENCH_SIZE`` bytes
(the paper uses 1 GB; the pure-Python baselines are ~10^3 slower than
their C++ namesakes, so the default is MB-scale — shapes, not absolute
seconds, are the reproduction target).
"""

from __future__ import annotations

import os
from functools import lru_cache

from repro.data.datasets import DATASETS, QuerySpec, large_record, record_stream
from repro.data.stats import structural_stats
from repro.engine import JsonSki
from repro.engine.stats import GROUPS
from repro.errors import RecordTooLargeError
from repro.harness.memory import measure_engine_peak
from repro.harness.runner import METHOD_LABELS, make_engine, time_run, time_run_records
from repro.harness.tables import format_bytes, format_ratio
from repro.parallel import parallel_records_run, speculative_large_run
from repro.stream.records import RecordStream

DEFAULT_SIZE = int(os.environ.get("REPRO_BENCH_SIZE", "400000"))
DEFAULT_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "16"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))

#: The paper's Figure 10/11 method order.
SERIAL_METHODS = ("jpstream", "rapidjson", "simdjson", "pison", "jsonski")
#: Path to each dataset's top-level unit array (speculation axis).
ARRAY_PATHS = {"TT": "$", "BB": "$.pd", "GMD": "$", "NSPL": "$.dt", "WM": "$.it", "WP": "$"}


def all_queries() -> list[tuple[str, QuerySpec]]:
    """The twelve Table 5 queries as ``(dataset, spec)`` pairs."""
    return [(name, q) for name, spec in DATASETS.items() for q in spec.queries]


@lru_cache(maxsize=16)
def get_large(name: str, size: int) -> bytes:
    return large_record(name, size, seed=SEED)


@lru_cache(maxsize=16)
def get_records(name: str, size: int) -> RecordStream:
    return record_stream(name, size, seed=SEED)


# ---------------------------------------------------------------------------
# Table 4 — dataset statistics


def exp_table4(size: int = DEFAULT_SIZE):
    title = f"Table 4: dataset statistics (target {format_bytes(size)} per dataset)"
    headers = ["Data", "#objects", "#arrays", "#attr", "#prim", "#sub", "depth"]
    rows = []
    for name in DATASETS:
        stats = structural_stats(get_large(name, size))
        n_sub = len(get_records(name, size))
        rows.append([name, stats.n_objects, stats.n_arrays, stats.n_attributes,
                     stats.n_primitives, n_sub, stats.depth])
    return title, headers, rows


# ---------------------------------------------------------------------------
# Table 5 — queries and match counts


def exp_table5(size: int = DEFAULT_SIZE):
    title = f"Table 5: JSONPath queries ({format_bytes(size)} inputs)"
    headers = ["ID", "Query structure", "#matches"]
    rows = []
    for name, q in all_queries():
        matches = JsonSki(q.large).run(get_large(name, size))
        rows.append([q.qid, q.large, len(matches)])
    return title, headers, rows


# ---------------------------------------------------------------------------
# Figure 10 — single large record, total execution time


def exp_fig10(size: int = DEFAULT_SIZE, workers: int = DEFAULT_WORKERS, repeat: int = 1):
    title = f"Figure 10: single large record, execution time in seconds ({format_bytes(size)})"
    headers = ["Query", *[METHOD_LABELS[m] for m in SERIAL_METHODS],
               f"JPStream({workers})", f"Pison({workers})"]
    rows = []
    for name, q in all_queries():
        data = get_large(name, size)
        row: list[object] = [q.qid]
        expected = None
        for method in SERIAL_METHODS:
            seconds, matches = time_run(make_engine(method, q.large), data, repeat=repeat)
            if expected is None:
                expected = len(matches)
            elif len(matches) != expected:
                raise AssertionError(f"{method} disagrees on {q.qid}: {len(matches)} vs {expected}")
            row.append(seconds)
        for method in ("jpstream", "pison"):
            result = speculative_large_run(
                lambda p, m=method: make_engine(m, p), data, q.large, ARRAY_PATHS[name], workers
            )
            if len(result.matches) != expected:
                raise AssertionError(f"{method}({workers}) disagrees on {q.qid}")
            row.append(result.wall_seconds)
        rows.append(row)
    return title, headers, rows


# ---------------------------------------------------------------------------
# Figure 11 — small records, sequential


def small_queries() -> list[tuple[str, QuerySpec]]:
    """The Table 5 queries applicable to small records (the paper
    excludes NSPL1 and WP2 from this scenario)."""
    return [(name, q) for name, q in all_queries() if q.small is not None]


def exp_fig11(size: int = DEFAULT_SIZE, repeat: int = 1):
    title = f"Figure 11: small records, sequential execution time in seconds ({format_bytes(size)})"
    headers = ["Query", *[METHOD_LABELS[m] for m in SERIAL_METHODS]]
    rows = []
    for name, q in small_queries():
        stream = get_records(name, size)
        row: list[object] = [q.qid]
        expected = None
        for method in SERIAL_METHODS:
            seconds, matches = time_run_records(make_engine(method, q.small), stream, repeat=repeat)
            if expected is None:
                expected = len(matches)
            elif len(matches) != expected:
                raise AssertionError(f"{method} disagrees on {q.qid} (small)")
            row.append(seconds)
        rows.append(row)
    return title, headers, rows


# ---------------------------------------------------------------------------
# Figure 12 — small records, parallel (simulated workers)


def exp_fig12(size: int = DEFAULT_SIZE, workers: int = DEFAULT_WORKERS):
    title = (
        f"Figure 12: small records, {workers} simulated workers "
        f"(wall seconds; speedup vs own serial)"
    )
    headers = ["Query", *[f"{METHOD_LABELS[m]}" for m in SERIAL_METHODS],
               *[f"{METHOD_LABELS[m]} spdup" for m in SERIAL_METHODS]]
    rows = []
    for name, q in small_queries():
        stream = get_records(name, size)
        walls: list[float] = []
        speedups: list[float] = []
        for method in SERIAL_METHODS:
            result = parallel_records_run(make_engine(method, q.small), stream, workers)
            walls.append(result.wall_seconds)
            speedups.append(result.speedup)
        rows.append([q.qid, *walls, *[round(s, 1) for s in speedups]])
    return title, headers, rows


# ---------------------------------------------------------------------------
# Figure 13 — memory footprint


#: Streaming engines are measured in their bounded-memory configuration
#: (the paper: "their memory consumption is actually configurable by
#: adjusting the input buffer size"); 64 KiB chunks, 2-chunk LRU.
STREAM_CHUNK = 1 << 16


def _memory_engine(method: str, query: str):
    if method in ("jsonski", "jsonski-word"):
        mode = "word" if method.endswith("word") else "vector"
        return JsonSki(query, mode=mode, chunk_size=STREAM_CHUNK, cache_chunks=2)
    return make_engine(method, query)


def exp_fig13(size: int = DEFAULT_SIZE):
    title = (
        f"Figure 13: peak auxiliary memory on a large record "
        f"({format_bytes(size)} input; input buffer excluded; "
        f"streaming methods use a {format_bytes(STREAM_CHUNK)} buffer)"
    )
    headers = ["Query", *[METHOD_LABELS[m] for m in SERIAL_METHODS]]
    rows = []
    for name, q in all_queries()[::2]:  # one query per dataset suffices
        data = get_large(name, size)
        row: list[object] = [q.qid]
        for method in SERIAL_METHODS:
            _, peak = measure_engine_peak(_memory_engine(method, q.large), data)
            row.append(format_bytes(peak))
        rows.append(row)
    return title, headers, rows


# ---------------------------------------------------------------------------
# Figure 14 — scalability with input size (BB1)


def exp_fig14(sizes: tuple[int, ...] | None = None, simdjson_cap: int | None = None, repeat: int = 1):
    if sizes is None:
        base = max(DEFAULT_SIZE // 2, 1 << 16)
        sizes = tuple(base * (2**k) for k in range(4))
    if simdjson_cap is None:
        # Scaled stand-in for simdjson's 4 GB single-record limit: the cap
        # sits inside the sweep so the failure mode is exercised.
        simdjson_cap = sizes[-1] // 2
    title = "Figure 14: scalability on BB1 (seconds vs input size; 'cap' = record too large)"
    headers = ["bytes", *[METHOD_LABELS[m] for m in SERIAL_METHODS]]
    rows = []
    for size in sizes:
        data = get_large("BB", size)
        row: list[object] = [len(data)]
        for method in SERIAL_METHODS:
            engine = make_engine(method, "$.pd[*].cp[1:3].id")
            if method == "simdjson":
                engine.max_record_bytes = simdjson_cap
            try:
                seconds, _ = time_run(engine, data, repeat=repeat)
                row.append(seconds)
            except RecordTooLargeError:
                row.append("cap")
        rows.append(row)
    return title, headers, rows


# ---------------------------------------------------------------------------
# Table 6 — fast-forward ratios by group


def exp_table6(size: int = DEFAULT_SIZE):
    title = f"Table 6: fast-forward ratios by function group ({format_bytes(size)})"
    headers = ["Query", *GROUPS, "Overall"]
    rows = []
    for name, q in all_queries():
        engine = JsonSki(q.large, collect_stats=True)
        engine.run(get_large(name, size))
        stats = engine.last_stats
        assert stats is not None
        row = stats.as_row()
        rows.append([q.qid, *[format_ratio(row[g]) for g in GROUPS], format_ratio(row["Overall"])])
    return title, headers, rows


def exp_table6_compare(size: int = DEFAULT_SIZE):
    """Table 6 side by side with the paper's reported ratios."""
    from repro.paperdata import PAPER_TABLE6, dominant_groups

    title = f"Table 6 (paper vs measured): overall ratio and dominant groups ({format_bytes(size)})"
    headers = ["Query", "paper overall", "ours overall", "paper dominant", "ours dominant", "agree"]
    rows = []
    for name, q in all_queries():
        engine = JsonSki(q.large, collect_stats=True)
        engine.run(get_large(name, size))
        stats = engine.last_stats
        assert stats is not None
        row = stats.as_row()
        ours_dom = tuple(g for g in GROUPS if row[g] > 0.05)
        paper_dom = dominant_groups(q.qid)
        paper_overall = PAPER_TABLE6[q.qid][5]
        overlap = bool(set(ours_dom) & set(paper_dom)) or (not ours_dom and not paper_dom)
        rows.append([
            q.qid,
            format_ratio(paper_overall),
            format_ratio(row["Overall"]),
            "+".join(paper_dom) or "-",
            "+".join(ours_dom) or "-",
            "yes" if overlap else "NO",
        ])
    return title, headers, rows


def exp_fig10_compare(size: int = DEFAULT_SIZE, repeat: int = 1):
    """Figure 10 headline speedups vs the paper's (Section 5.2)."""
    from repro.paperdata import PAPER_FIG10_SPEEDUPS

    title = f"Figure 10 headline speedups of JSONSki (paper vs measured, {format_bytes(size)})"
    headers = ["vs method", "paper", "measured"]
    totals: dict[str, float] = {}
    for name, q in all_queries():
        data = get_large(name, size)
        for method in ("jpstream", "simdjson", "pison", "jsonski"):
            seconds, _ = time_run(make_engine(method, q.large), data, repeat=repeat)
            totals[method] = totals.get(method, 0.0) + seconds
    rows = [
        [METHOD_LABELS[m], f"{PAPER_FIG10_SPEEDUPS[m]}x", f"{totals[m] / totals['jsonski']:.1f}x"]
        for m in ("jpstream", "simdjson", "pison")
    ]
    return title, headers, rows


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)


def exp_ablation_fastforward(size: int = DEFAULT_SIZE, repeat: int = 1):
    title = f"Ablation A1: fast-forward on (JSONSki) vs off (Algorithm 1 RDS) ({format_bytes(size)})"
    headers = ["Query", "RDS(no-FF)", "JSONSki", "speedup"]
    rows = []
    for name, q in all_queries():
        data = get_large(name, size)
        t_rds, m1 = time_run(make_engine("rds", q.large), data, repeat=repeat)
        t_ski, m2 = time_run(make_engine("jsonski", q.large), data, repeat=repeat)
        assert len(m1) == len(m2)
        rows.append([q.qid, t_rds, t_ski, round(t_rds / t_ski, 1) if t_ski > 0 else float("inf")])
    return title, headers, rows


def exp_ablation_scanner(size: int = DEFAULT_SIZE, repeat: int = 1):
    title = f"Ablation A2: vectorized vs word-at-a-time scanner ({format_bytes(size)})"
    headers = ["Query", "JSONSki(vector)", "JSONSki(word)", "vector speedup"]
    rows = []
    for name, q in all_queries():
        data = get_large(name, size)
        t_vec, m1 = time_run(make_engine("jsonski", q.large), data, repeat=repeat)
        t_word, m2 = time_run(make_engine("jsonski-word", q.large), data, repeat=repeat)
        assert len(m1) == len(m2)
        rows.append([q.qid, t_vec, t_word, round(t_word / t_vec, 1) if t_vec > 0 else float("inf")])
    return title, headers, rows


def exp_ablation_chunksize(size: int = DEFAULT_SIZE, chunk_sizes: tuple[int, ...] = (1 << 12, 1 << 14, 1 << 16, 1 << 18), repeat: int = 1):
    title = f"Ablation A3: index chunk-size sensitivity, BB1 ({format_bytes(size)})"
    headers = ["chunk bytes", "seconds"]
    data = get_large("BB", size)
    rows = []
    for chunk in chunk_sizes:
        engine = JsonSki("$.pd[*].cp[1:3].id", chunk_size=chunk)
        seconds, _ = time_run(engine, data, repeat=repeat)
        rows.append([chunk, seconds])
    return title, headers, rows


# ---------------------------------------------------------------------------
# Observability: registry counters per query


def exp_metrics(size: int = DEFAULT_SIZE):
    """Engine counters per Table 5 query, through the metrics registry.

    The same facts Table 6 reports as ratios, plus the internals the
    observability layer exposes: structural-index work (chunks built and
    evicted, 64-bit words classified), scanner primitive calls, and
    matches emitted — one registry per query, fully from counters.
    """
    from repro.observe import MetricsRegistry

    title = f"Observability: engine counters per query ({format_bytes(size)})"
    headers = ["Query", "bytes", "skipped", "ff%", "chunks", "evicted", "words", "scans", "matches"]
    rows = []
    for name, q in all_queries():
        registry = MetricsRegistry()
        engine = JsonSki(q.large, metrics=registry)
        engine.run(get_large(name, size))
        total = registry.value("ff.total_bytes")
        skipped = sum(registry.value("ff.skipped_bytes", group=g) for g in GROUPS)
        scans = sum(c.value for c in registry.counters() if c.name == "scanner.calls")
        rows.append([
            q.qid,
            total,
            skipped,
            format_ratio(skipped / total if total else 0.0),
            registry.value("index.chunks_built"),
            registry.value("index.chunks_evicted"),
            registry.value("index.words_classified"),
            scans,
            registry.value("engine.matches"),
        ])
    return title, headers, rows
