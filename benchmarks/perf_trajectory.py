"""Record and gate the word-vs-vector performance trajectory.

This script is the repository's perf ledger for the two-stage hot path
(``docs/two-stage.md``).  It times every Table 5 query under both
JSONSki scanner modes — the paper-faithful word-at-a-time path
(``jsonski-word``) and the vectorized stage-1/stage-2 default
(``jsonski``) — and appends one JSON record per figure to
``BENCH_fig10.json`` (one large record per dataset) and
``BENCH_fig11.json`` (streams of small records).  Each record carries
raw best-of-N seconds plus the word/vector speedup ratio per query, so
the files accumulate a machine-comparable trajectory over the repo's
history: ratios, unlike absolute seconds, transfer across hosts.

Usage::

    PYTHONPATH=src python benchmarks/perf_trajectory.py            # measure + print
    PYTHONPATH=src python benchmarks/perf_trajectory.py --record   # ... and append
    PYTHONPATH=src python benchmarks/perf_trajectory.py --check    # gate vs last record

``--check`` is the CI regression gate: it fails (exit 1) if the
geometric-mean vector speedup of either figure regresses more than
``--tolerance`` (default 10%) against the most recent committed record,
or if any fig10 large-record flagship query falls below parity.

Two further scenario families ride in each record:

- **emission** — the output-heavy query pair (NSPL2, GMD2) timed over
  the *emission phase only* (the scan runs untimed, fresh per rep): the
  eager column decodes every match and re-encodes it (the pre-lazy emit
  path), the lazy column splices the raw slices
  (``MatchList.to_jsonl``).  The ratio is the on-demand-materialization
  win in isolation; ``--check`` requires it stays >=
  ``--emission-floor`` (default 1.3x).
- **warm_index** (fig10 only) — stage-1 cost with a cold build vs a
  sidecar load (:meth:`repro.engine.prepared.IndexedBuffer.load`) of a
  fixed 2 MB TT corpus, whatever ``--size`` the figures use, as 31
  cold/warm pairs interleaved in one process; ``--check`` requires the
  median per-pair warm/cold ratio stays at most ``--warm-fraction``
  (default 35%).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.harness.experiments import (
    DEFAULT_SIZE,
    all_queries,
    get_large,
    get_records,
    small_queries,
)
from repro.errors import InvariantError
from repro.harness.runner import make_engine, time_run, time_run_records

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = {10: REPO_ROOT / "BENCH_fig10.json", 11: REPO_ROOT / "BENCH_fig11.json"}

#: The large-record queries the tentpole promises >=2x on (the paper's
#: headline bars); ``--check`` additionally requires these stay >= 1.0.
FLAGSHIPS = ("TT1", "TT2", "BB1", "BB2", "GMD1")

WORD, VECTOR = "jsonski-word", "jsonski"


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def _git_head() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def measure_fig10(size: int, repeat: int) -> dict:
    queries = {}
    for name, q in all_queries():
        data = get_large(name, size)
        word_s, word_m = time_run(make_engine(WORD, q.large), data, repeat=repeat)
        vec_s, vec_m = time_run(make_engine(VECTOR, q.large), data, repeat=repeat)
        if len(word_m) != len(vec_m):
            raise InvariantError(
                f"{q.qid}: word found {len(word_m)} matches, vector {len(vec_m)}"
            )
        queries[q.qid] = {
            "word_s": round(word_s, 6),
            "vector_s": round(vec_s, 6),
            "ratio": round(word_s / vec_s, 4),
            "matches": len(word_m),
        }
    return queries


def measure_fig11(size: int, repeat: int) -> dict:
    queries = {}
    for name, q in small_queries():
        word_s, word_m = time_run_records(
            make_engine(WORD, q.small), get_records(name, size), repeat=repeat
        )
        vec_s, vec_m = time_run_records(
            make_engine(VECTOR, q.small), get_records(name, size), repeat=repeat
        )
        if len(word_m) != len(vec_m):
            raise InvariantError(
                f"{q.qid}: word found {len(word_m)} matches, vector {len(vec_m)}"
            )
        queries[q.qid] = {
            "word_s": round(word_s, 6),
            "vector_s": round(vec_s, 6),
            "ratio": round(word_s / vec_s, 4),
            "matches": len(word_m),
        }
    return queries


#: Low-skip, match-dense queries where serializing the output dominates
#: the scan — the scenario on-demand materialization targets.
EMISSION_QUERIES = ("NSPL2", "GMD2")


#: The warm-index cell's corpus size and pair count.  At 400 kB both
#: cells are under 2 ms and bimodal across processes, so their ratio
#: read process noise; 2 MB and a median of paired ratios do not.
WARM_INDEX_SIZE, WARM_INDEX_PAIRS = 2_000_000, 31


def _encode_values(matches) -> bytes:
    # The pre-lazy emission path: decode every match, re-encode compactly.
    return b"\n".join(
        json.dumps(v, separators=(",", ":")).encode() for v in matches.values()
    )


def measure_emission(fig: int, size: int, repeat: int) -> dict:
    """Eager (decode + re-encode) vs lazy (raw splice) emission cost.

    The scan itself runs *outside* the timer — a fresh (unmemoized)
    :class:`~repro.engine.output.MatchList` per rep — so the cell
    isolates the match-extraction phase the lazy views optimize, not the
    fast-forward win fig10/fig11 already track.
    """
    out = {}
    for name, q in (all_queries() if fig == 10 else small_queries()):
        if q.qid not in EMISSION_QUERIES:
            continue
        if fig == 10:
            data = get_large(name, size)
            engine = make_engine(VECTOR, q.large)
            fresh_run = lambda: engine.run(data)  # noqa: E731
        else:
            stream = get_records(name, size)
            engine = make_engine(VECTOR, q.small)
            fresh_run = lambda: engine.run_records(stream)  # noqa: E731
        eager_s = lazy_s = float("inf")
        n = 0
        for _ in range(repeat):
            matches = fresh_run()
            t0 = time.perf_counter()
            eager_out = _encode_values(matches)
            eager_s = min(eager_s, time.perf_counter() - t0)
            matches = fresh_run()
            t0 = time.perf_counter()
            lazy_out = matches.to_jsonl()
            lazy_s = min(lazy_s, time.perf_counter() - t0)
            n = matches.count()
            if len(eager_out.splitlines()) != len(lazy_out.splitlines()):
                raise InvariantError(
                    f"{q.qid}: eager and lazy emitted different line counts"
                )
        out[q.qid] = {
            "eager_s": round(eager_s, 6),
            "lazy_s": round(lazy_s, 6),
            "ratio": round(eager_s / lazy_s, 4),
            "matches": n,
        }
    return out


def measure_warm_index() -> dict:
    """Cold stage-1 build vs sidecar-backed warm load of the same corpus:
    the medians of :data:`WARM_INDEX_PAIRS` interleaved cold/warm pairs,
    each result freed before the next clock starts."""
    import tempfile

    from repro.engine.prepared import IndexedBuffer

    data = get_large("TT", WARM_INDEX_SIZE)
    colds, warms = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = IndexedBuffer(data).save(Path(tmp) / "tt.ridx")
        for _ in range(WARM_INDEX_PAIRS):
            t0 = time.perf_counter()
            built = IndexedBuffer(data).warm()
            t1 = time.perf_counter()
            loaded = IndexedBuffer.load(path, data)
            t2 = time.perf_counter()
            if loaded.buffer.index.chunks_built:
                raise InvariantError("sidecar load built chunks — cache not warm")
            del built, loaded
            colds.append(t1 - t0)
            warms.append(t2 - t1)
    return {
        "size": len(data),
        "pairs": WARM_INDEX_PAIRS,
        "cold_s": round(statistics.median(colds), 6),
        "warm_s": round(statistics.median(warms), 6),
        "warm_fraction": round(statistics.median(w / c for w, c in zip(warms, colds)), 4),
    }


def build_record(fig: int, size: int, repeat: int) -> dict:
    queries = measure_fig10(size, repeat) if fig == 10 else measure_fig11(size, repeat)
    emission = measure_emission(fig, size, repeat)
    record = {
        "figure": fig,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": _git_head(),
        "size": size,
        "repeat": repeat,
        "modes": {"word": WORD, "vector": VECTOR},
        "queries": queries,
        "geomean_ratio": round(_geomean([q["ratio"] for q in queries.values()]), 4),
        "emission": emission,
        "emission_geomean": round(_geomean([q["ratio"] for q in emission.values()]), 4),
    }
    if fig == 10:
        record["warm_index"] = measure_warm_index()
    return record


def load_trajectory(fig: int) -> list[dict]:
    path = BENCH_FILES[fig]
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def append_record(fig: int, record: dict) -> None:
    with BENCH_FILES[fig].open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def print_record(record: dict) -> None:
    fig = record["figure"]
    print(f"fig{fig} (size={record['size']}, best of {record['repeat']}):")
    for qid, cell in record["queries"].items():
        print(
            f"  {qid:7s} word {cell['word_s']:.4f}s  vector {cell['vector_s']:.4f}s"
            f"  ratio {cell['ratio']:.2f}x  ({cell['matches']} matches)"
        )
    print(f"  geomean vector speedup: {record['geomean_ratio']:.2f}x")
    for qid, cell in record.get("emission", {}).items():
        print(
            f"  {qid:7s} emit: eager {cell['eager_s']:.4f}s  lazy {cell['lazy_s']:.4f}s"
            f"  ratio {cell['ratio']:.2f}x  ({cell['matches']} matches)"
        )
    if record.get("emission"):
        print(f"  geomean lazy-emission speedup: {record['emission_geomean']:.2f}x")
    warm = record.get("warm_index")
    if warm:
        print(
            f"  warm index ({warm['size']} B, median of {warm['pairs']} pairs):"
            f" cold {warm['cold_s']:.4f}s  warm {warm['warm_s']:.4f}s"
            f"  ({warm['warm_fraction']:.1%} of cold)"
        )


def check_record(
    fig: int,
    record: dict,
    tolerance: float,
    emission_floor: float = 1.3,
    warm_fraction: float = 0.35,
) -> list[str]:
    """Compare a fresh measurement against the last committed record."""
    failures = []
    history = load_trajectory(fig)
    if history:
        baseline = history[-1]
        floor = baseline["geomean_ratio"] * (1.0 - tolerance)
        if record["geomean_ratio"] < floor:
            failures.append(
                f"fig{fig}: geomean vector speedup {record['geomean_ratio']:.2f}x regressed"
                f" more than {tolerance:.0%} below the recorded baseline"
                f" {baseline['geomean_ratio']:.2f}x (commit {baseline['commit']})"
            )
    else:
        failures.append(f"fig{fig}: no recorded baseline in {BENCH_FILES[fig].name}")
    if fig == 10:
        for qid in FLAGSHIPS:
            ratio = record["queries"][qid]["ratio"]
            if ratio < 1.0:
                failures.append(
                    f"fig10: flagship {qid} vector slower than word ({ratio:.2f}x)"
                )
    if record.get("emission") and record["emission_geomean"] < emission_floor:
        failures.append(
            f"fig{fig}: lazy emission speedup {record['emission_geomean']:.2f}x"
            f" below the {emission_floor:.2f}x floor on the low-skip pair"
        )
    warm = record.get("warm_index")
    if warm and warm["warm_fraction"] > warm_fraction:
        failures.append(
            f"fig{fig}: warm sidecar load costs {warm['warm_fraction']:.1%} of the"
            f" cold stage-1 build (gate: <= {warm_fraction:.0%})"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=DEFAULT_SIZE, help="bytes per dataset")
    parser.add_argument("--repeat", type=int, default=5, help="reps per cell (best-of)")
    parser.add_argument(
        "--figure", type=int, choices=(10, 11), default=None, help="limit to one figure"
    )
    parser.add_argument(
        "--record", action="store_true", help="append the measurement to BENCH_fig*.json"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail if the vector speedup regressed vs the last recorded baseline",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.10, help="allowed geomean regression (fraction)"
    )
    parser.add_argument(
        "--emission-floor", type=float, default=1.3,
        help="minimum lazy-vs-eager emission speedup on the low-skip pair",
    )
    parser.add_argument(
        "--warm-fraction", type=float, default=0.35,
        help="maximum warm sidecar load cost as a fraction of the cold build",
    )
    args = parser.parse_args(argv)

    figures = (args.figure,) if args.figure else (10, 11)
    failures: list[str] = []
    for fig in figures:
        record = build_record(fig, args.size, args.repeat)
        print_record(record)
        if args.check:
            failures.extend(
                check_record(fig, record, args.tolerance,
                             emission_floor=args.emission_floor,
                             warm_fraction=args.warm_fraction)
            )
        if args.record:
            append_record(fig, record)
            print(f"  appended to {BENCH_FILES[fig].name}")
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
