"""Deterministic benchmark inputs, their fingerprints and oracle counts.

Every input is built from the public ``DATASETS[name].unit(rng, i)``
generators with a ``random.Random`` seeded from ``zlib.crc32`` of the
dataset name and the input variant, so the bytes are the same in every
process whatever ``PYTHONHASHSEED`` is.  The workload seed picks one of
:data:`VARIANTS` input variants (``seed % VARIANTS``) for the library
workloads; serve-mix keeps its small corpora fixed and uses the seed to
order its requests.

``pinned.json`` records, per variant, each input's CRC32 and length and
each query's oracle match count, plus the serve-mix offered rate.  A run
whose inputs or oracle counts differ from it refuses to report.
Regenerate it after a deliberate generator change with::

    PYTHONPATH=src python3 perfbench/inputs.py
"""

from __future__ import annotations

import json
import random
import zlib
from pathlib import Path

from repro.data.datasets import DATASETS

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"

VARIANTS = 4
DOC_BYTES = 2_000_000  # spans two 1 MiB index chunks
RECORDS_BYTES = 500_000
NSPL_COLUMNS = 44

#: (qid, dataset, query) for the 12 Table 5 queries over one large record.
DOC_QUERIES = [(q.qid, name, q.large) for name, spec in DATASETS.items() for q in spec.queries]
#: The 10 queries that apply to small records (NSPL1 and WP2 do not).
RECORD_QUERIES = [
    (q.qid, name, q.small) for name, spec in DATASETS.items() for q in spec.queries if q.small
]

#: serve-mix corpora: name -> (dataset, kind, target bytes).  ``doc`` is
#: served as one JSON document, the feeds as NDJSON.
SERVE_CORPORA = {
    "doc": ("WM", "doc", 500_000),
    "tt": ("TT", "ndjson", 40_000),
    "bb": ("BB", "ndjson", 40_000),
}
#: serve-mix request classes: (class, corpus, query, weight).  Weights put
#: the median inside the ``tt`` class and p90 inside the ``bb`` class.
SERVE_CLASSES = [
    ("doc-sparse", "doc", "$.it[*].bmrpr.pr", 3),
    ("tt-text", "tt", "$.text", 5),
    ("bb-cat", "bb", "$.cp[1:3].id", 2),
]


def variant(seed: int) -> int:
    return seed % VARIANTS


def _rng(name: str, kind: str, var: int) -> random.Random:
    return random.Random(zlib.crc32(f"{name}/{kind}".encode()) * VARIANTS + var)


def units(name: str, kind: str, target: int, var: int) -> list[bytes]:
    """Serialized record units of ``name`` until ``target`` bytes."""
    spec = DATASETS[name]
    rng = _rng(name, kind, var)
    out: list[bytes] = []
    total = 0
    while total < target:
        text = json.dumps(spec.unit(rng, len(out)), separators=(",", ":")).encode()
        out.append(text)
        total += len(text) + 1
    return out


def document(name: str, target: int, var: int) -> bytes:
    """One large record in the dataset's Table 4 layout."""
    body = b",".join(units(name, "doc", target, var))
    if name == "NSPL":
        columns = ",".join(f'{{"id":{k},"nm":"C{k}"}}' for k in range(NSPL_COLUMNS))
        return b'{"mt":{"vw":{"co":[' + columns.encode() + b']}},"dt":[' + body + b"]}"
    root_key = DATASETS[name].root_key
    if root_key is not None:
        return b'{"%s":[' % root_key.encode() + body + b"]}"
    return b"[" + body + b"]"


def ndjson(name: str, target: int, var: int) -> bytes:
    """The same kind of units as newline-delimited small records."""
    records = units(name, "ndjson", target, var)
    if name == "NSPL":
        records = [b'{"dt":' + unit + b"}" for unit in records]
    return b"\n".join(records) + b"\n"


def fingerprint(data: bytes) -> str:
    """``<crc32 hex>/<length>``."""
    return f"{zlib.crc32(data):08x}/{len(data)}"


def workload_inputs(workload: str, var: int) -> dict[str, bytes]:
    """Input name -> bytes for one workload and variant."""
    if workload in ("doc-scan", "doc-resumable"):
        return {name: document(name, DOC_BYTES, var) for name in DATASETS}
    if workload == "records-scan":
        return {name: ndjson(name, RECORDS_BYTES, var) for name in DATASETS}
    if workload == "serve-mix":
        # The corpora are small, so one variant's content can cost 10%
        # more than another's: they stay fixed, and the seed only shuffles
        # the request order.
        return {
            corpus: (document if kind == "doc" else ndjson)(name, size, 0)
            for corpus, (name, kind, size) in SERVE_CORPORA.items()
        }
    raise ValueError(f"unknown workload {workload!r}")


def is_ndjson(workload: str, name: str) -> bool:
    """Whether input ``name`` of ``workload`` is a stream of small records."""
    if workload == "serve-mix":
        return SERVE_CORPORA[name][1] == "ndjson"
    return workload == "records-scan"


def oracle(query: str, data: bytes, framed: bool) -> list:
    """Reference values: the whole document, or record by record."""
    from repro import evaluate_bytes

    if not framed:
        return evaluate_bytes(query, data)
    return [v for line in data.splitlines() if line.strip() for v in evaluate_bytes(query, line)]


def workload_queries(workload: str) -> list[tuple[str, str, str]]:
    """(query id, input name, query text) in the fixed run order."""
    if workload in ("doc-scan", "doc-resumable"):
        return DOC_QUERIES
    if workload == "records-scan":
        return RECORD_QUERIES
    return [(cls, corpus, query) for cls, corpus, query, _ in SERVE_CLASSES]


def expected_fingerprints(workload: str, var: int, inputs: dict[str, bytes],
                          counts: dict[str, int]) -> list[str]:
    """Differences between this run's inputs/oracle counts and
    ``pinned.json`` (empty when everything matches)."""
    pinned = json.loads(PINNED.read_text())
    entry = pinned["workloads"][workload][str(var)]
    problems = []
    for name, data in inputs.items():
        if entry["inputs"].get(name) != fingerprint(data):
            problems.append(f"input {name}: {fingerprint(data)} != pinned {entry['inputs'].get(name)}")
    for qid, count in counts.items():
        if entry["matches"].get(qid) != count:
            problems.append(f"query {qid}: {count} matches != pinned {entry['matches'].get(qid)}")
    return problems


def _pin_all() -> dict:
    workloads: dict = {}
    for workload in ("doc-scan", "doc-resumable", "records-scan", "serve-mix"):
        per_variant = {}
        for var in range(VARIANTS):
            inputs = workload_inputs(workload, var)
            matches = {
                qid: len(oracle(query, inputs[name], is_ndjson(workload, name)))
                for qid, name, query in workload_queries(workload)
            }
            per_variant[str(var)] = {
                "inputs": {name: fingerprint(data) for name, data in inputs.items()},
                "matches": matches,
            }
        workloads[workload] = per_variant
    previous = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    return {"serve_rate_rps": previous.get("serve_rate_rps"), "workloads": workloads}


if __name__ == "__main__":
    PINNED.write_text(json.dumps(_pin_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")
