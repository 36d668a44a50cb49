"""Recording independence of the stage-2 member loops (vector mode).

The member loops take different branches depending on what a run
records: statistics and the fast-forward log call ``_record``, tracked
paths and ``JsonSkiMulti`` go through ``_emit``/``_reserve``/``_fill``
and ``_descend``, and a plain run appends its matches directly.  None of
that may change what a run finds.  For each Table 5 query, over its
dataset's record compact and with whitespace around every token, seeded
mutations of both (:func:`repro.resilience.corpus`) and stray-byte
inserts, the outcomes of ``run()``, ``collect_stats=True``,
``trace_run()``, ``run_with_paths()`` and ``JsonSkiMulti([q])`` must be
identical: the same match spans, or the same error class, message and
position.  On well-formed inputs the matches must also equal the
reference oracle, and a traced run's log must sum to its statistics.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import JsonSki, JsonSkiMulti
from repro.data.datasets import DATASETS, large_record
from repro.engine.stats import GROUPS
from repro.errors import ReproError
from repro.reference import evaluate_bytes
from repro.resilience import corpus

#: The stray bytes of ``tests/test_suspend.py``'s differential: each one
#: shifts the string parity, escape state or depth of what follows.
STRAY_BYTES = b'"\\{]'


def _inputs(name: str) -> list[bytes]:
    compact = large_record(name, 6_000, seed=4)
    # Whitespace before every delimiter and after every token: primitives
    # end in whitespace that a match must not include.
    spaced = json.dumps(json.loads(compact), indent=1, separators=(" , ", " : ")).encode()
    inputs = [compact, spaced]
    inputs += [m.data for m in corpus([compact, spaced], 40, seed=7)]
    rng = random.Random(f"recording-{name}")
    for base in (compact, spaced):
        for _ in range(10):
            at = rng.randrange(len(base))
            inputs.append(base[:at] + bytes([rng.choice(STRAY_BYTES)]) + base[at:])
    return inputs


def _outcome(compute):
    """Match spans, or the error's class, message and position."""
    try:
        return ("ok", compute())
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc), getattr(exc, "position", None))


def _spans(matches) -> list[tuple[int, int]]:
    return [(m.start, m.end) for m in matches]


def _traced(query: str, data: bytes):
    engine = JsonSki(query, collect_stats=True)
    matches, events = engine.trace_run(data)
    logged = dict.fromkeys(GROUPS, 0)
    for group, start, end in events:
        logged[group] += end - start
    assert logged == {g: engine.last_stats.chars[g] for g in GROUPS}, query
    return _spans(matches)


VIEWS = {
    "run": lambda q, d: _spans(JsonSki(q).run(d)),
    "collect_stats": lambda q, d: _spans(JsonSki(q, collect_stats=True).run(d)),
    "trace_run": _traced,
    "run_with_paths": lambda q, d: [(m.start, m.end) for _, m in JsonSki(q).run_with_paths(d)],
    "multi": lambda q, d: _spans(JsonSkiMulti([q]).run(d)[0]),
}


@pytest.mark.fuzz_smoke
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_views_agree_whatever_the_run_records(name):
    queries = [spec.large for spec in DATASETS[name].queries]
    for i, data in enumerate(_inputs(name)):
        for query in queries:
            outcomes = {view: _outcome(lambda: fn(query, data)) for view, fn in VIEWS.items()}
            expected = outcomes["run"]
            for view, got in outcomes.items():
                assert got == expected, f"{view} differs from run(): {name} input {i} {query!r}"
            try:
                oracle = evaluate_bytes(query, data)
            except (ValueError, RecursionError):
                # Not well-formed, or nested past the decoder: the views
                # agreeing is the contract.
                continue
            assert expected[0] == "ok", (name, i, query, expected)
            assert [json.loads(data[s:e]) for s, e in expected[1]] == oracle, (name, i, query)
