"""Observability overhead smoke checks (``pytest -m perf_smoke``).

Asserts the structural no-op design actually holds: running an engine
built with the default ``NOOP_TRACER`` and no registry must stay within
noise of the pre-observability hot path.  Timing on shared machines is
jittery, so these are deselected by default (see ``addopts`` in
pyproject.toml) and non-blocking for CI — run them deliberately::

    PYTHONPATH=src pytest -m perf_smoke -q

The thresholds are generous (the ISSUE budget is <5% on the large-record
benchmark; we allow extra slack per-test because each sample here is
short) — a real regression, like an attribute lookup or dict build per
scanned value, shows up as 2x, not 1.05x.
"""

from __future__ import annotations

import gc
import statistics
import time
from operator import truediv

import pytest

from repro.data.datasets import large_record
from repro.engine import JsonSki

pytestmark = pytest.mark.perf_smoke


def _best_seconds(fn, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _interleaved_seconds(*calls, rounds: int) -> list[list[float]]:
    """Per-call times (one list per call) from ``rounds`` rounds that run
    every call back to back in this process, alternating the order so
    slow drift of the host cancels, with each round's results freed
    before the next round's clock starts.  A gate on the median of the
    per-round ratios reads the cost of a variant, not which process or
    minute it ran in."""
    seconds: list[list[float]] = [[] for _ in calls]
    for i in range(rounds):
        order = range(len(calls)) if i % 2 == 0 else reversed(range(len(calls)))
        results = []
        for j in order:
            t0 = time.perf_counter()
            results.append(calls[j]())
            seconds[j].append(time.perf_counter() - t0)
        del results
        gc.collect()
    return seconds


def test_noop_observability_overhead_fig10_style():
    """bench_fig10_large_record's BB1 cell, metrics-off vs pre-layer path.

    The comparison baseline is the same engine object exercised twice —
    both runs use the default no-op tracer and no registry, one built
    plainly and one built with every observability default spelled out.
    They must be indistinguishable (within 5% + timing noise floor).
    """
    data = large_record("BB", 300_000, seed=7)
    plain = JsonSki("$.pd[*].cp[1:3].id")
    spelled = JsonSki("$.pd[*].cp[1:3].id", collect_stats=False, tracer=None, metrics=None)
    plain.run(data)  # warm caches
    spelled.run(data)
    t_plain = _best_seconds(lambda: plain.run(data))
    t_spelled = _best_seconds(lambda: spelled.run(data))
    assert t_spelled <= t_plain * 1.05 + 0.005, (t_plain, t_spelled)


def test_default_guard_overhead_under_five_percent():
    """The default depth guard is one ``is not None`` branch plus an int
    compare per container entry; against the guards-off hot path it must
    stay under the 5% resilience budget (plus noise floor)."""
    from repro.resilience import Limits

    data = large_record("BB", 300_000, seed=7)
    unguarded = JsonSki("$.pd[*].cp[1:3].id", limits=Limits.unlimited())
    guarded = JsonSki("$.pd[*].cp[1:3].id")  # DEFAULT_LIMITS: depth guard on
    unguarded.run(data)  # warm caches
    guarded.run(data)
    t_off = _best_seconds(lambda: unguarded.run(data))
    t_on = _best_seconds(lambda: guarded.run(data))
    assert t_on <= t_off * 1.05 + 0.005, (t_off, t_on)


def test_checkpoint_overhead_under_five_percent(tmp_path):
    """``checkpoint_every=1000`` must stay within the 5% resilience budget
    of the plain record loop: one staged list append per record, and one
    json+fsync+rename commit amortized over every 1000 records.  Gated
    on the median over 21 interleaved plain/checkpointed rounds."""
    from repro.data.datasets import record_stream
    from repro.resilience import run_with_recovery

    stream = record_stream("TT", 300_000, seed=7)
    plain_engine = JsonSki("$.text")
    ckpt_engine = JsonSki("$.text")
    run_with_recovery(plain_engine, stream)  # warm caches
    plain, ckpt = _interleaved_seconds(
        lambda: run_with_recovery(plain_engine, stream),
        lambda: run_with_recovery(
            ckpt_engine, stream,
            checkpoint=tmp_path / "run.ckpt", checkpoint_every=1000,
        ),
        rounds=21,
    )
    # Each round's checkpointed time over its budget: 5% of the plain
    # loop plus the noise floor, which also covers the one commit's fsync.
    over = [c / (p * 1.05 + 0.005) for p, c in zip(plain, ckpt)]
    assert statistics.median(over) <= 1.0, (statistics.median(plain), statistics.median(ckpt))


def test_collect_stats_overhead_is_modest():
    """collect_stats touches counters per fast-forward, not per byte;
    its cost must stay a small fraction of the scan itself."""
    data = large_record("BB", 300_000, seed=7)
    off = JsonSki("$.pd[*].cp[1:3].id")
    on = JsonSki("$.pd[*].cp[1:3].id", collect_stats=True)
    off.run(data)
    on.run(data)
    t_off = _best_seconds(lambda: off.run(data))
    t_on = _best_seconds(lambda: on.run(data))
    assert t_on <= t_off * 1.5 + 0.005, (t_off, t_on)


def test_lenient_record_paths_stay_near_run_records():
    """``run_with_recovery`` and the single-worker pool take their record
    inputs from batched stage 1, as ``run_records`` does, so over the 10
    small-record queries each stays within 1.3x of ``run_records``: the
    median per-round ratio over 11 interleaved rounds per query.
    Per-record stage 1 measured about 2.7x.  Both lenient paths decode
    every value, so the reference does too (``.values()``); a lazy
    reference charges them for ``json.loads``, not for stage 1."""
    import repro
    from repro.data.datasets import DATASETS, record_stream
    from repro.parallel import run_records_pool_resilient
    from repro.resilience import run_with_recovery

    ratios: dict[str, list[float]] = {"run_with_recovery": [], "pool": []}
    queries = 0
    for name, spec in DATASETS.items():
        for query in (q.small for q in spec.queries if q.small):
            stream = record_stream(name, 200_000, seed=7)
            engine = repro.compile(query)
            engine.run_records(stream)  # warm caches
            base, recovery, pool = _interleaved_seconds(
                lambda: engine.run_records(stream).values(),
                lambda: run_with_recovery(engine, stream),
                lambda: run_records_pool_resilient(query, stream, n_workers=1),
                rounds=11,
            )
            ratios["run_with_recovery"] += map(truediv, recovery, base)
            ratios["pool"] += map(truediv, pool, base)
            queries += 1
    assert queries == 10
    medians = {k: statistics.median(v) for k, v in ratios.items()}
    assert all(ratio <= 1.3 for ratio in medians.values()), medians
