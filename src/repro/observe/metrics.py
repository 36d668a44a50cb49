"""Counters, histograms, and the registry that holds them.

The registry is the single accumulation point for every number the
engines can report: bytes scanned vs. bytes skipped per fast-forward
group (the Table 6 ratios), words classified and chunks cached/evicted
by the structural index, scanner primitive call counts, matches emitted,
records processed.  It is deliberately zero-dependency and cheap:
metrics are plain Python ints behind a method call, created once and
held by reference on hot paths so that per-event cost is one attribute
lookup and one locked integer add.

One registry is routinely visible to several threads at once — the
serve loop labels requests while executor threads run engines into the
same instruments, and pool results merge back in — so every mutation
(``add``/``set``/``observe``, get-or-create, ``merge``) takes the
instrument's ``threading.Lock``.  ``x += 1`` is three bytecodes; the
GIL does not make it atomic, and the lost updates are real
(tests/test_concurrency_races.py).  The locks are uncontended in
single-threaded runs.

Instruments are identified by a dotted name plus optional labels
(``registry.counter("ff.skipped_bytes", group="G1")``); the
``(name, labels)`` pair is the merge key, which is what lets per-worker
registries from parallel execution collapse into one
(:meth:`MetricsRegistry.merge` / :meth:`MetricsRegistry.merge_dict`).
"""

from __future__ import annotations

import threading
from typing import Iterator

#: Default histogram bucket upper bounds (seconds-oriented, exponential).
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically *usable* integer metric (``set`` exists for the
    few gauge-like values such as ``ff.total_bytes``)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = threading.Lock()

    def add(self, n: int = 1) -> None:
        with self._lock:
            self.value += n

    def set(self, value: int) -> None:
        with self._lock:
            self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {dict(self.labels)!r}, value={self.value})"


class Histogram:
    """Fixed-bucket distribution: count, sum, min, max, per-bucket tallies.

    ``bounds`` are the inclusive upper edges of each bucket; observations
    above the last bound land in the implicit overflow (``+Inf``) bucket,
    matching Prometheus histogram semantics.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "total",
                 "min", "max", "_lock")

    def __init__(self, name: str, labels: LabelKey = (), bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +Inf overflow last
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ "
                f"({self.bounds} vs {other.bounds})"
            )
        with self._lock:
            self.count += other.count
            self.total += other.total
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
            for i, n in enumerate(other.bucket_counts):
                self.bucket_counts[i] += n


class MetricsRegistry:
    """All counters and histograms of one observed execution context.

    Each engine run, worker, or process accumulates into its own
    registry; registries merge losslessly, so a fleet of workers reduces
    to the same numbers a serial run would have produced.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        self._lock = threading.Lock()

    # -- instrument access -------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        """Get-or-create the counter ``name`` with ``labels``."""
        key = (name, _label_key(labels))
        found = self._counters.get(key)
        if found is None:
            # Get-or-create races another thread's identical first
            # touch; without the lock both would insert and one side's
            # handle would silently accumulate into a lost instrument.
            with self._lock:
                found = self._counters.get(key)
                if found is None:
                    found = self._counters[key] = Counter(name, key[1])
        return found

    def histogram(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS, **labels: str) -> Histogram:
        """Get-or-create the histogram ``name`` with ``labels``."""
        key = (name, _label_key(labels))
        found = self._histograms.get(key)
        if found is None:
            with self._lock:
                found = self._histograms.get(key)
                if found is None:
                    found = self._histograms[key] = Histogram(name, key[1], bounds)
        return found

    def value(self, name: str, **labels: str) -> int:
        """Current value of a counter (0 if it was never touched)."""
        found = self._counters.get((name, _label_key(labels)))
        return found.value if found is not None else 0

    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def histograms(self) -> Iterator[Histogram]:
        return iter(self._histograms.values())

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)

    # -- merge / snapshot --------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Accumulate another registry (e.g. one worker's) into this one."""
        for (name, labels), counter in other._counters.items():
            with self._lock:
                mine = self._counters.setdefault((name, labels), Counter(name, labels))
            mine.add(counter.value)
        for (name, labels), hist in other._histograms.items():
            with self._lock:
                mine = self._histograms.get((name, labels))
                if mine is None:
                    mine = self._histograms[(name, labels)] = Histogram(name, labels, hist.bounds)
            mine.merge(hist)

    def as_dict(self) -> dict:
        """JSON/pickle-able snapshot (the cross-process wire format)."""
        return {
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in self._counters.values()
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "bounds": list(h.bounds),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count,
                    "total": h.total,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                }
                for h in self._histograms.values()
            ],
        }

    def merge_dict(self, snapshot: dict) -> None:
        """Merge an :meth:`as_dict` snapshot (from another process)."""
        for entry in snapshot.get("counters", ()):
            self.counter(entry["name"], **entry["labels"]).add(entry["value"])
        for entry in snapshot.get("histograms", ()):
            hist = self.histogram(entry["name"], bounds=tuple(entry["bounds"]), **entry["labels"])
            incoming = Histogram(entry["name"], hist.labels, tuple(entry["bounds"]))
            incoming.bucket_counts = list(entry["bucket_counts"])
            incoming.count = entry["count"]
            incoming.total = entry["total"]
            incoming.min = entry["min"] if entry["min"] is not None else float("inf")
            incoming.max = entry["max"] if entry["max"] is not None else float("-inf")
            hist.merge(incoming)

    @classmethod
    def from_dict(cls, snapshot: dict) -> "MetricsRegistry":
        registry = cls()
        registry.merge_dict(snapshot)
        return registry
