"""Pluggable sinks: where spans and metrics go once produced.

Three shippable destinations, one tiny protocol (``emit(record: dict)``
plus ``close()``):

- :class:`MemorySink` — a list, for tests and interactive inspection;
- :class:`JsonlSink` — one JSON object per line, append-friendly, the
  format ``--trace=FILE`` and ``--metrics=FILE`` write;
- :func:`render_prometheus` / :class:`PrometheusTextSink` — the
  Prometheus text exposition format (``# TYPE`` headers, label sets,
  cumulative ``_bucket{le=...}`` histogram lines) so a scrape endpoint
  can serve a registry verbatim.

:func:`metrics_document` is the canonical JSON summary the CLI emits:
the raw registry snapshot plus the derived headline numbers
(``bytes_skipped``, ``bytes_total``, ``ff_ratio`` per group) that
mirror :class:`repro.engine.stats.FastForwardStats`.
"""

from __future__ import annotations

import json
from typing import IO, Any

from repro.observe.metrics import MetricsRegistry


class MemorySink:
    """Collects emitted records in a list (tests, notebooks)."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class JsonlSink:
    """Writes each record as one JSON line to a file or file object."""

    def __init__(self, target: str | IO[str]) -> None:
        if isinstance(target, str):
            self._file: IO[str] = open(target, "a", encoding="utf-8")
            self._owned = True
        else:
            self._file = target
            self._owned = False

    def emit(self, record: dict) -> None:
        self._file.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        self._file.flush()
        if self._owned:
            self._file.close()


# ---------------------------------------------------------------------------
# Prometheus text exposition


def _prom_name(name: str, prefix: str) -> str:
    mangled = name.replace(".", "_").replace("-", "_")
    return f"{prefix}_{mangled}" if prefix else mangled


def _prom_labels(labels: tuple[tuple[str, str], ...], extra: dict[str, str] | None = None) -> str:
    pairs = list(labels) + sorted((extra or {}).items())
    if not pairs:
        return ""
    rendered = ",".join(
        '%s="%s"' % (k, str(v).replace("\\", "\\\\").replace('"', '\\"')) for k, v in pairs
    )
    return "{" + rendered + "}"


def _prom_float(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry, prefix: str = "repro") -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines: list[str] = []
    seen_types: set[str] = set()
    for counter in sorted(registry.counters(), key=lambda c: (c.name, c.labels)):
        name = _prom_name(counter.name, prefix)
        if name not in seen_types:
            lines.append(f"# TYPE {name} counter")
            seen_types.add(name)
        lines.append(f"{name}{_prom_labels(counter.labels)} {counter.value}")
    for hist in sorted(registry.histograms(), key=lambda h: (h.name, h.labels)):
        name = _prom_name(hist.name, prefix)
        if name not in seen_types:
            lines.append(f"# TYPE {name} histogram")
            seen_types.add(name)
        cumulative = 0
        for bound, count in zip((*hist.bounds, float("inf")), hist.bucket_counts):
            cumulative += count
            lines.append(
                f"{name}_bucket{_prom_labels(hist.labels, {'le': _prom_float(bound)})} {cumulative}"
            )
        lines.append(f"{name}_sum{_prom_labels(hist.labels)} {_prom_float(hist.total)}")
        lines.append(f"{name}_count{_prom_labels(hist.labels)} {hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")


class PrometheusTextSink:
    """Holds a registry and exposes it as Prometheus text on demand.

    Unlike the record-stream sinks this one is pull-shaped (Prometheus
    scrapes); ``emit`` accepts and ignores span records so a single sink
    object can be handed to both a tracer and a metrics consumer.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str = "repro") -> None:
        self.registry = registry
        self.prefix = prefix

    def emit(self, record: dict) -> None:
        pass

    def render(self) -> str:
        return render_prometheus(self.registry, self.prefix)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# JSON metrics document


def metrics_document(registry: MetricsRegistry, **extra: Any) -> dict:
    """The CLI's ``--metrics`` JSON document for one registry.

    Headline fields are derived from the fast-forward counters so they
    agree with :class:`repro.engine.stats.FastForwardStats` by
    construction: ``bytes_skipped`` is the sum of the per-group
    ``ff.skipped_bytes`` counters and ``bytes_total`` is
    ``ff.total_bytes``.
    """
    from repro.engine.stats import GROUPS

    groups = {g: registry.value("ff.skipped_bytes", group=g) for g in GROUPS}
    bytes_total = registry.value("ff.total_bytes")
    bytes_skipped = sum(groups.values())
    document = {
        "bytes_total": bytes_total,
        "bytes_skipped": bytes_skipped,
        "ff_ratio": (bytes_skipped / bytes_total) if bytes_total else 0.0,
        "ff_ratio_by_group": {
            g: (n / bytes_total) if bytes_total else 0.0 for g, n in groups.items()
        },
        "metrics": registry.as_dict(),
    }
    document.update(extra)
    return document
