"""Query/data advisor: how well will fast-forwarding work *here*?

Combines the static plan (:func:`repro.query.explain.explain`) with a
measured probe run (fast-forward ratios, trace) over a sample of the
caller's actual data — answering the practical question the paper's
Table 6 answers for its datasets: *which groups fire, and how much of
the stream do they skip?*

>>> from repro.analysis import analyze
>>> report = analyze(b'{"a": {"b": 1}, "big": [1,2,3,4]}', "$.a.b")
>>> 0 <= report.overall_ratio <= 1
True
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.jsonski import JsonSki
from repro.engine.stats import GROUPS
from repro.jsonpath.ast import Path
from repro.query.explain import QueryPlan, explain


@dataclass(frozen=True)
class AnalysisReport:
    """Static plan + measured fast-forward behaviour on a data sample."""

    query: str
    plan: QueryPlan
    sample_bytes: int
    n_matches: int
    ratios: dict[str, float]
    overall_ratio: float
    #: Number of individual fast-forward jumps the probe performed.
    n_events: int
    #: Mean jump length in bytes (long jumps amortize per-call cost).
    mean_jump: float

    def describe(self) -> str:
        lines = [self.plan.describe(), ""]
        lines.append(
            f"probe: {self.sample_bytes} bytes, {self.n_matches} matches, "
            f"{self.overall_ratio:.1%} fast-forwarded in {self.n_events} jumps "
            f"(mean jump {self.mean_jump:.0f} bytes)"
        )
        active = [f"{g}={self.ratios[g]:.1%}" for g in GROUPS if self.ratios[g] > 0.001]
        if active:
            lines.append("group breakdown: " + ", ".join(active))
        lines.append("assessment: " + self.assessment())
        return "\n".join(lines)

    def assessment(self) -> str:
        """One-line verdict in the vocabulary of the paper's Section 5.3."""
        if self.overall_ratio >= 0.9:
            detail = "streaming with fast-forwarding fits this workload well"
        elif self.overall_ratio >= 0.5:
            detail = "moderate skipping; expect a smaller edge over detailed streaming"
        else:
            detail = (
                "little to skip (the query touches most of the stream); "
                "a preprocessing index may serve repeated queries better"
            )
        if self.n_events and self.mean_jump < 16:
            detail += "; jumps are very short, so per-jump overhead matters"
        return detail


def analyze(sample: bytes | str, query: str | Path) -> AnalysisReport:
    """Run the advisor on a representative data sample."""
    engine = JsonSki(query, collect_stats=True)
    matches, events = engine.trace_run(sample)
    stats = engine.last_stats
    assert stats is not None
    skipped = sum(end - start for _, start, end in events)
    return AnalysisReport(
        query=engine.path.unparse(),
        plan=explain(engine.path),
        sample_bytes=stats.total_length,
        n_matches=len(matches),
        ratios={g: stats.ratio(g) for g in GROUPS},
        overall_ratio=stats.overall_ratio,
        n_events=len(events),
        mean_jump=(skipped / len(events)) if events else 0.0,
    )
