"""Common engine interface.

Every query processor in this package — JSONSki, the FF-off streamer,
and the four baselines — implements ``run`` / ``run_records`` over the
same :class:`~repro.engine.output.MatchList`; this base class adds the
derived conveniences (``count``, ``exists``, ``first``) so downstream
code can swap engines freely.

``exists`` and ``first`` are *early-termination* queries: a streaming
engine can stop at the first match (JSONSki overrides them to do exactly
that — the paper's NSPL1/WP2 observation generalized to an API), while
preprocessing engines inherit the run-everything defaults.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.engine.output import Match, MatchList
    from repro.jsonpath.ast import Path
    from repro.stream.records import RecordStream


def ensure_query_supported(
    path: "Path",
    *,
    engine: str,
    descendant: bool = True,
    filters: bool = True,
) -> None:
    """Uniform unsupported-feature check shared by engines and the
    registry: every engine that cannot run a query feature raises the
    same :class:`~repro.errors.UnsupportedQueryError` shape."""
    from repro.errors import UnsupportedQueryError

    if path.has_descendant and not descendant:
        raise UnsupportedQueryError(
            f"engine {engine!r} does not support descendant '..' steps"
        )
    if path.has_filter and not filters:
        raise UnsupportedQueryError(
            f"engine {engine!r} does not support filter predicates"
        )


class EngineBase:
    """Mixin providing derived query operations over ``run``.

    Uniform constructor surface: every engine accepts ``collect_stats=``
    and exposes ``last_stats`` — a populated
    :class:`~repro.engine.stats.FastForwardStats` registry view for the
    instrumented streaming engines, ``None`` for the baselines (which
    never fast-forward, so there is nothing to report).
    """

    #: Uniform ``last_stats`` contract: baselines leave this ``None``.
    last_stats = None
    collect_stats = False

    def run(self, data: bytes | str) -> "MatchList":  # pragma: no cover - abstract
        raise NotImplementedError

    def run_records(self, stream: "RecordStream") -> "MatchList":
        """Run every record of ``stream`` (strict ``drive_records``); matches in record order."""
        from repro.engine.output import MatchList
        from repro.resilience.recovery import drive_records

        matches = MatchList()
        for _, found, _ in drive_records(self, stream):
            matches.extend(found)
        return matches

    def run_file(self, path: str) -> "MatchList":
        """Read a file and stream it as one record."""
        with open(path, "rb") as handle:
            return self.run(handle.read())

    def iter_matches_jsonl(self, path: str):
        """Lazily yield ``(record_index, Match)`` over a JSONL file.

        Bounded memory: one record is resident at a time.  Matches
        reference each record's own bytes, so they stay valid after the
        generator advances.
        """
        from repro.stream.filestream import iter_jsonl

        for i, record in enumerate(iter_jsonl(path)):
            for match in self.run(record):
                yield i, match

    def count(self, data: bytes | str) -> int:
        """Number of matches in one record."""
        return len(self.run(data))

    def first(self, data: bytes | str) -> "Match | None":
        """The first match in document order, or ``None``."""
        matches = self.run(data)
        return matches[0] if len(matches) else None

    def exists(self, data: bytes | str) -> bool:
        """Whether the record contains at least one match."""
        return self.first(data) is not None
