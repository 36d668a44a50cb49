"""JSONSki for several queries in one streaming pass.

``JsonSkiMulti([q1, q2, ...])`` shares the input scan, the structural
index, and every fast-forward opportunity that remains sound for *all*
queries (see :class:`repro.query.automaton.QueryAutomaton`), and
returns one :class:`~repro.engine.output.MatchList` per query.

For workloads that ask multiple questions of the same stream (the
paper's evaluation runs two queries per dataset), this replaces k passes
with one.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.bits.index import DEFAULT_CHUNK_SIZE
from repro.engine.jsonski import _Pass, _Run
from repro.engine.output import MatchList
from repro.jsonpath.ast import Path
from repro.query.automaton import QueryAutomaton
from repro.resilience.recovery import drive_records
from repro.stream.buffer import StreamBuffer
from repro.stream.records import RecordStream


class _MultiRun(_Run):
    """One pass collecting matches per query id."""

    def __init__(self, automaton: QueryAutomaton, *args, **kwargs) -> None:
        super().__init__(automaton, *args, **kwargs)
        self.per_query = [MatchList() for _ in automaton.paths]

    def _emit(self, vstart: int, vend: int, key, state: int) -> None:
        for qid in self.qa.accepting(state):
            self.per_query[qid].add(self.data, vstart, vend)

    def _reserve(self, key, state: int):
        return [(qid, self.per_query[qid].reserve()) for qid in self.qa.accepting(state)]

    def _fill(self, token, vstart: int, vend: int) -> None:
        for qid, slot in token:
            self.per_query[qid].fill(slot, self.data, vstart, vend)


class JsonSkiMulti(_Pass):
    """Shared-pass JSONSki over a fixed set of queries.

    Example
    -------
    >>> engine = JsonSkiMulti(["$.a", "$.b[0]"])
    >>> a, b = engine.run(b'{"a": 1, "b": [2, 3]}')
    >>> a.values(), b.values()
    ([1], [2])
    """

    _engine_name = "jsonski-multi"

    def __init__(
        self,
        queries: Iterable[str | Path],
        mode: str = "vector",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        cache_chunks: int | None = 4,
        collect_stats: bool = False,
        tracer=None,
        metrics=None,
        limits=None,
    ) -> None:
        super().__init__(mode, chunk_size, cache_chunks, collect_stats, tracer, metrics, limits)
        paths = list(queries)
        with self._tracer.span("compile", engine="jsonski-multi", queries=len(paths)):
            self.automaton = QueryAutomaton(*paths)

    @property
    def n_queries(self) -> int:
        return len(self.automaton.paths)

    def run(self, data: bytes | str | StreamBuffer) -> list[MatchList]:
        """Stream one record once; return one MatchList per query."""
        return self._execute(data, run_type=_MultiRun).per_query

    def run_records(self, stream: RecordStream) -> list[MatchList]:
        """:meth:`repro.engine.base.EngineBase.run_records`, one MatchList per query."""
        totals = [MatchList() for _ in range(self.n_queries)]
        for _, per_query, _ in drive_records(self, stream):
            for total, matches in zip(totals, per_query):
                total.extend(matches)
        return totals
