"""JSONSki for several queries in one streaming pass.

``JsonSkiMulti([q1, q2, ...])`` shares the input scan, the structural
index, and every fast-forward opportunity that remains sound for *all*
queries (see :class:`repro.query.multi.MultiQueryAutomaton`), and
returns one :class:`~repro.engine.output.MatchList` per query.

For workloads that ask multiple questions of the same stream (the
paper's evaluation runs two queries per dataset), this replaces k passes
with one.
"""

from __future__ import annotations

from repro.bits.index import DEFAULT_CHUNK_SIZE
from repro.engine.jsonski import _Run
from repro.engine.output import MatchList
from repro.engine.stats import FastForwardStats
from repro.jsonpath.ast import Path
from repro.observe import NOOP_TRACER
from repro.query.multi import MultiQueryAutomaton
from repro.stream.batches import record_buffers
from repro.stream.buffer import StreamBuffer, as_stream_buffer
from repro.stream.records import RecordStream


class _MultiRun(_Run):
    """One pass collecting matches per query id."""

    def __init__(self, automaton: MultiQueryAutomaton, buffer: StreamBuffer, collect_stats: bool, name_cache: dict, limits=None) -> None:
        super().__init__(automaton, buffer, collect_stats, name_cache, limits=limits)
        self.per_query = [MatchList() for _ in automaton.paths]

    def _emit(self, vstart: int, vend: int, key, state: int) -> None:
        for qid in self.qa.accepting(state):
            self.per_query[qid].add(self.data, vstart, vend)

    def _reserve(self, key, state: int):
        return [(qid, self.per_query[qid].reserve()) for qid in self.qa.accepting(state)]

    def _fill(self, token, vstart: int, vend: int) -> None:
        for qid, slot in token:
            self.per_query[qid].fill(slot, self.data, vstart, vend)


# repro: ignore[RS007] -- multi-query engine: its constructor takes a
# query *list*, so it cannot satisfy the single-query EngineInfo factory
# surface; selected through its own API (see docs/parallel.md).
class JsonSkiMulti:
    """Shared-pass JSONSki over a fixed set of queries.

    Example
    -------
    >>> engine = JsonSkiMulti(["$.a", "$.b[0]"])
    >>> a, b = engine.run(b'{"a": 1, "b": [2, 3]}')
    >>> a.values(), b.values()
    ([1], [2])
    """

    def __init__(
        self,
        queries: list[str | Path],
        mode: str = "vector",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        cache_chunks: int | None = 4,
        collect_stats: bool = False,
        tracer=None,
        metrics=None,
        limits=None,
    ) -> None:
        from repro.resilience.guards import effective_limits

        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._metrics = metrics
        self.limits = effective_limits(limits)
        self._observed = self._tracer.enabled or metrics is not None
        with self._tracer.span("compile", engine="jsonski-multi", queries=len(list(queries))):
            self.automaton = MultiQueryAutomaton(list(queries))
        self.mode = mode
        self.chunk_size = chunk_size
        self.cache_chunks = cache_chunks
        self.collect_stats = collect_stats
        self.last_stats: FastForwardStats | None = None
        self._name_cache: dict[bytes, str] = {}

    @property
    def n_queries(self) -> int:
        return len(self.automaton.paths)

    def run(self, data: bytes | str | StreamBuffer) -> list[MatchList]:
        """Stream one record once; return one MatchList per query."""
        buffer = as_stream_buffer(data, mode=self.mode, chunk_size=self.chunk_size, cache_chunks=self.cache_chunks)
        self.limits.check_record_size(len(buffer.data))
        if not self._observed:
            run = _MultiRun(self.automaton, buffer, self.collect_stats, self._name_cache, limits=self.limits)
            run.execute()
            self.last_stats = run.stats
            return run.per_query
        tracer = self._tracer
        if tracer.enabled:
            buffer.index.tracer = tracer
        if self._metrics is not None:
            buffer.index.attach_metrics(self._metrics)
            buffer.scanner.attach_metrics(self._metrics)
        with tracer.span("scan", engine="jsonski-multi", bytes=len(buffer.data)) as span:
            run = _MultiRun(self.automaton, buffer, True, self._name_cache, limits=self.limits)
            run.execute()
            span.set(matches=sum(len(m) for m in run.per_query))
        if self._metrics is not None:
            if run.stats is not None:
                self._metrics.merge(run.stats.registry)
            self._metrics.counter("engine.runs").add(1)
            self._metrics.counter("engine.matches").add(sum(len(m) for m in run.per_query))
            self._metrics.counter("engine.bytes_consumed").add(run.pos)
        self.last_stats = run.stats
        return run.per_query

    def run_records(self, stream: RecordStream) -> list[MatchList]:
        """Stream a small-record sequence with batched stage 1 (see
        :meth:`repro.engine.jsonski.JsonSki.run_records`)."""
        totals = [MatchList() for _ in range(self.n_queries)]
        buffers = record_buffers(
            stream, mode=self.mode, chunk_size=self.chunk_size, cache_chunks=self.cache_chunks,
            tracer=self._tracer, metrics=self._metrics,
        )
        for buffer in buffers:
            for total, matches in zip(totals, self.run(buffer)):
                total.extend(matches)
        return totals
