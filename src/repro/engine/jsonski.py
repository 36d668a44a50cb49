"""JSONSki: recursive-descent streaming with bit-parallel fast-forwarding.

This is the paper's Algorithm 2 made whole: the recursive-descent
streaming model of Section 3.1 drives the query automaton, and every
opportunity of Section 3.2 is taken through the fast-forward functions of
:mod:`repro.engine.fastforward`:

- **G1** — inside a container whose matching values must be objects (or
  arrays), sweep directly to the next value of that type
  (``goToObjAttr``/``goToAryElem``), never touching the skipped
  attributes' names or the primitive runs in between.
- **G2** — when the automaton reports UNMATCHED for an attribute name or
  element index, go over the value by type without examining it.
- **G3** — when the automaton reports ACCEPT, go over the value the same
  way but record it as a match (the output *is* the raw skipped text).
- **G4** — after any attribute of an object matches (concrete names are
  unique), fast-forward to the object's end.
- **G5** — with index constraints ``[n]``/``[m:n]``, skip the elements
  before the range and cut to the array's end once past it.

Match offsets, per-group fast-forward statistics (Table 6), and the
descendant extension (``..``, with type inference disabled as the paper
predicts) are all handled here.

``_Run`` is also the suspendable interpreter behind
:class:`repro.checkpoint.SuspendableRun`: once a step's byte budget is
spent, the member loops raise ``_Suspend``, and each open ``_object`` /
``_array`` activation appends its frame as the exception unwinds the
recursion.  :meth:`_Run.advance` rebuilds the call stack top-down from
those frames.  The one-shot path pays for this with one ``is not None``
test per member, fused with the deadline's.

Implementation note: the ``_Run`` methods are written against raw bytes
and int status flags with locals pulled out of ``self`` — this is the
innermost loop of the library, and attribute lookups and enum dispatch
were measurable against the character-at-a-time baselines.
"""

from __future__ import annotations

import sys
from typing import Iterator

from repro.bits.classify import CharClass
from repro.bits.index import DEFAULT_CHUNK_SIZE
from repro.bits.scanner import NOT_FOUND
from repro.engine.base import EngineBase
from repro.engine.names import decode_name
from repro.engine.fastforward import make_fastforwarder
from repro.engine.output import MatchList
from repro.engine.stats import FastForwardStats
from repro.errors import JsonSyntaxError, ReproError, StreamExhaustedError, shift_position
from repro.observe import NOOP_TRACER, MetricsRegistry
from repro.jsonpath.ast import Path
from repro.resilience.guards import Limits, depth_error_from_recursion, effective_limits
from repro.engine.prepared import cached_automaton
from repro.query.automaton import ACCEPT, ALIVE, ELEMENT_MEMO, QueryAutomaton
from repro.stream.batches import BatchRecord, record_buffers
from repro.stream.buffer import StreamBuffer, as_stream_buffer
from repro.stream.records import RecordStream

_LBRACE, _RBRACE = 0x7B, 0x7D
_LBRACKET, _RBRACKET = 0x5B, 0x5D
_QUOTE, _COMMA, _COLON = 0x22, 0x2C, 0x3A
_QUOTE_B, _BACKSLASH = b'"', 0x5C
_WS = frozenset(b" \t\n\r")
_LBRACE_CLS, _RBRACE_CLS = CharClass.LBRACE, CharClass.RBRACE
_LBRACKET_CLS, _RBRACKET_CLS = CharClass.LBRACKET, CharClass.RBRACKET

#: Input bytes between two deadline checks in the member loops.
_DEADLINE_STRIDE = 4096

#: Container kinds of a suspended pass's frames (serialized verbatim by
#: :mod:`repro.checkpoint.suspend`).
OBJ, ARY = "obj", "ary"


class _LimitReached(Exception):
    """Internal: the run collected as many matches as requested."""


class _Suspend(Exception):
    """Internal: a suspendable pass spent its step budget (see
    :meth:`_Run.advance`)."""


class _Pass:
    """The streaming pass :class:`JsonSki` and
    :class:`~repro.engine.multi.JsonSkiMulti` share: buffer setup, one
    plain or observed ``_Run``, and batched record inputs.  Subclasses
    compile :attr:`automaton` and shape each run's matches."""

    #: ``engine`` attribute of the ``scan`` span.
    _engine_name = "jsonski"

    def __init__(
        self,
        mode: str,
        chunk_size: int,
        cache_chunks: int | None,
        collect_stats: bool,
        tracer,
        metrics: MetricsRegistry | None,
        limits: Limits | None,
    ) -> None:
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._metrics = metrics
        self.limits = effective_limits(limits)
        #: Observed mode: any per-run bookkeeping beyond ``collect_stats``.
        self._observed = self._tracer.enabled or metrics is not None
        self.automaton: QueryAutomaton | None = None
        self.mode = mode
        self.chunk_size = chunk_size
        self.cache_chunks = cache_chunks
        self.collect_stats = collect_stats
        self.last_stats: FastForwardStats | None = None
        #: Raw attribute name -> decoded text, shared across runs (dataset
        #: keys repeat massively).
        self._name_cache: dict[bytes, str] = {}

    def _buffer(self, data: bytes | str | StreamBuffer | BatchRecord) -> tuple[StreamBuffer, int, int]:
        """The buffer a run reads and the input's ``[start, end)`` in it:
        a batched record's batch buffer and bounds, else a whole buffer."""
        if isinstance(data, BatchRecord):
            buffer, start, end = data.batch, data.start, data.end
        else:
            buffer = as_stream_buffer(data, mode=self.mode, chunk_size=self.chunk_size, cache_chunks=self.cache_chunks)
            start, end = 0, len(buffer.data)
        self.limits.check_record_size(end - start)
        if self._observed:
            if self._tracer.enabled:
                buffer.index.tracer = self._tracer
            if self._metrics is not None:
                buffer.index.attach_metrics(self._metrics)
                buffer.scanner.attach_metrics(self._metrics)
        return buffer, start, end

    def _finish_observed(self, run: "_Run") -> None:
        """Flush one observed run into the tracer and registry."""
        tracer = self._tracer
        if tracer.enabled:
            if run.trace:
                for group, start, end in run.trace:
                    tracer.event("fastforward", group=group, start=start, end=end, bytes=end - start)
            for matches in run.per_query:
                for match in matches:
                    tracer.event("match_emit", start=match.start, end=match.end)
        registry = self._metrics
        if registry is not None:
            if run.stats is not None:
                registry.merge(run.stats.registry)
            registry.counter("engine.runs").add(1)
            registry.counter("engine.matches").add(sum(map(len, run.per_query)))
            registry.counter("engine.bytes_consumed").add(run.pos)

    def _execute(
        self,
        data: bytes | str | StreamBuffer | BatchRecord,
        track_paths: bool = False,
        trace: bool = False,
        limit: int | None = None,
        run_type: "type[_Run] | None" = None,
    ) -> "_Run":
        """The single match-iteration core behind every run view.

        Builds the buffer, performs one streaming pass (a ``run_type``,
        default ``_Run``) with the requested bookkeeping, flushes
        observability (tracer span, fast-forward events, registry
        counters) when the engine is observed, and leaves
        :attr:`last_stats` set.  The public views differ only in which
        ``_Run`` options they enable and how they shape the result.

        A :class:`~repro.stream.batches.BatchRecord` runs over its
        batch's buffer within its bounds; its matches, error position,
        statistics and log are then rebased to the record's own bytes.
        """
        buffer, start, end = self._buffer(data)
        observed = self._observed
        tracer = self._tracer
        run = (run_type or _Run)(
            self.automaton,
            buffer,
            self.collect_stats or observed,
            self._name_cache,
            track_paths=track_paths,
            limit=limit,
            trace=trace or (observed and tracer.enabled),
            limits=self.limits,
            start=start,
            end=end,
        )
        try:
            if observed and tracer.enabled:
                with tracer.span("scan", engine=self._engine_name, bytes=end - start) as span:
                    run.execute()
                    span.set(matches=sum(map(len, run.per_query)))
            else:
                run.execute()
        except ReproError as exc:
            shift_position(exc, start)
            raise
        if isinstance(data, BatchRecord):
            run.rebase()
        if observed:
            self._finish_observed(run)
        self.last_stats = run.stats
        return run

    def record_buffers(
        self, stream: RecordStream, start: int = 0, stop: int | None = None
    ) -> Iterator[StreamBuffer | BatchRecord]:
        """:func:`repro.stream.batches.record_buffers` in this engine's
        mode, chunk size and cache, observed by its tracer and metrics."""
        return record_buffers(
            stream, start, stop, mode=self.mode, chunk_size=self.chunk_size,
            cache_chunks=self.cache_chunks, tracer=self._tracer, metrics=self._metrics,
        )


class JsonSki(_Pass, EngineBase):
    """The JSONSki streaming engine for one compiled query.

    Parameters
    ----------
    query:
        JSONPath text or a parsed :class:`Path`.
    mode:
        Scanner implementation: ``'vector'`` (default) or ``'word'``
        (paper-faithful word-at-a-time bit manipulation).
    chunk_size, cache_chunks:
        Index chunking; see :class:`repro.bits.index.BufferIndex`.
    collect_stats:
        When true, :attr:`last_stats` carries the per-group fast-forward
        ratios of the most recent run (Table 6).
    tracer:
        A :class:`repro.observe.Tracer` receiving ``compile``/``scan``
        spans and ``fastforward``/``match_emit`` events.  Defaults to the
        shared no-op tracer, which costs nothing on the hot path.
    metrics:
        A :class:`repro.observe.MetricsRegistry` accumulating this
        engine's counters across runs (fast-forward bytes per group,
        index chunk builds/evictions, scanner primitive calls, matches
        emitted).  ``None`` (default) disables metrics collection.
    limits:
        Resource guards (:class:`repro.resilience.Limits`): ``max_depth``
        (on by default — a nesting bomb raises
        :class:`~repro.errors.DepthLimitError` instead of blowing the
        interpreter stack), ``max_record_bytes``, and a cooperative
        ``deadline`` checked at container boundaries.  ``None`` means the
        safety defaults; pass ``Limits.unlimited()`` for trusted input.

    Example
    -------
    >>> engine = JsonSki("$.place.name")
    >>> engine.run(b'{"place": {"name": "Manhattan"}}').values()
    ['Manhattan']

    .. note:: This one-shot constructor surface is kept for
       compatibility; it is a thin layer over the two-stage
       prepare/index/run API, which new code should prefer —
       ``repro.compile(query)`` returns a
       :class:`~repro.engine.prepared.PreparedQuery` and
       ``repro.index(data)`` a reusable stage-1 index (see
       ``docs/two-stage.md``).  Constructing the internal ``_Run`` type
       directly is unsupported and its signature changes without notice.
    """

    def __init__(
        self,
        query: str | Path,
        mode: str = "vector",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        cache_chunks: int | None = 4,
        collect_stats: bool = False,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        limits: Limits | None = None,
    ) -> None:
        super().__init__(mode, chunk_size, cache_chunks, collect_stats, tracer, metrics, limits)
        with self._tracer.span("compile", engine="jsonski"):
            path = query if isinstance(query, Path) else None
            if path is None:
                from repro.jsonpath.parser import parse_path

                path = parse_path(query)
            self._delegate = None
            if path.has_filter:
                # Filter predicates are evaluated by query splitting (see
                # repro.engine.filtered); this instance proxies to the
                # composed engine.
                from repro.engine.filtered import FilteredJsonSki

                self._delegate = FilteredJsonSki(
                    path, mode=mode, chunk_size=chunk_size,
                    cache_chunks=cache_chunks, collect_stats=collect_stats,
                    tracer=tracer, metrics=metrics, limits=limits,
                )
            else:
                # Process-wide LRU: every engine compiled from the same
                # path shares one automaton (repro.engine.prepared).
                self.automaton = cached_automaton(path)
        self.path = path

    def run(self, data: bytes | str | StreamBuffer) -> MatchList:
        """Stream one JSON record and return its matches.

        Match offsets are relative to the provided record text.
        """
        if self._delegate is not None:
            matches = self._delegate.run(data)
            self.last_stats = self._delegate.last_stats
            return matches
        return self._execute(data).matches

    def run_with_paths(self, data: bytes | str | StreamBuffer) -> list[tuple[tuple, "object"]]:
        """Stream one record; return ``(normalized_path, Match)`` pairs.

        The normalized path is a tuple of attribute names (str) and array
        indices (int) from the root to the matched value, in the format of
        :func:`repro.reference.evaluate_with_paths`.
        """
        if self._delegate is not None:
            from repro.errors import UnsupportedQueryError

            raise UnsupportedQueryError("run_with_paths is not available for filter queries")
        run = self._execute(data, track_paths=True)
        assert run.match_paths is not None
        return [(path, run.matches[i]) for i, path in enumerate(run.match_paths)]

    def trace_run(self, data: bytes | str | StreamBuffer):
        """Stream one record and return ``(matches, events)`` where
        ``events`` is the ordered fast-forward log: ``(group, start,
        end)`` for every skip the engine performed — the raw material
        behind the Table 6 ratios, useful for debugging and teaching.
        """
        if self._delegate is not None:
            from repro.errors import UnsupportedQueryError

            raise UnsupportedQueryError("trace_run is not available for filter queries")
        run = self._execute(data, trace=True)
        return run.matches, run.trace

    def first(self, data: bytes | str | StreamBuffer):
        """First match in document order, or ``None`` — *early
        termination*: streaming stops the moment the match is captured
        (the generalization of the paper's NSPL1/WP2 observation)."""
        if self._delegate is not None:
            matches = self._delegate.run(data)
            return matches[0] if len(matches) else None
        matches = self._execute(data, limit=1).matches
        if self._metrics is not None and len(matches):
            # The early-termination proof: streaming stopped at the
            # first hit, leaving the tail of the record unconsumed.
            self._metrics.counter("engine.early_stops").add(1)
        return matches[0] if len(matches) else None

    def exists(self, data: bytes | str | StreamBuffer) -> bool:
        """Whether the record matches at all; stops at the first hit."""
        return self.first(data) is not None


class _Run:
    """State of one streaming pass: position, matches, statistics."""

    def __init__(
        self,
        automaton: QueryAutomaton,
        buffer: StreamBuffer,
        collect_stats: bool,
        name_cache: dict[bytes, str],
        track_paths: bool = False,
        limit: int | None = None,
        trace: bool = False,
        limits: Limits | None = None,
        start: int = 0,
        end: int | None = None,
    ) -> None:
        self.qa = automaton
        self.buffer = buffer
        self.limits = limits
        self.deadline = limits.deadline if limits is not None else None
        #: End of the current step of a suspendable pass (see :meth:`advance`).
        self.step_end = sys.maxsize
        #: Member-boundary guard, hoisted into a local by the member
        #: loops: ``None`` (no deadline, no step budget) costs them one
        #: ``is not None`` test per member.  Otherwise they call
        #: :meth:`_boundary` at the first member at or past this position.
        self.stop_at = None if self.deadline is None else 0
        #: Suspension frames ``[kind, state, idx, slot, start, end]``
        #: (``end``: the container's closer, :data:`NOT_FOUND` until a
        #: fast-forward found it): the ones a resumed pass re-enters
        #: (outermost first), and the ones a suspension unwound
        #: (innermost first).
        self.resume_frames: list[list] = []
        self.saved_frames: list[list] = []
        self.data = buffer.data
        #: The input is ``data[start:size]``: the whole buffer, or one
        #: record of a record batch (see :meth:`rebase`).
        self.start = start
        self.size = len(buffer.data) if end is None else end
        self.ff = make_fastforwarder(buffer, start, self.size)
        self.matches = MatchList()
        #: Matches per query, in query order (one query here; see
        #: :class:`repro.engine.multi.JsonSkiMulti`).
        self.per_query = [self.matches]
        self.stats = FastForwardStats() if collect_stats else None
        self.names = name_cache
        self.pos = 0
        #: Current container path (names/indices), when tracking paths.
        self.path_stack: list = []
        self.match_paths: list[tuple] | None = [] if track_paths else None
        self.limit = limit
        self._n_emitted = 0
        #: Optional fast-forward event log: (group, start, end) triples.
        self.trace: list[tuple[str, int, int]] | None = [] if trace else None
        #: Whether :meth:`_record` has anywhere to write (the member loops
        #: test it before calling).
        self.recording = collect_stats or trace
        #: Where the member loops put an ACCEPT value without an
        #: :meth:`_emit` call: the match list's ``append`` when a match
        #: needs nothing else (no ``limit``, no paths, no overriding
        #: ``_emit``), else ``None``.
        self.sink = (
            self.matches.appender
            if limit is None and not track_paths and type(self)._emit is _Run._emit
            else None
        )

    # -- bookkeeping ----------------------------------------------------

    def _record(self, group: str, start: int, end: int) -> None:
        if self.stats is not None and end > start:
            self.stats.chars[group] += end - start
        if self.trace is not None and end > start:
            self.trace.append((group, start, end))

    def _skip_ws(self, pos: int) -> int:
        data, size = self.data, self.size
        while pos < size and data[pos] in _WS:
            pos += 1
        return pos

    def _rstrip(self, start: int, end: int) -> int:
        data = self.data
        while end > start and data[end - 1] in _WS:
            end -= 1
        return end

    def _boundary(self, pos: int) -> int:
        """A member boundary at or past ``stop_at``: suspend once the step
        is spent, else check the deadline.  Returns the next ``stop_at``."""
        if pos >= self.step_end:
            self.pos = pos
            raise _Suspend
        if self.deadline is not None:
            self.deadline.check(pos)
        self.stop_at = min(pos + _DEADLINE_STRIDE, self.step_end)
        return self.stop_at

    # -- entry ----------------------------------------------------------

    def execute(self) -> MatchList:
        try:
            if self.resume_frames:
                root = self.resume_frames[0]
                (self._object if root[0] == OBJ else self._array)(root[1], 1, root)
            else:
                self.pos = self._skip_ws(self.start)
                if self.pos >= self.size:
                    raise JsonSyntaxError("empty input", self.start)
                byte = self.data[self.pos]
                if byte == _LBRACE:
                    self._object(self.qa.start_state, 1)
                elif byte == _LBRACKET:
                    self._array(self.qa.start_state, 1)
                # A primitive root cannot match any path with at least one step.
        except _LimitReached:
            pass
        except RecursionError as exc:
            # Backstop for Limits.unlimited(): the depth counter normally
            # fires long before the interpreter stack does.
            raise depth_error_from_recursion(exc, "jsonski") from None
        if self.stats is not None:
            self.stats.total_length = self.size - self.start
        return self.matches

    def rebase(self) -> None:
        """Move a finished run over one record of a batch into the
        record's own coordinates: every match becomes a range of the
        record's bytes (``data[start:size]``), and ``pos`` and the
        fast-forward log count from its first byte."""
        shift = self.start
        if any(self.per_query):
            record = self.data[shift : self.size]
            for matches in self.per_query:
                matches.rebase(record, shift)
        self.pos -= shift
        if self.trace:
            self.trace = [(group, start - shift, end - shift) for group, start, end in self.trace]

    def advance(self, frames: list[list], max_bytes: int | None) -> list[list] | None:
        """One step of a suspendable pass.

        Runs the pass — or, given the open frames of a suspended one
        (outermost first, ``self.pos`` at the innermost frame's next
        member), continues it — until it completes (returns ``None``) or
        reaches a member boundary at least ``max_bytes`` past the
        current position.  There every open ``_object``/``_array``
        activation appends its frame while :class:`_Suspend` unwinds the
        recursion, and the frames are returned outermost first.
        """
        self.step_end = sys.maxsize if max_bytes is None else self.pos + max(1, max_bytes)
        self.stop_at = 0 if self.deadline is not None else self.step_end
        self.resume_frames, self.saved_frames = frames, []
        try:
            self.execute()
        except _Suspend:
            return self.saved_frames[::-1]
        return None

    def _reenter(self, depth: int, closer: int, skippable: bool, end: int) -> int:
        """Rebuild the recursion below the resumed frame at ``depth``:
        continue its open child (which first continues its own), fill
        the child's reserved slot, then take G4 (``skippable``: the child
        matched, or it would not have been descended into) — to ``end``,
        the resumed frame's own closer, when known — or the delimiter.
        Returns the next member's position, or -1 once the container
        closed (``self.pos`` after it)."""
        frame = self.resume_frames[depth]
        kind, state, _, slot, start, _ = frame
        try:
            (self._object if kind == OBJ else self._array)(state, depth + 1, frame)
        except _Suspend:
            self.saved_frames[-1][3] = slot
            raise
        pos = self.pos
        if slot is not None:
            self._fill(slot, start, pos)
        if skippable:
            self.pos = end + 1 if end >= pos else self.ff.go_to_obj_end(pos)  # G4
            self._record("G4", pos, self.pos)
            return -1
        pos = self._skip_ws(pos)
        byte = self.data[pos] if pos < self.size else -1
        if byte == _COMMA:
            return self._skip_ws(pos + 1)
        if byte == closer:
            self.pos = pos + 1
            return -1
        where = "object" if closer == _RBRACE else "array"
        raise JsonSyntaxError(f"expected ',' or '{chr(closer)}' in {where}", pos)

    def _emit(self, vstart: int, vend: int, key, state: int) -> None:
        """Record a match (and its path / the early-termination limit).

        ``state`` is the accepting automaton state — unused here, but the
        multi-query engine dispatches on it to tag matches per query.
        """
        self.matches.add(self.data, vstart, vend)
        if self.match_paths is not None:
            self.match_paths.append((*self.path_stack, key))
        self._n_emitted += 1
        if self.limit is not None and self._n_emitted >= self.limit:
            raise _LimitReached

    def _reserve(self, key, state: int):
        """Reserve a pre-order slot for a container match whose end is not
        yet known (descendant extension)."""
        slot = self.matches.reserve()
        if self.match_paths is not None:
            self.match_paths.append((*self.path_stack, key))
        self._n_emitted += 1
        return slot

    def _fill(self, token, vstart: int, vend: int) -> None:
        self.matches.fill(token, self.data, vstart, vend)

    # -- value dispatch ---------------------------------------------------

    def _descend(self, state: int, vstart: int, vbyte: int, in_object: bool, key, depth: int) -> int:
        """MATCHED, the general case: recurse into a container, keeping
        the path stack; a primitive is a dead end (the automaton still
        expects deeper structure) and is gone over.  The member loops
        recurse directly when no paths are tracked."""
        if vbyte != _LBRACE and vbyte != _LBRACKET:
            vend = self.ff.go_over_pri(vstart, in_object)
            if self.recording:
                self._record("G2", vstart, vend)
            return vend
        paths = self.match_paths is not None
        if paths:
            self.path_stack.append(key)
        try:
            self.pos = vstart
            if vbyte == _LBRACE:
                self._object(state, depth)
            else:
                self._array(state, depth)
        finally:
            if paths:
                self.path_stack.pop()
        return self.pos

    # -- object (Algorithm 2) --------------------------------------------
    #
    # The member loops do per member only what Algorithm 2 requires: the
    # automaton's per-state plan is read once per container, transitions
    # and their status flags are one memo lookup, and values are gone
    # over, descended into and emitted without an intermediate frame.
    # Whitespace skips are inline; a primitive's trailing whitespace is
    # trimmed only when the byte before its delimiter is whitespace.
    # ``known_end`` is the container's closer once a fused G1/G5 lookup
    # returned it: later G1 lookups, G4 and the past-range G5 reuse it
    # instead of pairing again.  One behind ``pos`` (only on malformed
    # input, where a child's own pairing ran past it) counts as unknown,
    # so no move ever goes backwards.

    def _object(self, state: int, depth: int = 1, frame: list | None = None) -> None:
        """Stream one object; ``frame`` re-enters a suspended one."""
        qa, ff, data, size = self.qa, self.ff, self.data, self.size
        if self.limits is not None:
            self.limits.enter(depth, self.pos)
        stop_at = self.stop_at
        recording, sink = self.recording, self.sink
        can_match, expected, typed, skippable = qa.object_plan(state)
        if frame is None:
            origin = self.pos
            if data[origin] != _LBRACE:
                raise JsonSyntaxError("expected '{'", origin)
            pos = origin + 1
            while pos < size and data[pos] in _WS:
                pos += 1
            if pos >= size:
                raise JsonSyntaxError("stream ended inside an object", pos)
            if data[pos] == _RBRACE:
                self.pos = pos + 1
                return
            if not can_match:
                # The query selects from an array here; the object is
                # irrelevant in its entirety.
                end = ff.go_to_obj_end(pos)
                if recording:
                    self._record("G2", pos, end)
                self.pos = end
                return
            known_end = NOT_FOUND
        else:
            origin, pos, known_end = frame[4], self.pos, frame[5]
        names, query_names, key_map = self.names, qa.query_names, qa.key_moves(state)
        paths = self.match_paths
        try:
            if frame is not None and depth < len(self.resume_frames):
                pos = self._reenter(depth, _RBRACE, skippable, known_end)
                if pos < 0:
                    return
            while True:
                # ``pos`` is at the start of an attribute name.
                if pos >= size:
                    raise JsonSyntaxError("stream ended inside an object", pos)
                if stop_at is not None and pos >= stop_at:
                    stop_at = self._boundary(pos)
                if typed:
                    ended, p1, name_raw, vstart = ff.go_to_obj_attr(pos, expected, known_end)  # G1
                    if recording:
                        self._record("G1", pos, p1)
                    if ended:
                        self.pos = p1
                        return
                    known_end = ff.last_end
                else:
                    if data[pos] != _QUOTE:
                        raise JsonSyntaxError("expected attribute name", pos)
                    # Closing quote: memchr is faster than the bitmap when the
                    # preceding byte proves the quote unescaped (the common
                    # case); otherwise fall back to the unescaped-quote bitmap.
                    close = data.find(_QUOTE_B, pos + 1, size)
                    if close < 0:
                        raise JsonSyntaxError("unterminated attribute name", pos)
                    if data[close - 1] == _BACKSLASH:
                        close = self.buffer.scanner.find_next(CharClass.QUOTE, pos + 1)
                        if close < 0 or close >= size:
                            raise JsonSyntaxError("unterminated attribute name", pos)
                    # Legal JSON puts the colon right after the name (modulo
                    # whitespace) — byte reads instead of a bitmap scan.
                    colon = close + 1
                    while colon < size and data[colon] in _WS:
                        colon += 1
                    if colon >= size or data[colon] != _COLON:
                        raise JsonSyntaxError("attribute without ':'", close)
                    name_raw = data[pos + 1 : close]
                    vstart = colon + 1
                    while vstart < size and data[vstart] in _WS:
                        vstart += 1
                name = names.get(name_raw)
                if name is None:
                    name = names[name_raw] = decode_name(name_raw)
                move = key_map.get(name if name in query_names else None)
                if move is None:
                    move = qa.key_move(state, name)
                state2, flags = move
                if vstart >= size:
                    raise JsonSyntaxError("stream ended before attribute value", vstart)
                vbyte = data[vstart]
                if flags == 0 or flags == ACCEPT or self.limit is not None and flags & ACCEPT:
                    # UNMATCHED (G2) or ACCEPT (G3); under early termination
                    # (limit=1) an ACCEPT|ALIVE value is itself the next match
                    # in document order, so its nested matches are never
                    # needed — skip instead of recurse.
                    if vbyte == _LBRACE:
                        vend = ff.go_over_obj(vstart)
                    elif vbyte == _LBRACKET:
                        vend = ff.go_over_ary(vstart)
                    else:
                        vend = ff.go_over_pri(vstart, True)
                    if flags == 0:
                        if recording:
                            self._record("G2", vstart, vend)
                    else:
                        if recording:
                            self._record("G3", vstart, vend)
                        end = vend
                        if data[end - 1] in _WS:
                            end = self._rstrip(vstart, end)
                        if sink is not None:
                            sink((data, vstart, end))
                        else:
                            self._emit(vstart, end, name, state2)
                elif flags == ALIVE:  # MATCHED
                    if paths is None and vbyte == _LBRACE:
                        self.pos = vstart
                        self._object(state2, depth + 1)
                        vend = self.pos
                    elif paths is None and vbyte == _LBRACKET:
                        self.pos = vstart
                        self._array(state2, depth + 1)
                        vend = self.pos
                    else:
                        vend = self._descend(state2, vstart, vbyte, True, name, depth + 1)
                else:  # ACCEPT | ALIVE: pre-order — reserve before recursing
                    token = self._reserve(name, state2)
                    try:
                        vend = self._descend(state2, vstart, vbyte, True, name, depth + 1)
                    except _Suspend:
                        self.saved_frames[-1][3] = token
                        raise
                    end = vend
                    if data[end - 1] in _WS:
                        end = self._rstrip(vstart, end)
                    self._fill(token, vstart, end)
                pos = vend
                if flags and skippable:
                    end = known_end  # G4
                    if end < pos:
                        end = ff.pair_close(_LBRACE_CLS, _RBRACE_CLS, pos, 1)
                        if end < 0 or end >= size:
                            raise StreamExhaustedError("stream ended with unclosed '{'", size)
                    if recording:
                        self._record("G4", pos, end + 1)
                    self.pos = end + 1
                    return
                while pos < size and data[pos] in _WS:
                    pos += 1
                byte = data[pos] if pos < size else -1
                if byte == _COMMA:
                    pos += 1
                    while pos < size and data[pos] in _WS:
                        pos += 1
                elif byte == _RBRACE:
                    self.pos = pos + 1
                    return
                else:
                    raise JsonSyntaxError("expected ',' or '}' in object", pos)
        except _Suspend:
            self.saved_frames.append([OBJ, state, 0, None, origin, known_end])
            raise

    # -- array (Algorithm 2, array side) -----------------------------------

    def _array(self, state: int, depth: int = 1, frame: list | None = None) -> None:
        """Stream one array; ``frame`` re-enters a suspended one."""
        qa, ff, data, size = self.qa, self.ff, self.data, self.size
        if self.limits is not None:
            self.limits.enter(depth, self.pos)
        stop_at = self.stop_at
        recording, sink = self.recording, self.sink
        can_match, start, stop, expected, want_byte = qa.array_plan(state)
        if frame is None:
            origin = self.pos
            if data[origin] != _LBRACKET:
                raise JsonSyntaxError("expected '['", origin)
            pos = origin + 1
            while pos < size and data[pos] in _WS:
                pos += 1
            if pos >= size:
                raise JsonSyntaxError("stream ended inside an array", pos)
            if data[pos] == _RBRACKET:
                self.pos = pos + 1
                return
            if not can_match:
                end = ff.go_to_ary_end(pos)
                if recording:
                    self._record("G2", pos, end)
                self.pos = end
                return
            idx, known_end = 0, NOT_FOUND
        else:
            origin, idx, pos, known_end = frame[4], frame[2], self.pos, frame[5]
        moves, paths = qa.element_moves(state), self.match_paths
        try:
            if frame is not None and depth < len(self.resume_frames):
                pos = self._reenter(depth, _RBRACKET, False, known_end)
                if pos < 0:
                    return
                idx += 1
            while True:
                # ``pos`` is at the start of element ``idx``.
                if stop_at is not None and pos >= stop_at:
                    stop_at = self._boundary(pos)
                if stop is not None and idx >= stop:
                    end = known_end  # G5 (past the range)
                    if end < pos:
                        end = ff.pair_close(_LBRACKET_CLS, _RBRACKET_CLS, pos, 1)
                        if end < 0 or end >= size:
                            raise StreamExhaustedError("stream ended with unclosed '['", size)
                    if recording:
                        self._record("G5", pos, end + 1)
                    self.pos = end + 1
                    return
                if idx < start:
                    ended, p1, skipped = ff.go_over_elems(pos, start - idx)  # G5
                    if recording:
                        self._record("G5", pos, p1)
                    if ended:
                        self.pos = p1
                        return
                    idx += skipped
                    known_end = ff.last_end
                    pos = p1
                    continue
                if pos >= size:
                    raise JsonSyntaxError("stream ended inside an array", pos)
                vbyte = data[pos]
                if want_byte >= 0 and vbyte != want_byte:
                    ended, p1, commas = ff.go_to_ary_elem(pos, expected, known_end)  # G1
                    if recording:
                        self._record("G1", pos, p1)
                    if ended:
                        self.pos = p1
                        return
                    idx += commas
                    known_end = ff.last_end
                    pos = p1
                    continue
                move = moves[idx] if idx < ELEMENT_MEMO else None
                if move is None:
                    move = qa.element_move(state, idx)
                state2, flags = move
                vstart = pos
                if flags == 0 or flags == ACCEPT or self.limit is not None and flags & ACCEPT:
                    if vbyte == _LBRACE:
                        vend = ff.go_over_obj(vstart)
                    elif vbyte == _LBRACKET:
                        vend = ff.go_over_ary(vstart)
                    else:
                        vend = ff.go_over_pri(vstart, False)
                    if flags == 0:
                        if recording:
                            self._record("G2", vstart, vend)
                    else:
                        if recording:
                            self._record("G3", vstart, vend)
                        end = vend
                        if data[end - 1] in _WS:
                            end = self._rstrip(vstart, end)
                        if sink is not None:
                            sink((data, vstart, end))
                        else:
                            self._emit(vstart, end, idx, state2)
                elif flags == ALIVE:  # MATCHED
                    if paths is None and vbyte == _LBRACE:
                        self.pos = vstart
                        self._object(state2, depth + 1)
                        vend = self.pos
                    elif paths is None and vbyte == _LBRACKET:
                        self.pos = vstart
                        self._array(state2, depth + 1)
                        vend = self.pos
                    else:
                        vend = self._descend(state2, vstart, vbyte, False, idx, depth + 1)
                else:  # ACCEPT | ALIVE
                    token = self._reserve(idx, state2)
                    try:
                        vend = self._descend(state2, vstart, vbyte, False, idx, depth + 1)
                    except _Suspend:
                        self.saved_frames[-1][3] = token
                        raise
                    end = vend
                    if data[end - 1] in _WS:
                        end = self._rstrip(vstart, end)
                    self._fill(token, vstart, end)
                pos = vend
                while pos < size and data[pos] in _WS:
                    pos += 1
                byte = data[pos] if pos < size else -1
                if byte == _COMMA:
                    idx += 1
                    pos += 1
                    while pos < size and data[pos] in _WS:
                        pos += 1
                elif byte == _RBRACKET:
                    self.pos = pos + 1
                    return
                else:
                    raise JsonSyntaxError("expected ',' or ']' in array", pos)
        except _Suspend:
            self.saved_frames.append([ARY, state, idx, None, origin, known_end])
            raise
