"""Intra-record suspension: the JSONSki evaluation loop as durable state.

:class:`SuspendableRun` drives the one Algorithm-2 interpreter,
:class:`repro.engine.jsonski._Run`, in byte-budgeted steps.  A step ends
at the first member boundary (the start of an attribute or element at
any depth) at or past its budget: the loop raises an internal
``_Suspend``, and as it unwinds the recursion every open
``_object``/``_array`` activation appends its frame — container kind,
automaton state, element index, pending reserved slot, container start
and, once a fused lookup has found it, the container's closer.
The next step rebuilds the recursion top-down from those frames: each
non-top frame first re-enters its child, then fills the child's reserved
slot, then continues with G4 or its delimiter.

Between steps the whole evaluation state is an :class:`EngineState`:
the frames (automaton states as frontiers — state ids depend on
interning order, see
:meth:`~repro.query.automaton.QueryAutomaton.state_for_frontier`), the
scan position, the matches so far as byte offsets (``None`` for a
reserved slot whose container is still open) and the structural index's
per-chunk carries, from which a fresh process rebuilds the chunk it
resumes in without rescanning from byte zero
(:meth:`~repro.bits.index.BufferIndex.seed_carries`).  So the paper's
Figure-10 giant-record scenario survives a process death mid-record
(``repro '$..' big.json --checkpoint ck`` → SIGKILL → ``--resume``), and
the final match list is byte-identical to an uninterrupted
:meth:`JsonSki.run`.  Nesting is bounded as there: a nesting bomb raises
:class:`~repro.errors.DepthLimitError`, also under ``Limits.unlimited()``.

The state's optional ``cursor`` is the index's own carry at the scan
position (:meth:`~repro.bits.index.BufferIndex.carry_at`:
``(escape, in_string)`` in word mode, plus ``(depth, brace, bracket)``
in vector mode).  Seeded with it
(:meth:`~repro.bits.index.BufferIndex.seed_cursor`), the resumed run
classifies the chunk it re-enters from the scan position on instead of
from the chunk start, so a resume classifies only the rest of that
chunk — a 256 KiB one by default (:data:`SUSPEND_CHUNK_SIZE`).  The
cursor is read off the index, never derived from the frames: the two
disagree once a stray byte has shifted the string or depth state.  A
state without it — written before the field existed, or suspended where
the chunk holding the scan position was no longer cached — resumes from
the chunk start as before; readers that predate the field ignore it, so
``STATE_VERSION`` stays 2.

A frame's optional ``end`` is its container's closer, written once a
fused G1/G5 lookup has found it (the engine keeps one closer per
container; :mod:`repro.engine.jsonski`).  It is state, not a cache: on
malformed input the closer found again from a later position can differ
from the kept one (after a stray ``]``, the uninterrupted run may raise
where a run that re-finds its closers returns matches), so a resumed
frame uses the carried one.  ``_restore`` accepts it only as an int
strictly between the frame's start and the input's end.  A frame
without it finds its closer again; ``STATE_VERSION`` stays 2 here too.

Not supported here: filter queries (they evaluate by engine composition,
not by one automaton), ``run_with_paths``, early termination, and the
per-run statistics/trace instruments (see docs/robustness.md).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.bits.scanner import NOT_FOUND
from repro.checkpoint.store import fingerprint
from repro.engine.jsonski import ARY, OBJ, _Run
from repro.engine.output import MatchList
from repro.engine.prepared import cached_automaton
from repro.errors import CheckpointError, UnsupportedQueryError
from repro.query.automaton import QueryAutomaton
from repro.resilience.guards import Limits, effective_limits
from repro.stream.buffer import StreamBuffer

#: EngineState layout version.  2: vector-mode carries widened from
#: ``(escape, in_string)`` pairs to 5-tuples that include the structural
#: depth counters the two-stage hot path chains across chunks.
STATE_VERSION = 2

#: Stage-1 chunking of a fresh run.  A resume re-classifies its entry
#: chunk from the scan position on, plus the chunk it spills into, so a
#: chunk a quarter of :data:`~repro.bits.index.DEFAULT_CHUNK_SIZE` cuts
#: that tail; sixteen cached chunks keep the same 4 MiB bound on
#: retained index memory as four of the default size.  A state carries
#: its own chunking, so one written at another size resumes with it.
SUSPEND_CHUNK_SIZE = 256 * 1024
SUSPEND_CACHE_CHUNKS = 16


@dataclass(frozen=True)
class EngineState:
    """A suspended :class:`SuspendableRun`, as plain JSON-able data."""

    query: str
    mode: str
    chunk_size: int
    cache_chunks: int | None
    pos: int
    size: int
    payload_fingerprint: int
    frames: list[dict]
    matches: list[list[int] | None]
    carries: list[list[int]]
    done: bool
    #: The structural index's carry at ``pos`` (optional; see the module
    #: docstring).
    cursor: list[int] | None = None
    version: int = STATE_VERSION

    def to_dict(self) -> dict:
        return {"version": self.version, **{name: getattr(self, name) for name in _STATE_FIELDS}}

    @classmethod
    def from_dict(cls, data: dict) -> "EngineState":
        if data.get("version") != STATE_VERSION:
            raise CheckpointError(
                f"engine state version {data.get('version')!r} is not {STATE_VERSION}"
            )
        try:
            required = {name: data[name] for name in _STATE_FIELDS if name != "cursor"}
        except KeyError as exc:
            raise CheckpointError(f"engine state is missing field {exc}") from None
        return cls(**required, cursor=data.get("cursor"))


_STATE_FIELDS = [field.name for field in fields(EngineState) if field.name != "version"]

#: Cursor length per scanner mode: the string carry, plus the depth
#: counters in vector mode (the shape of the mode's per-chunk carries).
_CURSOR_ARITY = {"vector": 5, "word": 2}


def _offset(value, size: int) -> bool:
    """Whether ``value`` is a byte offset into (or just past) the input."""
    return type(value) is int and 0 <= value <= size


def _cursor_problem(cursor, mode: str) -> str | None:
    """Why ``cursor`` is no index carry a ``mode`` run could have
    captured, or ``None`` when it is one."""
    arity = _CURSOR_ARITY.get(mode)
    if not isinstance(cursor, (list, tuple)) or len(cursor) != arity:
        return f"is not a list of {arity} ints for mode {mode!r}"
    if any(type(value) is not int for value in cursor):
        return "holds a non-int entry"
    if cursor[0] not in (0, 1) or cursor[1] not in (0, 1):
        return "has an escape or in_string flag outside {0, 1}"
    if arity == 5:
        depth, brace, bracket = cursor[2:]
        if depth < 0 or depth != brace + bracket:
            return "has a negative depth or one that is not brace + bracket"
    return None


class SuspendableRun:
    """One resumable streaming evaluation over one record.

    Drive it with :meth:`step` until it returns ``True``; call
    :meth:`suspend` between steps to capture an :class:`EngineState`
    (and :meth:`resume` in any process — including a fresh one — to
    continue).

    >>> run = SuspendableRun.begin("$.a", b'{"a": 1, "b": 2}')
    >>> run.step()
    True
    >>> run.matches().values()
    [1]
    """

    def __init__(
        self,
        automaton: QueryAutomaton,
        buffer: StreamBuffer,
        query_text: str,
        mode: str,
        limits: Limits | None,
    ) -> None:
        self.qa = automaton
        self.buffer = buffer
        self.query_text = query_text
        self.mode = mode
        self.limits = effective_limits(limits)
        self.limits.check_record_size(len(buffer.data))
        self._run = _Run(automaton, buffer, False, {}, limits=self.limits)
        self.size = self._run.size
        #: Open frames of the suspended pass, outermost first (empty
        #: before the first step and once done).
        self._frames: list[list] = []
        self.done = False

    @property
    def pos(self) -> int:
        return self._run.pos

    # -- construction ---------------------------------------------------

    @classmethod
    def begin(
        cls,
        query: str,
        data: bytes | str,
        mode: str = "vector",
        chunk_size: int = SUSPEND_CHUNK_SIZE,
        cache_chunks: int | None = SUSPEND_CACHE_CHUNKS,
        limits: Limits | None = None,
    ) -> "SuspendableRun":
        """Start a fresh suspendable evaluation of ``query`` over ``data``."""
        from repro.jsonpath.parser import parse_path

        path = parse_path(query)
        if path.has_filter:
            raise UnsupportedQueryError(
                "filter queries evaluate by engine composition and cannot "
                "be suspended; use JsonSki without --checkpoint"
            )
        buffer = StreamBuffer(data, mode=mode, chunk_size=chunk_size, cache_chunks=cache_chunks)
        return cls(cached_automaton(path), buffer, query, mode, limits)

    @classmethod
    def resume(
        cls,
        data: bytes | str,
        state: "EngineState | dict",
        limits: Limits | None = None,
    ) -> "SuspendableRun":
        """Re-enter a suspended evaluation in this (possibly fresh) process.

        ``data`` must be the same payload the run was suspended over —
        match offsets and the scan position are byte offsets into it; a
        fingerprint mismatch raises :class:`~repro.errors.CheckpointError`
        instead of resuming wrong, and so does a state that no run over
        ``data`` could have captured.
        """
        if isinstance(state, dict):
            state = EngineState.from_dict(state)
        if isinstance(data, str):
            data = data.encode("utf-8")
        if len(data) != state.size or fingerprint(data) != state.payload_fingerprint:
            raise CheckpointError(
                "refusing to resume: the input does not match the suspended "
                f"run ({len(data)} bytes vs {state.size} at suspension)"
            )
        automaton = cached_automaton(state.query)
        buffer = StreamBuffer(
            data, mode=state.mode, chunk_size=state.chunk_size, cache_chunks=state.cache_chunks
        )
        try:
            buffer.index.seed_carries(state.carries)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"engine state carries are malformed: {exc}") from None
        run = cls(automaton, buffer, state.query, state.mode, limits)
        run._restore(state)
        return run

    def _restore(self, state: EngineState) -> None:
        """Load a checkpoint's position, matches and frames, rejecting
        any value that no run over this input could have captured."""
        size, data = self.size, self._run.data
        if not _offset(state.pos, size):
            raise CheckpointError(f"engine state pos {state.pos!r} is outside the input (0..{size})")
        if state.cursor is not None:
            if state.done:
                raise CheckpointError("engine state is done but carries a cursor")
            problem = _cursor_problem(state.cursor, state.mode)
            if problem is not None:
                raise CheckpointError(f"engine state cursor {state.cursor!r} {problem}")
        # One pass validates each match, loads it and collects the open slots.
        matches = self._run.matches
        append = matches.appender
        open_slots: set[int] = set()
        for entry in state.matches:
            if entry is None:
                open_slots.add(matches.reserve())
                continue
            try:
                start, end = entry
            except (TypeError, ValueError):
                start = end = None
            if type(start) is not int or type(end) is not int or not 0 <= start <= end <= size:
                raise CheckpointError(
                    f"engine state match {entry!r} is not a [start, end] pair within the input"
                )
            append((data, start, end))
        for frame in state.frames:
            try:
                kind, idx, slot, start = frame["kind"], frame["idx"], frame["slot"], frame["vstart"]
                automaton_state = self.qa.state_for_frontier(frame["frontier"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(f"engine state frame {frame!r} is malformed: {exc}") from None
            if kind not in (OBJ, ARY):
                raise CheckpointError(f"engine state frame kind {kind!r} is not {OBJ!r} or {ARY!r}")
            if type(idx) is not int or idx < 0:
                raise CheckpointError(f"engine state frame index {idx!r} is not a non-negative int")
            if slot is not None and (type(slot) is not int or slot not in open_slots):
                raise CheckpointError(
                    f"engine state frame slot {slot!r} does not name an unfilled reserved match"
                )
            if not _offset(start, size):
                raise CheckpointError(f"engine state frame start {start!r} is outside the input")
            end = frame.get("end", NOT_FOUND)
            if "end" in frame and (type(end) is not int or not start < end < size):
                raise CheckpointError(
                    f"engine state frame end {end!r} is not a closer between its start and the input's end"
                )
            open_slots.discard(slot)
            self._frames.append([kind, automaton_state, idx, slot, start, end])
        self._run.pos = state.pos
        self.done = state.done
        if state.cursor is not None:
            self.buffer.index.seed_cursor(state.pos, state.cursor)

    def suspend(self) -> EngineState:
        """Capture the current state (only legal between :meth:`step` calls)."""
        frames = []
        for kind, state, idx, slot, start, end in self._frames:
            frame = {
                "kind": kind,
                "frontier": sorted(self.qa.frontier(state)),
                "idx": idx,
                "slot": slot,
                "vstart": start,
            }
            if end != NOT_FOUND:
                frame["end"] = end
            frames.append(frame)
        return EngineState(
            query=self.query_text,
            mode=self.mode,
            chunk_size=self.buffer.index.chunk_size,
            cache_chunks=self.buffer.index.cache_chunks,
            pos=self.pos,
            size=self.size,
            payload_fingerprint=fingerprint(self._run.data),
            frames=frames,
            matches=self._run.matches.offsets(),
            carries=[list(pair) for pair in self.buffer.index.carries_snapshot()],
            done=self.done,
            cursor=self._cursor(),
        )

    def _cursor(self) -> list[int] | None:
        """The index's carry at the suspension point, when its chunk is
        still cached and the carry is one :meth:`resume` accepts (a
        stray closer can drive the depth negative)."""
        if self.done:
            return None
        cursor = self.buffer.index.carry_at(self.pos)
        if cursor is None or _cursor_problem(cursor, self.mode) is not None:
            return None
        return list(cursor)

    # -- driving --------------------------------------------------------

    def step(self, max_bytes: int | None = None) -> bool:
        """Advance the evaluation by roughly ``max_bytes`` input bytes.

        Returns ``True`` when the record is fully processed.  With a
        budget, the run suspends at the first member boundary at or past
        ``pos + max_bytes`` (a single fast-forward may overshoot — the
        suspension point is always a clean boundary).  ``None`` runs to
        completion.
        """
        if not self.done:
            frames = self._run.advance(self._frames, max_bytes)
            self._frames = frames or []
            self.done = frames is None
        return self.done

    def run_to_completion(self) -> MatchList:
        """Drive to the end and return the matches."""
        self.step(None)
        return self.matches()

    def matches(self) -> MatchList:
        """Matches emitted so far, in document order.

        Before completion a reserved-but-unfilled slot (an open container
        match under the descendant extension) raises on access, exactly
        like :class:`~repro.engine.output.MatchList` mid-run.
        """
        return self._run.matches

    def match_offsets(self) -> list[tuple[int, int] | None]:
        """Raw ``(start, end)`` offsets (``None`` = reserved, still open)."""
        return [None if pair is None else tuple(pair) for pair in self._run.matches.offsets()]
