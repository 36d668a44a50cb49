"""Pushdown query automaton for JSONPath matching (Figure 5).

A path of ``n`` steps yields the linear automaton of Figure 5: state ``q``
means "the first ``q`` steps are matched", state ``n`` is ACCEPT, and the
dead state is "no continuation possible".  Several paths share one pass
through one automaton: their steps share one integer space, path ``i``
occupying ``offset_i .. offset_i + len_i`` with its accept position
last, so a single path's positions are exactly its step indices.

The per-level stack of Figure 5 (rules [Key]/[Val]/[Ary-S]/[Ary-E])
lives on the engines' call stacks, so this class exposes *pure*
transitions:

- :meth:`on_key` — rule [Key]: consume an attribute name at the current
  level;
- :meth:`on_element` — rules [Ary-S]/[Com]: consume the array element at a
  given counter value (the engine maintains the counter).

To support the descendant extension ``..name`` and several paths, the
state is internally a *frontier* (set of step positions, the standard
NFA-to-DFA powerset, built lazily); one linear query always has
singleton frontiers, so nothing is paid for the common case.

Beyond matching, the automaton answers the questions fast-forwarding needs
(Section 3.2):

- :meth:`expected_type` — the value type a match at this state must have
  (drives G1);
- :meth:`object_skippable` / :meth:`element_range` — whether G4 / G5
  apply;
- :meth:`can_match_in_object` / :meth:`can_match_in_array` — whether the
  current container is relevant at all.

The engines read these once per container as a dispatch plan
(:meth:`object_plan`, :meth:`array_plan`), and step members through
fused transitions that carry the next state's flags
(:meth:`key_moves`/:meth:`key_move`, :meth:`element_moves`/
:meth:`element_move`).

Across several paths the guidance is what *every* live path allows: a
G1 type only when all agree, G4 only when all wait for the same concrete
name, and the G5 window is the envelope of their windows.  For one path
these are the single-query rules of the paper, so an extra query never
corrupts results — it only (and exactly when necessary) disables the
sharper fast-forwards.
"""

from __future__ import annotations

import enum

from repro.jsonpath.ast import (
    Child,
    Descendant,
    Index,
    MultiIndex,
    MultiName,
    Path,
    Slice,
    Step,
    WildcardChild,
    WildcardIndex,
)
from repro.jsonpath.parser import parse_path


class MatchStatus(enum.Enum):
    """Engine-visible status of a state (paper's UNMATCHED/MATCHED/ACCEPT).

    ``ACCEPT_AND_MATCHED`` arises only under the descendant extension: the
    value is a match output *and* deeper matches may exist inside it.
    """

    UNMATCHED = "unmatched"
    MATCHED = "matched"
    ACCEPT = "accept"
    ACCEPT_AND_MATCHED = "accept+matched"

    @property
    def is_accept(self) -> bool:
        return self in (MatchStatus.ACCEPT, MatchStatus.ACCEPT_AND_MATCHED)

    @property
    def is_alive(self) -> bool:
        """True when deeper matching progress is still possible."""
        return self in (MatchStatus.MATCHED, MatchStatus.ACCEPT_AND_MATCHED)


#: Bit flags of :meth:`QueryAutomaton.status_flags` (the engines' hot path).
ALIVE = 1
ACCEPT = 2

#: Element transitions memoized per state: indices below this bound (every
#: row of a matrix-like dataset re-runs indices 0..k).
ELEMENT_MEMO = 1024

_OPEN_BYTE = {"object": 0x7B, "array": 0x5B}

_FLAGS_TO_STATUS = {
    0: MatchStatus.UNMATCHED,
    ALIVE: MatchStatus.MATCHED,
    ACCEPT: MatchStatus.ACCEPT,
    ALIVE | ACCEPT: MatchStatus.ACCEPT_AND_MATCHED,
}


class QueryAutomaton:
    """Lazily-determinized matching automaton for one or more paths.

    ``QueryAutomaton(p)`` matches one :class:`Path` (or JSONPath text);
    ``QueryAutomaton(p1, p2, ...)`` matches several in one pass, and
    :meth:`accepting` tells which ones a value matches.

    Status flags, transitions and the per-container dispatch plans are
    memoized in lists indexed by state id — the engines read them once
    per container or member, millions of times per run.  The individual
    guidance accessors compute their answer on each call; the plans hold
    it for the engines.
    """

    def __init__(self, *paths: Path | str) -> None:
        if not paths:
            raise ValueError("at least one query is required")
        self.paths = tuple(parse_path(p) if isinstance(p, str) else p for p in paths)
        if any(p.has_filter for p in self.paths):
            from repro.errors import UnsupportedQueryError

            raise UnsupportedQueryError(
                "filter predicates are evaluated by query splitting in "
                "JsonSki (and by the tree baselines); the token-level "
                "automaton engines do not support them"
            )
        #: Per position: the step waiting there (``None`` at a path's
        #: accept position), its path id, and the kind a value matched
        #: there must have (``None`` at an accept position, ``'unknown'``
        #: under a descendant step).
        self._steps: list[Step | None] = []
        self._query_of: list[int] = []
        self._kinds: list[str | None] = []
        starts = []
        for qid, path in enumerate(self.paths):
            starts.append(len(self._steps))
            for depth, step in enumerate(path.steps):
                self._steps.append(step)
                self._query_of.append(qid)
                self._kinds.append("unknown" if isinstance(step, Descendant) else path.value_kind(depth))
            self._steps.append(None)
            self._query_of.append(qid)
            self._kinds.append(None)
        self._state_ids: dict[frozenset[int], int] = {}
        self._frontiers: list[frozenset[int]] = []
        #: Per-state memo lists, grown on intern.
        self._flags: list[int] = []
        self._accepting: list[tuple[int, ...]] = []
        #: Key transitions, token-keyed: {name_or_None: (next_state, flags)}.
        self._key_maps: list[dict[str | None, tuple[int, int]]] = []
        #: Element transitions below :data:`ELEMENT_MEMO`, by index
        #: (allocated on first use).
        self._elem_moves: list[list[tuple[int, int] | None] | None] = []
        #: Element transitions at and past :data:`ELEMENT_MEMO`:
        #: ``(bound, move)``, the move of every index at or past ``bound``
        #: (the end of the last index window in the frontier).
        self._elem_tails: list[tuple[int, tuple[int, int]] | None] = []
        self._obj_plans: list[tuple[bool, str, bool, bool] | None] = []
        self._ary_plans: list[tuple[bool, int, int | None, str, int] | None] = []
        #: Names that appear in the queries; all other names are equivalent
        #: (the token ``None`` of the key maps).
        names: set[str] = set()
        for step in self._steps:
            if isinstance(step, (Child, Descendant)):
                names.add(step.name)
            elif isinstance(step, MultiName):
                names.update(step.names)
        self.query_names = frozenset(names)
        self.start_state = self._intern(frozenset(starts))
        self.dead_state = self._intern(frozenset())

    # ------------------------------------------------------------------
    # state interning

    def _intern(self, frontier: frozenset[int]) -> int:
        state = self._state_ids.get(frontier)
        if state is None:
            state = len(self._frontiers)
            self._state_ids[frontier] = state
            self._frontiers.append(frontier)
            steps = self._steps
            accepting = tuple(sorted(self._query_of[q] for q in frontier if steps[q] is None))
            flags = ACCEPT if accepting else 0
            if any(steps[q] is not None for q in frontier):
                flags |= ALIVE
            self._flags.append(flags)
            self._accepting.append(accepting)
            self._key_maps.append({})
            self._elem_moves.append(None)
            self._elem_tails.append(None)
            self._obj_plans.append(None)
            self._ary_plans.append(None)
        return state

    def frontier(self, state: int) -> frozenset[int]:
        """The step-position frontier behind an opaque state id."""
        return self._frontiers[state]

    def state_for_frontier(self, frontier) -> int:
        """State id for a step-position frontier — the inverse of :meth:`frontier`.

        State *ids* are interning-order dependent (they differ between two
        processes that streamed different prefixes), so a suspended run is
        serialized as frontiers and re-entered through this method
        (:mod:`repro.checkpoint.suspend`).  Unknown step positions are
        rejected so a checkpoint from a different query cannot silently
        produce a plausible-looking state.
        """
        members = frozenset(frontier)
        last = len(self._steps) - 1
        for q in members:
            if not isinstance(q, int) or not 0 <= q <= last:
                raise ValueError(
                    f"frontier member {q!r} is outside this query's steps (0..{last})"
                )
        return self._intern(members)

    # ------------------------------------------------------------------
    # transitions

    def on_key(self, state: int, name: str) -> int:
        """Rule [Key]: the state inside the value of attribute ``name``."""
        return self.key_move(state, name)[0]

    def on_element(self, state: int, index: int) -> int:
        """Rules [Ary-S]/[Com]: the state inside element ``index``."""
        return self.element_move(state, index)[0]

    def key_moves(self, state: int) -> dict[str | None, tuple[int, int]]:
        """The memo behind :meth:`key_move` at ``state``: a query name,
        or ``None`` for every other name, -> ``(next_state, flags)``.
        Missing entries are filled by :meth:`key_move`."""
        return self._key_maps[state]

    def key_move(self, state: int, name: str) -> tuple[int, int]:
        """Fused [Key] transition: :meth:`on_key` and the next state's
        :meth:`status_flags`."""
        token = name if name in self.query_names else None
        key_map = self._key_maps[state]
        move = key_map.get(token)
        if move is not None:
            return move
        nxt: set[int] = set()
        for q in self._frontiers[state]:
            step = self._steps[q]
            if isinstance(step, Child):
                if step.name == name:
                    nxt.add(q + 1)
            elif isinstance(step, WildcardChild):
                nxt.add(q + 1)
            elif isinstance(step, MultiName):
                if name in step.names:
                    nxt.add(q + 1)
            elif isinstance(step, Descendant):
                nxt.add(q)  # keep descending
                if step.name == name:
                    nxt.add(q + 1)
        result = self._intern(frozenset(nxt))
        move = key_map[token] = (result, self._flags[result])
        return move

    def element_moves(self, state: int) -> list[tuple[int, int] | None]:
        """The memo behind :meth:`element_move` at ``state``: one slot per
        index below :data:`ELEMENT_MEMO`, ``None`` until that index's
        transition is first taken."""
        moves = self._elem_moves[state]
        if moves is None:
            moves = self._elem_moves[state] = [None] * ELEMENT_MEMO
        return moves

    def element_move(self, state: int, index: int) -> tuple[int, int]:
        """Fused [Ary-S]/[Com] transition: :meth:`on_element` and the next
        state's :meth:`status_flags`.  Memoized per index below
        :data:`ELEMENT_MEMO`, and once per state for the indices past both
        that and every index window of the frontier."""
        if index < ELEMENT_MEMO:
            moves = self.element_moves(state)
            move = moves[index]
            if move is not None:
                return move
        else:
            tail = self._elem_tails[state]
            if tail is not None and index >= tail[0]:
                return tail[1]
        nxt: set[int] = set()
        # Every index at or past ``bound`` takes the same transition.
        bound = 0
        for q in self._frontiers[state]:
            step = self._steps[q]
            if isinstance(step, Index):
                if index == step.index:
                    nxt.add(q + 1)
                bound = max(bound, step.index + 1)
            elif isinstance(step, Slice):
                if step.start <= index and (step.stop is None or index < step.stop):
                    nxt.add(q + 1)
                bound = max(bound, step.start if step.stop is None else step.stop)
            elif isinstance(step, WildcardIndex):
                nxt.add(q + 1)
            elif isinstance(step, MultiIndex):
                if index in step.indices:
                    nxt.add(q + 1)
                bound = max(bound, step.indices[-1] + 1)
            elif isinstance(step, Descendant):
                nxt.add(q)  # descendants traverse arrays transparently
        result = self._intern(frozenset(nxt))
        move = (result, self._flags[result])
        if index < ELEMENT_MEMO:
            moves[index] = move
        elif index >= bound:
            self._elem_tails[state] = (max(bound, ELEMENT_MEMO), move)
        return move

    # ------------------------------------------------------------------
    # status and fast-forward guidance

    def status_flags(self, state: int) -> int:
        """Fast status: OR of :data:`ALIVE` and :data:`ACCEPT` (0 = dead)."""
        return self._flags[state]

    def status(self, state: int) -> MatchStatus:
        return _FLAGS_TO_STATUS[self._flags[state]]

    def accepting(self, state: int) -> tuple[int, ...]:
        """Ids (argument order) of the paths this state accepts."""
        return self._accepting[state]

    def can_match_in_object(self, state: int) -> bool:
        """Can any attribute of an object at this state make progress?"""
        return any(
            isinstance(self._steps[q], (Child, WildcardChild, MultiName, Descendant))
            for q in self._frontiers[state]
        )

    def can_match_in_array(self, state: int) -> bool:
        """Can any element of an array at this state make progress?"""
        return any(
            isinstance(self._steps[q], (Index, Slice, WildcardIndex, MultiIndex, Descendant))
            for q in self._frontiers[state]
        )

    def expected_type(self, state: int) -> str:
        """Type a matching attribute/element value must have (G1 inference).

        Returns ``'object'``, ``'array'``, or ``'unknown'``.  The answer is
        the unique :meth:`Path.value_kind` across the live frontier, or
        ``'unknown'`` when the frontier disagrees or contains a descendant
        step (the paper's stated limitation for ``..``).
        """
        kinds = {self._kinds[q] for q in self._frontiers[state]}
        kinds.discard(None)
        return kinds.pop() if len(kinds) == 1 else "unknown"

    def object_skippable(self, state: int) -> bool:
        """G4 applicability: once one attribute matches, can the rest of
        the object be skipped?

        True iff every live step is a :class:`Child` of one and the same
        name — object attribute names are unique, so at most one
        attribute can match, and that match consumed every live step.
        Wildcards and descendants can match several attributes, so they
        disable G4.
        """
        frontier = self._frontiers[state]
        steps = [self._steps[q] for q in frontier]
        names = {step.name if isinstance(step, Child) else None for step in steps if step is not None}
        return bool(frontier) and None not in names and len(names) <= 1

    def element_range(self, state: int) -> tuple[int, int | None] | None:
        """G5 applicability: the index window relevant in an array here.

        Returns ``(start, stop)`` (stop ``None`` = unbounded), the
        envelope of the live index-type steps' windows, or ``None`` when
        none is live or a descendant step is (no constraint to exploit).
        """
        windows: list[tuple[int, int | None]] = []
        for q in self._frontiers[state]:
            step = self._steps[q]
            if isinstance(step, Index):
                windows.append((step.index, step.index + 1))
            elif isinstance(step, Slice):
                windows.append((step.start, step.stop))
            elif isinstance(step, WildcardIndex):
                windows.append((0, None))
            elif isinstance(step, MultiIndex):
                # The G5 window of a union is its envelope: everything
                # before the smallest and after the largest index skips.
                windows.append((step.indices[0], step.indices[-1] + 1))
            elif isinstance(step, Descendant):
                return None
        if not windows:
            return None
        stops = [stop for _, stop in windows]
        return (
            min(start for start, _ in windows),
            None if None in stops else max(stop for stop in stops if stop is not None),
        )

    # ------------------------------------------------------------------
    # per-state dispatch plans (one read per container)

    def object_plan(self, state: int) -> tuple[bool, str, bool, bool]:
        """``(can_match, expected, typed, skippable)`` of an object at
        ``state``: :meth:`can_match_in_object`, :meth:`expected_type`,
        whether that type is ``'object'`` or ``'array'`` (G1 applies),
        and :meth:`object_skippable` (G4)."""
        plan = self._obj_plans[state]
        if plan is None:
            expected = self.expected_type(state)
            plan = self._obj_plans[state] = (
                self.can_match_in_object(state),
                expected,
                expected in _OPEN_BYTE,
                self.object_skippable(state),
            )
        return plan

    def array_plan(self, state: int) -> tuple[bool, int, int | None, str, int]:
        """``(can_match, start, stop, expected, want_byte)`` of an array at
        ``state``: :meth:`can_match_in_array`, the :meth:`element_range`
        window (``(0, None)`` when there is none: no G5 move), the
        :meth:`expected_type`, and the opening byte that type requires
        (-1 when G1 does not apply)."""
        plan = self._ary_plans[state]
        if plan is None:
            window = self.element_range(state)
            start, stop = (0, None) if window is None else window
            expected = self.expected_type(state)
            plan = self._ary_plans[state] = (
                self.can_match_in_array(state),
                start,
                stop,
                expected,
                _OPEN_BYTE.get(expected, -1),
            )
        return plan


def compile_query(path: Path | str) -> QueryAutomaton:
    """Compile a path (or JSONPath text) into a :class:`QueryAutomaton`."""
    return QueryAutomaton(path)
