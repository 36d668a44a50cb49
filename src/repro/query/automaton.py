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

    All per-state guidance (status flags, expected type, G4/G5
    applicability) is memoized in lists indexed by state id — the engines
    query them once per container or attribute, millions of times per
    run.
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
        #: Per-state key-transition maps: {name_or_None: next_state}.
        self._key_maps: dict[int, dict[str | None, int]] = {}
        #: Per-state memo lists, grown on intern.
        self._flags: list[int] = []
        self._accepting: list[tuple[int, ...]] = []
        self._expected: list[str | None] = []
        self._skippable: list[bool | None] = []
        self._elem_memo: dict[tuple[int, int], int] = {}
        self._elem_range: dict[int, tuple[int, int | None] | None] = {}
        self._can_obj: dict[int, bool] = {}
        self._can_ary: dict[int, bool] = {}
        #: Names that appear in the queries; all other names are equivalent.
        self._names: set[str] = set()
        for step in self._steps:
            if isinstance(step, (Child, Descendant)):
                self._names.add(step.name)
            elif isinstance(step, MultiName):
                self._names.update(step.names)
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
            self._expected.append(None)
            self._skippable.append(None)
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
        key_map = self._key_maps.get(state)
        if key_map is None:
            key_map = self._key_maps[state] = {}
        token = name if name in self._names else None
        cached = key_map.get(token, -1)
        if cached >= 0:
            return cached
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
        key_map[token] = result
        return result

    def on_element(self, state: int, index: int) -> int:
        """Rules [Ary-S]/[Com]: the state inside element ``index``."""
        # Element transitions recur heavily for small indices (every row of
        # a matrix-like dataset re-runs indices 0..k); memoize those.
        if index < 1024:
            memo_key = (state, index)
            cached = self._elem_memo.get(memo_key)
            if cached is not None:
                return cached
        else:
            memo_key = None
        nxt: set[int] = set()
        for q in self._frontiers[state]:
            step = self._steps[q]
            if isinstance(step, Index):
                if index == step.index:
                    nxt.add(q + 1)
            elif isinstance(step, Slice):
                if step.start <= index and (step.stop is None or index < step.stop):
                    nxt.add(q + 1)
            elif isinstance(step, WildcardIndex):
                nxt.add(q + 1)
            elif isinstance(step, MultiIndex):
                if index in step.indices:
                    nxt.add(q + 1)
            elif isinstance(step, Descendant):
                nxt.add(q)  # descendants traverse arrays transparently
        result = self._intern(frozenset(nxt))
        if memo_key is not None:
            self._elem_memo[memo_key] = result
        return result

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
        cached = self._can_obj.get(state)
        if cached is None:
            cached = self._can_obj[state] = any(
                isinstance(self._steps[q], (Child, WildcardChild, MultiName, Descendant))
                for q in self._frontiers[state]
            )
        return cached

    def can_match_in_array(self, state: int) -> bool:
        """Can any element of an array at this state make progress?"""
        cached = self._can_ary.get(state)
        if cached is None:
            cached = self._can_ary[state] = any(
                isinstance(self._steps[q], (Index, Slice, WildcardIndex, MultiIndex, Descendant))
                for q in self._frontiers[state]
            )
        return cached

    def expected_type(self, state: int) -> str:
        """Type a matching attribute/element value must have (G1 inference).

        Returns ``'object'``, ``'array'``, or ``'unknown'``.  The answer is
        the unique :meth:`Path.value_kind` across the live frontier, or
        ``'unknown'`` when the frontier disagrees or contains a descendant
        step (the paper's stated limitation for ``..``).
        """
        cached = self._expected[state]
        if cached is None:
            kinds = {self._kinds[q] for q in self._frontiers[state]}
            kinds.discard(None)
            cached = self._expected[state] = kinds.pop() if len(kinds) == 1 else "unknown"
        return cached

    def object_skippable(self, state: int) -> bool:
        """G4 applicability: once one attribute matches, can the rest of
        the object be skipped?

        True iff every live step is a :class:`Child` of one and the same
        name — object attribute names are unique, so at most one
        attribute can match, and that match consumed every live step.
        Wildcards and descendants can match several attributes, so they
        disable G4.
        """
        cached = self._skippable[state]
        if cached is None:
            frontier = self._frontiers[state]
            steps = [self._steps[q] for q in frontier]
            names = {step.name if isinstance(step, Child) else None for step in steps if step is not None}
            cached = self._skippable[state] = bool(frontier) and None not in names and len(names) <= 1
        return cached

    def element_range(self, state: int) -> tuple[int, int | None] | None:
        """G5 applicability: the index window relevant in an array here.

        Returns ``(start, stop)`` (stop ``None`` = unbounded), the
        envelope of the live index-type steps' windows, or ``None`` when
        none is live or a descendant step is (no constraint to exploit).
        """
        if state in self._elem_range:
            return self._elem_range[state]
        windows: list[tuple[int, int | None]] = []
        result: tuple[int, int | None] | None = None
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
                break
        else:
            if windows:
                stops = [stop for _, stop in windows]
                result = (
                    min(start for start, _ in windows),
                    None if None in stops else max(stop for stop in stops if stop is not None),
                )
        self._elem_range[state] = result
        return result


def compile_query(path: Path | str) -> QueryAutomaton:
    """Compile a path (or JSONPath text) into a :class:`QueryAutomaton`."""
    return QueryAutomaton(path)
