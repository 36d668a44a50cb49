"""Per-state dispatch plans and fused transitions equal the individual
accessors.

The engine's member loops read :meth:`QueryAutomaton.object_plan` /
:meth:`~QueryAutomaton.array_plan` once per container and step members
through :meth:`~QueryAutomaton.key_move` / :meth:`~QueryAutomaton.element_move`
and their memos.  For every state reachable from the start state — of
the Table 5 queries, the ``JsonSkiMulti`` query sets, descendant shapes
and hypothesis-drawn paths — each plan must equal ``can_match_in_*``,
``expected_type``, ``object_skippable`` and ``element_range``, and each
fused transition must equal the frontier a from-scratch reference
transition gives, with its ``status_flags``.  Probes include names
outside the query and indices at and past :data:`ELEMENT_MEMO`.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import DATASETS
from repro.data.synth import random_path
from repro.jsonpath.ast import (
    Child,
    Descendant,
    Index,
    MultiIndex,
    MultiName,
    Slice,
    WildcardChild,
    WildcardIndex,
)
from repro.query.automaton import ACCEPT, ALIVE, ELEMENT_MEMO, QueryAutomaton

TABLE5 = sorted({q.large for spec in DATASETS.values() for q in spec.queries}
                | {q.small for spec in DATASETS.values() for q in spec.queries if q.small})
#: The query sets ``tests/test_multiquery.py`` runs through ``JsonSkiMulti``.
MULTI_SETS = [
    ["$.a", "$.b[0]"], ["$.a.b", "$.*.b"], ["$.a", "$.b"], ["$..c", "$.a"],
    ["$[*].en.urls[*].url", "$[*].text", "$[*].user.id", "$[3:5].lang"],
    ["$.a.x", "$.a.y"], ["$.a.x", "$.b.y"], ["$.a.x", "$.a[0]"], ["$[2:4]", "$[7]"],
    ["$.a", "$.b", "$.a.c"], ["$[1]", "$..x"], ["$.a", "$.*"],
]
DESCENDANT = ["$..a", "$..a.b", "$.a..b[2]", "$..a..b", "$..x[1,4]", "$..a[*]", "$..a.*"]
#: Shapes whose windows reach past the element memo.
WIDE = ["$[1500]", "$.a[1020:1030]", "$[1023,1024].b", "$[5:]", "$[:3]", "$['a','b'][0]"]

OTHER_NAME = "zz-not-in-any-query"
_OPEN = {"object": 0x7B, "array": 0x5B}


def _layout(qa: QueryAutomaton) -> list:
    """The step waiting at each frontier position (``None`` = accept)."""
    steps: list = []
    for path in qa.paths:
        steps += [*path.steps, None]
    return steps


def _ref_key(steps: list, frontier, name: str) -> frozenset[int]:
    nxt = set()
    for q in frontier:
        step = steps[q]
        if isinstance(step, Child) and step.name == name:
            nxt.add(q + 1)
        elif isinstance(step, WildcardChild) or isinstance(step, MultiName) and name in step.names:
            nxt.add(q + 1)
        elif isinstance(step, Descendant):
            nxt.add(q)
            if step.name == name:
                nxt.add(q + 1)
    return frozenset(nxt)


def _ref_element(steps: list, frontier, index: int) -> frozenset[int]:
    nxt = set()
    for q in frontier:
        step = steps[q]
        if (
            isinstance(step, Index) and step.index == index
            or isinstance(step, Slice)
            and step.start <= index
            and (step.stop is None or index < step.stop)
            or isinstance(step, WildcardIndex)
            or isinstance(step, MultiIndex) and index in step.indices
        ):
            nxt.add(q + 1)
        elif isinstance(step, Descendant):
            nxt.add(q)
    return frozenset(nxt)


def _ref_flags(steps: list, frontier) -> int:
    flags = ACCEPT if any(steps[q] is None for q in frontier) else 0
    return flags | (ALIVE if any(steps[q] is not None for q in frontier) else 0)


def _probes(qa: QueryAutomaton) -> tuple[list[str], list[int]]:
    indices = set(range(8)) | {ELEMENT_MEMO - 1, ELEMENT_MEMO, ELEMENT_MEMO + 1, 1500, 4096}
    for step in _layout(qa):
        bounds: tuple = ()
        if isinstance(step, Index):
            bounds = (step.index,)
        elif isinstance(step, MultiIndex):
            bounds = step.indices
        elif isinstance(step, Slice):
            bounds = (step.start,) if step.stop is None else (step.start, step.stop)
        indices.update(b + d for b in bounds for d in (-1, 0, 1) if b + d >= 0)
    return sorted(qa.query_names) + [OTHER_NAME], sorted(indices)


def check_plans_and_moves(queries: list[str], max_states: int = 300) -> int:
    """Walk every state reachable through the probes and check each plan
    and fused transition; returns the number of states checked."""
    qa = QueryAutomaton(*queries)
    steps = _layout(qa)
    names, indices = _probes(qa)
    seen, todo = {qa.start_state}, [qa.start_state]
    while todo and len(seen) <= max_states:
        state = todo.pop()
        frontier = qa.frontier(state)

        can_obj, expected, typed, skippable = qa.object_plan(state)
        assert can_obj == qa.can_match_in_object(state)
        assert expected == qa.expected_type(state)
        assert typed == (expected in ("object", "array"))
        assert skippable == qa.object_skippable(state)

        can_ary, start, stop, expected_a, want_byte = qa.array_plan(state)
        window = qa.element_range(state)
        assert can_ary == qa.can_match_in_array(state)
        assert (start, stop) == ((0, None) if window is None else window)
        assert expected_a == qa.expected_type(state)
        assert want_byte == _OPEN.get(expected_a, -1)

        for name in names:
            move = qa.key_move(state, name)
            token = name if name in qa.query_names else None
            assert qa.key_moves(state)[token] == move
            assert move == (qa.on_key(state, name), qa.status_flags(move[0]))
            assert qa.frontier(move[0]) == _ref_key(steps, frontier, name)
            assert move[1] == _ref_flags(steps, qa.frontier(move[0]))
            if move[0] not in seen:
                seen.add(move[0])
                todo.append(move[0])
        for index in indices:
            move = qa.element_move(state, index)
            if index < ELEMENT_MEMO:
                assert qa.element_moves(state)[index] == move
            assert move == (qa.on_element(state, index), qa.status_flags(move[0]))
            assert qa.frontier(move[0]) == _ref_element(steps, frontier, index)
            assert move[1] == _ref_flags(steps, qa.frontier(move[0]))
            if move[0] not in seen:
                seen.add(move[0])
                todo.append(move[0])
        # Memory stays bounded by the query: one key entry per query name
        # (plus the shared entry of every other name), one element slot
        # per memoized index.
        assert set(qa.key_moves(state)) <= set(qa.query_names) | {None}
        assert len(qa.element_moves(state)) == ELEMENT_MEMO
    return len(seen)


@pytest.mark.parametrize(
    "queries",
    [[q] for q in TABLE5] + MULTI_SETS + [[q] for q in DESCENDANT + WIDE],
    ids=lambda queries: "|".join(queries),
)
def test_plans_and_moves_equal_accessors(queries):
    assert check_plans_and_moves(queries) >= 2


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_plans_and_moves_on_drawn_paths(seed):
    rng = random.Random(seed)
    queries = [random_path(rng) for _ in range(rng.randrange(1, 4))]
    check_plans_and_moves(queries)


def test_memoized_answers_do_not_depend_on_order():
    """Transitions taken in two orders (fresh automata) reach the same
    frontiers: a memo filled by one probe never answers another."""
    queries = ["$.a[2:4].b", "$..a[1]", "$[*].c"]
    forward, backward = QueryAutomaton(*queries), QueryAutomaton(*queries)
    names, indices = _probes(forward)
    probes = [("key", n) for n in names] + [("elem", i) for i in indices]
    results = []
    for qa, order in ((forward, probes), (backward, probes[::-1])):
        got = {}
        for kind, arg in order:
            move = (qa.key_move if kind == "key" else qa.element_move)(qa.start_state, arg)
            got[kind, arg] = (qa.frontier(move[0]), move[1])
        results.append(got)
    assert results[0] == results[1]
