"""Guidance gate: replay recorded automaton walks and compare every answer.

``tests/data/automaton_guidance_v1.json`` holds seeded random walks of
``on_key``/``on_element`` transitions over the twelve Table 5 queries, a
set of descendant/union/slice/wildcard shapes, and the multi-query sets
of ``tests/test_multi_guidance.py``.  After every transition it records
what the fast-forward guidance said: status flags, the accepting query
ids, ``expected_type`` (G1), ``object_skippable`` (G4), ``element_range``
(G5), ``can_match_in_object``/``can_match_in_array`` and, for single
queries, the sorted frontier (the suspended-run checkpoint format).

The answers were recorded by the separate single- and multi-query
automata that ``QueryAutomaton(*paths)`` replaced, so a change to any
guidance answer fails here.  Regenerate (only deliberately) with
``PYTHONPATH=src python tests/test_automaton_guidance.py``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.data.datasets import DATASETS
from repro.jsonpath.ast import Child, Descendant, Index, MultiIndex, MultiName, Slice
from repro.jsonpath.parser import parse_path
from repro.query.automaton import QueryAutomaton

FIXTURE = Path(__file__).parent / "data" / "automaton_guidance_v1.json"

SHAPES = [
    "$..a", "$..a.b", "$.a..b[2]", "$..a..b", "$[2,5].x", "$.*.b",
    "$['a','b'][0]", "$.a[3:]", "$..x[1,4]", "$.a.*[*]",
]
QUERY_SETS = [
    ["$.a", "$.b", "$.c"], ["$.a.x", "$.a.y"], ["$.a", "$.*"], ["$.a", "$.b"],
    ["$.a[0]", "$.a[2]"], ["$.a.x.deep", "$.b[0]"], ["$[2:4]", "$[*]"],
    ["$[1]", "$[5:9]"], ["$[1]", "$.a"], ["$[0]", "$.a"], ["$.a.k1", "$.b.k2"],
    ["$[1]", "$..x"], ["$.a.x", "$.b.y"], ["$.a.x", "$.a[0]"], ["$[2:4]", "$[7]"],
    ["$.a", "$.b", "$.a.c"],
]


def _all_query_lists() -> list[list[str]]:
    table5 = [[q.large] for spec in DATASETS.values() for q in spec.queries]
    return table5 + [[s] for s in SHAPES] + QUERY_SETS


def _answers(qa: QueryAutomaton, state: int, single: bool) -> list:
    window = qa.element_range(state)
    return [
        qa.status_flags(state),
        list(qa.accepting(state)),
        qa.expected_type(state),
        qa.object_skippable(state),
        None if window is None else list(window),
        qa.can_match_in_object(state),
        qa.can_match_in_array(state),
        sorted(qa.frontier(state)) if single else None,
    ]


def _apply(qa: QueryAutomaton, state: int, action: list) -> int:
    kind, arg = action
    if kind == "start":
        return qa.start_state
    if kind == "key":
        return qa.on_key(state, arg)
    return qa.on_element(state, arg)


def _record(queries: list[str], seed: int, n_steps: int = 120) -> list:
    """One seeded walk, biased toward live transitions."""
    rng = random.Random(seed)
    names, indices = {"zz"}, {0, 1, 2, 3, 4, 6, 1500}
    for query in queries:
        for step in parse_path(query).steps:
            if isinstance(step, (Child, Descendant)):
                names.add(step.name)
            elif isinstance(step, MultiName):
                names.update(step.names)
            elif isinstance(step, Index):
                indices.add(step.index)
            elif isinstance(step, MultiIndex):
                indices.update(step.indices)
            elif isinstance(step, Slice):
                indices.update(i for i in (step.start, step.stop) if i is not None)
    name_pool, index_pool = sorted(names), sorted(indices)
    qa = QueryAutomaton(*queries)
    single = len(queries) == 1
    state, depth = qa.start_state, 0
    steps = [[["start", None], _answers(qa, state, single)]]
    while len(steps) < n_steps:
        if depth >= 8 or (qa.status_flags(state) == 0 and rng.random() < 0.8):
            action = ["start", None]
            depth = 0
        else:
            for _ in range(4):
                if rng.random() < 0.5:
                    action = ["key", rng.choice(name_pool)]
                else:
                    action = ["elem", rng.choice(index_pool)]
                if qa.status_flags(_apply(qa, state, action)) != 0:
                    break
            depth += 1
        state = _apply(qa, state, action)
        steps.append([action, _answers(qa, state, single)])
    return steps


def _fixture_text() -> str:
    walks = [
        {"queries": queries, "steps": _record(queries, seed=i)}
        for i, queries in enumerate(_all_query_lists())
    ]
    lines = ",\n".join(json.dumps(walk, separators=(",", ":")) for walk in walks)
    return '{"version":1,"walks":[\n' + lines + "\n]}\n"


def regenerate() -> None:
    FIXTURE.write_text(_fixture_text())


def _walks() -> list[dict]:
    return json.loads(FIXTURE.read_text())["walks"]


def test_fixture_covers_every_query_list():
    assert [w["queries"] for w in _walks()] == _all_query_lists()
    assert sum(len(w["steps"]) for w in _walks()) >= 3000


def test_rerecorded_walks_are_byte_identical():
    """Recording the walks again with today's automaton reproduces the
    fixture byte for byte (the walks' choices depend on its answers)."""
    assert _fixture_text() == FIXTURE.read_text()


@pytest.mark.parametrize(
    "index", range(len(_all_query_lists())), ids=["|".join(q) for q in _all_query_lists()]
)
def test_replayed_guidance_matches(index):
    walk = _walks()[index]
    queries = walk["queries"]
    qa = QueryAutomaton(*queries)
    single = len(queries) == 1
    state = qa.start_state
    for i, (action, expected) in enumerate(walk["steps"]):
        state = _apply(qa, state, action)
        assert _answers(qa, state, single) == expected, (queries, i, action)


if __name__ == "__main__":
    regenerate()
