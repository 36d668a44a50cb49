"""Extra multi-query automaton guidance cases (conjunction semantics)."""

from __future__ import annotations

import pytest

from repro.query.automaton import ACCEPT, ALIVE
from repro.query.automaton import QueryAutomaton


class TestStatesAndAccepting:
    def test_start_state_covers_all_queries(self):
        qa = QueryAutomaton("$.a", "$.b", "$.c")
        assert len(qa.frontier(qa.start_state)) == 3
        assert qa.status_flags(qa.start_state) == ALIVE

    def test_shared_prefix_states_merge(self):
        qa = QueryAutomaton("$.a.x", "$.a.y")
        s = qa.on_key(qa.start_state, "a")
        assert len(qa.frontier(s)) == 2
        sx = qa.on_key(s, "x")
        assert qa.accepting(sx) == (0,)
        assert qa.status_flags(sx) == ACCEPT

    def test_simultaneous_accepts(self):
        qa = QueryAutomaton("$.a", "$.*")
        s = qa.on_key(qa.start_state, "a")
        assert qa.accepting(s) == (0, 1)

    def test_dead_state(self):
        qa = QueryAutomaton("$.a", "$.b")
        dead = qa.on_key(qa.start_state, "zzz")
        assert dead == qa.dead_state
        assert qa.status_flags(dead) == 0

    def test_memoized_transitions_stable(self):
        qa = QueryAutomaton("$.a[0]", "$.a[2]")
        s = qa.on_key(qa.start_state, "a")
        assert qa.on_element(s, 0) == qa.on_element(s, 0)
        assert qa.on_element(s, 1) == qa.dead_state


class TestGuidanceConjunctionMore:
    def test_expected_type_partial_frontier(self):
        qa = QueryAutomaton("$.a.x.deep", "$.b[0]")
        # After 'a', only query 0 is alive: inference sharp again.
        s = qa.on_key(qa.start_state, "a")
        assert qa.expected_type(s) == "object"

    def test_element_range_with_wildcard_member(self):
        qa = QueryAutomaton("$[2:4]", "$[*]")
        assert qa.element_range(qa.start_state) == (0, None)

    def test_element_range_mixed_index_and_slice(self):
        qa = QueryAutomaton("$[1]", "$[5:9]")
        assert qa.element_range(qa.start_state) == (1, 9)

    def test_element_range_none_when_keys_present(self):
        qa = QueryAutomaton("$[1]", "$.a")
        # Only one index-type constraint is live; the envelope is its own.
        assert qa.element_range(qa.start_state) == (1, 2)

    def test_can_match_union(self):
        qa = QueryAutomaton("$[0]", "$.a")
        assert qa.can_match_in_object(qa.start_state)
        assert qa.can_match_in_array(qa.start_state)

    def test_skippable_after_divergence_resolves(self):
        qa = QueryAutomaton("$.a.k1", "$.b.k2")
        s = qa.on_key(qa.start_state, "a")  # query 1 is dead here
        assert qa.object_skippable(s)  # single concrete name remains

    def test_descendant_disables_range(self):
        qa = QueryAutomaton("$[1]", "$..x")
        assert qa.element_range(qa.start_state) is None

    def test_empty_queries_rejected(self):
        with pytest.raises(ValueError):
            QueryAutomaton()
