"""Query automaton (paper Section 3.1, Figure 5).

The automaton tracks matching progress per level of the record; the
recursive-descent engines keep the per-level state on the call stack (the
paper's key simplification over JPStream's explicit dual-stack design), so
this package exposes *pure* transition functions over opaque state ids.
"""

from repro.query.automaton import MatchStatus, QueryAutomaton, compile_query
from repro.query.explain import QueryPlan, explain

__all__ = ["MatchStatus", "QueryAutomaton", "QueryPlan", "compile_query", "explain"]
