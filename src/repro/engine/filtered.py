"""Filter predicates via query splitting.

A path with a filter — ``$.items[?(@.price > 10)].name`` — is evaluated
as a composition of filter-free streaming passes:

1. the **outer** engine streams the record for
   ``$.items[*]`` (the filter replaced by a wildcard), yielding each
   candidate element as a raw slice with its global offset;
2. the **predicate** runs over each slice, itself via tiny
   fast-forwarding sub-engines (one per ``@``-path), so even the
   predicate does not parse the whole element;
3. elements that pass are fed to the **inner** engine compiled for the
   remaining steps (``$.name`` relative to the element), with match
   offsets remapped to the original record.

The composition is recursive, so any number of filters nest naturally,
and the hot streaming paths stay completely unaware of predicates.
"""

from __future__ import annotations

from typing import Any

from repro.engine.base import EngineBase
from repro.errors import InvariantError
from repro.engine.output import Match, MatchList
from repro.jsonpath.ast import Filter, Path, WildcardIndex
from repro.jsonpath.filter import And, Comparison, Exists, FilterExpr, Not, Or, RelPath


class SlicePredicate:
    """Evaluate a :class:`FilterExpr` against a candidate match view.

    Each distinct ``@``-path is compiled once into a fast-forwarding
    sub-engine; existence and first-value extraction then stream the
    candidate element instead of parsing it wholesale.  An empty
    ``@``-path (the element itself) materializes the candidate's lazy
    view — memoized on the :class:`~repro.engine.output.Match`, so when
    the consumer later touches the same element it does not parse the
    byte range a second time.
    """

    def __init__(self, expr: FilterExpr, limits: Any = None) -> None:
        self.expr = expr
        self.limits = limits
        self._engines: dict[RelPath, Any] = {}
        self._collect(expr)

    def _collect(self, expr: FilterExpr) -> None:
        if isinstance(expr, (Exists, Comparison)):
            path = expr.path
            if path.steps and path not in self._engines:
                from repro.engine.jsonski import JsonSki

                # Predicate sub-engines inherit the caller's resource
                # guards: a depth bomb inside a candidate slice must hit
                # the same max_depth as the outer scan.
                self._engines[path] = JsonSki(Path(tuple(path.steps)), limits=self.limits)
        elif isinstance(expr, Not):
            self._collect(expr.operand)
        elif isinstance(expr, (And, Or)):
            self._collect(expr.left)
            self._collect(expr.right)

    def _resolve(self, path: RelPath, candidate: Match) -> tuple[bool, Any]:
        if not path.steps:
            try:
                # The predicate is this value's consumer; the memoized
                # parse is shared with any later consumer of the view.
                return True, candidate.value()
            except ValueError:
                # Undecodable element: the predicate fails; resource
                # guards (DepthLimitError) propagate as ever.
                return False, None
        match = self._engines[path].first(candidate.text)
        if match is None:
            return False, None
        return True, match.value()

    def matches(self, candidate: Match | bytes) -> bool:
        """Whether ``candidate`` (a lazy view, or raw bytes) passes."""
        if not isinstance(candidate, Match):
            data = bytes(candidate)
            candidate = Match(data, 0, len(data))
        return self._eval(self.expr, candidate)

    def _eval(self, expr: FilterExpr, candidate: Match) -> bool:
        if isinstance(expr, Exists):
            found, _ = self._resolve(expr.path, candidate)
            return found
        if isinstance(expr, Comparison):
            found, value = self._resolve(expr.path, candidate)
            if not found:
                return False
            # Reuse the value-level comparison semantics.
            probe = Comparison(RelPath(()), expr.op, expr.literal)
            return probe.matches(value)
        if isinstance(expr, Not):
            return not self._eval(expr.operand, candidate)
        if isinstance(expr, And):
            return self._eval(expr.left, candidate) and self._eval(expr.right, candidate)
        if isinstance(expr, Or):
            return self._eval(expr.left, candidate) or self._eval(expr.right, candidate)
        raise InvariantError(f"unknown filter node {expr!r}")  # pragma: no cover


class FilteredJsonSki(EngineBase):
    """Streaming evaluation of a path containing filter steps."""

    def __init__(self, path: Path, **engine_kwargs: Any) -> None:
        from repro.engine.jsonski import JsonSki

        split = next(i for i, s in enumerate(path.steps) if isinstance(s, Filter))
        filter_step: Filter = path.steps[split]  # type: ignore[assignment]
        outer_path = Path(path.steps[:split] + (WildcardIndex(),))
        inner_steps = path.steps[split + 1 :]
        self.path = path
        self._engine_kwargs = engine_kwargs
        self.outer = JsonSki(outer_path, **engine_kwargs)
        self.predicate = SlicePredicate(filter_step.expr, limits=engine_kwargs.get("limits"))
        # The inner remainder may itself contain filters; JsonSki's
        # constructor dispatches back here in that case.
        self.inner = JsonSki(Path(inner_steps), **engine_kwargs) if inner_steps else None
        self.last_stats = None

    def run(self, data: Any) -> MatchList:
        if isinstance(data, str):
            data = data.encode("utf-8")
        candidates = self.outer.run(data)
        # Fast-forward statistics, where collected, describe the outer
        # pass (the one that scans the record).
        self.last_stats = self.outer.last_stats
        matches = MatchList()
        for candidate in candidates:
            if not self.predicate.matches(candidate):
                continue
            if self.inner is None:
                # Adopt the predicate-touched view: if the empty-@-path
                # predicate already parsed this element, the consumer
                # reuses that memoized value instead of parsing again.
                matches.add_match(candidate)
                continue
            for inner_match in self.inner.run(candidate.text):
                matches.add(
                    candidate.source, candidate.start + inner_match.start, candidate.start + inner_match.end
                )
        return matches
