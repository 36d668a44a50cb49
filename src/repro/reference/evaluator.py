"""Tree-walking JSONPath evaluator used as the correctness oracle.

Semantics notes (shared with the streaming engines):

- Matches are returned in document order.
- ``[m:n]`` selects indices ``m <= i < n`` with non-negative bounds, as in
  the paper's queries (``cp[1:3]``, ``[$10:21]``); Python-style negative
  indices are intentionally not supported.
- ``..name`` (descendant, our extension) matches attributes called
  ``name`` at any depth below the current value, including inside the
  values of other matches (pre-order).
- Union selectors ``[1,3]`` / ``['a','b']`` (extension) match in
  document order regardless of selector order.
"""

from __future__ import annotations

import json
from typing import Any

from repro.jsonpath.ast import (
    Child,
    Descendant,
    Filter,
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


def _walk(value: Any, steps: tuple[Step, ...], trail: tuple[Any, ...], out: list[tuple[tuple[Any, ...], Any]]) -> None:
    if not steps:
        out.append((trail, value))
        return
    step, rest = steps[0], steps[1:]
    if isinstance(step, Child):
        if isinstance(value, dict) and step.name in value:
            _walk(value[step.name], rest, trail + (step.name,), out)
    elif isinstance(step, WildcardChild):
        if isinstance(value, dict):
            for key, child in value.items():
                _walk(child, rest, trail + (key,), out)
    elif isinstance(step, MultiName):
        if isinstance(value, dict):
            # Document order, not selector order.
            for key, child in value.items():
                if key in step.names:
                    _walk(child, rest, trail + (key,), out)
    elif isinstance(step, Index):
        if isinstance(value, list) and 0 <= step.index < len(value):
            _walk(value[step.index], rest, trail + (step.index,), out)
    elif isinstance(step, Slice):
        if isinstance(value, list):
            stop = len(value) if step.stop is None else min(step.stop, len(value))
            for i in range(min(step.start, len(value)), stop):
                _walk(value[i], rest, trail + (i,), out)
    elif isinstance(step, WildcardIndex):
        if isinstance(value, list):
            for i, child in enumerate(value):
                _walk(child, rest, trail + (i,), out)
    elif isinstance(step, MultiIndex):
        if isinstance(value, list):
            for i in step.indices:
                if 0 <= i < len(value):
                    _walk(value[i], rest, trail + (i,), out)
    elif isinstance(step, Filter):
        if isinstance(value, list):
            for i, child in enumerate(value):
                if step.expr.matches(child):
                    _walk(child, rest, trail + (i,), out)
    elif isinstance(step, Descendant):
        # Pre-order: a key match at this level is reported before matches
        # nested inside that key's value.
        if isinstance(value, dict):
            for key, child in value.items():
                if key == step.name:
                    _walk(child, rest, trail + (key,), out)
                _walk(child, steps, trail + (key,), out)
        elif isinstance(value, list):
            for i, child in enumerate(value):
                _walk(child, steps, trail + (i,), out)
    else:  # pragma: no cover - exhaustive over Step subclasses
        raise TypeError(f"unknown step type {type(step).__name__}")


def evaluate_with_paths(path: Path | str, value: Any) -> list[tuple[tuple[Any, ...], Any]]:
    """Evaluate and return ``(normalized_path, value)`` pairs in document
    order.  The normalized path is a tuple of keys (str) and indices (int).
    """
    if isinstance(path, str):
        path = parse_path(path)
    out: list[tuple[tuple[Any, ...], Any]] = []
    _walk(value, path.steps, (), out)
    return out


def evaluate(path: Path | str, value: Any) -> list[Any]:
    """Evaluate ``path`` against a parsed record; return matched values."""
    return [v for _, v in evaluate_with_paths(path, value)]


def evaluate_bytes(path: Path | str, data: bytes | str) -> list[Any]:
    """Parse JSON text with :func:`json.loads`, then evaluate ``path``."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return evaluate(path, json.loads(data))
