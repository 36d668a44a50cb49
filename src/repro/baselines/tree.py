"""In-memory DOM for the preprocessing-scheme baselines.

RapidJSON-like and simdjson-like both follow the paper's *preprocessing
scheme*: parse the record into an in-memory structure, then traverse it
top-down to evaluate the path query (Figure 3-(a)).  The DOM here is a
compact span-carrying tree:

- object — ``ObjectNode`` with ``members`` = list of ``(name, node)``;
- array — ``ArrayNode`` with ``elements``;
- primitive — ``PrimitiveNode``;

every node records its ``(start, end)`` span in the source so query
results can be emitted as raw-text matches exactly like the streaming
engines (making outputs comparable across methods).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.output import MatchList
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


@dataclass(frozen=True)
class Node:
    """Base DOM node: a value spanning ``[start, end)`` of the source."""

    start: int
    end: int


@dataclass(frozen=True)
class ObjectNode(Node):
    members: tuple[tuple[str, "AnyNode"], ...]


@dataclass(frozen=True)
class ArrayNode(Node):
    elements: tuple["AnyNode", ...]


@dataclass(frozen=True)
class PrimitiveNode(Node):
    pass


AnyNode = ObjectNode | ArrayNode | PrimitiveNode


def to_python(node: AnyNode, source: bytes):
    """Materialize a DOM subtree as plain Python objects.

    The spans make this trivially correct: primitives re-parse their own
    slice.  Used by tests to assert the two DOM builders (char-by-char
    and tape-driven) agree with ``json.loads``, and handy when a caller
    wants real objects for a *subtree* without parsing the whole record.
    """
    import json

    if isinstance(node, ObjectNode):
        return {name: to_python(value, source) for name, value in node.members}
    if isinstance(node, ArrayNode):
        return [to_python(value, source) for value in node.elements]
    return json.loads(source[node.start : node.end])


def count_nodes(node: AnyNode) -> int:
    """Total node count of a DOM (memory-footprint diagnostics)."""
    if isinstance(node, ObjectNode):
        return 1 + sum(count_nodes(v) for _, v in node.members)
    if isinstance(node, ArrayNode):
        return 1 + sum(count_nodes(v) for v in node.elements)
    return 1


def query_tree(root: AnyNode, path: Path, source: bytes, matches: MatchList) -> None:
    """Top-down traversal evaluating ``path`` over a DOM (Figure 3-(a))."""
    _walk(root, path.steps, source, matches)


def _walk(node: AnyNode, steps: tuple[Step, ...], source: bytes, matches: MatchList) -> None:
    if not steps:
        matches.add(source, node.start, node.end)
        return
    step, rest = steps[0], steps[1:]
    if isinstance(step, Child):
        if isinstance(node, ObjectNode):
            for name, value in node.members:
                if name == step.name:
                    _walk(value, rest, source, matches)
    elif isinstance(step, WildcardChild):
        if isinstance(node, ObjectNode):
            for _, value in node.members:
                _walk(value, rest, source, matches)
    elif isinstance(step, MultiName):
        if isinstance(node, ObjectNode):
            for name, value in node.members:  # document order
                if name in step.names:
                    _walk(value, rest, source, matches)
    elif isinstance(step, Index):
        if isinstance(node, ArrayNode) and 0 <= step.index < len(node.elements):
            _walk(node.elements[step.index], rest, source, matches)
    elif isinstance(step, Slice):
        if isinstance(node, ArrayNode):
            stop = len(node.elements) if step.stop is None else min(step.stop, len(node.elements))
            for i in range(min(step.start, len(node.elements)), stop):
                _walk(node.elements[i], rest, source, matches)
    elif isinstance(step, WildcardIndex):
        if isinstance(node, ArrayNode):
            for value in node.elements:
                _walk(value, rest, source, matches)
    elif isinstance(step, MultiIndex):
        if isinstance(node, ArrayNode):
            for i in step.indices:
                if 0 <= i < len(node.elements):
                    _walk(node.elements[i], rest, source, matches)
    elif isinstance(step, Filter):
        if isinstance(node, ArrayNode):
            for element in node.elements:
                if step.expr.matches(to_python(element, source)):
                    _walk(element, rest, source, matches)
    elif isinstance(step, Descendant):
        if isinstance(node, ObjectNode):
            for name, value in node.members:
                if name == step.name:
                    _walk(value, rest, source, matches)
                _walk(value, steps, source, matches)
        elif isinstance(node, ArrayNode):
            for value in node.elements:
                _walk(value, steps, source, matches)
    else:  # pragma: no cover - exhaustive over Step subclasses
        raise TypeError(f"unknown step type {type(step).__name__}")
