"""Recursive-descent parser for the supported JSONPath dialect.

Grammar (after the mandatory ``$`` root)::

    path      ::= '$' step*
    step      ::= '.' NAME | '.' '*' | '..' NAME | bracket
    bracket   ::= '[' selector ']'
    selector  ::= '*' | INT (',' INT)* | INT? ':' INT? | STRING (',' STRING)*

String selectors accept single or double quotes with backslash escapes.
Union selectors — ``[1,3,5]`` and ``['a','b']`` — are supported as an
extension (document-order match semantics).
Errors are reported as :class:`repro.errors.JsonPathSyntaxError` with the
offending offset.
"""

from __future__ import annotations

from repro.errors import JsonPathSyntaxError
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
from repro.jsonpath.filter import And, Comparison, Exists, FilterExpr, Not, Or, RelPath

_NAME_EXTRA = "_-"


class _Cursor:
    """Character cursor with error reporting context."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def error(self, message: str) -> None:
        raise JsonPathSyntaxError(message, self.text, self.pos)

    def skip_spaces(self) -> None:
        while self.peek() == " ":
            self.pos += 1


def _parse_name(cur: _Cursor) -> str:
    start = cur.pos
    while cur.peek() and (cur.peek().isalnum() or cur.peek() in _NAME_EXTRA):
        cur.advance()
    if cur.pos == start:
        cur.error("expected attribute name")
    return cur.text[start : cur.pos]


def _parse_int(cur: _Cursor) -> int:
    start = cur.pos
    while cur.peek().isdigit():
        cur.advance()
    if cur.pos == start:
        cur.error("expected integer")
    return int(cur.text[start : cur.pos])


def _parse_quoted(cur: _Cursor) -> str:
    quote = cur.advance()
    parts: list[str] = []
    while True:
        ch = cur.peek()
        if not ch:
            cur.error("unterminated string selector")
        cur.advance()
        if ch == "\\":
            nxt = cur.advance()
            if not nxt:
                cur.error("dangling escape in string selector")
            parts.append(nxt)
        elif ch == quote:
            return "".join(parts)
        else:
            parts.append(ch)


def _parse_bracket(cur: _Cursor) -> Step:
    cur.expect("[")
    ch = cur.peek()
    if ch == "?":
        cur.advance()
        cur.expect("(")
        cur.skip_spaces()
        expr = _parse_or_expr(cur)
        cur.skip_spaces()
        cur.expect(")")
        cur.expect("]")
        return Filter(expr)
    if ch == "*":
        cur.advance()
        cur.expect("]")
        return WildcardIndex()
    if ch in "'\"":
        names = [_parse_quoted(cur)]
        while cur.peek() == ",":
            cur.advance()
            if cur.peek() not in "'\"":
                cur.error("expected quoted name after ','")
            names.append(_parse_quoted(cur))
        cur.expect("]")
        # One distinct name is a plain child step: a MultiName would
        # collapse to it and unparse as ``['a']``, which parses as Child.
        if len(set(names)) == 1:
            return Child(names[0])
        return MultiName(tuple(names))
    if ch == ":":
        cur.advance()
        stop = _parse_int(cur) if cur.peek().isdigit() else None
        cur.expect("]")
        return Slice(0, stop)
    if ch.isdigit():
        first = _parse_int(cur)
        if cur.peek() == ":":
            cur.advance()
            stop = _parse_int(cur) if cur.peek().isdigit() else None
            if stop is not None and stop <= first:
                cur.error(f"empty range [{first}:{stop}]")
            cur.expect("]")
            return Slice(first, stop)
        if cur.peek() == ",":
            indices = [first]
            while cur.peek() == ",":
                cur.advance()
                indices.append(_parse_int(cur))
            cur.expect("]")
            # One distinct index is a plain index step (``[0,0]`` is ``[0]``),
            # so the parsed path round-trips through ``unparse``.
            if len(set(indices)) == 1:
                return Index(first)
            return MultiIndex(tuple(indices))
        cur.expect("]")
        return Index(first)
    cur.error("expected '*', index, range, or quoted name")
    raise AssertionError("unreachable")


def _parse_or_expr(cur: _Cursor) -> FilterExpr:
    left = _parse_and_expr(cur)
    cur.skip_spaces()
    while cur.peek() == "|":
        cur.expect("|")
        cur.expect("|")
        cur.skip_spaces()
        left = Or(left, _parse_and_expr(cur))
        cur.skip_spaces()
    return left


def _parse_and_expr(cur: _Cursor) -> FilterExpr:
    left = _parse_unary(cur)
    cur.skip_spaces()
    while cur.peek() == "&":
        cur.expect("&")
        cur.expect("&")
        cur.skip_spaces()
        left = And(left, _parse_unary(cur))
        cur.skip_spaces()
    return left


def _parse_unary(cur: _Cursor) -> FilterExpr:
    cur.skip_spaces()
    if cur.peek() == "!":
        cur.advance()
        return Not(_parse_unary(cur))
    if cur.peek() == "(":
        cur.advance()
        expr = _parse_or_expr(cur)
        cur.skip_spaces()
        cur.expect(")")
        return expr
    return _parse_predicate(cur)


def _parse_rel_path(cur: _Cursor) -> RelPath:
    cur.expect("@")
    steps: list[Step] = []
    while True:
        ch = cur.peek()
        if ch == ".":
            cur.advance()
            steps.append(Child(_parse_name(cur)))
        elif ch == "[":
            cur.advance()
            inner = cur.peek()
            if inner in "'\"":
                steps.append(Child(_parse_quoted(cur)))
            elif inner.isdigit():
                steps.append(Index(_parse_int(cur)))
            else:
                cur.error("expected index or quoted name in filter path")
            cur.expect("]")
        else:
            break
    return RelPath(tuple(steps))


def _parse_literal(cur: _Cursor):
    cur.skip_spaces()
    ch = cur.peek()
    if ch in "'\"":
        return _parse_quoted(cur)
    if ch.isdigit() or ch == "-":
        start = cur.pos
        if ch == "-":
            cur.advance()
        while cur.peek().isdigit():
            cur.advance()
        if cur.peek() == ".":
            cur.advance()
            while cur.peek().isdigit():
                cur.advance()
        if cur.peek() in "eE":
            cur.advance()
            if cur.peek() in "+-":
                cur.advance()
            while cur.peek().isdigit():
                cur.advance()
        text = cur.text[start : cur.pos]
        try:
            return int(text)
        except ValueError:
            try:
                return float(text)
            except ValueError:
                cur.error(f"invalid number literal {text!r}")
    for keyword, value in (("true", True), ("false", False), ("null", None)):
        if cur.text.startswith(keyword, cur.pos):
            cur.pos += len(keyword)
            return value
    cur.error("expected a literal (number, string, true, false, null)")


def _parse_predicate(cur: _Cursor) -> FilterExpr:
    cur.skip_spaces()
    if cur.peek() != "@":
        cur.error("expected '@' at the start of a filter predicate")
    path = _parse_rel_path(cur)
    cur.skip_spaces()
    for op in ("==", "!=", "<=", ">=", "<", ">"):
        if cur.text.startswith(op, cur.pos):
            cur.pos += len(op)
            literal = _parse_literal(cur)
            return Comparison(path, op, literal)
    return Exists(path)


def parse_path(expression: str) -> Path:
    """Parse a JSONPath expression into a :class:`Path`.

    >>> parse_path("$.place.name").unparse()
    '$.place.name'
    >>> parse_path("$.pd[*].cp[1:3].id").unparse()
    '$.pd[*].cp[1:3].id'
    """
    cur = _Cursor(expression.strip())
    cur.expect("$")
    steps: list[Step] = []
    while cur.peek():
        ch = cur.peek()
        if ch == ".":
            cur.advance()
            if cur.peek() == ".":
                cur.advance()
                steps.append(Descendant(_parse_name(cur)))
            elif cur.peek() == "*":
                cur.advance()
                steps.append(WildcardChild())
            else:
                steps.append(Child(_parse_name(cur)))
        elif ch == "[":
            steps.append(_parse_bracket(cur))
        else:
            cur.error(f"unexpected character {ch!r}")
    if not steps:
        cur.error("path must contain at least one step after '$'")
    return Path(tuple(steps))
