"""Match collection: lazy byte-range views over the input buffer.

Streaming engines output the *raw text* of each matched value (the paper's
G3 functions "output an object and move pos to its end" — no parsing of
the output).  :class:`Match` therefore stores byte offsets into the input
and decodes on demand: ``.raw`` and ``.text`` are zero-parse views,
``.value()`` parses on first touch and memoizes, and the typed accessors
(:meth:`Match.as_int`, :meth:`Match.as_str`, ...) decode scalar tokens
without a full ``json.loads``.

Internally matches are bare ``(source, start, end)`` tuples — engines add
thousands of matches per run, and dataclass construction was measurable.
:class:`Match` objects are materialized only on access, and
:class:`MatchList` caches each materialized view so repeated access (an
``@``-path predicate, then the consumer) parses every byte range at most
once per run.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterator

from repro.errors import InvariantError, MatchTypeError

#: Distinguishes "never parsed" from a memoized ``None`` (JSON ``null``).
_UNSET = object()


def _decode(text: bytes) -> Any:
    try:
        return json.loads(text)
    except RecursionError as exc:
        from repro.resilience.guards import depth_error_from_recursion

        raise depth_error_from_recursion(exc, "match-decode") from None


class Match:
    """One matched value: a lazy view over ``source[start:end]``.

    The parse-on-first-touch contract: constructing, counting, slicing
    (``.raw``/``.text``) and serializing (:meth:`MatchList.to_jsonl`)
    never run ``json.loads``; the first :meth:`value` call parses and
    memoizes, and later calls return the memoized object.
    """

    __slots__ = ("source", "start", "end", "_value")

    def __init__(self, source: bytes, start: int, end: int) -> None:
        self.source = source
        self.start = start
        self.end = end
        self._value: Any = _UNSET

    @property
    def text(self) -> bytes:
        """The raw matched JSON text (copies the slice)."""
        return self.source[self.start : self.end]

    @property
    def raw(self) -> memoryview:
        """Zero-copy view of the raw matched JSON text."""
        return memoryview(self.source)[self.start : self.end]

    @property
    def touched(self) -> bool:
        """Whether this view has already materialized its value."""
        return self._value is not _UNSET

    def value(self) -> Any:
        """Decode the matched text into a Python value (memoized).

        A matched slice nested past the C decoder's recursion limit (a
        skipped-region nesting bomb the engine emitted verbatim) raises
        :class:`~repro.errors.DepthLimitError`, not a bare
        :class:`RecursionError`.
        """
        if self._value is _UNSET:
            self._value = _decode(self.text)
        return self._value

    # -- typed accessors ----------------------------------------------
    # Scalar tokens decode without a full json.loads: the engine already
    # guarantees the slice is one JSON value, so int()/float()/substring
    # conversion on the raw bytes is both cheaper and allocation-free
    # compared to the general decoder.

    def _token(self) -> bytes:
        return self.source[self.start : self.end].strip()

    def as_int(self) -> int:
        """The match as an ``int``; :class:`MatchTypeError` otherwise."""
        if self._value is not _UNSET:
            if isinstance(self._value, bool) or not isinstance(self._value, int):
                raise MatchTypeError(f"match is not an integer: {self.text[:40]!r}")
            return self._value
        try:
            value = int(self._token())
        except ValueError:
            raise MatchTypeError(f"match is not an integer: {self.text[:40]!r}") from None
        self._value = value
        return value

    def as_float(self) -> float:
        """The match as a ``float`` (accepts any JSON number)."""
        if self._value is not _UNSET:
            if isinstance(self._value, bool) or not isinstance(self._value, (int, float)):
                raise MatchTypeError(f"match is not a number: {self.text[:40]!r}")
            return float(self._value)
        try:
            return float(self._token())
        except ValueError:
            raise MatchTypeError(f"match is not a number: {self.text[:40]!r}") from None

    def as_str(self) -> str:
        """The match as a ``str``; escape-free strings skip the decoder."""
        if self._value is not _UNSET:
            if not isinstance(self._value, str):
                raise MatchTypeError(f"match is not a string: {self.text[:40]!r}")
            return self._value
        token = self._token()
        if len(token) < 2 or token[:1] != b'"' or token[-1:] != b'"':
            raise MatchTypeError(f"match is not a string: {self.text[:40]!r}")
        if b"\\" not in token:
            value: str = token[1:-1].decode("utf-8")
        else:
            value = _decode(token)
        self._value = value
        return value

    def as_bool(self) -> bool:
        """The match as a ``bool``."""
        if self._value is not _UNSET:
            if not isinstance(self._value, bool):
                raise MatchTypeError(f"match is not a boolean: {self.text[:40]!r}")
            return self._value
        token = self._token()
        if token == b"true":
            self._value = True
        elif token == b"false":
            self._value = False
        else:
            raise MatchTypeError(f"match is not a boolean: {self.text[:40]!r}")
        return self._value

    def is_null(self) -> bool:
        """Whether the match is JSON ``null`` (never parses)."""
        if self._value is not _UNSET:
            return self._value is None
        return self._token() == b"null"

    # -- identity ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return (
            self.start == other.start
            and self.end == other.end
            and (self.source is other.source or self.source == other.source)
        )

    def __hash__(self) -> int:
        return hash((self.start, self.end, len(self.source)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.text[:40]
        suffix = b"..." if len(self.text) > 40 else b""
        return f"Match({self.start}:{self.end}, {preview + suffix!r})"


class MatchList:
    """Ordered collection of matches from one engine run.

    Terminal operations split into two families:

    - **Zero-parse**: ``len()`` / :meth:`count`, :meth:`texts`,
      :meth:`to_jsonl`, :meth:`spans` — these never touch the decoder.
    - **Materializing**: iteration, indexing and :meth:`values` hand out
      cached :class:`Match` views, so the same byte range decodes at
      most once no matter how many consumers touch it.
    """

    __slots__ = ("_matches", "_views")

    def __init__(self) -> None:
        self._matches: list[tuple[bytes, int, int] | None] = []
        self._views: dict[int, Match] = {}

    def add(self, source: bytes, start: int, end: int) -> None:
        self._matches.append((source, start, end))

    @property
    def appender(self) -> Callable[[tuple[bytes, int, int]], None]:
        """:meth:`add` without its call frame: the entry list's bound
        ``append``, taking one ``(source, start, end)`` tuple.  Valid
        until the next :meth:`rebase`."""
        return self._matches.append

    def add_match(self, match: Match) -> None:
        """Adopt an existing view, preserving its memoized value.

        Used when a match has already been materialized upstream (e.g. a
        filter predicate touched it) so the consumer does not pay a
        second parse for the same byte range.
        """
        self._views[len(self._matches)] = match
        self._matches.append((match.source, match.start, match.end))

    def reserve(self) -> int:
        """Reserve a slot for a match whose end is not yet known.

        Keeps document (pre-)order for container-valued matches that are
        emitted only after their content has been streamed — the
        descendant extension can find further matches *inside* such a
        value, and those must come after it.
        """
        self._matches.append(None)
        return len(self._matches) - 1

    def fill(self, slot: int, source: bytes, start: int, end: int) -> None:
        """Fill a slot created by :meth:`reserve`."""
        if self._matches[slot] is not None:
            raise InvariantError(f"slot {slot} already filled")
        self._matches[slot] = (source, start, end)

    def rebase(self, source: bytes, shift: int) -> None:
        """Re-point every match at ``source``, ``shift`` bytes to the
        left: a batched record's matches, moved from its batch's bytes
        to the record's own (no view has been handed out yet)."""
        self._matches = [
            None if entry is None else (source, entry[1] - shift, entry[2] - shift)
            for entry in self._matches
        ]

    def _entry(self, i: int) -> tuple[bytes, int, int]:
        entry = self._matches[i]
        if entry is None:
            raise InvariantError(f"match slot {i} was reserved but never filled")
        return entry

    def _view(self, i: int) -> Match:
        view = self._views.get(i)
        if view is None:
            view = Match(*self._entry(i))
            self._views[i] = view
        return view

    def __len__(self) -> int:
        return len(self._matches)

    def count(self) -> int:
        """Number of matches — a terminal op that never parses."""
        return len(self._matches)

    def __iter__(self) -> Iterator[Match]:
        for i in range(len(self._matches)):
            yield self._view(i)

    def __getitem__(self, i: int) -> Match:
        if i < 0:
            i += len(self._matches)
        return self._view(i)

    def spans(self) -> list[tuple[int, int]]:
        """``(start, end)`` byte range of every match (never parses)."""
        return [(start, end) for _, start, end in map(self._entry, range(len(self._matches)))]

    def offsets(self) -> list[list[int] | None]:
        """``[start, end]`` of every match, ``None`` for a reserved slot
        not yet filled — the JSON shape a suspended run checkpoints."""
        return [None if entry is None else [entry[1], entry[2]] for entry in self._matches]

    def texts(self) -> list[bytes]:
        """Raw text of every match, in document order."""
        return [source[start:end] for source, start, end in map(self._entry, range(len(self._matches)))]

    def values(self) -> list[Any]:
        """Decoded value of every match, in document order (memoized)."""
        return [self._view(i).value() for i in range(len(self._matches))]

    def extend(self, other: "MatchList") -> None:
        base = len(self._matches)
        self._matches.extend(other._matches)
        for i, view in other._views.items():
            self._views[base + i] = view

    def to_jsonl(self) -> bytes:
        """Serialize the matches as newline-delimited JSON (raw slices).

        Every match text is already valid JSON, so the output is valid
        JSONL without re-encoding — streaming output for streaming input.
        """
        return b"\n".join(self.texts()) + (b"\n" if len(self) else b"")
