"""Bit-parallel fast-forward functions (paper Table 1, Algorithms 4-5).

All functions operate on absolute positions over a
:class:`repro.stream.buffer.StreamBuffer` and find their targets purely
through the scanner's queries (structural-interval ends, and in word
mode counting and k-th selection) — never by examining characters one
at a time.  The counting-based pairing of Lemma 4.2 / Theorem 4.3
(the scanner's ``pair_close``) locates every object and array end.

Position conventions:

- ``go_over_obj`` / ``go_over_ary`` take ``pos`` at the opening ``{`` /
  ``[`` and return the position *after* the matching closer.
- ``go_to_obj_end`` / ``go_to_ary_end`` take a position *inside* the
  container (at the current level) and likewise return the position after
  its closer.
- ``go_over_pri`` returns the position of the value's structural
  delimiter (``,`` or the container's closer).
- The G1 sweeps (:meth:`go_to_obj_attr`, :meth:`go_to_ary_elem`) and the
  G5 skip (:meth:`go_over_elems`) return plain tuples (documented on each
  method) — they sit on the engine's innermost loop, where object
  allocation is measurable.  Each leaves the enclosing container's
  closer it used in :attr:`FastForwarder.last_end` (:data:`NOT_FOUND`
  when it used none), and the G1 sweeps accept that closer back as
  ``end``: the engine keeps one closer per container, for its later G1
  sweeps, G4 and the past-range G5.

Validation semantics follow the paper (Section 3.3): fast-forwarded
segments are checked only for brace/bracket pairing; a stream that ends
while a structure is open raises
:class:`repro.errors.StreamExhaustedError`.  ``size`` is where the
stream ends: the buffer's end, or a batched record's end (see
:class:`VectorFastForwarder`).
"""

from __future__ import annotations

from repro.bits.classify import CharClass
from repro.bits.scanner import NOT_FOUND, VectorScanner
from repro.errors import StreamExhaustedError
from repro.stream.buffer import StreamBuffer

_LBRACE, _RBRACE = 0x7B, 0x7D
_LBRACKET, _RBRACKET = 0x5B, 0x5D
_QUOTE, _COMMA = 0x22, 0x2C
_QUOTE_B, _COMMA_B, _BACKSLASH = b'"', b",", 0x5C
_WS = frozenset(b" \t\n\r")


class FastForwarder:
    """The Table 1 function groups over one stream buffer."""

    #: The enclosing container's closer the last G1/G5 move used.  The
    #: word-semantics moves find no closer up front, so it stays
    #: :data:`NOT_FOUND` here and the engine pairs G4 and the past-range
    #: G5 with ``pair_close``, as Algorithm 4 does.
    last_end = NOT_FOUND

    def __init__(self, buffer: StreamBuffer) -> None:
        self.buffer = buffer
        self.scanner = buffer.scanner
        self.data = buffer.data
        self.size = len(buffer.data)
        # Bound methods: these are called once or more per skipped
        # structure, so attribute-lookup cost matters.
        self._find_next = buffer.scanner.find_next
        self._find_prev = buffer.scanner.find_prev
        #: The scanner's (metered) ``pair_close``, also called directly
        #: by the engine's closer skips (G4, G5 past the range).
        self.pair_close = buffer.scanner.pair_close

    # ------------------------------------------------------------------
    # G2/G4 closer skips: counting-based pairing (Algorithm 4,
    # Theorem 4.3).  Each is one ``pair_close`` call (no helper frame)
    # and treats a closer at or past ``size`` — a later record's, in a
    # record batch — as the end of the stream.

    def go_over_obj(self, pos: int) -> int:
        """``goOverObj()``: move past the object starting at ``pos``."""
        if self.data[pos] != _LBRACE:
            raise StreamExhaustedError("expected '{' to go over an object", pos)
        end = self.pair_close(CharClass.LBRACE, CharClass.RBRACE, pos + 1, 1)
        if end < 0 or end >= self.size:
            raise StreamExhaustedError("stream ended with unclosed '{'", self.size)
        return end + 1

    def go_over_ary(self, pos: int) -> int:
        """``goOverAry()``: move past the array starting at ``pos``."""
        if self.data[pos] != _LBRACKET:
            raise StreamExhaustedError("expected '[' to go over an array", pos)
        end = self.pair_close(CharClass.LBRACKET, CharClass.RBRACKET, pos + 1, 1)
        if end < 0 or end >= self.size:
            raise StreamExhaustedError("stream ended with unclosed '['", self.size)
        return end + 1

    def go_to_obj_end(self, pos: int) -> int:
        """``goToObjEnd()`` (G4): from inside an object to after its ``}``."""
        end = self.pair_close(CharClass.LBRACE, CharClass.RBRACE, pos, 1)
        if end < 0 or end >= self.size:
            raise StreamExhaustedError("stream ended with unclosed '{'", self.size)
        return end + 1

    def go_to_ary_end(self, pos: int) -> int:
        """``goToAryEnd()`` (G5): from inside an array to after its ``]``."""
        end = self.pair_close(CharClass.LBRACKET, CharClass.RBRACKET, pos, 1)
        if end < 0 or end >= self.size:
            raise StreamExhaustedError("stream ended with unclosed '['", self.size)
        return end + 1

    def go_over_pri(self, pos: int, in_object: bool) -> int:
        """``goOverPriAttr()`` / ``goOverPriElem()``: position of the
        structural delimiter ending the primitive value at ``pos``.

        The delimiter is the next structural ``,`` or the enclosing
        container's closer, whichever comes first — Algorithm 4's comma
        interval with the closer check folded into a single union-class
        scan.

        Fast paths: a non-string primitive cannot contain strings before
        its delimiter, so a byte-level memchr race between ``,`` and the
        closer is exact; a string primitive whose closing quote is
        provably unescaped (previous byte not a backslash) ends at the
        first non-whitespace byte after it.  Anything trickier falls back
        to the string-filtered bitmap scan.
        """
        data, size = self.data, self.size
        byte = data[pos]
        closer = _RBRACE if in_object else _RBRACKET
        if byte != _QUOTE:
            comma = data.find(_COMMA_B, pos, size)
            close = data.find(b"}" if in_object else b"]", pos, size)
            if comma < 0:
                delim = close
            elif close < 0:
                delim = comma
            else:
                delim = comma if comma < close else close
            if delim < 0:
                raise StreamExhaustedError("stream ended inside a primitive value", pos)
            return delim
        quote = data.find(_QUOTE_B, pos + 1, size)
        if quote > 0 and data[quote - 1] != _BACKSLASH:
            delim = quote + 1
            while delim < size and data[delim] in _WS:
                delim += 1
            if delim < size and (data[delim] == _COMMA or data[delim] == closer):
                return delim
        cls = CharClass.COMMA_OR_RBRACE if in_object else CharClass.COMMA_OR_RBRACKET
        delim = self._find_next(cls, pos)
        if delim == NOT_FOUND or delim >= size:
            raise StreamExhaustedError("stream ended inside a primitive value", pos)
        return delim

    # ------------------------------------------------------------------
    # G1: type-directed sweeps (Algorithm 5)

    def go_to_obj_attr(self, pos: int, want: str, end: int = NOT_FOUND) -> tuple[bool, int, bytes | None, int]:
        """``goToObjAttr()`` / ``goToAryAttr()``: sweep to the next
        attribute whose value is an object (``want='object'``) or array
        (``want='array'``).  The word sweep ignores a known ``end``.

        ``pos`` must be at the current level of the object (at an
        attribute name, or just after ``{`` or ``,``).  Runs of primitive
        attributes are crossed with a single jump to the next ``{``/``[``
        (the enhanced ``goOverPriAttrs`` of Algorithm 5); values of the
        wrong structured type are crossed with ``goOverObj``/``goOverAry``.

        Returns ``(ended, position, name_raw, value_pos)``:

        - ``(True, end_pos, None, 0)`` — the object closed; ``end_pos``
          is just past its ``}``.
        - ``(False, name_start, name_raw, value_pos)`` — an attribute of
          the wanted type; ``name_start`` is its opening quote.
        """
        want_byte = _LBRACE if want == "object" else _LBRACKET
        data, find_next = self.data, self._find_next
        cur = pos
        while True:
            nxt_open = find_next(CharClass.OPEN, cur)
            nxt_close = find_next(CharClass.RBRACE, cur)
            if nxt_close == NOT_FOUND:
                raise StreamExhaustedError("stream ended inside an object", cur)
            if nxt_open == NOT_FOUND or nxt_close < nxt_open:
                # No structured value before the object closes.
                return True, nxt_close + 1, None, 0
            open_byte = data[nxt_open]
            if open_byte == want_byte:
                name_start, name_raw = self._attr_name_before(nxt_open)
                return False, name_start, name_raw, nxt_open
            # A structured value of the other type: go over it and resume.
            cur = self.go_over_obj(nxt_open) if open_byte == _LBRACE else self.go_over_ary(nxt_open)

    def go_to_ary_elem(self, pos: int, want: str, end: int = NOT_FOUND) -> tuple[bool, int, int]:
        """``goToObjElem()`` / ``goToAryElem()``: sweep to the next element
        of the wanted structured type, counting crossed commas so index
        constraints stay exact (Algorithm 5's counter).  The word sweep
        ignores a known ``end``.

        Returns ``(ended, position, commas_skipped)``; ``position`` is one
        past ``]`` when ``ended``, else the element's opening character.
        """
        want_byte = _LBRACE if want == "object" else _LBRACKET
        data, find_next, count_range = self.data, self._find_next, self.scanner.count_range
        cur = pos
        commas = 0
        while True:
            nxt_open = find_next(CharClass.OPEN, cur)
            nxt_close = find_next(CharClass.RBRACKET, cur)
            if nxt_close == NOT_FOUND:
                raise StreamExhaustedError("stream ended inside an array", cur)
            if nxt_open == NOT_FOUND or nxt_close < nxt_open:
                commas += count_range(CharClass.COMMA, cur, nxt_close)
                return True, nxt_close + 1, commas
            commas += count_range(CharClass.COMMA, cur, nxt_open)
            open_byte = data[nxt_open]
            if open_byte == want_byte:
                return False, nxt_open, commas
            cur = self.go_over_obj(nxt_open) if open_byte == _LBRACE else self.go_over_ary(nxt_open)

    # ------------------------------------------------------------------
    # G5: index-constrained element skipping

    def go_over_elems(self, pos: int, k: int) -> tuple[bool, int, int]:
        """``goOverElems(K)``: skip exactly ``k`` elements (and their
        separating commas) starting from the element at ``pos``.

        Returns ``(ended, position, elements_skipped)``: the start of the
        following element (``elements_skipped == k``), or one past ``]``
        if the array closes first.
        """
        data = self.data
        size = self.size
        cur = pos
        skipped = 0
        while skipped < k:
            while cur < size and data[cur] in _WS:
                cur += 1
            if cur >= size:
                raise StreamExhaustedError("stream ended inside an array", cur)
            byte = data[cur]
            if byte == _LBRACE:
                cur = self.go_over_obj(cur)
            elif byte == _LBRACKET:
                cur = self.go_over_ary(cur)
            else:
                cur = self.go_over_pri(cur, in_object=False)
            # After the value: the next structural char is ',' or ']'.
            while cur < size and data[cur] in _WS:
                cur += 1
            if cur >= size:
                raise StreamExhaustedError("stream ended inside an array", cur)
            delim_byte = data[cur]
            if delim_byte == _COMMA:
                cur += 1
                skipped += 1
            elif delim_byte == _RBRACKET:
                return True, cur + 1, skipped
            else:
                raise StreamExhaustedError("expected ',' or ']' after array element", cur)
        while cur < size and data[cur] in _WS:
            cur += 1
        return False, cur, skipped

    # ------------------------------------------------------------------
    # helpers

    def _attr_name_before(self, value_pos: int) -> tuple[int, bytes]:
        """Recover the attribute name whose value starts at ``value_pos``.

        The name's closing quote is the nearest unescaped quote behind the
        value (only the colon and whitespace separate them), found with
        the backward scanner primitive — still bit-parallel, no character
        scanning.
        """
        close = self._find_prev(CharClass.QUOTE, value_pos - 1)
        if close == NOT_FOUND:
            raise StreamExhaustedError("attribute value without a name", value_pos)
        open_quote = self._find_prev(CharClass.QUOTE, close - 1)
        if open_quote == NOT_FOUND:
            raise StreamExhaustedError("unpaired quote before attribute value", close)
        return open_quote, self.data[open_quote + 1 : close]


class VectorFastForwarder(FastForwarder):
    """Stage-2 fast-forwards over the leveled depth tables of a
    :class:`~repro.bits.scanner.VectorScanner`.

    Every move is one scanner call: the G2/G4 closer skips are the base
    class's direct depth-table ``pair_close`` calls, and the per-value
    G1 sweeps and the per-element G5 loop become single fused leveled
    lookups (next wanted-type open at the current depth with its name's
    quotes; k-th comma at the current depth with the enclosing closer).
    Positions, statistics, and error classes on well-formed input match
    the word-at-a-time path byte for byte (the vector-vs-word
    equivalence suite enforces this); inside *malformed* skip regions
    the leveled lookup may tolerate delimiter garbage the byte loop
    would trip over — the paper's Section 3.3 stance that skipped
    regions are not validated.

    ``[start, end)`` bounds one record of a record batch
    (:mod:`repro.stream.batches`), in the batch's coordinates: ``end``
    is the end of input, so a scanner answer at or past it — a position
    of a later record — counts as :data:`NOT_FOUND`, and so does a name
    quote before ``start``.  The batch keeps only balanced records, so
    every answer inside the bounds is the one a standalone index of the
    record gives, shifted by ``start``.
    """

    def __init__(self, buffer: StreamBuffer, start: int = 0, end: int | None = None) -> None:
        super().__init__(buffer)
        self.start = start
        if end is not None:
            self.size = end
        scanner = buffer.scanner
        self._leveled_obj_attr_named = scanner.leveled_obj_attr_named
        self._leveled_ary_elem = scanner.leveled_ary_elem
        self._leveled_skip_elems = scanner.leveled_skip_elems

    def go_to_obj_attr(self, pos: int, want: str, end: int = NOT_FOUND) -> tuple[bool, int, bytes | None, int]:
        """``goToObjAttr()`` as one fused leveled lookup: the enclosing
        object's closer bounds the sweep (``end``, when an earlier
        lookup in the object found it), the next wanted-type open at
        the attribute-value depth is read straight from the opens-by-
        depth map (wrong-type siblings nest deeper and never surface),
        and the name's quotes are the two unescaped quotes before it."""
        end, found, name_start, close = self._leveled_obj_attr_named(
            pos, _LBRACE if want == "object" else _LBRACKET, end
        )
        if end < 0 or end >= self.size:
            raise StreamExhaustedError("stream ended inside an object", pos)
        self.last_end = end
        if found == NOT_FOUND:
            return True, end + 1, None, 0
        if close < self.start:
            raise StreamExhaustedError("attribute value without a name", found)
        if name_start < self.start:
            raise StreamExhaustedError("unpaired quote before attribute value", close)
        return False, name_start, self.data[name_start + 1 : close], found

    def go_to_ary_elem(self, pos: int, want: str, end: int = NOT_FOUND) -> tuple[bool, int, int]:
        """``goToAryElem()`` leveled: next wanted-type open at the element
        depth (before ``end``, the array's closer, when already known),
        with crossed commas counted from the leveled comma map so index
        constraints stay exact."""
        end, found, commas = self._leveled_ary_elem(pos, _LBRACE if want == "object" else _LBRACKET, end)
        if end < 0 or end >= self.size:
            raise StreamExhaustedError("stream ended inside an array", pos)
        self.last_end = end
        if found == NOT_FOUND:
            return True, end + 1, commas
        return False, found, commas

    def go_over_elems(self, pos: int, k: int) -> tuple[bool, int, int]:
        """``goOverElems(K)`` as one fused leveled lookup: the enclosing
        array's closer bounds the span, and the ``k``-th element-level
        comma (combined depth of ``pos``) is read straight from the
        leveled comma map."""
        data = self.data
        size = self.size
        if k <= 0:
            self.last_end = NOT_FOUND
            cur = pos
            while cur < size and data[cur] in _WS:
                cur += 1
            return False, cur, 0
        end, comma, crossed = self._leveled_skip_elems(pos, k)
        if end < 0 or end >= size:
            raise StreamExhaustedError("stream ended inside an array", pos)
        self.last_end = end
        if comma == NOT_FOUND:
            return True, end + 1, crossed
        cur = comma + 1
        while cur < size and data[cur] in _WS:
            cur += 1
        return False, cur, k


def make_fastforwarder(buffer: StreamBuffer, start: int = 0, end: int | None = None) -> FastForwarder:
    """The fast-forwarder for the scanner the buffer was built with: the
    leveled :class:`VectorFastForwarder` over a
    :class:`~repro.bits.scanner.VectorScanner` (with a batched record's
    bounds, if any), the word-semantics :class:`FastForwarder` over a
    :class:`~repro.bits.scanner.WordScanner` (word mode runs every
    record over its own buffer)."""
    if isinstance(buffer.scanner, VectorScanner):
        return VectorFastForwarder(buffer, start, end)
    return FastForwarder(buffer)
