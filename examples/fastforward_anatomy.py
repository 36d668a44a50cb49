"""Anatomy of bit-parallel fast-forwarding (paper Sections 4.1-4.2).

Walks through the machinery below the engine on a small record:
structural intervals (Definition 4.1), the string mask that removes
pseudo-metacharacters, counting-based pairing (Theorem 4.3), and the
Table 1 fast-forward functions — each printed against the raw text so
you can follow the positions.

Run::

    python examples/fastforward_anatomy.py
"""

from __future__ import annotations

from repro.bits.classify import CharClass
from repro.bits.words import interval_between, lowest_bit
from repro.engine.fastforward import make_fastforwarder
from repro.stream.buffer import StreamBuffer

RECORD = b'{"coordinates": [40.74, -73.99], "user": {"id": 6253282}, "place": {"name": "Manhattan", "tags": ["a{b", "c}d"]}}'


def ruler(data: bytes) -> str:
    return "".join(str(i % 10) for i in range(len(data)))


def main() -> None:
    print(RECORD.decode())
    print(ruler(RECORD))

    # Word mode: the paper-faithful word-at-a-time scanner and its
    # fast-forwarder.
    buffer = StreamBuffer(RECORD, mode="word", cache_chunks=None)
    scanner = buffer.scanner
    ff = make_fastforwarder(buffer)

    # --- 1. the string mask: metacharacters inside strings are invisible
    braces = list(buffer.index.get(0).positions_list(CharClass.LBRACE))
    print(f"\nstructural '{{' positions (note: none inside \"a{{b\"): {braces}")

    # --- 2. structural intervals (Definition 4.1): the interval from 0
    # ends at the next ':', which find_next reports
    end = scanner.find_next(CharClass.COLON, 0)
    print(f"colon interval from 0: [0, {end}) -> text {RECORD[0:end]!r}")
    # Algorithm 3 in the first word: isolate the next ':' bit, subtract
    word = int(buffer.index.get(0).words[CharClass.COLON][0])
    bitmap = interval_between(1 << 0, lowest_bit(word))
    bits = f"{bitmap:064b}"[::-1]
    print(f"  interval bitmap of word 0 (bit 0 first): {bits}")

    # --- 3. counting-based pairing: goOverObj on the 'user' value
    user_obj = RECORD.index(b'{"id"')
    end = ff.go_over_obj(user_obj)
    print(f"\ngoOverObj({user_obj})  -> {end}   skipped {RECORD[user_obj:end]!r}")

    # --- 4. G1: sweep to the next object-typed attribute from inside the root
    ended, name_start, name_raw, value_pos = ff.go_to_obj_attr(1, "object")
    print(f"goToObjAttr(1)   -> attribute {name_raw!r} at {name_start}, value at {value_pos}")

    # --- 5. G4: from inside 'place', cut to the end of the root object
    inside_place = RECORD.index(b'"tags"')
    end = ff.go_to_obj_end(inside_place)
    print(f"goToObjEnd({inside_place}) -> {end}   (cuts past the nested array)")

    # --- 6. G5: skip two array elements
    coords = RECORD.index(b"[40.74")
    ended, pos, skipped = ff.go_over_elems(coords + 1, 1)
    print(f"goOverElems(+1)  -> next element at {pos}: {RECORD[pos:pos + 6]!r}")


if __name__ == "__main__":
    main()
