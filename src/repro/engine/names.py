"""Attribute-name decoding, shared by every engine.

Names are compared *decoded* (``"\\u0061"`` and ``"a"`` are the same
attribute), with a fast path for the overwhelmingly common escape-free
case.  Decoding is deliberately lenient: malformed escapes or invalid
UTF-8 in a name cannot crash a streaming engine that may only be passing
by (the name would simply never match a query) — the raw bytes are
decoded with surrogate escapes instead.
"""

from __future__ import annotations

import json


def decode_name(raw: bytes) -> str:
    """Decode one attribute-name slice (text between its quotes)."""
    if b"\\" not in raw:
        return raw.decode("utf-8", "surrogateescape")
    try:
        return json.loads(b'"' + raw + b'"')
    except ValueError:
        # Malformed escape sequence: fall back to a literal decoding so
        # the name is still *some* consistent string (it will not match
        # any sane query, which is the right behaviour for broken input).
        return raw.decode("utf-8", "surrogateescape")
