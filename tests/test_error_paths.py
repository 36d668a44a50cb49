"""Malformed-input error paths: every engine, sensible diagnostics.

The contract: a diagnosably malformed record raises a
:class:`~repro.errors.ReproError` subclass carrying an ``int`` position —
never a bare builtin exception.  Engines that fast-forward may instead
*tolerate* a malformation sitting inside a skipped region (the paper's
Section 3.3 validation gap); what they may never do is crash.
"""

from __future__ import annotations

import pytest

import repro
from repro.errors import JsonSyntaxError, ReproError, StreamExhaustedError
from repro.stream.records import RecordStream

#: Malformed fixtures spanning the grammar: unterminated containers and
#: strings, missing separators, stray delimiters, bad primitives.
MALFORMED = [
    b"",
    b"{",
    b"[",
    b'{"a": ',
    b'{"a": 1',
    b'{"a" 1}',
    b'{"a": 1,}',
    b'{a: 1}',
    b'{"a": 1}}',
    b"[1, 2",
    b"[1 2]",
    b"[1, ]",
    b'{"a": "unterminated',
    b'{"a": tru}',
    b'{,}',
    b'{"a": 1] ',
]

ALL_ENGINES = tuple(repro.ENGINES)


@pytest.mark.parametrize("name", ALL_ENGINES)
@pytest.mark.parametrize("data", MALFORMED, ids=[repr(d) for d in MALFORMED])
def test_malformed_raises_diagnosable_or_is_tolerated(name, data):
    engine = repro.ENGINES[name]("$.a.b")
    try:
        engine.run(data)
    except JsonSyntaxError as exc:
        assert isinstance(exc.position, int) and exc.position >= 0
        assert isinstance(exc, ReproError)
    except ReproError:
        pass  # other diagnosed failures (resource guard etc.) are fine too
    # Success = the malformation sat in a region this engine never
    # examines (fast-forwarded past) — the documented blind spot.


@pytest.mark.parametrize("name", ALL_ENGINES)
def test_definitely_diagnosed_prefix(name):
    # A truncated record whose damage is *before* any possible skip:
    # every engine must diagnose it (no engine can match "$.a.b" here).
    engine = repro.ENGINES[name]("$.a.b")
    with pytest.raises(ReproError):
        engine.run(b'{"a": {"b": ')


class TestStreamBoundaries:
    def test_trailing_partial_record_is_exhaustion(self):
        with pytest.raises(StreamExhaustedError):
            RecordStream.from_concatenated(b'{"a": 1}\n{"b": {"c": ')

    def test_exhaustion_is_a_syntax_error(self):
        # Catchability contract: StreamExhaustedError narrows
        # JsonSyntaxError, so existing handlers keep working.
        assert issubclass(StreamExhaustedError, JsonSyntaxError)

    def test_clean_concatenated_ok(self):
        stream = RecordStream.from_concatenated(b'{"a": 1} [2]')
        assert [bytes(r) for r in stream] == [b'{"a": 1}', b"[2]"]


class TestErrorTaxonomy:
    # The raise-taxonomy rule (RS002) retyped former bare ValueErrors;
    # both new classes stay catchable as ValueError for old callers.
    def test_configuration_error_is_repro_and_value_error(self):
        from repro.errors import ConfigurationError

        assert issubclass(ConfigurationError, ReproError)
        assert issubclass(ConfigurationError, ValueError)

    def test_invariant_error_is_repro_and_value_error(self):
        from repro.errors import InvariantError

        assert issubclass(InvariantError, ReproError)
        assert issubclass(InvariantError, ValueError)

    def test_bad_checkpoint_every_is_configuration_error(self, tmp_path):
        from repro.errors import ConfigurationError
        from repro.resilience import run_with_recovery

        stream = RecordStream.from_concatenated(b"[1]")
        with pytest.raises(ConfigurationError):
            run_with_recovery(
                repro.JsonSki("$[*]"), stream,
                checkpoint=str(tmp_path), checkpoint_every=0,
            )

    def test_bad_n_parts_is_configuration_error(self):
        from repro.errors import ConfigurationError

        stream = RecordStream.from_concatenated(b"{}")
        with pytest.raises(ConfigurationError):
            stream.partitions(0)
