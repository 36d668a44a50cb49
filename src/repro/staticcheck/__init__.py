"""Project-specific static analysis (the engine-contract checker).

The reproduction's correctness rests on a handful of contracts that hold
only by convention — 64-bit clamping in the word kernels, the
:mod:`repro.errors` raise taxonomy, ``limits=`` threading through engine
composition, JSON-serializable checkpoint state, determinism on the
resume and differential-fuzz paths, no silent exception swallowing,
bounded waits and durable writes in the service, and the concurrency
contracts of the serve path.  ``repro.staticcheck`` enforces them with a
single-pass AST analysis so a violation is a CI failure, not a latent
divergence bug for the fuzzer to stumble on.

Run it with::

    python -m repro.staticcheck src/

See ``docs/static-analysis.md`` for every rule, its rationale, and the
``# repro: ignore[RSxxx] -- reason`` suppression syntax.
"""

from __future__ import annotations

from repro.staticcheck.core import (
    FileContext,
    Finding,
    Project,
    Rule,
    RULE_REGISTRY,
    check_paths,
    check_sources,
    register_rule,
)
from repro.staticcheck import rules as _rules  # noqa: F401  (registers the rules)
from repro.staticcheck.reporters import render_json, render_text

__all__ = [
    "FileContext",
    "Finding",
    "Project",
    "Rule",
    "RULE_REGISTRY",
    "check_paths",
    "check_sources",
    "register_rule",
    "render_json",
    "render_text",
]
