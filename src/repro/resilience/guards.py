"""Resource guards: depth, size, and deadline limits for every engine.

The paper's fast-forwarding validates skipped regions only at the
brace/bracket level (Section 3.3), so a hostile input cannot be rejected
up front the way an exhaustive validator would — instead, the engines
bound the *damage* any input can do:

- ``max_depth`` stops nesting bombs before the interpreter's recursion
  limit turns them into a bare :class:`RecursionError`;
- ``max_record_bytes`` rejects oversized single records up front
  (simdjson's documented 4 GB cap generalized to every engine);
- ``deadline`` is a cooperative wall-clock budget checked at container
  boundaries, so a pathological record abandons cleanly with
  :class:`~repro.errors.DeadlineExceededError` instead of hanging a
  worker.

All engines accept ``limits=`` uniformly; ``None`` means
:data:`DEFAULT_LIMITS` (depth guard on, everything else off), and
:meth:`Limits.unlimited` disables guarding entirely for trusted input.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import DeadlineExceededError, DepthLimitError, RecordTooLargeError

#: Default nesting guard.  Chosen so that even the engines that spend
#: several interpreter frames per JSON level (recursive descent is 2-3
#: frames deep per container) stay clear of CPython's default
#: 1000-frame recursion limit, while legal data never comes close
#: (the paper's six datasets max out below depth 10).
DEFAULT_MAX_DEPTH = 256


class Deadline:
    """A cooperative wall-clock budget.

    Engines call :meth:`check` at container boundaries; the call is one
    monotonic-clock read and a compare.  A ``Deadline`` is *absolute*
    (anchored when created), so one instance threads an end-to-end budget
    through compile, scan, and pool retries alike.

    ``clock`` defaults to :func:`time.monotonic`; the query service and
    its tests inject a fake so queue-wait and budget arithmetic can be
    asserted without real sleeping.
    """

    __slots__ = ("expires_at", "clock")

    def __init__(self, expires_at: float, clock: Callable[[], float] = time.monotonic) -> None:
        self.expires_at = expires_at
        self.clock = clock

    @classmethod
    def after(cls, seconds: float, clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """Deadline ``seconds`` from now (on ``clock``)."""
        return cls(clock() + seconds, clock)

    def expired(self) -> bool:
        return self.clock() >= self.expires_at

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - self.clock()

    def check(self, position: int = -1) -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.clock() >= self.expires_at:
            raise DeadlineExceededError("deadline exceeded while streaming", position)


@dataclass(frozen=True)
class Limits:
    """Guard configuration shared by every engine (``limits=`` kwarg).

    ``None`` for any field disables that guard.  The default instance
    guards depth only — the one failure mode that otherwise escapes as a
    non-library exception.
    """

    max_depth: int | None = DEFAULT_MAX_DEPTH
    max_record_bytes: int | None = None
    deadline: Deadline | None = None

    @classmethod
    def unlimited(cls) -> "Limits":
        """No guards at all (trusted input, benchmarking)."""
        return cls(max_depth=None, max_record_bytes=None, deadline=None)

    def with_deadline(
        self, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Limits":
        """Copy with a fresh deadline ``seconds`` from now (on ``clock``)."""
        return replace(self, deadline=Deadline.after(seconds, clock))

    def remaining(self) -> float | None:
        """Seconds left on the deadline, or ``None`` when no deadline is
        configured.  The query service uses this to convert an absolute
        per-request budget into the fresh relative budget a dispatched
        (or retried/resumed) run should receive — work must never
        inherit an already-expired absolute deadline."""
        return None if self.deadline is None else self.deadline.remaining()

    # -- enforcement helpers (shared by the engines) -------------------

    def check_record_size(self, size: int) -> None:
        """Raise :class:`RecordTooLargeError` for an oversized record."""
        if self.max_record_bytes is not None and size > self.max_record_bytes:
            raise RecordTooLargeError(
                f"record of {size} bytes exceeds the "
                f"{self.max_record_bytes}-byte single-record limit"
            )

    def enter(self, depth: int, position: int = -1) -> None:
        """One container boundary: depth guard + cooperative deadline."""
        if self.max_depth is not None and depth > self.max_depth:
            raise DepthLimitError(
                f"nesting depth {depth} exceeds max_depth={self.max_depth}",
                position, depth,
            )
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            raise DeadlineExceededError("deadline exceeded while streaming", position)


#: The shared default: depth guard on, size and deadline off.
DEFAULT_LIMITS = Limits()


def effective_limits(limits: Limits | None) -> Limits:
    """Resolve an engine's ``limits=`` argument (``None`` → defaults)."""
    return DEFAULT_LIMITS if limits is None else limits


def depth_error_from_recursion(exc: RecursionError, engine: str) -> DepthLimitError:
    """Convert an interpreter recursion blow-up into the library error.

    Backstop only: with a finite ``max_depth`` the counter fires first;
    this keeps the never-leak-a-bare-``RecursionError`` contract even
    under ``Limits.unlimited()`` or C-level parsers with their own stack.
    """
    error = DepthLimitError(
        f"engine {engine!r} exceeded the interpreter recursion limit "
        "(unbounded nesting; configure Limits.max_depth to fail earlier)"
    )
    error.__cause__ = exc
    return error
