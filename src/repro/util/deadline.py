"""Monotonic-clock deadlines with cooperative cancellation.

A :class:`Deadline` is a fixed point on ``time.monotonic_ns`` that any
thread can poll.  It is the one timeout mechanism of ``--point-timeout``
and of the serving layer's per-request budgets, so a sweep behaves the
same on the main thread, a worker thread or inside a host application,
and never touches the process's signal handlers or interval timers.

Cancellation is *cooperative*: long-running code calls
:func:`check_active` at its natural checkpoints (the measurement driver
does so between operations, the deep-query loop between queries) and
the check raises :class:`~repro.errors.DeadlineExceeded` once the
innermost :func:`enforced` deadline of the current thread has passed.
A pool worker stuck inside one operation is the parent's problem: its
watchdog tears the pool down once the task outlives its whole budget,
retries included.

The active deadline is tracked per thread (a ``threading.local``), so
concurrent requests with different budgets never observe each other.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import DeadlineExceeded


class Deadline:
    """A fixed instant on the monotonic clock.

    Create with :meth:`after`; poll with :meth:`remaining` /
    :meth:`expired`; enforce with :meth:`check`.  Immutable and safe to
    share across threads (reads of one int are atomic under the GIL).
    """

    __slots__ = ("at_ns", "budget_seconds")

    def __init__(self, at_ns: int, budget_seconds: float = 0.0) -> None:
        self.at_ns = at_ns
        self.budget_seconds = budget_seconds

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now."""
        return cls(time.monotonic_ns() + int(seconds * 1e9), seconds)

    def remaining(self) -> float:
        """Seconds until expiry (negative once past)."""
        return (self.at_ns - time.monotonic_ns()) / 1e9

    def expired(self) -> bool:
        return time.monotonic_ns() >= self.at_ns

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` if this deadline has passed."""
        if time.monotonic_ns() >= self.at_ns:
            raise DeadlineExceeded(
                "%s exceeded its %.3gs deadline" % (what, self.budget_seconds)
            )

    def __repr__(self) -> str:
        return "Deadline(remaining=%.3fs)" % self.remaining()


#: Per-thread innermost enforced deadline (None = no deadline active).
_ACTIVE = threading.local()


def active() -> Optional[Deadline]:
    """The current thread's innermost enforced deadline, if any."""
    return getattr(_ACTIVE, "deadline", None)


@contextmanager
def enforced(deadline: Deadline) -> Iterator[Deadline]:
    """Make ``deadline`` the current thread's active deadline.

    Nests: the previous deadline is restored on exit, so an inner scope
    with a tighter budget temporarily shadows the outer one.
    """
    previous = getattr(_ACTIVE, "deadline", None)
    _ACTIVE.deadline = deadline
    try:
        yield deadline
    finally:
        _ACTIVE.deadline = previous


def check_active(what: str = "operation") -> None:
    """Cooperative cancellation point: cheap no-op without a deadline.

    Hot loops call this at their checkpoints; the cost is one
    thread-local read when no deadline is enforced.
    """
    deadline = getattr(_ACTIVE, "deadline", None)
    if deadline is not None:
        deadline.check(what)
