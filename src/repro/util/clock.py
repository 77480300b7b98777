"""The injectable time source every time consumer reads through.

Cornebize & Legrand (PAPERS.md) show how small timing perturbations
silently distort simulation-based prediction; our chaos suites therefore
cannot afford to *measure* time — they must *control* it.  A
:class:`Clock` bundles the two operations the codebase performs against
time — read a monotonic instant and sleep — behind one seam:

* :class:`SystemClock` is the production implementation (thin veneer over
  :mod:`time`); the module-level :data:`SYSTEM_CLOCK` singleton is the
  default everywhere, so production behaviour is unchanged.
* :class:`VirtualClock` is the simulation implementation: ``sleep``
  *advances* virtual time instead of blocking, so a chaos episode that
  used to spend ~60 s wall-waiting on stalls, breaker cooldowns and retry
  backoffs completes in milliseconds — and, because compute takes zero
  virtual time, every virtual-clock reading is a pure function of the
  schedule, which is what makes episode transcripts bit-reproducible.

The whole package's rule (enforced by ``scripts/check_layering.py``): no
module outside this file may call ``time.time``/``time.monotonic``/
``time.sleep`` directly.  ``time.perf_counter`` stays allowed — it only
ever *measures* wall cost for diagnostics and never steers control flow.

Components accept either a :class:`Clock` or — for compatibility with the
pre-existing ``clock=`` callables in tests — a bare zero-argument
monotonic callable; :func:`as_clock` normalises both.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = [
    "Clock",
    "SystemClock",
    "VirtualClock",
    "VirtualTimeLimitError",
    "SYSTEM_CLOCK",
    "as_clock",
]


class Clock:
    """Interface: the two time operations a component may perform."""

    def monotonic(self) -> float:
        """Current monotonic time in seconds."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Let ``seconds`` pass (block, or advance virtual time)."""
        raise NotImplementedError


class SystemClock(Clock):
    """Real wall time — the production default."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<SystemClock>"


#: The process-wide default clock.  Components default their ``clock``
#: parameter to this, never to :mod:`time` directly.
SYSTEM_CLOCK = SystemClock()


class VirtualTimeLimitError(RuntimeError):
    """Virtual time ran past the episode horizon.

    Raised by :class:`VirtualClock` when a sleep or skew would advance
    past ``limit`` — the simulation harness's deadlock/livelock detector:
    a retry loop that would spin forever in real time burns through the
    virtual horizon in microseconds and surfaces here instead of hanging.
    """


class VirtualClock(Clock):
    """Deterministic simulated time.

    ``sleep(s)`` advances the clock by ``s`` immediately instead of
    blocking, and ``advance(s)`` jumps it explicitly (the schedule DSL's
    clock-skew event).  Reads and advances are lock-protected so other
    threads may *read* the clock concurrently, but only the episode's
    driving thread should ever advance it — a background thread
    advancing virtual time would make the timeline racy, which is
    exactly what the harness exists to prevent.

    Parameters
    ----------
    start:
        Initial virtual instant (seconds).
    limit:
        Hard horizon; advancing past it raises
        :class:`VirtualTimeLimitError`.  ``None`` disables the guard.
    """

    def __init__(self, start: float = 0.0, *, limit: float | None = None):
        if limit is not None and limit <= start:
            raise ValueError(f"limit must be > start, got {limit!r} <= {start!r}")
        self._now = float(start)
        self._limit = limit
        self._lock = threading.Lock()
        #: Total virtual seconds consumed by sleeps (diagnostic: the wall
        #: time a real-clock run of the same episode would have wasted).
        self.slept_total = 0.0

    @property
    def limit(self) -> float | None:
        return self._limit

    def monotonic(self) -> float:
        with self._lock:
            return self._now

    def _advance_locked(self, seconds: float) -> None:
        target = self._now + seconds
        if self._limit is not None and target > self._limit:
            self._now = self._limit
            raise VirtualTimeLimitError(
                f"virtual time would pass the {self._limit:g}s horizon "
                f"(at {target:g}s) — runaway sleep/retry loop"
            )
        self._now = target

    def advance(self, seconds: float) -> None:
        """Jump virtual time forward by ``seconds`` (>= 0)."""
        if seconds < 0:
            raise ValueError(f"cannot advance time backwards ({seconds!r}s)")
        with self._lock:
            self._advance_locked(seconds)

    def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        with self._lock:
            self.slept_total += seconds
            self._advance_locked(seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<VirtualClock now={self.monotonic():g}s limit={self._limit!r}>"


class _CallableClock(Clock):
    """Adapter for the legacy ``clock=`` zero-argument monotonic callable.

    Tests that drive a component with a bare fake-monotonic lambda keep
    working; ``sleep`` falls back to the system implementation (such
    tests never sleep through the component under test).
    """

    def __init__(self, monotonic: Callable[[], float]):
        self._monotonic = monotonic

    def monotonic(self) -> float:
        return self._monotonic()

    def sleep(self, seconds: float) -> None:
        SYSTEM_CLOCK.sleep(seconds)


def as_clock(clock: "Clock | Callable[[], float] | None") -> Clock:
    """Normalise ``clock`` to a :class:`Clock`.

    ``None`` means the system clock; a :class:`Clock` passes through; a
    bare monotonic callable (the historical injection shape) is wrapped.
    """
    if clock is None:
        return SYSTEM_CLOCK
    if isinstance(clock, Clock):
        return clock
    if callable(clock):
        return _CallableClock(clock)
    raise TypeError(f"clock must be a Clock or a zero-argument callable, got {clock!r}")
