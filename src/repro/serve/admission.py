"""Bounded admission queue with load-shedding for the prediction service.

Backpressure is the service's first line of defence: an unbounded request
backlog turns one slow backend into unbounded latency for *everyone*.
The :class:`AdmissionQueue` admits up to ``max_concurrent`` predictions,
parks up to ``max_queue`` more, and sheds the rest immediately with
:class:`~repro.core.errors.OverloadedError` carrying a ``retry_after``
estimate (429 semantics at the HTTP layer) — a shed request costs the
client one cheap round-trip instead of a deadline's worth of queueing.

The retry-after estimate is an EWMA of recent service times scaled by the
backlog ahead of the newcomer, so clients back off proportionally to the
actual congestion rather than by a fixed constant.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.core.errors import OverloadedError
from repro.util.clock import Clock, as_clock

__all__ = ["AdmissionQueue", "ServiceTimeEwma"]

#: Smoothing factor of the service-time EWMA (higher = more reactive).
_EWMA_ALPHA = 0.2


class ServiceTimeEwma:
    """EWMA of observed service times with a backlog-scaled retry hint.

    The estimator is its own small object so both admission layers share
    one definition: the in-process :class:`AdmissionQueue` (thread
    contention) and the fleet front end's per-worker gate (asyncio
    pending-queue backpressure).  Not thread-safe by itself — callers
    hold their own lock (the queue) or run on one event loop (the fleet).
    """

    def __init__(self, initial_seconds: float = 0.05, alpha: float = _EWMA_ALPHA):
        self.seconds = initial_seconds  # optimistic prior; converges fast
        self.alpha = alpha

    def observe(self, service_seconds: float) -> None:
        """Fold one observed service time into the estimate."""
        if service_seconds >= 0:
            self.seconds += self.alpha * (service_seconds - self.seconds)

    def retry_after(self, backlog: int, concurrency: int) -> float:
        """Suggested client back-off: backlog ahead × EWMA service time."""
        return max(0.01, self.seconds * backlog / max(1, concurrency))


class AdmissionQueue:
    """Counting admission gate: bounded concurrency, bounded waiting.

    Parameters
    ----------
    max_concurrent:
        Predictions allowed in flight at once.
    max_queue:
        Requests allowed to wait for a slot; arrivals beyond this are
        shed immediately.
    clock:
        Monotonic time source for the service-time EWMA (injectable; the
        *blocking* wait itself uses the condition variable's real clock,
        as fake-clock tests drive admission without contention).

    Use as a context manager per request::

        with admission.admit(timeout=deadline.remaining()):
            ... serve ...
    """

    def __init__(
        self,
        max_concurrent: int = 4,
        max_queue: int = 16,
        *,
        clock: "Clock | Callable[[], float] | None" = None,
    ):
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent!r}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue!r}")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self._clock = as_clock(clock).monotonic
        self._lock = threading.Lock()
        self._slot_free = threading.Condition(self._lock)
        self._active = 0
        self._waiting = 0
        self._ewma = ServiceTimeEwma()
        self.admitted_total = 0
        self.shed_total = 0

    # ------------------------------------------------------------------
    def retry_after_estimate(self) -> float:
        """Suggested client back-off: backlog ahead x EWMA service time."""
        with self._lock:
            return self._ewma.retry_after(self._waiting + 1, self.max_concurrent)

    def depth(self) -> dict[str, int]:
        """Queue observability for ``/healthz``."""
        with self._lock:
            return {
                "active": self._active,
                "waiting": self._waiting,
                "max_concurrent": self.max_concurrent,
                "max_queue": self.max_queue,
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
            }

    # ------------------------------------------------------------------
    def acquire(self, timeout: float | None = None) -> None:
        """Take a slot, waiting up to ``timeout`` seconds in the queue.

        Raises :class:`OverloadedError` when the queue is already full
        (instant shed) or the wait times out (the request would have
        missed its deadline anyway — shedding it is strictly better).
        """
        with self._slot_free:
            if self._active < self.max_concurrent and self._waiting == 0:
                self._active += 1
                self.admitted_total += 1
                return
            if self._waiting >= self.max_queue:
                self.shed_total += 1
                raise OverloadedError(
                    f"admission queue full "
                    f"({self._active} active, {self._waiting} waiting)",
                    retry_after=self._retry_after_locked(),
                )
            self._waiting += 1
            try:
                granted = self._slot_free.wait_for(
                    lambda: self._active < self.max_concurrent, timeout=timeout
                )
            finally:
                self._waiting -= 1
            if not granted:
                self.shed_total += 1
                raise OverloadedError(
                    f"timed out after {timeout:.3f}s waiting for an "
                    f"admission slot",
                    retry_after=self._retry_after_locked(),
                )
            self._active += 1
            self.admitted_total += 1

    def release(self, service_seconds: float | None = None) -> None:
        """Free a slot; fold the observed service time into the EWMA."""
        with self._slot_free:
            if service_seconds is not None:
                self._ewma.observe(service_seconds)
            self._active = max(0, self._active - 1)
            self._slot_free.notify()

    def _retry_after_locked(self) -> float:
        return self._ewma.retry_after(self._waiting + 1, self.max_concurrent)

    # ------------------------------------------------------------------
    def admit(self, timeout: float | None = None) -> "_Ticket":
        """Context-manager admission: acquire on enter, release on exit.

        The ticket measures the request's service time on the injected
        clock and feeds it back into the retry-after EWMA.
        """
        return _Ticket(self, timeout)


class _Ticket:
    """One admitted request's slot; returned by :meth:`AdmissionQueue.admit`."""

    def __init__(self, queue: AdmissionQueue, timeout: float | None):
        self._queue = queue
        self._timeout = timeout
        self._start = 0.0

    def __enter__(self) -> "_Ticket":
        self._queue.acquire(self._timeout)
        self._start = self._queue._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._queue.release(self._queue._clock() - self._start)
