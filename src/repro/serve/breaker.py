"""Per-stage circuit breakers for the prediction service.

Esposito et al. (PAPERS.md) show that rate measurements themselves are
unstable inputs; a serving system must therefore treat each backend stage
— probe, trace, convolve — as something that *will* misbehave.  A
:class:`CircuitBreaker` wraps one stage with the classic three-state
machine:

* **closed** — calls flow through; failures inside a sliding
  monotonic-clock window are counted, and crossing ``failure_threshold``
  trips the breaker open;
* **open** — every call is refused up front with
  :class:`~repro.core.errors.CircuitOpenError` (the caller falls down the
  degradation ladder instead of waiting on a sick backend); once the
  cooldown elapses the breaker moves to half-open;
* **half-open** — exactly ``half_open_quota`` probe calls are admitted.
  One success closes the breaker (the stage recovered); one failure
  re-opens it with a *longer* cooldown, grown on the shared
  :func:`repro.util.retry.backoff_seconds` schedule with deterministic
  seeded jitter.

Everything is driven by an injectable monotonic clock, so the chaos suite
advances time explicitly and asserts state transitions exactly — no
sleeps, no flakiness.  All methods are thread-safe: one breaker instance
is shared by every request thread of the service.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from typing import Callable

from repro.core.errors import CircuitOpenError
from repro.util.clock import Clock, as_clock
from repro.util.retry import backoff_seconds

log = logging.getLogger(__name__)

__all__ = ["CircuitBreaker", "BreakerBoard", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Three-state circuit breaker around one backend stage.

    Parameters
    ----------
    stage:
        Stage name (``"probe"``, ``"trace"``, ``"convolve"``); labels
        errors, health reports and the cooldown jitter's RNG key.
    failure_threshold:
        Failures inside ``window_seconds`` that trip the breaker open.
    window_seconds:
        Sliding window over which failures are counted (monotonic clock).
    cooldown_seconds:
        Open duration before the first half-open probe window.  Re-opens
        from half-open grow this on the capped-exponential backoff
        schedule (seeded jitter, so recovery timing is reproducible).
    half_open_quota:
        Probe calls admitted while half-open — exactly this many, total,
        per half-open window, across all threads.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(
        self,
        stage: str,
        *,
        failure_threshold: int = 5,
        window_seconds: float = 30.0,
        cooldown_seconds: float = 5.0,
        half_open_quota: int = 1,
        clock: "Clock | Callable[[], float] | None" = None,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold!r}"
            )
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be > 0, got {window_seconds!r}")
        if cooldown_seconds <= 0:
            raise ValueError(
                f"cooldown_seconds must be > 0, got {cooldown_seconds!r}"
            )
        if half_open_quota < 1:
            raise ValueError(f"half_open_quota must be >= 1, got {half_open_quota!r}")
        self.stage = stage
        self.failure_threshold = failure_threshold
        self.window_seconds = window_seconds
        self.cooldown_seconds = cooldown_seconds
        self.half_open_quota = half_open_quota
        self._clock = as_clock(clock).monotonic
        self._lock = threading.RLock()
        self._state = CLOSED
        self._failure_times: deque[float] = deque()
        self._opened_at = 0.0
        self._cooldown = cooldown_seconds
        self._reopens = 0  # consecutive half-open failures (backoff round)
        self._half_open_used = 0
        self._opened_total = 0
        #: Optional ``fn(stage, failures, cooldown_seconds)`` called on
        #: every closed/half-open -> open transition — the single choke
        #: point all trips pass through, so an event-log audit trail sees
        #: each one exactly once.  Called under the breaker lock; must not
        #: call back into the breaker.
        self.on_trip: "Callable[[str, int, float], None] | None" = None

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        """Time-driven transition: open -> half-open once cooldown elapses."""
        if self._state == OPEN and now - self._opened_at >= self._cooldown:
            self._state = HALF_OPEN
            self._half_open_used = 0

    @property
    def state(self) -> str:
        """Current state (``closed`` / ``open`` / ``half_open``)."""
        with self._lock:
            self._advance(self._clock())
            return self._state

    def retry_after(self) -> float:
        """Seconds until the next call could be admitted (0 when admitting)."""
        with self._lock:
            now = self._clock()
            self._advance(now)
            if self._state == OPEN:
                return max(0.0, self._opened_at + self._cooldown - now)
            return 0.0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def allow(self) -> None:
        """Admit one call or raise :class:`CircuitOpenError`.

        Open: always refused (this is the "no backend calls while open"
        invariant).  Half-open: admits until the probe quota is spent —
        the admission itself consumes quota, so concurrent threads can
        never over-probe a convalescing backend.
        """
        with self._lock:
            now = self._clock()
            self._advance(now)
            if self._state == CLOSED:
                return
            if self._state == HALF_OPEN:
                if self._half_open_used < self.half_open_quota:
                    self._half_open_used += 1
                    return
                raise CircuitOpenError(
                    f"breaker {self.stage!r} half-open probe quota "
                    f"({self.half_open_quota}) in use",
                    stage=self.stage,
                    retry_after=self._cooldown,
                )
            raise CircuitOpenError(
                f"breaker {self.stage!r} is open "
                f"(retry in {self._opened_at + self._cooldown - now:.3f}s)",
                stage=self.stage,
                retry_after=max(0.0, self._opened_at + self._cooldown - now),
            )

    # ------------------------------------------------------------------
    # outcomes
    # ------------------------------------------------------------------
    def _trip(self, now: float) -> None:
        failures = len(self._failure_times) if self._failure_times else self._reopens
        self._state = OPEN
        self._opened_at = now
        self._opened_total += 1
        self._failure_times.clear()
        if self.on_trip is not None:
            try:
                self.on_trip(self.stage, failures, self._cooldown)
            except Exception:  # pragma: no cover - audit must not break serving
                log.exception("breaker on_trip listener failed")

    def record_success(self) -> None:
        """Note a successful stage call.

        A half-open success closes the breaker and resets the cooldown
        schedule; a closed success is free (failure counts age out by
        window, not by successes, matching a rate-based trip condition).
        """
        with self._lock:
            self._advance(self._clock())
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._failure_times.clear()
                self._reopens = 0
                self._cooldown = self.cooldown_seconds

    def record_failure(self) -> None:
        """Note a failed stage call.

        Closed: count it in the sliding window; at ``failure_threshold``
        the breaker trips open.  Half-open: the probe failed — re-open
        with a backoff-grown cooldown.  Open: no-op (there should be no
        calls to fail; a late failure from a pre-open call changes
        nothing).
        """
        with self._lock:
            now = self._clock()
            self._advance(now)
            if self._state == OPEN:
                return
            if self._state == HALF_OPEN:
                self._reopens += 1
                # Shared backoff schedule: base grows 2**n, deterministic
                # seeded jitter keyed by the stage name.
                self._cooldown = backoff_seconds(
                    self._reopens,
                    "breaker",
                    self.stage,
                    base=self.cooldown_seconds,
                    cap=self.cooldown_seconds * 32.0,
                )
                self._trip(now)
                return
            self._failure_times.append(now)
            horizon = now - self.window_seconds
            while self._failure_times and self._failure_times[0] < horizon:
                self._failure_times.popleft()
            if len(self._failure_times) >= self.failure_threshold:
                self._cooldown = self.cooldown_seconds
                self._trip(now)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Health-report view: state, window count, cooldown, totals."""
        with self._lock:
            now = self._clock()
            self._advance(now)
            horizon = now - self.window_seconds
            recent = sum(1 for t in self._failure_times if t >= horizon)
            return {
                "stage": self.stage,
                "state": self._state,
                "recent_failures": recent,
                "failure_threshold": self.failure_threshold,
                "cooldown_seconds": round(self._cooldown, 6),
                "retry_after_seconds": round(
                    max(0.0, self._opened_at + self._cooldown - now)
                    if self._state == OPEN
                    else 0.0,
                    6,
                ),
                "times_opened": self._opened_total,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CircuitBreaker {self.stage!r} {self.state}>"


class BreakerBoard:
    """The service's set of per-stage breakers, one health surface.

    Parameters
    ----------
    stages:
        Stage names to build breakers for.
    clock:
        Shared monotonic clock for every breaker.
    **defaults:
        Keyword arguments forwarded to every :class:`CircuitBreaker`
        (``failure_threshold``, ``cooldown_seconds``, ...).  Per-stage
        overrides can be installed by assigning into :attr:`breakers`.
    """

    def __init__(
        self,
        stages: tuple[str, ...] = ("probe", "trace", "convolve"),
        *,
        clock: "Clock | Callable[[], float] | None" = None,
        **defaults,
    ):
        self._clock = as_clock(clock)
        self._defaults = dict(defaults)
        self._on_trip: "Callable[[str, int, float], None] | None" = None
        self.breakers = {
            stage: CircuitBreaker(stage, clock=clock, **defaults)
            for stage in stages
        }

    def set_listener(self, fn: "Callable[[str, int, float], None] | None") -> None:
        """Install ``fn`` as the trip listener on every breaker, present and
        lazily-created (see :attr:`CircuitBreaker.on_trip`)."""
        self._on_trip = fn
        for breaker in self.breakers.values():
            breaker.on_trip = fn

    def __getitem__(self, stage: str) -> CircuitBreaker:
        breaker = self.breakers.get(stage)
        if breaker is None:
            # Stages appear lazily: the batch path runs an "execute"
            # stage the point path never does.  setdefault keeps a racing
            # pair of threads on one shared breaker.
            fresh = CircuitBreaker(stage, clock=self._clock, **self._defaults)
            fresh.on_trip = self._on_trip
            breaker = self.breakers.setdefault(stage, fresh)
        return breaker

    def any_open(self) -> bool:
        """Whether any stage is currently refusing calls outright."""
        return any(b.state == OPEN for b in self.breakers.values())

    def snapshot(self) -> dict[str, dict]:
        """Per-stage health map for ``/healthz``."""
        return {stage: b.snapshot() for stage, b in self.breakers.items()}
