"""Per-request time budgets with cooperative checkpoints.

A :class:`Deadline` is created once at a boundary (a service request, a
serial study chunk) and threaded *down* through the pipeline stages —
probe, trace, convolve — each of which calls :meth:`Deadline.checkpoint`
at its natural loop points (per benchmark, per basic block, per matrix
pass).  When the budget is spent the checkpoint raises
:class:`~repro.core.errors.DeadlineExceededError` naming the stage, so the
caller abandons the work instead of finishing it late.

The clock is injectable (a :class:`~repro.util.clock.Clock` or any
zero-argument callable returning monotonic seconds), which is what makes
deadline behaviour *testable*: chaos tests and the simulation harness
drive a virtual clock forward deterministically instead of sleeping.

:meth:`Deadline.sub` carves a stage-local budget out of the request
budget — the child can expire early (capping a single slow stage) but can
never outlive its parent, so stage budgets compose without arithmetic at
the call sites.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.core.errors import DeadlineExceededError
from repro.util.clock import Clock, as_clock

__all__ = ["Deadline"]


class Deadline:
    """A monotonic-clock time budget.

    Parameters
    ----------
    budget_seconds:
        Seconds allowed from construction; ``math.inf`` means unbounded
        (every check passes, so callers need no None-guards).
    clock:
        Monotonic time source — a :class:`~repro.util.clock.Clock` or a
        bare callable; injectable for deterministic tests (defaults to
        the system clock).
    stage:
        Optional label baked into expiry errors (a :meth:`sub` child
        defaults to its own stage name).
    """

    __slots__ = ("budget", "stage", "_clock", "_start", "_parent")

    def __init__(
        self,
        budget_seconds: float = math.inf,
        *,
        clock: "Clock | Callable[[], float] | None" = None,
        stage: str | None = None,
        _parent: "Deadline | None" = None,
    ):
        if not budget_seconds >= 0:  # NaN fails too
            raise ValueError(f"budget_seconds must be >= 0, got {budget_seconds!r}")
        self.budget = float(budget_seconds)
        self.stage = stage
        self._clock = as_clock(clock)
        self._start = self._clock.monotonic()
        self._parent = _parent

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Seconds since this deadline was created."""
        return self._clock.monotonic() - self._start

    def remaining(self) -> float:
        """Seconds left in the budget (never negative; inf if unbounded).

        A child deadline's remaining time is additionally capped by every
        ancestor's, so a stage budget can never outlive its request.
        """
        left = self.budget - self.elapsed()
        if self._parent is not None:
            left = min(left, self._parent.remaining())
        return max(0.0, left)

    def expired(self) -> bool:
        """Whether the budget (or any ancestor's) is spent."""
        return self.remaining() <= 0.0

    def checkpoint(self, stage: str | None = None) -> None:
        """Abandon-point: raise if the budget is spent, else return.

        Stages call this at loop boundaries; the raised
        :class:`~repro.core.errors.DeadlineExceededError` names the stage
        so breakers and logs can attribute the overrun.
        """
        if self.expired():
            label = stage or self.stage or "work"
            raise DeadlineExceededError(
                f"deadline exceeded in stage {label!r}: "
                f"budget {self.budget:.3f}s spent",
                stage=label,
            )

    def sub(self, budget_seconds: float, *, stage: str | None = None) -> "Deadline":
        """A stage-local child budget, capped by this deadline's remainder."""
        return Deadline(
            min(budget_seconds, self.remaining()),
            clock=self._clock,
            stage=stage,
            _parent=self,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stage = f" stage={self.stage!r}" if self.stage else ""
        return f"<Deadline{stage} remaining={self.remaining():.3f}s>"
