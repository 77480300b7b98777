"""Stage middleware: cross-cutting concerns, implemented exactly once.

Before the engine existed, deadline budgeting, circuit breaking, fault
injection and timing were hand-threaded through three separate
pipelines (predictor, study runner, serve service), each with its own
subtly different ordering.  Here each concern is one small object wrapping
a stage invocation, and a caller's policy is just the tuple it passes to
:class:`StageRunner` — the serve service composes

    (DeadlineGate(), BreakerMiddleware(board),
     BudgetMiddleware(fraction, caps), FaultMiddleware(...))

while the study runner composes ``(TimingMiddleware(timer),)``.

The chain contract: a middleware is called as ``mw(stage, deadline,
call_next)`` and must return the stage result; ``call_next(deadline)``
invokes the rest of the chain (possibly with a replacement deadline —
that is how :class:`BudgetMiddleware` scopes a stage to a sub-budget).
Order matters and is the *caller's* policy.  The serve ordering above
encodes two invariants the chaos tests pin:

* a request whose budget is already spent is rejected by
  :class:`DeadlineGate` *before* :class:`BreakerMiddleware` touches the
  breaker — a late request must never poison a healthy backend's failure
  window; and
* an overrun detected by :class:`BudgetMiddleware`'s post-call checkpoint
  raises *inside* the breaker's try block, so a stalled backend is
  recorded as that stage's failure while the request still has budget to
  serve a cheaper rung.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable

__all__ = [
    "StageRunner",
    "TimingMiddleware",
    "DeadlineGate",
    "BreakerMiddleware",
    "BudgetMiddleware",
    "FaultMiddleware",
]


class StageRunner:
    """Compose a middleware tuple around stage invocations.

    ``run(stage, deadline, fn)`` threads the call through every
    middleware outermost-first and finally invokes ``fn(deadline)`` with
    whatever deadline the chain settled on (``None`` means unbudgeted —
    every middleware must tolerate it, since the offline predictor runs
    without deadlines).
    """

    def __init__(self, middleware: tuple = ()):
        self.middleware = tuple(middleware)

    def run(self, stage: str, deadline, fn: Callable):
        return _CallNext(self.middleware, stage, fn)(deadline)


class _CallNext:
    """The ``call_next`` of one stage invocation.

    One object walks the whole chain instead of a closure per middleware
    level: each call advances ``index`` past the middleware it invokes and
    restores it on the way out, so a middleware that calls ``call_next``
    again re-runs the same rest of the chain.  The innermost middleware
    gets the stage function itself.
    """

    __slots__ = ("middleware", "stage", "fn", "index")

    def __init__(self, middleware: tuple, stage: str, fn: Callable):
        self.middleware = middleware
        self.stage = stage
        self.fn = fn
        self.index = 0

    def __call__(self, deadline):
        index = self.index
        middleware = self.middleware
        if index == len(middleware):
            return self.fn(deadline)
        self.index = index + 1
        call_next = self if index + 1 < len(middleware) else self.fn
        try:
            return middleware[index](self.stage, deadline, call_next)
        finally:
            self.index = index


class TimingMiddleware:
    """Book each stage's wall-clock into a :class:`~repro.util.timing.StageTimer`.

    Every stage is timed the same way, memo hits and store loads
    included, so the study's probe / execute / trace / convolve
    breakdown comes from this one place.
    """

    def __init__(self, timer):
        self.timer = timer

    def __call__(self, stage, deadline, call_next):
        start = perf_counter()
        try:
            return call_next(deadline)
        finally:
            self.timer.add(stage, perf_counter() - start)


class DeadlineGate:
    """Reject a stage before it starts once the request budget is spent.

    Placed *outside* the breaker so that starvation caused by the request
    itself (earlier stages ate the budget) is never attributed to the
    backend about to be skipped.
    """

    def __call__(self, stage, deadline, call_next):
        if deadline is not None:
            deadline.checkpoint(stage)
        return call_next(deadline)


class BreakerMiddleware:
    """Gate the stage behind its circuit breaker and record the outcome.

    ``board`` is duck-typed (``board[stage]`` with
    ``allow``/``record_failure``/``record_success``) so the engine never
    imports the serve layer.  ``allow()`` raising (an open breaker) is
    *not* a recorded failure — the backend was never called.
    """

    def __init__(self, board):
        self.board = board

    def __call__(self, stage, deadline, call_next):
        breaker = self.board[stage]
        breaker.allow()
        try:
            out = call_next(deadline)
        except Exception:
            breaker.record_failure()
            raise
        breaker.record_success()
        return out


class BudgetMiddleware:
    """Scope the stage to a slice of the remaining request budget.

    The stage gets a child deadline capped at ``stage_fraction`` of what
    remains (and any absolute per-stage cap); the post-call checkpoint
    converts a stage that outran its slice — an injected stall, a slow
    backend — into a failure while the *request* still has budget left
    for a cheaper rung.
    """

    def __init__(self, stage_fraction: float, stage_timeouts: dict[str, float] | None = None):
        self.stage_fraction = stage_fraction
        # Held by reference, not copied: the serve layer shares its live
        # stage_timeouts mapping so runtime re-tuning reaches the chain.
        self.stage_timeouts = stage_timeouts if stage_timeouts is not None else {}

    def __call__(self, stage, deadline, call_next):
        if deadline is None:
            return call_next(None)
        budget = deadline.remaining() * self.stage_fraction
        cap = self.stage_timeouts.get(stage)
        if cap is not None:
            budget = min(budget, cap)
        sub = deadline.sub(budget, stage=stage)
        out = call_next(sub)
        sub.checkpoint(stage)
        return out


class FaultMiddleware:
    """Inject a :class:`~repro.util.faults.FaultPlan`'s scheduled chaos.

    Keyed per (stage, call number) so a seeded plan misbehaves in exactly
    the same places on every run.  ``plan`` is a zero-argument provider
    read on every call — chaos tests flip the live service's plan off
    mid-test and expect injection to stop immediately.  The stall goes
    through the injectable ``sleep`` so fake-clock tests advance time
    instead of waiting.
    """

    def __init__(
        self,
        plan: Callable[[], object],
        stages: tuple[str, ...],
        *,
        sleep: Callable[[float], None],
        label_prefix: str = "serve",
    ):
        self.plan = plan
        self.stages = tuple(stages)
        self.sleep = sleep
        self.label_prefix = label_prefix
        self._calls: dict[str, int] = {}
        self._lock = threading.Lock()

    def __call__(self, stage, deadline, call_next):
        plan = self.plan()
        if plan is not None and stage in self.stages:
            with self._lock:
                self._calls[stage] = self._calls.get(stage, 0) + 1
                call = self._calls[stage]
            label = f"{self.label_prefix}:{stage}"
            if plan.should_stall(label, call):
                self.sleep(plan.stall_seconds)
            if plan.should_crash(label, call):
                from repro.core.errors import WorkerCrashError

                raise WorkerCrashError(
                    f"injected crash in service stage {stage!r} (call {call})"
                )
        return call_next(deadline)
