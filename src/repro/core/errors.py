"""Prediction-error statistics (paper Equation 2) and the failure taxonomy.

Signed error keeps the direction — "negative error indicates the
prediction was faster than the actual runtime" — while absolute error is
what the paper averages, "preventing error cancellation".

The module also defines the exception hierarchy the fault-tolerant study
engine quarantines by: every failure a study can survive maps to one
:class:`ReproError` subclass, each carrying a distinct CLI exit code so
scripted callers can branch on *what* went wrong without parsing text.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

import numpy as np

__all__ = [
    "signed_error",
    "absolute_error",
    "summarise",
    "ErrorSummary",
    "ReproError",
    "TraceCorruptError",
    "WorkerCrashError",
    "ChunkTimeoutError",
    "StudyAbortedError",
    "CheckpointError",
    "EventLogCorruptError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "OverloadedError",
    "UnknownIdError",
    "ServiceUnavailableError",
]


class ReproError(Exception):
    """Base of all repro failure classes.

    ``exit_code`` is what :func:`repro.cli.main` returns when the error
    escapes a study; subclasses override it so each failure class maps to
    a distinct nonzero code.
    """

    exit_code = 2


class TraceCorruptError(ReproError, ValueError):
    """A persisted trace/probe entry failed validation.

    Also a :class:`ValueError`, so callers that handle malformed input
    generically catch it too.  The self-healing
    :class:`~repro.tracing.store.TraceStore` catches this internally,
    invalidates the entry and falls through to re-tracing.
    """

    exit_code = 3


class WorkerCrashError(ReproError):
    """A study worker died mid-chunk (broken pool, hard exit, crash fault)."""

    exit_code = 4


class ChunkTimeoutError(ReproError):
    """A study chunk overran its per-chunk deadline."""

    exit_code = 5


class StudyAbortedError(ReproError):
    """The study was deliberately stopped mid-run (fault harness or caller)."""

    exit_code = 6


class CheckpointError(ReproError):
    """A checkpoint could not be read or written."""

    exit_code = 7


class EventLogCorruptError(ReproError):
    """An event-log segment failed verification beyond its torn tail.

    Raised by ``repro-study events verify`` when a sealed segment is
    damaged or a sequence gap splits the log — damage that replay can only
    answer by dropping the suffix, which deserves a loud exit code rather
    than a silent shorter view.
    """

    exit_code = 13


class DeadlineExceededError(ReproError):
    """A time budget ran out before the work guarded by it finished.

    Raised by :meth:`repro.util.deadline.Deadline.checkpoint` inside the
    probe/trace/convolve stages; the prediction service catches it to
    abandon a stage and fall down the degradation ladder, and the study
    engine's serial chunks convert it into :class:`ChunkTimeoutError`.
    """

    exit_code = 8

    def __init__(self, message: str, *, stage: str | None = None):
        super().__init__(message)
        #: Pipeline stage the budget expired in (``"probe"``, ``"trace"``,
        #: ``"convolve"``, ...), when known.
        self.stage = stage


class CircuitOpenError(ReproError):
    """A backend stage's circuit breaker is open: the call was not made.

    Distinct from a backend *failure* — an open breaker fails fast by
    design, and the service answers from a cheaper rung of the metric
    ladder instead.
    """

    exit_code = 9

    def __init__(self, message: str, *, stage: str | None = None, retry_after: float | None = None):
        super().__init__(message)
        self.stage = stage
        #: Seconds until the breaker's next half-open probe window.
        self.retry_after = retry_after


class OverloadedError(ReproError):
    """A request was shed (HTTP 429 semantics).

    Raised by the fleet's overload gate: a worker handle at its pending
    bound, a request whose deadline ran out while it waited for a worker
    thread, or a worker that died or is restarting.
    """

    exit_code = 10

    def __init__(self, message: str, *, retry_after: float | None = None):
        super().__init__(message)
        #: Suggested client back-off before retrying, seconds; ``None``
        #: leaves it to the front end's worker handle to fill in.
        self.retry_after = retry_after


class UnknownIdError(ReproError, KeyError):
    """A request named an application/machine/metric that does not exist.

    Carries the nearest valid identifiers so the service boundary can
    return a structured 400 (never a traceback).  Also a :class:`KeyError`
    because that is what the underlying registries raise.
    """

    exit_code = 11

    def __init__(
        self,
        kind: str,
        value: object,
        known: tuple[str, ...],
        nearest: tuple[str, ...] = (),
    ):
        hint = f"; nearest: {', '.join(nearest)}" if nearest else ""
        message = (
            f"unknown {kind} {value!r}; known: {', '.join(known)}{hint}"
        )
        super().__init__(message)
        self.kind = kind
        self.value = value
        self.known = known
        self.nearest = nearest

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return self.args[0]


class ServiceUnavailableError(ReproError):
    """Every rung of the degradation ladder failed (HTTP 503 semantics)."""

    exit_code = 12

    def __init__(self, message: str, *, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


def signed_error(predicted: float, actual: float) -> float:
    """Equation 2: ``(T' - T) / T * 100`` percent.

    Negative = predicted faster than actual; positive = predicted slower.
    """
    if actual <= 0:
        raise ValueError(f"actual time must be > 0, got {actual!r}")
    if predicted < 0:
        raise ValueError(f"predicted time must be >= 0, got {predicted!r}")
    return (predicted - actual) / actual * 100.0


def absolute_error(predicted: float, actual: float) -> float:
    """Magnitude of the Equation 2 error, percent."""
    return abs(signed_error(predicted, actual))


@dataclass(frozen=True)
class ErrorSummary:
    """Aggregate of a set of prediction errors.

    Attributes
    ----------
    mean_abs:
        Average absolute error, percent (the paper's headline statistic).
    std_abs:
        Standard deviation of the absolute errors, percent.
    mean_signed:
        Average signed error (bias), percent.
    count:
        Number of predictions aggregated.
    """

    mean_abs: float
    std_abs: float
    mean_signed: float
    count: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.mean_abs:.0f}% +/- {self.std_abs:.0f}% "
            f"(bias {self.mean_signed:+.0f}%, n={self.count})"
        )


def summarise(signed_errors: Iterable[float]) -> ErrorSummary:
    """Summarise a collection of signed Equation-2 errors.

    The standard deviation uses the population convention (ddof=0),
    matching a straight "std of the error column" reading of Table 4.
    """
    arr = np.asarray(list(signed_errors), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarise zero errors")
    abs_arr = np.abs(arr)
    return ErrorSummary(
        mean_abs=float(abs_arr.mean()),
        std_abs=float(abs_arr.std()),
        mean_signed=float(arr.mean()),
        count=int(arr.size),
    )
