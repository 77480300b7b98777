"""Typed domain events for the durability core.

Every durable fact the system produces — a chunk of study predictions, a
probe capture, an invalidated cache entry, a breaker trip, a worker death
— is modelled as a frozen dataclass here and appended to an
:class:`~repro.events.log.EventLog`.  Events are the *only* thing the log
stores; checkpoints, store accounting, and the serve fleet's
``/events/stats`` views are all derived from them by replay.

The wire form of an event is a plain JSON document ``{"kind": ..., field:
value, ...}`` produced by :meth:`Event.to_doc` and parsed back by
:func:`from_doc`.  Unknown kinds decode to :class:`UnknownEvent` instead
of raising, so an old reader can tail a log written by a newer build.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar

__all__ = [
    "Event",
    "UnknownEvent",
    "StudyStarted",
    "ChunkCompleted",
    "CellFailed",
    "ProbeCompleted",
    "TraceCaptured",
    "PredictionEmitted",
    "BreakerTripped",
    "WorkerDied",
    "WorkerRespawned",
    "StoreInvalidated",
    "EVENT_KINDS",
    "from_doc",
]


@dataclass(frozen=True)
class Event:
    """Base class: a frozen record with a class-level ``kind`` tag."""

    kind: ClassVar[str] = ""

    def to_doc(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"kind": type(self).kind}
        for field in fields(self):
            doc[field.name] = getattr(self, field.name)
        return doc


@dataclass(frozen=True)
class UnknownEvent(Event):
    """Forward-compatibility envelope for kinds this build doesn't know."""

    kind: ClassVar[str] = "unknown"
    original_kind: str = ""
    data: dict[str, Any] | None = None

    def to_doc(self) -> dict[str, Any]:
        doc = dict(self.data or {})
        doc["kind"] = self.original_kind
        return doc


# ----------------------------------------------------------------------
# study journal events
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StudyStarted(Event):
    """First event of a study journal; pins the config identity."""

    kind: ClassVar[str] = "study-started"
    config_digest: str = ""
    schema_version: int = 0


@dataclass(frozen=True)
class ChunkCompleted(Event):
    """One study cell (application × base system) finished.

    ``records``/``observed`` are the row-tuples of
    :class:`repro.engine.plan.PredictionRecord`, JSON-serialized as lists;
    field order is part of the on-disk format.
    """

    kind: ClassVar[str] = "chunk-completed"
    label: str = ""
    records: list = None  # type: ignore[assignment]
    observed: list = None  # type: ignore[assignment]
    stages: dict = None  # type: ignore[assignment]


@dataclass(frozen=True)
class CellFailed(Event):
    """A study cell was quarantined after exhausting retries."""

    kind: ClassVar[str] = "cell-failed"
    application: str = ""
    error: str = ""
    message: str = ""
    attempts: int = 0


# ----------------------------------------------------------------------
# trace-store events
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeCompleted(Event):
    kind: ClassVar[str] = "probe-completed"
    machine: str = ""
    key: str = ""


@dataclass(frozen=True)
class TraceCaptured(Event):
    kind: ClassVar[str] = "trace-captured"
    application: str = ""
    cpus: int = 0
    base_machine: str = ""
    key: str = ""


@dataclass(frozen=True)
class StoreInvalidated(Event):
    """A checksummed cache entry failed validation and was dropped."""

    kind: ClassVar[str] = "store-invalidated"
    entry_kind: str = ""
    entry: str = ""
    reason: str = ""


# ----------------------------------------------------------------------
# serving events
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PredictionEmitted(Event):
    kind: ClassVar[str] = "prediction-emitted"
    application: str = ""
    cpus: int = 0
    machine: str = ""
    metric: str = ""
    predicted_seconds: float = 0.0
    degraded: bool = False


@dataclass(frozen=True)
class BreakerTripped(Event):
    kind: ClassVar[str] = "breaker-tripped"
    stage: str = ""
    failures: int = 0
    cooldown_seconds: float = 0.0


@dataclass(frozen=True)
class WorkerDied(Event):
    kind: ClassVar[str] = "worker-died"
    worker: str = ""
    pid: int = 0


@dataclass(frozen=True)
class WorkerRespawned(Event):
    kind: ClassVar[str] = "worker-respawned"
    worker: str = ""
    pid: int = 0


EVENT_KINDS: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        StudyStarted,
        ChunkCompleted,
        CellFailed,
        ProbeCompleted,
        TraceCaptured,
        StoreInvalidated,
        PredictionEmitted,
        BreakerTripped,
        WorkerDied,
        WorkerRespawned,
    )
}


def from_doc(doc: dict[str, Any]) -> Event:
    """Decode a wire document back into a typed event.

    Unknown kinds (or known kinds with an unexpected field set) decode to
    :class:`UnknownEvent` so replay never fails on schema skew.
    """
    kind = doc.get("kind")
    cls = EVENT_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        return UnknownEvent(original_kind=str(kind), data={k: v for k, v in doc.items() if k != "kind"})
    names = {field.name for field in fields(cls)}
    payload = {k: v for k, v in doc.items() if k != "kind"}
    if set(payload) != names:
        return UnknownEvent(original_kind=str(kind), data=payload)
    return cls(**payload)
