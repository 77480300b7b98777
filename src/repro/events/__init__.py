"""Event-sourced durability core.

One append-only, checksummed event log (:mod:`repro.events.log`) under
the study journal, the trace store's accounting, and the serve fleet's
audit trail; typed domain events (:mod:`repro.events.types`); and live
materialized views (:mod:`repro.events.projections`).
"""

from repro.events.log import EventLog, replay_dir, verify_dir, writers_in
from repro.events.projections import ProjectionEngine
from repro.events.types import (
    EVENT_KINDS,
    BreakerTripped,
    CellFailed,
    ChunkCompleted,
    Event,
    PredictionEmitted,
    ProbeCompleted,
    StoreInvalidated,
    StudyStarted,
    TraceCaptured,
    UnknownEvent,
    WorkerDied,
    WorkerRespawned,
    from_doc,
)

__all__ = [
    "EventLog",
    "ProjectionEngine",
    "replay_dir",
    "verify_dir",
    "writers_in",
    "EVENT_KINDS",
    "Event",
    "UnknownEvent",
    "from_doc",
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
]
