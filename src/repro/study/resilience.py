"""Resilience layer of the study engine: checkpoints, retries, quarantine.

The full paper matrix is 150 simulated runs and 1350 predictions; at
production scale (``--scale N`` replicas, parallel workers, shared cache
directories) a single worker death, torn cache file or Ctrl-C must not
throw the whole campaign away.  This module provides the pieces
:func:`repro.study.runner.run_study` composes into that guarantee:

* :class:`StudyCheckpoint` — the study journal, an event-log consumer
  since the durability core landed: completed chunks are
  ``ChunkCompleted`` events in a :class:`~repro.events.log.EventLog`
  stream whose first event (``StudyStarted``) pins the study config's
  identity digest.  A crash mid-append at worst leaves a torn tail frame
  that recovery truncates.  Because chunk results are partition-invariant
  and every stochastic input is seed-stable, a resumed study is
  byte-identical to an uninterrupted one.
* :class:`CellFailure` — the quarantine record for a chunk that exhausted
  its retries, carrying the failure taxonomy class
  (:mod:`repro.core.errors`) so partial results stay diagnosable.
* :func:`repro.util.retry.backoff_seconds` (re-exported here) — capped
  exponential backoff with *deterministic* seeded jitter, shared with the
  prediction service's half-open breaker probes, so retry schedules are
  reproducible run-to-run.
* :func:`classify_failure` — maps arbitrary chunk exceptions onto the
  taxonomy (``WorkerCrashError``, ``ChunkTimeoutError``, ...).
"""

from __future__ import annotations

import hashlib
import logging
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import NamedTuple

from repro.core.errors import (
    CheckpointError,
    ChunkTimeoutError,
    ReproError,
    WorkerCrashError,
)
from repro.events.log import EventLog
from repro.events.types import CellFailed, ChunkCompleted, StudyStarted
from repro.util.retry import (
    BACKOFF_BASE_SECONDS,
    BACKOFF_CAP_SECONDS,
    backoff_seconds,
)

__all__ = [
    "CellFailure",
    "StudyCheckpoint",
    "CHECKPOINT_SCHEMA_VERSION",
    "config_digest",
    "backoff_seconds",
    "classify_failure",
]

log = logging.getLogger(__name__)

#: Bumped whenever the checkpoint layout changes incompatibly.
#: Version 2 is the event-log directory format.
CHECKPOINT_SCHEMA_VERSION = 2

#: Writer id of the study journal stream inside its log directory.
CHECKPOINT_WRITER = "study"

#: Identity fields of a StudyConfig — the ones that shape results.  Engine
#: knobs (``max_retries``, ``chunk_timeout``) are deliberately excluded:
#: changing them must not orphan a checkpoint.
_IDENTITY_FIELDS = (
    "applications",
    "systems",
    "base_system",
    "metrics",
    "mode",
    "sample_size",
    "noise",
    "cache_model",
)

# BACKOFF_BASE_SECONDS / BACKOFF_CAP_SECONDS / backoff_seconds now live in
# repro.util.retry (shared with the serving layer); re-exported above for
# existing importers.


class CellFailure(NamedTuple):
    """A quarantined chunk: every cell of one application row is missing.

    Attributes
    ----------
    application:
        The chunk's application label (chunks span all systems of a row).
    error:
        Taxonomy class name (``"WorkerCrashError"``, ``"ChunkTimeoutError"``,
        ...) — the *last* attempt's failure class.
    message:
        The last attempt's error message.
    attempts:
        Total attempts made (1 + retries) before quarantine.
    """

    application: str
    error: str
    message: str
    attempts: int


def config_digest(config) -> str:
    """Stable digest of a :class:`StudyConfig`'s result-shaping identity."""
    h = hashlib.blake2b(digest_size=16)
    for name in _IDENTITY_FIELDS:
        h.update(repr(getattr(config, name)).encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()


def classify_failure(exc: BaseException) -> tuple[str, str]:
    """Map a chunk failure onto the taxonomy: ``(class_name, message)``.

    Pool-infrastructure failures collapse onto :class:`WorkerCrashError` /
    :class:`ChunkTimeoutError`; :class:`ReproError` subclasses keep their
    own class; anything else keeps its concrete type name so quarantine
    records stay diagnosable.
    """
    if isinstance(exc, ReproError):
        return type(exc).__name__, str(exc)
    if isinstance(exc, (BrokenProcessPool, CancelledError)):
        return WorkerCrashError.__name__, f"worker pool broke: {exc}"
    if isinstance(exc, FuturesTimeoutError):
        return ChunkTimeoutError.__name__, f"chunk deadline exceeded: {exc}"
    return type(exc).__name__, str(exc)


class StudyCheckpoint:
    """The study journal: one event-log stream of completed chunks.

    ``path`` is an event-log *directory* (created on first ``record``).
    Its ``study`` writer stream opens with a ``StudyStarted`` event
    pinning the schema version and the study config's identity digest;
    every completed chunk is a ``ChunkCompleted`` event carrying the
    chunk's records/observed-times/stage-breakdown, and quarantined
    chunks leave ``CellFailed`` events for the audit trail.  Loading
    validates everything and silently heals the damage shapes:

    * identity mismatch (different config, stale schema, foreign log) —
      the journal is ignored and wiped on the next ``record``;
    * torn tail (killed mid-append) — the event log keeps the valid
      frame prefix and truncates the rest in place.

    Anything at ``path`` that is not a directory — such as the
    single-file journal of earlier builds — raises
    :class:`~repro.core.errors.CheckpointError` from :meth:`load` and is
    left untouched.

    JSON float serialisation round-trips exactly (``repr`` semantics), so
    chunks replayed from a checkpoint are *byte-identical* to freshly
    computed ones.
    """

    def __init__(self, path: str, digest: str):
        self.path = Path(path)
        self.config_digest = digest
        self._log: EventLog | None = None
        self._started = False
        self._reset_needed = False

    # ------------------------------------------------------------------
    def load(self) -> dict[str, dict]:
        """Validated entries keyed by chunk label (empty when unusable)."""
        if not self.path.is_dir():
            if self.path.exists():
                raise CheckpointError(
                    f"checkpoint path {self.path} exists but is not an "
                    "event-log directory; move it away or pick another path"
                )
            return {}
        event_log = self._open_log()
        entries: dict[str, dict] = {}
        for index, (_seq, event) in enumerate(event_log.replay()):
            if index == 0:
                if not (
                    isinstance(event, StudyStarted)
                    and event.schema_version == CHECKPOINT_SCHEMA_VERSION
                    and event.config_digest == self.config_digest
                ):
                    log.warning(
                        "checkpoint %s does not match this study (stale schema "
                        "or different config); it will be restarted", self.path,
                    )
                    self._reset_needed = True
                    return {}
                self._started = True
                continue
            if isinstance(event, ChunkCompleted):
                entries[event.label] = {
                    "label": event.label,
                    "records": event.records,
                    "observed": event.observed,
                    "stages": event.stages,
                }
        return entries

    # ------------------------------------------------------------------
    def record(self, label: str, records, observed, stages) -> None:
        """Journal one completed chunk (durable before returning).

        ``records`` are :class:`~repro.study.runner.PredictionRecord`
        tuples; ``observed`` maps ``(application, system, cpus)`` to
        seconds; ``stages`` is the chunk's stage-seconds breakdown.
        """
        event = ChunkCompleted(
            label=label,
            records=[list(rec) for rec in records],
            observed=[[a, s, c, v] for (a, s, c), v in observed.items()],
            stages=dict(stages),
        )
        try:
            self._ensure_log().append(event)
        except OSError as exc:
            raise CheckpointError(
                f"cannot journal chunk {label!r} to checkpoint {self.path}: {exc}"
            ) from exc

    def record_failure(self, failure: "CellFailure") -> None:
        """Journal a quarantined chunk for the audit trail (best-effort).

        Failed chunks are *not* resume points — they are retried from
        scratch on the next run — so a journal write error here is logged,
        not raised: losing an audit event must not fail the study.
        """
        event = CellFailed(
            application=failure.application,
            error=failure.error,
            message=failure.message,
            attempts=failure.attempts,
        )
        try:
            self._ensure_log().append(event)
        except OSError as exc:  # pragma: no cover - audit is best-effort
            log.warning(
                "could not journal failure of %r to checkpoint %s: %s",
                failure.application, self.path, exc,
            )

    # ------------------------------------------------------------------
    # journal stream management
    # ------------------------------------------------------------------
    def _open_log(self) -> EventLog:
        if self._log is None:
            self._log = EventLog(
                self.path, writer=CHECKPOINT_WRITER, fsync="always"
            )
        return self._log

    def _ensure_log(self) -> EventLog:
        """The journal stream, ready to append chunks to.

        Handles the two cold-start shapes: wiping a mismatched log, and
        starting the stream with its ``StudyStarted`` identity event.
        """
        if self._started and self._log is not None:
            return self._log
        if self._reset_needed:
            self._wipe_log_dir()
            self._reset_needed = False
        event_log = self._open_log()
        if event_log.last_seq == 0:
            event_log.append(
                StudyStarted(
                    config_digest=self.config_digest,
                    schema_version=CHECKPOINT_SCHEMA_VERSION,
                )
            )
        self._started = True
        return event_log

    def close(self) -> None:
        """Close the journal stream (a later ``record`` reopens it)."""
        if self._log is not None:
            self._log.close()
            self._log = None

    def _wipe_log_dir(self) -> None:
        """Drop every event-log artifact under ``path`` (restart semantics)."""
        self.close()
        if not self.path.is_dir():
            return
        for child in self.path.iterdir():
            name = child.name
            if name.startswith("events-") and name.endswith(".jsonl"):
                child.unlink()
