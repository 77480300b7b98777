"""Projections: materialized views computed incrementally from the log.

A :class:`Projection` folds events into a small state dict; the
:class:`ProjectionEngine` hosts a set of them and can be fed three ways,
all producing identical views:

* **fold** — :meth:`ProjectionEngine.apply` one event at a time, as the
  events are appended;
* **rebuild** — replaying a log directory from scratch
  (:meth:`ProjectionEngine.rebuild`), the path ``repro-study events
  rebuild`` and ``GET /events/stats`` exercise;
* **snapshot + tail** — restoring a compaction snapshot's state and
  applying only the events after it.

That three-way equivalence is the consistency guarantee: projection
state is a pure fold over the event prefix, and every state is
JSON-serializable so it can ride inside a snapshot.  Views are built
from *commutative* aggregates (keyed sums and counters) across writer
streams, because a multi-writer directory has no global event order —
only per-writer order is real.
"""

from __future__ import annotations

import os
from typing import Any

from repro.events.log import replay_dir, writers_in
from repro.events.snapshot import load_snapshot
from repro.events.types import (
    BreakerTripped,
    CellFailed,
    ChunkCompleted,
    Event,
    PredictionEmitted,
    ProbeCompleted,
    StoreInvalidated,
    TraceCaptured,
    WorkerDied,
    WorkerRespawned,
)

__all__ = [
    "Projection",
    "EventStats",
    "MachineLeaderboard",
    "ErrorVsObserved",
    "FailureHistory",
    "ProjectionEngine",
]

#: Row layout of :class:`repro.engine.plan.PredictionRecord` as serialized
#: inside ``ChunkCompleted`` events (field order is on-disk format).
_REC_SYSTEM = 2
_REC_METRIC = 3
_REC_ACTUAL = 4
_REC_ERROR = 6

FAILURE_HISTORY_LIMIT = 256


class Projection:
    """Base: a named, restorable fold over the event stream."""

    name = "projection"

    def apply(self, event: Event, *, writer: str = "main", seq: int = 0) -> None:
        raise NotImplementedError

    def view(self) -> Any:
        raise NotImplementedError

    def state(self) -> dict[str, Any]:
        raise NotImplementedError

    def restore(self, state: dict[str, Any]) -> None:
        raise NotImplementedError


class EventStats(Projection):
    """Counts by kind plus per-writer high-water marks."""

    name = "stats"

    def __init__(self) -> None:
        self._kinds: dict[str, int] = {}
        self._writers: dict[str, int] = {}
        self._total = 0

    def apply(self, event: Event, *, writer: str = "main", seq: int = 0) -> None:
        kind = type(event).kind
        if kind == "unknown":
            kind = getattr(event, "original_kind", kind)
        self._kinds[kind] = self._kinds.get(kind, 0) + 1
        self._total += 1
        if seq > self._writers.get(writer, 0):
            self._writers[writer] = seq

    def view(self) -> dict[str, Any]:
        return {
            "total": self._total,
            "by_kind": dict(sorted(self._kinds.items())),
            "writers": dict(sorted(self._writers.items())),
        }

    def state(self) -> dict[str, Any]:
        return {"kinds": self._kinds, "writers": self._writers, "total": self._total}

    def restore(self, state: dict[str, Any]) -> None:
        self._kinds = dict(state["kinds"])
        self._writers = dict(state["writers"])
        self._total = int(state["total"])


class MachineLeaderboard(Projection):
    """Per-machine prediction quality, ranked by mean absolute error.

    Study chunks contribute full error information; serve-path
    ``PredictionEmitted`` events (no observed runtime) contribute volume
    and degradation counts only.
    """

    name = "leaderboard"

    def __init__(self) -> None:
        self._machines: dict[str, dict[str, float]] = {}

    def _bucket(self, machine: str) -> dict[str, float]:
        return self._machines.setdefault(
            machine,
            {"predictions": 0, "served": 0, "degraded": 0, "sum_abs": 0.0, "sum_signed": 0.0},
        )

    def apply(self, event: Event, *, writer: str = "main", seq: int = 0) -> None:
        if isinstance(event, ChunkCompleted):
            for row in event.records or ():
                bucket = self._bucket(str(row[_REC_SYSTEM]))
                error = float(row[_REC_ERROR])
                bucket["predictions"] += 1
                bucket["sum_abs"] += abs(error)
                bucket["sum_signed"] += error
        elif isinstance(event, PredictionEmitted):
            bucket = self._bucket(event.machine)
            bucket["served"] += 1
            if event.degraded:
                bucket["degraded"] += 1

    def view(self) -> list[dict[str, Any]]:
        rows = []
        for machine, bucket in self._machines.items():
            n = int(bucket["predictions"])
            rows.append(
                {
                    "machine": machine,
                    "predictions": n,
                    "served": int(bucket["served"]),
                    "degraded": int(bucket["degraded"]),
                    "mean_abs_error": bucket["sum_abs"] / n if n else None,
                    "mean_signed_error": bucket["sum_signed"] / n if n else None,
                }
            )
        rows.sort(
            key=lambda row: (
                row["mean_abs_error"] is None,
                row["mean_abs_error"] if row["mean_abs_error"] is not None else 0.0,
                row["machine"],
            )
        )
        return rows

    def state(self) -> dict[str, Any]:
        return {"machines": self._machines}

    def restore(self, state: dict[str, Any]) -> None:
        self._machines = {k: dict(v) for k, v in state["machines"].items()}


class ErrorVsObserved(Projection):
    """Signed error vs observed runtime, keyed metric → machine.

    The per-cell rows of every ``ChunkCompleted`` fold into sums, so the
    view reads as: for each convolution metric, on each target machine,
    how biased the predictions are against the observed runtimes they
    were scored on.
    """

    name = "error_vs_observed"

    def __init__(self) -> None:
        self._cells: dict[str, dict[str, dict[str, float]]] = {}

    def apply(self, event: Event, *, writer: str = "main", seq: int = 0) -> None:
        if not isinstance(event, ChunkCompleted):
            return
        for row in event.records or ():
            metric = str(row[_REC_METRIC])
            machine = str(row[_REC_SYSTEM])
            cell = self._cells.setdefault(metric, {}).setdefault(
                machine,
                {"count": 0, "sum_signed": 0.0, "sum_abs": 0.0, "sum_observed": 0.0},
            )
            error = float(row[_REC_ERROR])
            cell["count"] += 1
            cell["sum_signed"] += error
            cell["sum_abs"] += abs(error)
            cell["sum_observed"] += float(row[_REC_ACTUAL])

    def view(self) -> dict[str, Any]:
        table: dict[str, Any] = {}
        for metric in sorted(self._cells):
            table[metric] = {}
            for machine in sorted(self._cells[metric]):
                cell = self._cells[metric][machine]
                n = int(cell["count"])
                table[metric][machine] = {
                    "count": n,
                    "mean_signed_error": cell["sum_signed"] / n,
                    "mean_abs_error": cell["sum_abs"] / n,
                    "mean_observed_seconds": cell["sum_observed"] / n,
                }
        return table

    def state(self) -> dict[str, Any]:
        return {"cells": self._cells}

    def restore(self, state: dict[str, Any]) -> None:
        self._cells = {
            metric: {machine: dict(cell) for machine, cell in machines.items()}
            for metric, machines in state["cells"].items()
        }


class FailureHistory(Projection):
    """Bounded chronological tail of everything that went wrong, plus totals."""

    name = "failures"

    _WATCHED = (
        CellFailed,
        BreakerTripped,
        WorkerDied,
        WorkerRespawned,
        StoreInvalidated,
        TraceCaptured,
        ProbeCompleted,
    )
    _COUNTED = ("cell-failed", "breaker-tripped", "worker-died", "worker-respawned", "store-invalidated")

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._recent: list[dict[str, Any]] = []

    def apply(self, event: Event, *, writer: str = "main", seq: int = 0) -> None:
        kind = type(event).kind
        if kind in ("trace-captured", "probe-completed"):
            # capture volume only; captures are not failures
            self._counts[kind] = self._counts.get(kind, 0) + 1
            return
        if kind not in self._COUNTED:
            return
        self._counts[kind] = self._counts.get(kind, 0) + 1
        entry = {"writer": writer, "seq": seq}
        entry.update(event.to_doc())
        self._recent.append(entry)
        if len(self._recent) > FAILURE_HISTORY_LIMIT:
            del self._recent[: len(self._recent) - FAILURE_HISTORY_LIMIT]

    def view(self) -> dict[str, Any]:
        return {"counts": dict(sorted(self._counts.items())), "recent": list(self._recent)}

    def state(self) -> dict[str, Any]:
        return {"counts": self._counts, "recent": self._recent}

    def restore(self, state: dict[str, Any]) -> None:
        self._counts = dict(state["counts"])
        self._recent = list(state["recent"])


def default_projections() -> list[Projection]:
    return [EventStats(), MachineLeaderboard(), ErrorVsObserved(), FailureHistory()]


class ProjectionEngine:
    """A set of projections fed from one event source."""

    def __init__(self, projections: list[Projection] | None = None) -> None:
        self._projections = projections if projections is not None else default_projections()
        self._by_name = {proj.name: proj for proj in self._projections}

    def apply(self, event: Event, *, writer: str = "main", seq: int = 0) -> None:
        for proj in self._projections:
            proj.apply(event, writer=writer, seq=seq)

    def views(self) -> dict[str, Any]:
        return {proj.name: proj.view() for proj in self._projections}

    def view(self, name: str) -> Any:
        return self._by_name[name].view()

    def state(self) -> dict[str, Any]:
        return {proj.name: proj.state() for proj in self._projections}

    def restore(self, state: dict[str, Any]) -> None:
        for proj in self._projections:
            if proj.name in state:
                proj.restore(state[proj.name])

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    @classmethod
    def rebuild(
        cls,
        root: str | os.PathLike,
        projections: list[Projection] | None = None,
    ) -> "ProjectionEngine":
        """Reconstruct views from a log directory alone.

        Single-writer directories may be compacted: the snapshot state is
        restored first, then the surviving tail replayed.  Multi-writer
        directories must be snapshot-free (only single-writer streams are
        ever compacted) — their segments are replayed in full.
        """
        engine = cls(projections)
        writers = writers_in(root)
        snapped = [w for w in writers if load_snapshot(root, w) is not None]
        if snapped:
            if len(writers) != 1:
                raise ValueError(
                    f"cannot rebuild {os.fspath(root)}: snapshots present for "
                    f"{snapped} in a multi-writer directory"
                )
            snap = load_snapshot(root, writers[0])
            assert snap is not None
            engine.restore(snap[1])
        for writer, seq, event in replay_dir(root):
            engine.apply(event, writer=writer, seq=seq)
        return engine
