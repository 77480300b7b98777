"""Typed plans and artifacts of the staged prediction engine.

A *plan* declares what to compute — which applications, systems and
metrics — and the :class:`~repro.engine.core.Engine` decides how: which
stages run, in what order, under which stage hook.  Two plan shapes cover
every caller in the codebase:

* :class:`MatrixPlan` — the offline study's (applications × systems)
  block; the engine traces each (application, cpus) row once and prices
  it against every eligible system for all metrics at once.
* :class:`PointPlan` — one online (application, cpus, machine, metric)
  query; the engine runs only the stages the metric's registry spec
  declares (``needs``), so probe-only metrics never touch the tracer.

The artifacts are deliberately small, stable types: they cross process
boundaries (study chunks return them from pool workers) and checkpoint
journals (:class:`PredictionRecord` rows round-trip through JSON), so
their field order is part of the on-disk format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.core.registry import REGISTRY
from repro.util.validation import check_distinct

__all__ = ["MatrixPlan", "PointPlan", "ProbeBundle", "PredictionRecord"]


class PredictionRecord(NamedTuple):
    """One (run, metric) outcome.

    A ``NamedTuple`` rather than a frozen dataclass: a full study emits
    1350 of these and tuple construction skips per-field
    ``object.__setattr__`` calls.

    Attributes
    ----------
    application, cpus, system, metric:
        Cell identity.
    actual_seconds, predicted_seconds:
        Ground truth and the metric's estimate.
    error_percent:
        Signed Equation 2 error.
    """

    application: str
    cpus: int
    system: str
    metric: int
    actual_seconds: float
    predicted_seconds: float
    error_percent: float

    @property
    def abs_error_percent(self) -> float:
        """Magnitude of the signed error."""
        return abs(self.error_percent)


class ProbeBundle(NamedTuple):
    """Probe-stage output for one point query.

    A plain tuple subclass so caller-supplied probe backends returning
    bare ``(target_probes, base_probes, base_time)`` tuples interoperate.
    """

    target_probes: object
    base_probes: object
    base_time: float


@dataclass(frozen=True)
class MatrixPlan:
    """A study block: every metric over (labels × systems).

    Every axis holds distinct entries: a repeated label, system, metric
    or row would emit its cells twice, so it raises :class:`ValueError`
    naming it.

    Attributes
    ----------
    labels:
        Application labels (``"AVUS-standard"`` or replicas
        ``"AVUS-standard@2"``), each expanded over its cpu counts.
    systems:
        Target system names; cells whose cpu count exceeds a system's
        size are skipped, as the paper's blank appendix cells are.
    metrics:
        Registry metric keys (numbers or names), in output order; stored
        as registry numbers, so ``9`` and its name are one metric.
    rows:
        Optional explicit ``(label, cpus)`` rows.  ``None`` (the study
        default) expands every label over its application's full
        ``cpu_counts``; a tuple of distinct rows restricts the block
        to exactly those rows, in the given per-label order — this is
        how the serve layer's batch endpoint compiles a heterogeneous
        cell list into per-shard sub-matrices without pricing rows
        nobody asked for.  Per-system, per-row results are independent,
        so any ``rows`` partition of a matrix produces cell-for-cell
        identical records.
    """

    labels: tuple[str, ...]
    systems: tuple[str, ...]
    metrics: tuple
    rows: "tuple[tuple[str, int], ...] | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "systems", tuple(self.systems))
        object.__setattr__(
            self, "metrics", tuple(REGISTRY.spec(key).number for key in self.metrics)
        )
        check_distinct("label", "MatrixPlan.labels", self.labels)
        check_distinct("system", "MatrixPlan.systems", self.systems)
        check_distinct("metric", "MatrixPlan.metrics", self.metrics)
        if self.rows is not None:
            rows = tuple((str(label), int(cpus)) for label, cpus in self.rows)
            check_distinct("row", "MatrixPlan.rows", rows)
            row_labels = {label for label, _ in rows}
            missing = row_labels - set(self.labels)
            if missing:
                raise ValueError(
                    f"rows name labels absent from plan.labels: {sorted(missing)}"
                )
            object.__setattr__(self, "rows", rows)

    def cpus_for(self, label: str, default: tuple[int, ...]) -> tuple[int, ...]:
        """The cpu rows of ``label``: explicit ``rows`` or the default."""
        if self.rows is None:
            return tuple(default)
        return tuple(cpus for row_label, cpus in self.rows if row_label == label)


@dataclass(frozen=True)
class PointPlan:
    """One online query: predict ``app`` at ``cpus`` on ``target``.

    Attributes
    ----------
    app:
        Resolved :class:`~repro.apps.model.ApplicationModel`.
    cpus:
        Processor count of the hypothetical run.
    target:
        Resolved target :class:`~repro.machines.spec.MachineSpec`.
    metric:
        The runtime :class:`~repro.core.metrics.Metric` to apply; its
        ``needs`` tuple is the engine's stage list for this plan.
    probe:
        Optional probe-stage override, called with the stage's
        (sub-)deadline; it must return a :class:`ProbeBundle`-shaped
        tuple.  When omitted the engine uses its own cached backend
        (:meth:`~repro.engine.core.Engine.probe_bundle`).
    """

    app: object
    cpus: int
    target: object
    metric: object
    probe: Callable | None = None
