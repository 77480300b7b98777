"""The staged prediction engine (see DESIGN.md §5f).

One owner for the probe → execute → trace → cache-model → convolve →
metric-evaluate dataflow that the predictor facade, the offline study
runner and the online serve layer all share:

* :mod:`repro.engine.plan` — typed plans (:class:`MatrixPlan`,
  :class:`PointPlan`) and artifacts (:class:`ProbeBundle`,
  :class:`PredictionRecord`).
* :mod:`repro.engine.middleware` — cross-cutting concerns (timing,
  deadline gating, budget slicing, circuit breaking, fault injection,
  retries) as composable stage middleware.
* :mod:`repro.engine.core` — :class:`Engine`, which runs plans through
  the stages under a caller-chosen middleware tuple.

Layering: the engine sits above ``core``/``probes``/``tracing``/``apps``
and below ``study``/``serve``/``cli``; it must never import the HTTP
front end (``serve.frontend``, ``serve.fleet``) or ``cli`` (enforced by
``scripts/check_layering.py``).
"""

from repro.engine.core import Engine
from repro.engine.middleware import (
    BreakerMiddleware,
    BudgetMiddleware,
    DeadlineGate,
    FaultMiddleware,
    RetryMiddleware,
    StageRunner,
    TimingMiddleware,
)
from repro.engine.plan import MatrixPlan, PointPlan, PredictionRecord, ProbeBundle

__all__ = [
    "Engine",
    "MatrixPlan",
    "PointPlan",
    "PredictionRecord",
    "ProbeBundle",
    "StageRunner",
    "TimingMiddleware",
    "DeadlineGate",
    "BreakerMiddleware",
    "BudgetMiddleware",
    "FaultMiddleware",
    "RetryMiddleware",
]
