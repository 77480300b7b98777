"""The staged prediction engine (see DESIGN.md §5f).

One owner for the probe → execute → trace → convolve → metric-evaluate
dataflow that the predictor facade, the offline study runner and the
online serve layer all share:

* :mod:`repro.engine.plan` — typed plans (:class:`MatrixPlan`,
  :class:`PointPlan`) and artifacts (:class:`ProbeBundle`,
  :class:`PredictionRecord`).
* :mod:`repro.engine.core` — :class:`Engine`, which runs plans through
  the stages, calling one caller-chosen hook,
  ``run_stage(stage, deadline, fn)``, around every stage invocation.

Layering: the engine sits above ``core``/``probes``/``tracing``/``apps``
and below ``study``/``serve``/``cli``; it must never import any of those
three (enforced by ``scripts/check_layering.py``).
"""

from repro.engine.core import ENGINE_STAGES, Engine
from repro.engine.plan import MatrixPlan, PointPlan, PredictionRecord, ProbeBundle

__all__ = [
    "ENGINE_STAGES",
    "Engine",
    "MatrixPlan",
    "PointPlan",
    "PredictionRecord",
    "ProbeBundle",
]
