"""The paper's primary contribution: metric-based performance prediction.

* :mod:`repro.core.errors` — Equation 2 error statistics.
* :mod:`repro.core.convolver` — the MetaSim Convolver: divides traced
  operation counts by probe-measured rates per basic block, handles
  FP/memory overlap and the optional network term.
* :mod:`repro.core.registry` — the declarative metric registry: every
  metric (Table 3's nine, the balanced rating, user metrics #10+) as a
  :class:`~repro.core.registry.MetricSpec` of ``kind/source`` terms.
* :mod:`repro.core.metrics` — runtime ``Metric`` objects built from
  registry specs (three simple Equation-1 ratios, six convolver
  configurations, the composite balanced rating) behind one interface.
* :mod:`repro.core.balanced` — the IDC balanced-rating linear combination,
  with equal and regression-optimised weights (paper Section 4).
* :mod:`repro.core.predictor` — a facade tying machines, probes, traces
  and metrics together (the library's main entry point).
* :mod:`repro.core.ranking` — system-ranking utilities (Kendall/Spearman
  agreement between predicted and observed rankings).
"""

from repro.core.errors import (
    CheckpointError,
    ChunkTimeoutError,
    ErrorSummary,
    ReproError,
    StudyAbortedError,
    TraceCorruptError,
    WorkerCrashError,
    absolute_error,
    signed_error,
    summarise,
)
from repro.core.convolver import ConvolvedTime, Convolver, MemoryModel
from repro.core.metrics import (
    ALL_METRICS,
    CompositeMetric,
    Metric,
    PredictionContext,
    PredictiveMetric,
    SimpleMetric,
    get_metric,
    resolve_metrics,
)
from repro.util.options import Mode
from repro.core.registry import REGISTRY, MetricRegistry, MetricSpec, Term
from repro.core.balanced import BalancedRating, optimise_weights
from repro.core.predictor import PerformancePredictor
from repro.core.ranking import rank_agreement, rank_systems

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
    "Convolver",
    "ConvolvedTime",
    "MemoryModel",
    "Metric",
    "SimpleMetric",
    "PredictiveMetric",
    "CompositeMetric",
    "PredictionContext",
    "ALL_METRICS",
    "get_metric",
    "resolve_metrics",
    "MetricSpec",
    "MetricRegistry",
    "Term",
    "REGISTRY",
    "Mode",
    "BalancedRating",
    "optimise_weights",
    "PerformancePredictor",
    "rank_systems",
    "rank_agreement",
]
