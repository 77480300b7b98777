"""Resilient online serving of metric predictions.

The :mod:`repro.serve` package turns the offline study pipeline into a
prediction *service* that keeps answering under partial failure:
per-stage circuit breakers (:mod:`~repro.serve.breaker`), a graceful
degradation ladder over the Table 3 metric hierarchy
(:mod:`~repro.serve.degrade`), per-request deadlines threaded through the
backend stages, and bounded admission with load-shedding
(:mod:`~repro.serve.admission`).
:class:`~repro.serve.service.PredictionService` ties them together.

One dependency-free asyncio HTTP front end (:mod:`~repro.serve.frontend`)
serves it over the workers of :mod:`~repro.serve.fleet`: one service in
the front end's own process (the default), or N forked worker processes
each owning a full service, with trace identities consistent-hashed
across them (:mod:`~repro.serve.shard`).  Duplicate in-flight requests
collapse to one engine call on either backend
(:mod:`~repro.serve.coalesce`).  The front end and fleet modules are
imported lazily — ``import repro.serve`` stays cheap for callers that
only embed the service.
"""

from repro.serve.admission import AdmissionQueue, ServiceTimeEwma
from repro.serve.breaker import BreakerBoard, CircuitBreaker
from repro.serve.coalesce import SingleFlight
from repro.serve.degrade import LADDER, ladder_for, stages_for
from repro.serve.service import PredictionService, ServedPrediction
from repro.serve.shard import ShardRing

__all__ = [
    "AdmissionQueue",
    "BreakerBoard",
    "CircuitBreaker",
    "LADDER",
    "PredictionService",
    "ServedPrediction",
    "ServiceTimeEwma",
    "ShardRing",
    "SingleFlight",
    "ladder_for",
    "stages_for",
]
