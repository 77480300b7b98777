"""Resilient online serving of metric predictions.

The :mod:`repro.serve` package turns the offline study pipeline into a
prediction *service* that keeps answering under partial failure:
per-stage circuit breakers (:mod:`~repro.serve.breaker`), a graceful
degradation ladder over the Table 3 metric hierarchy
(:mod:`~repro.serve.degrade`) and per-request deadlines threaded through
the backend stages.
:class:`~repro.serve.service.PredictionService` ties them together.

One dependency-free asyncio HTTP front end (:mod:`~repro.serve.frontend`)
serves it over the workers of :mod:`~repro.serve.fleet`: one service in
the front end's own process (the default), or N forked worker processes
each owning a full service, with trace identities consistent-hashed
across them (:mod:`~repro.serve.shard`).  Load is shed at one gate per
worker: the front end's worker handle bounds the pending requests, and
a request queued for a pool thread (a batch, or a point request not
answerable from memory) whose deadline runs out while it waits is shed
too; both answer 429 with the handle's ``Retry-After`` estimate.
Duplicate in-flight requests collapse to one engine call on either
backend (:mod:`~repro.serve.coalesce`).  The front end and fleet modules
are imported lazily — ``import repro.serve`` stays cheap for callers
that only embed the service.
"""

from repro.serve.breaker import BreakerBoard, CircuitBreaker
from repro.serve.coalesce import SingleFlight
from repro.serve.degrade import ladder_for, stages_for
from repro.serve.service import PredictionService, ServedPrediction
from repro.serve.shard import ShardRing

__all__ = [
    "BreakerBoard",
    "CircuitBreaker",
    "PredictionService",
    "ServedPrediction",
    "ShardRing",
    "SingleFlight",
    "ladder_for",
    "stages_for",
]
