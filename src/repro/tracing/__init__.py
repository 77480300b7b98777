"""Tracing substrate: the application "transfer function" extractors.

* :mod:`repro.tracing.trace` — the trace data model (per-block operation
  counts and memory signatures, plus the communication trace).
* :mod:`repro.tracing.metasim` — MetaSim Tracer: samples per-block address
  streams on the *base* machine, classifies them with the stride detector,
  estimates working sets from their spans, and emits
  :class:`~repro.tracing.trace.ApplicationTrace` records.
* :mod:`repro.tracing.counters` — hardware-counter style exact totals (the
  cheap path the paper uses for Metrics #4/#5).
* :mod:`repro.tracing.mpidtrace` — MPIDTRACE: records MPI events.
* :mod:`repro.tracing.static_analysis` — binary static analysis standing in
  for the paper's ILP/dependency block classifier (feeds Metric #9).

Tracing happens once per (application, processor count) on the base system
and is cached, mirroring the paper's "non-recurring cost" observation.
"""

from repro.tracing.trace import ApplicationTrace, BlockTrace, CommRecord
from repro.tracing.metasim import MetaSimTracer, clear_trace_cache, trace_application
from repro.tracing.counters import CounterTotals, count_operations
from repro.tracing.mpidtrace import trace_communication
from repro.tracing.static_analysis import DependencyClass, classify_blocks

__all__ = [
    "ApplicationTrace",
    "BlockTrace",
    "CommRecord",
    "MetaSimTracer",
    "trace_application",
    "clear_trace_cache",
    "CounterTotals",
    "count_operations",
    "trace_communication",
    "DependencyClass",
    "classify_blocks",
]
