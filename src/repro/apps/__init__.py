"""Application workload models and the ground-truth executor.

The paper's five TI-05 application test cases (AVUS standard/large, HYCOM,
OVERFLOW2, RFCTH) are modelled as collections of *basic blocks* — each with
per-cell floating-point and memory operation counts, a stride signature, a
working-set scaling law and a dependence fraction — plus an MPI
communication signature per timestep (:mod:`repro.apps.model`,
:mod:`repro.apps.suite`).

:mod:`repro.apps.execution` is the ground-truth executor: it runs a model on
a machine with *every* effect enabled (per-level bandwidth, dependency
serialisation, FP/memory overlap, network contention, load imbalance,
deterministic noise), producing the "observed" wall-clock times that stand
in for the paper's Appendix Tables 6-10.

Label resolution lives in the scenario catalog (:mod:`repro.scenarios`):
:func:`get_application` / :func:`list_applications` here delegate to it,
so a mounted universe's applications resolve through this module too.
"""

from __future__ import annotations

from repro.apps.execution import ExecutionResult, GroundTruthExecutor, observed_time
from repro.apps.model import ApplicationModel, BasicBlock, CommEvent
from repro.apps.suite import (
    avus_large,
    avus_standard,
    hycom_standard,
    overflow2_standard,
    rfcth_standard,
)

__all__ = [
    "ApplicationModel",
    "BasicBlock",
    "CommEvent",
    "avus_standard",
    "avus_large",
    "hycom_standard",
    "overflow2_standard",
    "rfcth_standard",
    "get_application",
    "list_applications",
    "GroundTruthExecutor",
    "ExecutionResult",
    "observed_time",
]


def get_application(label: str) -> ApplicationModel:
    """Resolve ``label`` through the scenario catalog (built-ins + universe)."""
    from repro.scenarios import get_application as resolve

    return resolve(label)


def list_applications() -> list[str]:
    """Labels of every loaded application, catalog order (built-ins first)."""
    from repro.scenarios import list_applications as loaded

    return list(loaded())
