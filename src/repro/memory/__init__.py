"""Memory subsystem models.

Three complementary pieces:

* :mod:`repro.memory.patterns` — descriptors of *how* a kernel touches
  memory (working set, stride class, dependence), shared by probes, the
  ground-truth executor and the convolver.
* :mod:`repro.memory.hierarchy` — the analytic cache/memory hierarchy model
  that converts a pattern into achieved bandwidth on a given machine.  This
  is the single behavioural surface both probes and the executor interrogate
  (DESIGN.md §5.2).
* :mod:`repro.memory.streams` / :mod:`repro.memory.stride` — synthetic
  address-stream generators and an EMPS-style stride detector; together
  they form the tracing substrate used by MetaSim Tracer.
"""

from repro.memory.patterns import (
    AccessPattern,
    StrideClass,
    StrideHistogram,
)
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.streams import (
    pointer_chase_addresses,
    random_addresses,
    strided_addresses,
)
from repro.memory.stride import StrideDetector, StrideReport

__all__ = [
    "AccessPattern",
    "StrideClass",
    "StrideHistogram",
    "MemoryHierarchy",
    "strided_addresses",
    "random_addresses",
    "pointer_chase_addresses",
    "StrideDetector",
    "StrideReport",
]
