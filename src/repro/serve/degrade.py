"""The graceful-degradation ladder, derived from the metric registry.

Table 3's metrics are ordered by cost *and* fidelity: metric 9
(HPL+MAPS+NET+DEP) needs a trace and the full convolver, metric 1 (an HPL
ratio) needs two numbers already sitting in the probe cache.  That
hierarchy is a ready-made degradation ladder for online serving: when the
expensive convolver path is slow or its breaker is open, a
correct-but-coarser answer from a cheaper rung is far better than an
error — the same "variability matters, prefer an answer with known
semantics" argument Cornebize & Legrand make for simulation-based MPI
prediction.

Since the declarative-registry refactor the chain is no longer hardcoded:
:meth:`~repro.core.registry.MetricRegistry.ladder` derives it from each
spec's ingredient costs under a halving rule (every fallback must at
least halve the evaluation cost), which for the built-in registry yields
exactly the old 9 → 7 → 5 → 3 → 1 — each rung drops one whole ingredient
class (dependent-access curves, MAPS cache curves, STREAM term, the
convolver itself) rather than a half-step, so successive fallbacks have
visibly distinct semantics.  Registering a user metric with its own cost
slots it into the chain automatically.

Degraded responses are *marked*, never silent: the service stamps
``served_metric`` and ``degraded=True`` so a caller can distinguish "the
best estimate" from "the best estimate available right now" and re-query
later.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.metrics import get_metric
from repro.core.registry import REGISTRY

__all__ = ["ladder_for", "stages_for", "RungAttempt"]


def stages_for(metric: "int | str") -> tuple[str, ...]:
    """Backend stages metric ``metric`` must traverse.

    Read off the metric's registry spec (``needs``): probe-only metrics —
    the simple ratios #1-#3 and the balanced rating — need only cached
    probe rates, predictive metrics add trace + convolve.  The split is
    what makes the ladder useful: an open *convolve* breaker takes out
    metrics 4-9 but leaves the probe-only rungs servable.
    """
    return tuple(get_metric(metric).needs)


def ladder_for(requested: "int | str") -> tuple[int, ...]:
    """Rungs to try for a request, best first.

    The requested metric leads; below it come the registry-derived
    chain's strictly-cheaper rungs in order.  Requests for an off-chain
    metric simply join the ladder at the next rung down (e.g.
    8 → 7 → 5 → 3 → 1).  Raises
    :class:`~repro.core.errors.UnknownIdError` (a :class:`KeyError`) for
    a metric the registry does not know.
    """
    return REGISTRY.ladder_for(requested)


class RungAttempt(NamedTuple):
    """Why one ladder rung was not served (response observability).

    Attributes
    ----------
    metric:
        The rung that was tried (or skipped).
    stage:
        Stage the failure is attributed to, when known.
    error:
        Failure class name (``"CircuitOpenError"``,
        ``"DeadlineExceededError"``, ...).
    message:
        Human-readable detail.
    """

    metric: int
    stage: str | None
    error: str
    message: str
