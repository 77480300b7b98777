"""IDC balanced-rating style linear combinations of simple metrics.

Paper Section 4: the Balanced Rating normalises each of three categories
(processor = HPL, memory = STREAM, interconnect = all_reduce) to a 0-100
score and combines them with fixed weights; the paper then uses regression
to find error-minimising weights (5% / 50% / 45%) and shows even those
barely beat GUPS alone — the motivation for application-specific weighting.

Predictions use Equation 1 with the composite score as the rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from repro.probes.results import MachineProbes

__all__ = ["BalancedRating", "optimise_weights", "CATEGORY_NAMES"]

#: The three IDC categories and the probe rate backing each.
CATEGORY_NAMES: tuple[str, str, str] = ("hpl", "stream", "allreduce")


def _category_rates(probes: MachineProbes) -> np.ndarray:
    """Raw higher-is-better rates for (hpl, stream, all_reduce)."""
    return np.array(
        [
            probes.hpl.rmax_flops,
            probes.stream.bandwidth,
            probes.netbench.allreduce_rate,
        ]
    )


@dataclass(frozen=True)
class BalancedRating:
    """A weighted composite of normalised simple-benchmark scores.

    Parameters
    ----------
    probes_by_system:
        Probe suites of every system participating in the normalisation
        (scores are relative to the best system per category, as IDC's
        0-100 scheme is).
    weights:
        Category weights for (hpl, stream, allreduce); need not sum to 1
        (they are renormalised).
    """

    probes_by_system: Mapping[str, MachineProbes]
    weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self) -> None:
        if not self.probes_by_system:
            raise ValueError("need at least one probed system")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (3,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError(f"weights must be 3 non-negative values, got {self.weights}")

    def _score_table(self) -> dict[str, np.ndarray]:
        rates = {name: _category_rates(p) for name, p in self.probes_by_system.items()}
        best = np.max(np.stack(list(rates.values())), axis=0)
        return {name: 100.0 * r / best for name, r in rates.items()}

    def score(self, system: str) -> float:
        """Composite 0-100 score of ``system``."""
        scores = self._score_table()
        if system not in scores:
            raise KeyError(f"system {system!r} was not probed")
        w = np.asarray(self.weights, dtype=float)
        w = w / w.sum()
        return float(scores[system] @ w)

    def predict(self, system: str, base_system: str, base_time: float) -> float:
        """Equation-1 prediction using the composite score as the rate."""
        if base_time <= 0:
            raise ValueError(f"base_time must be > 0, got {base_time!r}")
        return self.score(base_system) / self.score(system) * base_time


def optimise_weights(
    probes_by_system: Mapping[str, MachineProbes],
    observations: Sequence[tuple[str, str, float, float]],
) -> tuple[float, float, float]:
    """Find the category weights minimising mean absolute prediction error.

    Parameters
    ----------
    probes_by_system:
        Probe suites of all systems appearing in ``observations``.
    observations:
        Tuples ``(target_system, base_system, base_time, actual_time)`` —
        one per observed application execution.

    Returns
    -------
    tuple
        Normalised (hpl, stream, allreduce) weights.
    """
    if not observations:
        raise ValueError("need at least one observation to fit weights")
    from scipy import optimize

    def mean_abs_error(raw: np.ndarray) -> float:
        w = np.abs(raw)
        if w.sum() <= 0:
            return 1e9
        rating = BalancedRating(probes_by_system, tuple(w / w.sum()))
        errs = []
        for target, base, base_time, actual in observations:
            pred = rating.predict(target, base, base_time)
            errs.append(abs(pred - actual) / actual)
        return 100.0 * float(np.mean(errs))

    result = optimize.minimize(
        mean_abs_error,
        x0=np.array([1 / 3, 1 / 3, 1 / 3]),
        method="Nelder-Mead",
        options={"xatol": 1e-4, "fatol": 1e-4, "maxiter": 2000},
    )
    w = np.abs(result.x)
    w = w / w.sum()
    return (float(w[0]), float(w[1]), float(w[2]))
