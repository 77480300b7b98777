"""IDC balanced-rating style linear combinations of simple metrics.

Paper Section 4: the Balanced Rating normalises each of three categories
(processor = HPL, memory = STREAM, interconnect = all_reduce) to a 0-100
score and combines them with fixed weights; the paper then uses regression
to find error-minimising weights (5% / 50% / 45%) and shows even those
barely beat GUPS alone — the motivation for application-specific weighting.

Predictions use Equation 1 with the composite score as the rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

import numpy as np

from repro.probes.results import MachineProbes

__all__ = ["BalancedRating", "mean_abs_error", "optimise_weights", "CATEGORY_NAMES"]

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
    #: system -> its 0-100 (hpl, stream, allreduce) scores, built once.
    _scores: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)
    _unit_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.probes_by_system:
            raise ValueError("need at least one probed system")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (3,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError(f"weights must be 3 non-negative values, got {self.weights}")
        rates = {name: _category_rates(p) for name, p in self.probes_by_system.items()}
        best = np.max(np.stack(list(rates.values())), axis=0)
        scores = {name: 100.0 * r / best for name, r in rates.items()}
        object.__setattr__(self, "_scores", scores)
        object.__setattr__(self, "_unit_weights", w / w.sum())

    def category_scores(self, system: str) -> np.ndarray:
        """The 0-100 (hpl, stream, allreduce) scores of ``system``."""
        if system not in self._scores:
            raise KeyError(f"system {system!r} was not probed")
        return self._scores[system]

    def score(self, system: str) -> float:
        """Composite 0-100 score of ``system``."""
        return float(self.category_scores(system) @ self._unit_weights)

    def predict(self, system: str, base_system: str, base_time: float) -> float:
        """Equation-1 prediction using the composite score as the rate."""
        if base_time <= 0:
            raise ValueError(f"base_time must be > 0, got {base_time!r}")
        return self.score(base_system) / self.score(system) * base_time


def mean_abs_error(
    rating: BalancedRating,
    observations: Sequence[tuple[str, str, float, float]],
    weights: np.ndarray | Sequence[Sequence[float]],
) -> np.ndarray:
    """Mean absolute Equation-1 error (%) over ``observations``, as
    :func:`optimise_weights` takes them, for each row of the ``(k, 3)``
    (hpl, stream, allreduce) ``weights``; rows are renormalised.  Only
    the category scores of ``rating`` are read, not its weights."""
    if not observations:
        raise ValueError("need at least one observation")
    targets, bases, base_time, actual = zip(*observations)
    target_scores = np.stack([rating.category_scores(s) for s in targets])
    base_scores = np.stack([rating.category_scores(s) for s in bases])
    w = np.asarray(weights, dtype=float)
    w = (w / w.sum(axis=1, keepdims=True)).T
    actual = np.asarray(actual)[:, None]
    predicted = (base_scores @ w) / (target_scores @ w) * np.asarray(base_time)[:, None]
    return 100.0 * np.mean(np.abs(predicted - actual) / actual, axis=0)


def optimise_weights(
    probes_by_system: Mapping[str, MachineProbes],
    observations: Sequence[tuple[str, str, float, float]],
) -> tuple[float, float, float]:
    """Find the category weights minimising mean absolute prediction error.

    A grid search over the weight simplex: every point of a 1/100 grid,
    then four zooms, each a 21 x 21 grid at a tenth of the previous
    spacing centred on the best point so far.  It is deterministic and
    needs no starting point.

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
    rating = BalancedRating(probes_by_system)
    # Integer steps keep the simplex edge exact: allreduce = 0 is not lost
    # to rounding below zero.
    grid = _simplex_grid(np.arange(101), np.arange(101), 100) / 100
    best = grid[np.argmin(mean_abs_error(rating, observations, grid))]
    for spacing in (1e-3, 1e-4, 1e-5, 1e-6):
        steps = np.arange(-10, 11) * spacing
        grid = _simplex_grid(best[0] + steps, best[1] + steps, 1.0)
        best = grid[np.argmin(mean_abs_error(rating, observations, grid))]
    w = best / best.sum()
    return (float(w[0]), float(w[1]), float(w[2]))


def _simplex_grid(hpl: np.ndarray, stream: np.ndarray, total: float) -> np.ndarray:
    """Rows (h, s, total - h - s) for every h in ``hpl`` and s in ``stream``,
    keeping those with no negative weight."""
    h, s = (a.ravel() for a in np.meshgrid(hpl, stream, indexing="ij"))
    grid = np.column_stack((h, s, total - h - s))
    return grid[(grid >= 0).all(axis=1)]
