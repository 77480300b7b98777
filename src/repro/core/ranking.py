"""System-ranking utilities.

The paper's motivation is ranking HPC systems ("system X is 50% faster
than system Y for application Z").  These helpers rank systems by predicted
or observed time and quantify agreement between the two orderings.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

__all__ = ["rank_systems", "rank_agreement"]


def rank_systems(times: Mapping[str, float]) -> list[str]:
    """Systems ordered fastest first by the given times (seconds)."""
    if not times:
        raise ValueError("cannot rank zero systems")
    for name, t in times.items():
        if t <= 0:
            raise ValueError(f"time for {name!r} must be > 0, got {t!r}")
    return sorted(times, key=lambda name: times[name])


def rank_agreement(
    predicted: Mapping[str, float], actual: Mapping[str, float]
) -> dict[str, float]:
    """Kendall tau-b and Spearman rho between predicted and actual orderings.

    Only systems present in both mappings participate.  Tau-b is
    (concordant - discordant pairs) / sqrt(pairs untied in ``predicted``)
    / sqrt(pairs untied in ``actual``); rho is the Pearson correlation of
    the average ranks (tied values share the mean of their ranks).  Both
    are NaN when either side is constant or holds a NaN.

    Returns
    -------
    dict
        ``{"kendall_tau": ..., "spearman_rho": ..., "n": ...}``.
    """
    common = sorted(set(predicted) & set(actual))
    n = len(common)
    if n < 2:
        raise ValueError("need at least two common systems to compare rankings")
    p = np.array([predicted[name] for name in common], dtype=float)
    a = np.array([actual[name] for name in common], dtype=float)
    # sign_p[i, j] = sign(p[i] - p[j]); each unordered pair appears twice.
    sign_p = np.sign(p[:, None] - p)
    sign_a = np.sign(a[:, None] - a)
    untied_p = np.count_nonzero(sign_p) // 2
    untied_a = np.count_nonzero(sign_a) // 2
    if np.isnan(p).any() or np.isnan(a).any() or not untied_p or not untied_a:
        nan = float("nan")
        return {"kendall_tau": nan, "spearman_rho": nan, "n": float(n)}
    concordant_minus_discordant = int(np.sum(sign_p * sign_a)) // 2
    tau = concordant_minus_discordant / np.sqrt(untied_p) / np.sqrt(untied_a)
    # A value's average rank is (n + 1 + #smaller - #larger) / 2.
    ranks = (n + 1 + np.column_stack((sign_p.sum(axis=1), sign_a.sum(axis=1)))) / 2
    rho = np.corrcoef(ranks, rowvar=False)[1, 0]
    return {
        "kendall_tau": min(1.0, max(-1.0, float(tau))),
        "spearman_rho": float(rho),
        "n": float(n),
    }
