"""System-ranking utilities.

The paper's motivation is ranking HPC systems ("system X is 50% faster
than system Y for application Z").  These helpers rank systems by predicted
or observed time and quantify agreement between the two orderings.
"""

from __future__ import annotations

from collections.abc import Mapping

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
    """Kendall tau and Spearman rho between predicted and actual orderings.

    Only systems present in both mappings participate.

    Returns
    -------
    dict
        ``{"kendall_tau": ..., "spearman_rho": ..., "n": ...}``.
    """
    common = sorted(set(predicted) & set(actual))
    if len(common) < 2:
        raise ValueError("need at least two common systems to compare rankings")
    from scipy import stats

    p = [predicted[name] for name in common]
    a = [actual[name] for name in common]
    tau = stats.kendalltau(p, a).statistic
    rho = stats.spearmanr(p, a).statistic
    return {"kendall_tau": float(tau), "spearman_rho": float(rho), "n": float(len(common))}
