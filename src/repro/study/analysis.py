"""Derived analyses of a study result.

These reproduce the paper's prose claims rather than its tables:

* Section 6's best-predictor counts ("Metric #9 ... was the best of all the
  predictors for 8 of the 15 cases");
* GUPS-vs-STREAM win counts ("GUPS was a better predictor than STREAM in 11
  out of the 15 possible cases");
* ranking quality per metric (the Top500-motivation angle);
* a shape comparison against the paper's Table 4 (orderings, not values).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.ranking import rank_agreement
from repro.study.runner import StudyResult

__all__ = [
    "case_errors",
    "best_predictor_counts",
    "pairwise_win_counts",
    "ranking_quality",
    "shape_check",
    "ShapeCheck",
]


def case_errors(result: StudyResult) -> dict[tuple[str, int], dict[int, float]]:
    """(application, cpus) -> metric -> average absolute error over systems.

    The 15 "(application test case, processor count) pairings" of Section 6.
    """
    cases: dict[tuple[str, int], dict[int, float]] = {}
    pairs = sorted({(r.application, r.cpus) for r in result.records})
    for app, cpus in pairs:
        row = {}
        for m in result.config.metrics:
            errs = result.errors(metric=m, application=app, cpus=cpus)
            if errs:
                row[m] = float(np.mean(np.abs(errs)))
        cases[(app, cpus)] = row
    return cases


def best_predictor_counts(result: StudyResult) -> Counter:
    """metric -> number of (application, cpus) cases it predicts best.

    Ties award every tied metric (the paper counts ties separately; the
    tie-inclusive count is what "best or tied for best" reports).
    """
    counts: Counter = Counter()
    for _case, row in case_errors(result).items():
        best = min(row.values())
        for metric, err in row.items():
            if err <= best + 1e-9:
                counts[metric] += 1
    return counts


def pairwise_win_counts(result: StudyResult, metric_a: int, metric_b: int) -> dict:
    """How often ``metric_a`` beats ``metric_b`` across the 15 cases."""
    wins = losses = ties = 0
    for _case, row in case_errors(result).items():
        if metric_a not in row or metric_b not in row:
            continue
        diff = row[metric_a] - row[metric_b]
        if abs(diff) < 1e-9:
            ties += 1
        elif diff < 0:
            wins += 1
        else:
            losses += 1
    return {"wins": wins, "losses": losses, "ties": ties}


def ranking_quality(result: StudyResult, metric: int) -> dict[str, float]:
    """Average Kendall tau / Spearman rho of ``metric``'s system rankings.

    One ranking comparison per (application, cpus) case, averaged.
    """
    taus, rhos = [], []
    pairs = sorted({(r.application, r.cpus) for r in result.records})
    for app, cpus in pairs:
        recs = result.select(metric=metric, application=app, cpus=cpus)
        if len(recs) < 2:
            continue
        predicted = {r.system: r.predicted_seconds for r in recs}
        actual = {r.system: r.actual_seconds for r in recs}
        agreement = rank_agreement(predicted, actual)
        taus.append(agreement["kendall_tau"])
        rhos.append(agreement["spearman_rho"])
    return {
        "kendall_tau": float(np.mean(taus)),
        "spearman_rho": float(np.mean(rhos)),
        "cases": float(len(taus)),
    }


@dataclass(frozen=True)
class ShapeCheck:
    """Outcome of comparing our Table 4 against the paper's (shape only).

    Attributes
    ----------
    checks:
        name -> bool for each qualitative claim.
    """

    checks: dict[str, bool]

    @property
    def passed(self) -> bool:
        """True when every qualitative claim reproduces."""
        return all(self.checks.values())

    def failures(self) -> list[str]:
        """Names of the claims that did not reproduce."""
        return [name for name, ok in self.checks.items() if not ok]


def shape_check(result: StudyResult) -> ShapeCheck:
    """Verify the paper's qualitative Table 4 claims on our results.

    The claims (paper Sections 4 and 7):

    * HPL is the worst predictor of the simple metrics;
    * STREAM beats HPL; GUPS beats STREAM;
    * Metric #4 is identical to Metric #1;
    * Metric #5 is no better than Metric #2 (adding FP at Rmax does not fix
      a STREAM-only model);
    * Metric #6 is a large improvement over Metric #5;
    * Metric #7 is not better than Metric #6 (MAPS granularity alone);
    * Metric #9 is the best predictor overall, and reaches the paper's
      "about 80% accuracy" (average absolute error about 20% or less);
    * the predictive family (#6-#9) beats every simple metric.
    """
    table = {m: s.mean_abs for m, s in result.overall_table().items()}
    checks = {
        "hpl_worst_simple": table[1] >= max(table[2], table[3]),
        "stream_beats_hpl": table[2] < table[1],
        "gups_beats_stream": table[3] <= table[2] + 5.0,
        "metric4_equals_metric1": abs(table[4] - table[1]) < 0.5,
        "metric5_not_better_than_stream": table[5] >= table[2] - 2.0,
        "metric6_big_jump_over_5": table[6] < table[5] - 8.0,
        "metric7_not_better_than_6": table[7] >= table[6] - 2.0,
        "metric9_best_overall": table[9] <= min(table.values()) + 1e-9,
        "metric9_about_80pct_accurate": table[9] <= 22.0,
        "predictive_family_beats_simple": max(table[6], table[7], table[8], table[9])
        < min(table[1], table[2], table[3]) + 5.0,
    }
    return ShapeCheck(checks=checks)
