"""Ablation studies: which modelled effect contributes which error.

Each ablation runs the full study under one modification and reports the
per-metric error table, isolating a design choice DESIGN.md calls out:

* ``no_noise`` — run-to-run noise off: how much of every metric's floor is
  measurement noise versus structure;
* ``absolute_mode`` — convolver output taken at face value instead of
  base-relative (Equation 1 anchoring off);
* ``coarse_tracing`` / ``fine_tracing`` — tracer sample size;
* ``alternate_base`` — trace and anchor on the NAVO p655 instead of the
  p690 (how sensitive are the conclusions to the base-system choice?);
* ``single_app`` etc. are easy to build with ``StudyConfig.variant``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.study.runner import StudyConfig, StudyResult, run_study

__all__ = ["AblationOutcome", "run_ablation", "ABLATIONS"]

#: Named study variants.
ABLATIONS: dict[str, dict] = {
    "baseline": {},
    "no_noise": {"noise": False},
    "absolute_mode": {"mode": "absolute"},
    "coarse_tracing": {"sample_size": 256},
    "fine_tracing": {"sample_size": 16384},
    "alternate_base": {"base_system": "NAVO_655"},
}


@dataclass(frozen=True)
class AblationOutcome:
    """A named variant's per-metric average absolute errors."""

    name: str
    errors: dict[int, float]
    result: StudyResult

    def delta_from(self, other: "AblationOutcome") -> dict[int, float]:
        """Per-metric error change relative to ``other`` (positive = worse)."""
        return {m: self.errors[m] - other.errors[m] for m in self.errors}


def run_ablation(name: str, config: StudyConfig | None = None) -> AblationOutcome:
    """Run the named ablation (see :data:`ABLATIONS`).

    Tracer variants need no cache clear: the trace memo and the store
    both key on the sample size, so the default-size traces stay warm.
    """
    try:
        changes = ABLATIONS[name]
    except KeyError:
        known = ", ".join(ABLATIONS)
        raise KeyError(f"unknown ablation {name!r}; known: {known}") from None
    cfg = (config or StudyConfig()).variant(**changes)
    result = run_study(cfg)
    errors = {m: s.mean_abs for m, s in result.overall_table().items()}
    return AblationOutcome(name=name, errors=errors, result=result)
