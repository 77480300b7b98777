"""Tests for ablation variants."""

import pytest

from repro.scenarios import get_application, get_machine
from repro.study.ablation import ABLATIONS, run_ablation
from repro.study.runner import StudyConfig, run_study
from repro.tracing.metasim import trace_memoized

#: A reduced configuration so ablations stay fast in CI.
SMALL = StudyConfig(
    applications=("AVUS-standard", "RFCTH-standard"),
    systems=("ARL_Opteron", "NAVO_655", "NAVO_P3"),
)


def test_unknown_ablation():
    with pytest.raises(KeyError, match="known"):
        run_ablation("no_gravity")


def test_baseline_matches_named_config():
    out = run_ablation("baseline", SMALL)
    assert out.name == "baseline"
    assert sorted(out.errors) == list(range(1, 10))


def test_no_noise_reduces_best_metric_error():
    """Noise contributes a floor that metric #9 pays; removing it helps."""
    base = run_ablation("baseline", SMALL)
    clean = run_ablation("no_noise", SMALL)
    assert clean.errors[9] < base.errors[9]


def test_delta_from():
    base = run_ablation("baseline", SMALL)
    clean = run_ablation("no_noise", SMALL)
    delta = clean.delta_from(base)
    assert delta[9] == pytest.approx(clean.errors[9] - base.errors[9])


def test_absolute_mode_worse_for_predictive_metrics():
    """Dropping the Equation 1 anchor exposes the convolver's absolute bias."""
    base = run_ablation("baseline", SMALL)
    absolute = run_ablation("absolute_mode", SMALL)
    # metric 4 (FP-only) collapses without the base anchor
    assert absolute.errors[4] > base.errors[4]


def test_ablation_registry_contents():
    assert {
        "baseline",
        "no_noise",
        "absolute_mode",
        "coarse_tracing",
        "fine_tracing",
        "alternate_base",
    } <= set(ABLATIONS)


def test_alternate_base_predicts_itself_exactly():
    """Anchoring on the p655 makes its own predictions exact (error ~ 0)."""
    out = run_ablation("alternate_base", SMALL)
    errs = out.result.errors(metric=9, system="NAVO_655")
    assert errs and max(abs(e) for e in errs) < 1e-6


def test_tracer_ablation_keeps_the_warm_traces():
    """The trace memo keys on the sample size, so a tracer ablation needs
    no clear: a warm study's default-size traces survive it."""
    rows = {(r.application, r.cpus) for r in run_study(SMALL).records}
    coarse = run_ablation("coarse_tracing", SMALL)
    assert coarse.result.config.sample_size == 256
    base = get_machine(SMALL.base_system)
    for label, cpus in rows:
        app = get_application(label)
        assert trace_memoized(app, cpus, base, SMALL.sample_size)
        assert trace_memoized(app, cpus, base, 256)
