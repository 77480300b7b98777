"""Tests for the IDC balanced-rating combination."""

import pytest

from repro.core.balanced import BalancedRating, mean_abs_error, optimise_weights
from repro.machines.registry import TARGET_SYSTEMS, get_machine
from repro.probes.suite import probe_machine


@pytest.fixture(scope="module")
def probes_by_system():
    names = list(TARGET_SYSTEMS) + ["NAVO_690"]
    return {name: probe_machine(get_machine(name)) for name in names}


def test_scores_in_0_100(probes_by_system):
    rating = BalancedRating(probes_by_system)
    for name in probes_by_system:
        assert 0 < rating.score(name) <= 100.0


def test_best_per_category_scores_100(probes_by_system):
    """With a weight of 1 on one category, its best system scores 100."""
    rating = BalancedRating(probes_by_system, weights=(1.0, 0.0, 0.0))
    best = max(probes_by_system, key=lambda n: probes_by_system[n].hpl.rmax_flops)
    assert rating.score(best) == pytest.approx(100.0)


def test_predict_equation_one(probes_by_system):
    rating = BalancedRating(probes_by_system)
    t = rating.predict("ARL_Opteron", "NAVO_690", 1000.0)
    expected = rating.score("NAVO_690") / rating.score("ARL_Opteron") * 1000.0
    assert t == pytest.approx(expected)


def test_unknown_system_raises(probes_by_system):
    rating = BalancedRating(probes_by_system)
    with pytest.raises(KeyError):
        rating.score("CRAY_T3E")


def test_weight_validation(probes_by_system):
    with pytest.raises(ValueError):
        BalancedRating(probes_by_system, weights=(-1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        BalancedRating(probes_by_system, weights=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        BalancedRating({}, weights=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        rating = BalancedRating(probes_by_system)
        rating.predict("ARL_Opteron", "NAVO_690", 0.0)


@pytest.fixture(scope="module")
def observations(full_study):
    """The golden study's 145 runs as Section 4 fit observations."""
    from repro.core.predictor import PerformancePredictor

    predictor = PerformancePredictor()
    return [
        (system, "NAVO_690", predictor.base_time(app, cpus), actual)
        for (app, system, cpus), actual in full_study.observed.items()
    ]


@pytest.fixture(scope="module")
def fitted(probes_by_system, observations):
    return optimise_weights(probes_by_system, observations)


def _loop_mean_abs(probes_by_system, observations, weights):
    """Mean absolute error (%) through BalancedRating.predict, one run at a time."""
    rating = BalancedRating(probes_by_system, weights)
    errs = [
        abs(rating.predict(target, base, bt) - actual) / actual
        for target, base, bt, actual in observations
    ]
    return 100.0 * sum(errs) / len(errs)


def test_optimised_weights_do_not_hurt(probes_by_system, observations, fitted):
    """Regression-fit weights must beat or match equal weights on the data
    they were fitted to (paper: 35% -> 33%)."""
    equal = _loop_mean_abs(probes_by_system, observations, (1 / 3, 1 / 3, 1 / 3))
    assert sum(fitted) == pytest.approx(1.0)
    assert _loop_mean_abs(probes_by_system, observations, fitted) <= equal + 1e-6


def test_mean_abs_error_matches_the_predict_loop(probes_by_system, observations):
    weights = [(1.0, 1.0, 1.0), (1.0, 0.0, 0.0), (0.0, 2.0, 1.0), (0.05, 0.5, 0.45)]
    errors = mean_abs_error(BalancedRating(probes_by_system), observations, weights)
    assert errors.shape == (4,)
    for w, error in zip(weights, errors):
        expected = _loop_mean_abs(probes_by_system, observations, w)
        assert error == pytest.approx(expected, rel=1e-12)


def test_fit_on_the_golden_study(probes_by_system, observations, fitted):
    """The simplex search ends at or below the 28.400984586883848% that
    Nelder-Mead reached from equal weights, at the same rounded weights."""
    (error,) = mean_abs_error(BalancedRating(probes_by_system), observations, [fitted])
    assert error <= 28.400984586883848
    assert min(fitted) >= 0.0
    assert sum(fitted) == pytest.approx(1.0)
    assert tuple(round(w, 2) for w in fitted) == (0.0, 0.65, 0.35)
    assert optimise_weights(probes_by_system, observations) == fitted


def test_fit_names_an_unprobed_system(probes_by_system, observations):
    partial = {name: p for name, p in probes_by_system.items() if name != "ARL_Xeon"}
    with pytest.raises(KeyError, match="ARL_Xeon"):
        optimise_weights(partial, observations)


def test_optimise_weights_needs_observations(probes_by_system):
    with pytest.raises(ValueError):
        optimise_weights(probes_by_system, [])
