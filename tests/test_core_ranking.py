"""Tests for ranking utilities."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ranking import rank_agreement, rank_systems


def test_rank_systems_fastest_first():
    order = rank_systems({"a": 30.0, "b": 10.0, "c": 20.0})
    assert order == ["b", "c", "a"]


def test_rank_systems_validation():
    with pytest.raises(ValueError):
        rank_systems({})
    with pytest.raises(ValueError):
        rank_systems({"a": 0.0})


def test_rank_agreement_perfect():
    times = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
    out = rank_agreement(times, times)
    assert out["kendall_tau"] == pytest.approx(1.0)
    assert out["spearman_rho"] == pytest.approx(1.0)
    assert out["n"] == 4


def test_rank_agreement_reversed():
    predicted = {"a": 1.0, "b": 2.0, "c": 3.0}
    actual = {"a": 3.0, "b": 2.0, "c": 1.0}
    out = rank_agreement(predicted, actual)
    assert out["kendall_tau"] == pytest.approx(-1.0)


def test_rank_agreement_common_subset_only():
    predicted = {"a": 1.0, "b": 2.0, "c": 3.0, "z": 9.0}
    actual = {"a": 1.5, "b": 2.5, "c": 3.5, "y": 1.0}
    assert rank_agreement(predicted, actual)["n"] == 3


def test_rank_agreement_needs_two_systems():
    with pytest.raises(ValueError):
        rank_agreement({"a": 1.0}, {"a": 2.0})
    with pytest.raises(ValueError):
        rank_agreement({"a": 1.0, "b": 2.0}, {"b": 1.0, "c": 2.0})


def _naive_tau_b(p, a):
    """Kendall tau-b by counting every pair."""
    both = untied_p = untied_a = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            dp = (p[i] > p[j]) - (p[i] < p[j])
            da = (a[i] > a[j]) - (a[i] < a[j])
            both += dp * da
            untied_p += dp != 0
            untied_a += da != 0
    if not untied_p or not untied_a:
        return math.nan
    return both / math.sqrt(untied_p * untied_a)


def _average_ranks(x):
    """1-based ranks; a run of equal values shares the mean of its ranks."""
    order = sorted(range(len(x)), key=x.__getitem__)
    ranks = [0.0] * len(x)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and x[order[end + 1]] == x[order[start]]:
            end += 1
        for k in range(start, end + 1):
            ranks[order[k]] = (start + end) / 2 + 1
        start = end + 1
    return ranks


def _naive_spearman(p, a):
    rp, ra = _average_ranks(p), _average_ranks(a)
    mp, ma = sum(rp) / len(rp), sum(ra) / len(ra)
    cov = sum((x - mp) * (y - ma) for x, y in zip(rp, ra))
    var_p = sum((x - mp) ** 2 for x in rp)
    var_a = sum((y - ma) ** 2 for y in ra)
    return cov / math.sqrt(var_p * var_a)


@st.composite
def _tied_samples(draw):
    """Two equal-length float lists drawn from small pools, so ties are common."""
    n = draw(st.integers(min_value=2, max_value=32))
    values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    sides = []
    for _ in range(2):
        pool = draw(st.lists(values, min_size=1, max_size=n))
        sides.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    return sides


@settings(max_examples=200, deadline=None)
@given(_tied_samples())
def test_rank_agreement_matches_pair_counting(sides):
    p, a = sides
    names = [f"s{i:02d}" for i in range(len(p))]
    out = rank_agreement(dict(zip(names, p)), dict(zip(names, a)))
    tau = _naive_tau_b(p, a)
    assert out["n"] == len(p)
    if math.isnan(tau):  # a constant side
        assert math.isnan(out["kendall_tau"]) and math.isnan(out["spearman_rho"])
        return
    assert out["kendall_tau"] == pytest.approx(tau, rel=1e-12, abs=1e-12)
    rho = _naive_spearman(p, a)
    assert out["spearman_rho"] == pytest.approx(rho, rel=1e-9, abs=1e-12)
    assert -1.0 <= out["kendall_tau"] <= 1.0


#: Tied inputs and the ``float.hex`` of scipy 1.17.1's kendalltau and
#: spearmanr statistics for them.
_SCIPY_PINS = [
    (
        [1.0, 2.0, 2.0, 3.0],
        [1.0, 3.0, 2.0, 2.0],
        "0x1.9999999999999p-2",
        "0x1.0000000000001p-1",
    ),
    (
        [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0],
        [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0],
        "0x1.48bbcf945063bp-3",
        "0x1.9740994be2fe1p-3",
    ),
    (
        [0.5, 0.5, 0.25, 0.75, 0.75, 0.1],
        [10.0, 20.0, 20.0, 30.0, 10.0, 5.0],
        "0x1.89d89d89d89dap-2",
        "0x1.e0f83e0f83e0ep-2",
    ),
    ([1.5, 2.5], [7.0, 7.5], "0x1.0000000000000p+0", "0x1.fffffffffffffp-1"),
]


@pytest.mark.parametrize("p, a, tau_hex, rho_hex", _SCIPY_PINS)
def test_rank_agreement_is_bit_identical_to_scipy(p, a, tau_hex, rho_hex):
    names = [f"s{i}" for i in range(len(p))]
    out = rank_agreement(dict(zip(names, p)), dict(zip(names, a)))
    assert out["kendall_tau"].hex() == tau_hex
    assert out["spearman_rho"].hex() == rho_hex


@pytest.mark.parametrize(
    "predicted, actual",
    [
        ({"a": 2.0, "b": 2.0, "c": 2.0}, {"a": 1.0, "b": 2.0, "c": 3.0}),
        ({"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 5.0, "b": 5.0, "c": 5.0}),
        ({"a": math.nan, "b": 2.0, "c": 3.0}, {"a": 1.0, "b": 2.0, "c": 3.0}),
        ({"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 1.0, "b": math.nan, "c": 3.0}),
    ],
    ids=["constant-predicted", "constant-actual", "nan-predicted", "nan-actual"],
)
def test_rank_agreement_is_nan_when_undefined(predicted, actual):
    out = rank_agreement(predicted, actual)
    assert math.isnan(out["kendall_tau"])
    assert math.isnan(out["spearman_rho"])
    assert out["n"] == 3
