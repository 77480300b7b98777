"""Tests for the machine-independent reuse-distance cache engine.

Pins the two contracts DESIGN.md §5c states: Mattson exactness for
fully-associative LRU (any capacity, straight from one profile) and the
footprint-aware set-associativity correction's tolerance against the exact
set-associative simulator on tracer-shaped streams.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.machines.registry import BASE_SYSTEM, get_machine
from repro.memory.cache import MultiLevelCache, SetAssociativeCache
from repro.memory.reuse import reuse_distances, reuse_profile

#: Asserted ceiling on |analytic - exact| per-level service fraction.
#: DESIGN.md §5c documents the measured worst gap of the footprint-aware
#: conflict model and the streams (contiguous or small footprints) on which
#: the footprint-blind binomial model exceeded this bound.
ANALYTIC_TOLERANCE = 0.08

LINE = 64


def _naive_distances(addresses, line_bytes):
    """O(n^2) textbook stack distances: the oracle for the wavelet path."""
    lines = [int(a) // line_bytes for a in addresses]
    last: dict[int, int] = {}
    out = []
    for i, ln in enumerate(lines):
        prev = last.get(ln)
        if prev is None:
            out.append(-1)
        else:
            out.append(len(set(lines[prev + 1 : i])))
        last[ln] = i
    return out


# ----------------------------------------------------------------------
# stream generators (deterministic per seed — tracer-shaped)
# ----------------------------------------------------------------------
def _streams(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    n = 2048
    ws = int(rng.integers(1 << 12, 1 << 21))
    stride = int(rng.integers(1, 9)) * 8
    strided = (np.arange(n, dtype=np.int64) * stride) % ws
    rand = rng.integers(0, ws, size=n, dtype=np.int64) * 8
    mixed = np.concatenate([strided, rand])
    rng.shuffle(mixed)
    return {"strided": strided, "random": rand, "mixed": mixed}


# ----------------------------------------------------------------------
# exact stack distances
# ----------------------------------------------------------------------
@given(
    st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200)
)
@settings(max_examples=60, deadline=None)
def test_reuse_distances_match_naive_oracle(addresses):
    got = reuse_distances(np.array(addresses, dtype=np.int64), LINE)
    assert got.tolist() == _naive_distances(addresses, LINE)


def test_reuse_distances_simple_stream():
    # lines: a b a b b a  ->  distances -1 -1 1 1 0 1
    addrs = np.array([0, 64, 0, 64, 64, 0], dtype=np.int64)
    assert reuse_distances(addrs, LINE).tolist() == [-1, -1, 1, 1, 0, 1]


def test_reuse_distances_empty_and_single():
    assert reuse_distances(np.array([], dtype=np.int64), LINE).size == 0
    assert reuse_distances(np.array([128], dtype=np.int64), LINE).tolist() == [-1]


def test_profile_counts_are_consistent():
    addrs = _streams(3)["mixed"]
    prof = reuse_profile(addrs, LINE)
    assert prof.total == addrs.shape[0]
    assert prof.cold + int(prof.counts.sum()) == prof.total
    # cold misses == distinct lines touched
    assert prof.cold == np.unique(addrs // LINE).size


def test_hit_fractions_vectorised_matches_scalar():
    prof = reuse_profile(_streams(5)["mixed"], LINE)
    caps = np.array([0, 1, 2, 8, 64, 512, 1 << 20])
    vec = prof.hit_fractions(caps)
    for cap, got in zip(caps, vec):
        assert got == prof.hit_fraction(int(cap))


# ----------------------------------------------------------------------
# Mattson exactness: fully-associative LRU
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["strided", "random", "mixed"])
@pytest.mark.parametrize("capacity_lines", [1, 4, 32, 256])
def test_fully_associative_lru_is_exact(kind, capacity_lines):
    """hit_fraction(C) equals replaying through a 1-set, C-way LRU cache."""
    addrs = _streams(11)[kind]
    prof = reuse_profile(addrs, LINE)
    sim = SetAssociativeCache(
        capacity_lines * LINE, line_bytes=LINE, ways=capacity_lines
    )
    assert sim.n_sets == 1
    mask = sim.simulate(addrs)
    assert prof.hits(capacity_lines) == int(np.count_nonzero(mask))
    assert prof.hit_fraction(capacity_lines) == sim.hit_rate()


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_fully_associative_exactness_randomized(seed):
    addrs = _streams(seed)["mixed"][:512]
    prof = reuse_profile(addrs, LINE)
    for capacity in (2, 16, 128):
        sim = SetAssociativeCache(capacity * LINE, line_bytes=LINE, ways=capacity)
        sim.simulate(addrs)
        assert prof.hits(capacity) == sim.hits


# ----------------------------------------------------------------------
# set-associativity correction: analytic vs exact within tolerance
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(14471095)  # contiguous strided footprint that fits L1
@example(3633070343)  # random stream over a small footprint
@settings(max_examples=20, deadline=None)
def test_analytic_service_fractions_within_tolerance(seed):
    machine = get_machine(BASE_SYSTEM)
    for addrs in _streams(seed).values():
        exact = MultiLevelCache.of(machine).simulate(addrs).service_fractions()
        analytic = MultiLevelCache.of(machine).service_fractions_analytic(addrs)
        assert set(exact) == set(analytic)
        for level, frac in exact.items():
            assert abs(frac - analytic[level]) <= ANALYTIC_TOLERANCE, (
                seed,
                level,
                frac,
                analytic[level],
            )


def test_analytic_fractions_form_a_distribution():
    machine = get_machine(BASE_SYSTEM)
    analytic = MultiLevelCache.of(machine).service_fractions_analytic(
        _streams(7)["mixed"]
    )
    values = np.array(list(analytic.values()))
    assert np.all(values >= 0.0)
    assert np.isclose(values.sum(), 1.0)


def test_assoc_correction_degenerates_to_mattson():
    """n_sets == 1 must take the exact fully-associative path."""
    prof = reuse_profile(_streams(13)["random"], LINE)
    for ways in (1, 8, 64):
        assert prof.assoc_hit_fraction(1, ways) == prof.hit_fraction(ways)


def test_profile_prices_any_machine_without_replay():
    """One profile serves geometries of every machine (the tentpole point)."""
    addrs = _streams(17)["mixed"]
    prof = reuse_profile(addrs, LINE)
    rates = [prof.assoc_hit_fraction(1 << k, 4) for k in range(1, 12)]
    # more sets at fixed ways = strictly more capacity -> monotone hit rate
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def test_footprint_that_fits_its_sets_never_conflicts():
    """A contiguous sweep with <= ways lines per set hits on every reuse."""
    addrs = np.tile(np.arange(150, dtype=np.int64) * LINE, 4)
    prof = reuse_profile(addrs, LINE)
    sim = SetAssociativeCache(64 * 4 * LINE, line_bytes=LINE, ways=4)
    sim.simulate(addrs)
    assert prof.assoc_hit_fraction(64, 4) == pytest.approx(sim.hit_rate())
    assert sim.hit_rate() == 0.75
