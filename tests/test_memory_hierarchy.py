"""Tests for the analytic memory hierarchy model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.patterns import AccessPattern, StrideClass
from repro.util.units import GB, KIB, MIB

from tests.conftest import make_machine


@pytest.fixture()
def hierarchy():
    return MemoryHierarchy.of(make_machine())


def test_residency_sums_to_one(hierarchy):
    for ws in (1 * KIB, 64 * KIB, 4 * MIB, 1 << 30):
        f = hierarchy.residency_fractions(ws)
        assert f.sum() == pytest.approx(1.0)
        assert (f >= 0).all()


def test_small_ws_served_by_l1(hierarchy):
    f = hierarchy.residency_fractions(16 * KIB)
    assert f[0] == pytest.approx(1.0)


def test_huge_ws_served_mostly_by_memory(hierarchy):
    f = hierarchy.residency_fractions(1 << 34)
    assert f[-1] > 0.99


def test_bandwidth_decreases_with_working_set(hierarchy):
    sizes = np.geomspace(8 * KIB, 1 << 30, 16)
    bws = [
        hierarchy.effective_bandwidth(AccessPattern(working_set=float(s)))
        for s in sizes
    ]
    assert all(a >= b - 1e-6 for a, b in zip(bws, bws[1:]))


def test_cache_resident_beats_memory_resident(hierarchy):
    fast = hierarchy.effective_bandwidth(AccessPattern(working_set=16 * KIB))
    slow = hierarchy.effective_bandwidth(AccessPattern(working_set=1 << 30))
    assert fast > 3 * slow


def test_random_slower_than_unit_from_memory(hierarchy):
    ws = float(1 << 30)
    unit = hierarchy.effective_bandwidth(AccessPattern(working_set=ws))
    rand = hierarchy.effective_bandwidth(
        AccessPattern(working_set=ws, stride=StrideClass.RANDOM)
    )
    assert rand < unit


def test_dependent_slower_than_independent(hierarchy):
    ws = float(1 << 30)
    for stride in (StrideClass.UNIT, StrideClass.RANDOM):
        indep = hierarchy.effective_bandwidth(
            AccessPattern(working_set=ws, stride=stride, dependent=False)
        )
        dep = hierarchy.effective_bandwidth(
            AccessPattern(working_set=ws, stride=stride, dependent=True)
        )
        assert dep < indep


def test_dependent_random_is_latency_bound(hierarchy):
    ws = float(1 << 30)
    bw = hierarchy.effective_bandwidth(
        AccessPattern(working_set=ws, stride=StrideClass.RANDOM, dependent=True)
    )
    mem = hierarchy.levels[-1]
    assert bw == pytest.approx(8.0 / mem.latency, rel=0.05)


def test_short_stride_wastes_bandwidth(hierarchy):
    ws = float(1 << 30)
    unit = hierarchy.effective_bandwidth(AccessPattern(working_set=ws))
    short = hierarchy.effective_bandwidth(
        AccessPattern(working_set=ws, stride=StrideClass.SHORT, stride_elems=4)
    )
    # stride 4 x 8B = 32B used of each 64B line -> ~4x waste vs element pacing
    assert short == pytest.approx(unit / 4.0, rel=0.05)


def test_chase_fraction_interpolates_dependent_cost(hierarchy):
    ws = float(1 << 30)
    soft = hierarchy.effective_bandwidth(
        AccessPattern(working_set=ws, dependent=True, chase_fraction=0.0)
    )
    hard = hierarchy.effective_bandwidth(
        AccessPattern(working_set=ws, dependent=True, chase_fraction=1.0)
    )
    mid = hierarchy.effective_bandwidth(
        AccessPattern(working_set=ws, dependent=True, chase_fraction=0.5)
    )
    assert hard < mid < soft


def test_access_time_linear_in_bytes(hierarchy):
    p = AccessPattern(working_set=float(1 << 26))
    t1 = hierarchy.access_time(p, 1e6)
    t2 = hierarchy.access_time(p, 2e6)
    assert t2 == pytest.approx(2 * t1)
    assert hierarchy.access_time(p, 0.0) == 0.0


def test_access_time_rejects_negative(hierarchy):
    p = AccessPattern(working_set=1024.0)
    with pytest.raises(ValueError):
        hierarchy.access_time(p, -1.0)


def test_requires_main_memory_last():
    from repro.machines.spec import MemoryLevelSpec

    with pytest.raises(ValueError, match="main memory"):
        MemoryHierarchy([MemoryLevelSpec("L1", 1024.0, 1 * GB, 1e-9)])


def test_residency_rejects_nonpositive(hierarchy):
    with pytest.raises(ValueError):
        hierarchy.residency_fractions(0)


@settings(max_examples=60)
@given(
    ws=st.floats(min_value=4096, max_value=2**34),
    stride=st.sampled_from(list(StrideClass)),
    dependent=st.booleans(),
    chase=st.floats(min_value=0, max_value=1),
)
def test_bandwidth_always_positive_and_bounded(ws, stride, dependent, chase):
    hierarchy = MemoryHierarchy.of(make_machine())
    p = AccessPattern(
        working_set=ws, stride=stride, dependent=dependent, chase_fraction=chase
    )
    bw = hierarchy.effective_bandwidth(p)
    assert bw > 0
    # no pattern can beat the fastest level's streaming bandwidth
    assert bw <= max(lvl.bandwidth for lvl in hierarchy.levels) * (1 + 1e-9)
