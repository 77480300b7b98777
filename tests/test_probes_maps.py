"""Tests for MAPS / ENHANCED MAPS and NETBENCH probes."""

import numpy as np
import pytest

from repro.machines.registry import get_machine
from repro.network.model import NetworkModel
from repro.probes.maps import default_size_grid, run_maps
from repro.probes.netbench import default_rank_counts, run_netbench
from repro.probes.results import MapsCurve
from repro.util.units import KIB, MIB

from tests.conftest import make_machine


def test_default_grid_geometric():
    grid = default_size_grid(points=10)
    ratios = grid[1:] / grid[:-1]
    np.testing.assert_allclose(ratios, ratios[0])


def test_default_grid_validation():
    with pytest.raises(ValueError):
        default_size_grid(smallest=0)
    with pytest.raises(ValueError):
        default_size_grid(smallest=1024, largest=512)
    with pytest.raises(ValueError):
        default_size_grid(points=1)


def test_maps_curves_monotone_decreasing(test_machine):
    maps = run_maps(test_machine)
    for kind in ("unit", "random", "unit_dep", "random_dep"):
        bws = maps.curve(kind).bandwidths
        assert (np.diff(bws) <= 1e-6).all(), kind


def test_maps_right_edge_matches_stream_and_gups(test_machine):
    """Paper: the lower right of the MAPS curves ~ STREAM and GUPS scores."""
    from repro.probes.gups import run_gups
    from repro.probes.stream import run_stream

    maps = run_maps(test_machine)
    stream = run_stream(test_machine).triad
    gups_bw = run_gups(test_machine).random_bandwidth
    assert maps.unit.bandwidths[-1] == pytest.approx(stream, rel=0.3)
    assert maps.random.bandwidths[-1] == pytest.approx(gups_bw, rel=0.3)


def test_maps_dep_below_independent(test_machine):
    maps = run_maps(test_machine)
    assert (maps.unit_dep.bandwidths < maps.unit.bandwidths).all()
    assert (maps.random_dep.bandwidths <= maps.random.bandwidths).all()


def test_curve_lookup_interpolates_and_clamps():
    curve = MapsCurve(
        sizes=np.array([1e4, 1e6, 1e8]), bandwidths=np.array([10e9, 5e9, 1e9])
    )
    assert curve.lookup(1e4) == pytest.approx(10e9)
    assert curve.lookup(1e8) == pytest.approx(1e9)
    assert 5e9 < curve.lookup(1e5) < 10e9
    # clamping outside the measured range
    assert curve.lookup(1e3) == pytest.approx(10e9)
    assert curve.lookup(1e10) == pytest.approx(1e9)
    with pytest.raises(ValueError):
        curve.lookup(0)


def test_curve_validation():
    with pytest.raises(ValueError):
        MapsCurve(sizes=np.array([1e4]), bandwidths=np.array([1e9]))
    with pytest.raises(ValueError, match="increasing"):
        MapsCurve(sizes=np.array([1e6, 1e4]), bandwidths=np.array([1e9, 2e9]))
    with pytest.raises(ValueError):
        MapsCurve(sizes=np.array([1e4, 1e6]), bandwidths=np.array([1e9, -1.0]))


def test_unknown_curve_name(test_machine):
    with pytest.raises(KeyError):
        run_maps(test_machine).curve("diagonal")


def test_maps_cache_plateau_visible():
    """A machine with a big L2 shows a bandwidth step at the L2 boundary."""
    m = make_machine(l2_mib=8, l2_bw=10.0, mem_bw=1.0)
    maps = run_maps(m)
    in_l2 = maps.unit.lookup(1 * MIB)
    in_mem = maps.unit.lookup(512 * MIB)
    assert in_l2 > 4 * in_mem


def test_netbench_fit_recovers_model(test_machine):
    nb = run_netbench(test_machine)
    spec = test_machine.network
    assert nb.latency == pytest.approx(spec.latency, rel=0.3)
    assert nb.bandwidth == pytest.approx(spec.bandwidth, rel=0.1)


def test_netbench_pingpong_consistent(test_machine):
    nb = run_netbench(test_machine)
    model = NetworkModel.of(test_machine)
    np.testing.assert_allclose(
        nb.pingpong_seconds,
        [model.ping_pong(s) for s in nb.pingpong_sizes],
    )


def test_netbench_allreduce_interpolation(test_machine):
    nb = run_netbench(test_machine)
    t64 = nb.allreduce_time(64)
    t90 = nb.allreduce_time(90)
    t128 = nb.allreduce_time(128)
    assert t64 <= t90 <= t128
    assert nb.allreduce_time(1) == 0.0


def test_netbench_payload_beyond_8_bytes_costs_more(test_machine):
    nb = run_netbench(test_machine)
    assert nb.allreduce_time(64, 1 * MIB) > nb.allreduce_time(64, 8.0)


def test_netbench_respects_system_size():
    tiny = make_machine(cpus=8)
    nb = run_netbench(tiny)
    assert nb.allreduce_ranks.max() <= 8


def test_default_rank_counts():
    ranks = default_rank_counts(512)
    assert list(ranks) == [2, 4, 8, 16, 32, 64, 128, 256, 512]
    with pytest.raises(ValueError):
        default_rank_counts(1)
