"""Tests for the ground-truth executor."""

import numpy as np
import pytest

from repro.apps.execution import GroundTruthExecutor, _app_statics, observed_time
from repro.apps.suite import get_application
from repro.machines.registry import get_machine

from tests.conftest import make_machine


@pytest.fixture(scope="module")
def avus():
    return get_application("AVUS-standard")


def test_run_produces_positive_breakdown(avus):
    result = GroundTruthExecutor(make_machine()).run(avus, 64)
    assert result.total_seconds > 0
    assert result.compute_seconds > 0
    assert result.comm_seconds > 0
    assert len(result.blocks) == len(avus.blocks)
    assert result.cpus == 64


def test_more_cpus_less_time(avus):
    ex = GroundTruthExecutor(make_machine(), noise=False)
    t32 = ex.run(avus, 32).total_seconds
    t64 = ex.run(avus, 64).total_seconds
    t128 = ex.run(avus, 128).total_seconds
    assert t32 > t64 > t128


def test_scaling_in_plausible_band(avus):
    """4x the processors speeds the run up 2x-8x.

    Superlinear speedup is allowed: per-rank working sets shrink into cache
    as the decomposition refines (the paper's AVUS data shows 4.7x for 4x).
    Amdahl, imbalance and communication bound it from the other side.
    """
    ex = GroundTruthExecutor(make_machine(), noise=False)
    t32 = ex.run(avus, 32).total_seconds
    t128 = ex.run(avus, 128).total_seconds
    assert 2.0 < t32 / t128 < 8.0


def test_noise_is_deterministic(avus):
    m = make_machine()
    a = GroundTruthExecutor(m).run(avus, 64).total_seconds
    b = GroundTruthExecutor(m).run(avus, 64).total_seconds
    assert a == b


def test_noise_flag_removes_noise(avus):
    m = make_machine()
    clean = GroundTruthExecutor(m, noise=False).run(avus, 64)
    noisy = GroundTruthExecutor(m, noise=True).run(avus, 64)
    assert clean.noise_factor == 1.0
    assert noisy.noise_factor != 1.0
    assert noisy.total_seconds == pytest.approx(
        clean.total_seconds * noisy.noise_factor
    )


def test_noise_bounded_by_three_sigma(avus):
    for name in ("A", "B", "C", "D", "E"):
        m = make_machine(name=name, noise=0.08)
        r = GroundTruthExecutor(m).run(avus, 32)
        assert abs(r.noise_factor - 1.0) <= 3 * 0.08 + 1e-12


def test_faster_memory_runs_faster(avus):
    slow = make_machine(name="SLOW", mem_bw=1.0)
    fast = make_machine(name="FAST", mem_bw=4.0)
    t_slow = GroundTruthExecutor(slow, noise=False).run(avus, 64).total_seconds
    t_fast = GroundTruthExecutor(fast, noise=False).run(avus, 64).total_seconds
    assert t_fast < t_slow


def test_port_factor_stable_across_cpu_counts(avus):
    """The compiler effect must be one factor per (machine, app family)."""
    ex = GroundTruthExecutor(make_machine())
    assert ex._port_factor(avus) == ex._port_factor(avus)
    large = get_application("AVUS-large")
    # same family, same testcase key differs -> factors may differ
    assert ex._port_factor(avus) != ex._port_factor(large)


def test_cannot_run_beyond_system_size(avus):
    small = make_machine(cpus=16)
    with pytest.raises(ValueError, match="cannot run"):
        GroundTruthExecutor(small).run(avus, 64)
    with pytest.raises(ValueError):
        GroundTruthExecutor(small).run(avus, 0)


def test_single_rank_has_no_comm(avus):
    r = GroundTruthExecutor(make_machine(), noise=False).run(avus, 1)
    assert r.comm_seconds == 0.0


def test_block_timings_overlap_bounds(avus):
    """Block time lies between max(fp, mem) and fp + mem."""
    r = GroundTruthExecutor(make_machine(), noise=False).run(avus, 64)
    for bt in r.blocks:
        assert bt.seconds >= max(bt.fp_seconds, bt.mem_seconds) - 1e-12
        assert bt.seconds <= bt.fp_seconds + bt.mem_seconds + 1e-12


@pytest.mark.parametrize("machine", ["NAVO_690", "ARL_Opteron", "ARL_Xeon"])
@pytest.mark.parametrize("label", ["AVUS-large", "OVERFLOW2-standard", "RFCTH-standard"])
def test_tensor_timings_match_scalar_block_walk(machine, label):
    """The executor's block-axis kernels against its scalar per-block walk.

    The tensor pass reorders a few additions, so the two agree to a few
    float64 ulps rather than bit-for-bit; the golden records pin the
    tensor pass itself.
    """
    ex = GroundTruthExecutor(get_machine(machine), noise=False)
    app = get_application(label)
    # Every count of the column in one pass, as run_many prices it; the
    # kernel is called directly because run() refuses counts above the
    # machine's size, and those rows are checked too.
    cells = np.array([app.rank_cells(cpus) for cpus in app.cpu_counts])
    rank_bytes = np.array([app.rank_bytes(cpus) for cpus in app.cpu_counts])
    t_fp, t_mem, seconds, _ws = ex._timings_arrays(app, cells, rank_bytes)
    for i, cpus in enumerate(app.cpu_counts):
        for j, block in enumerate(app.blocks):
            scalar = ex.block_timing(block, app.rank_cells(cpus), app.rank_bytes(cpus))
            assert t_fp[i, j] == scalar.fp_seconds
            assert t_mem[i, j] == pytest.approx(scalar.mem_seconds, rel=1e-13)
            assert seconds[i, j] == pytest.approx(scalar.seconds, rel=1e-13)


def test_executors_share_an_applications_machine_independent_stacks():
    # The block statics and pattern stacks are the same for every
    # machine: two executors read one copy of them, and each executor's
    # memo holds only what its machine changes.
    app = get_application("RFCTH-standard")
    statics = _app_statics(app)
    a = GroundTruthExecutor(get_machine("ARL_Opteron"), noise=False)
    b = GroundTruthExecutor(get_machine("NAVO_P3"), noise=False)
    a.run_many(app, [64, 128])
    b.run_many(app, [64])
    assert statics is _app_statics(app)
    assert statics["frac_stack"] is not None
    shared = {id(value) for value in statics.values()}
    for ex in (a, b):
        (entry,) = ex._app_cache.values()
        fp_rate, level_bw = entry
        assert fp_rate.shape == (len(app.blocks),)
        assert level_bw.shape[:2] == statics["frac_stack"].shape
        assert not shared & {id(value) for value in entry}
    assert not np.array_equal(a._app_cache[app.blocks][1], b._app_cache[app.blocks][1])


def test_observed_time_wrapper(avus):
    m = get_machine("ARL_Opteron")
    assert observed_time(m, avus, 64) > 0


def test_dependency_slows_execution(avus):
    """Zeroing all dependency fractions must speed the app up."""
    import dataclasses

    free_blocks = tuple(
        dataclasses.replace(b, dependency_fraction=0.0) for b in avus.blocks
    )
    free_app = dataclasses.replace(avus, blocks=free_blocks)
    m = make_machine()
    t_dep = GroundTruthExecutor(m, noise=False).run(avus, 64).total_seconds
    t_free = GroundTruthExecutor(m, noise=False).run(free_app, 64).total_seconds
    assert t_free < t_dep
