"""Tests for MetaSim tracing, counters, MPIDTRACE and static analysis."""

import pytest

from repro.apps.suite import get_application
from repro.machines.registry import BASE_SYSTEM, get_machine
from repro.tracing.counters import count_operations
from repro.tracing.metasim import (
    MetaSimTracer,
    clear_trace_cache,
    trace_application,
)
from repro.tracing.mpidtrace import trace_communication
from repro.tracing.static_analysis import DependencyClass, classify_block, classify_blocks


@pytest.fixture(scope="module")
def base():
    return get_machine(BASE_SYSTEM)


@pytest.fixture(scope="module")
def avus():
    return get_application("AVUS-standard")


@pytest.fixture(scope="module")
def avus_trace(base, avus):
    return MetaSimTracer(base).trace(avus, 64)


def test_trace_covers_all_blocks(avus, avus_trace):
    assert [b.name for b in avus_trace.blocks] == [b.name for b in avus.blocks]
    assert avus_trace.application == "AVUS-standard"
    assert avus_trace.cpus == 64
    assert avus_trace.base_machine == BASE_SYSTEM


def test_counters_are_exact(avus, avus_trace):
    rank_cells = avus.rank_cells(64)
    for model_block, traced in zip(avus.blocks, avus_trace.blocks):
        assert traced.fp_ops == pytest.approx(model_block.fp_per_cell * rank_cells)
        assert traced.loads == pytest.approx(model_block.loads_per_cell * rank_cells)
        assert traced.stores == pytest.approx(model_block.stores_per_cell * rank_cells)


def test_measured_stride_close_to_truth(avus, avus_trace):
    for model_block, traced in zip(avus.blocks, avus_trace.blocks):
        assert traced.stride.unit == pytest.approx(model_block.stride.unit, abs=0.08)
        assert traced.stride.random == pytest.approx(model_block.stride.random, abs=0.08)


def test_working_set_estimate_close(avus, avus_trace):
    rank_bytes = avus.rank_bytes(64)
    for model_block, traced in zip(avus.blocks, avus_trace.blocks):
        true_ws = model_block.working_set(rank_bytes)
        assert traced.working_set == pytest.approx(true_ws, rel=0.2)


def test_dependency_weights_quantised(avus_trace):
    for block in avus_trace.blocks:
        assert block.dependency_weight in (0.0, 0.5, 1.0)


def test_trace_totals(avus, avus_trace):
    assert avus_trace.total_fp > 0
    assert avus_trace.total_refs > 0
    assert avus_trace.timesteps == avus.timesteps


def test_trace_block_lookup(avus_trace):
    assert avus_trace.block("flux_assembly").name == "flux_assembly"
    with pytest.raises(KeyError):
        avus_trace.block("nonexistent")


def test_tracing_is_deterministic(base, avus):
    a = MetaSimTracer(base).trace(avus, 64)
    b = MetaSimTracer(base).trace(avus, 64)
    assert a.blocks[0].stride == b.blocks[0].stride
    assert a.blocks[0].working_set == b.blocks[0].working_set


def test_trace_cache(base, avus):
    clear_trace_cache()
    a = trace_application(avus, 64, base)
    b = trace_application(avus, 64, base)
    assert a is b
    clear_trace_cache()
    c = trace_application(avus, 64, base)
    assert c is not a


def test_cache_sim_service_fractions(base, avus):
    trace = MetaSimTracer(base, sample_size=1024, cache_sim=True).trace(avus, 64)
    for block in trace.blocks:
        assert block.l_service is not None
        assert sum(block.l_service.values()) == pytest.approx(1.0)


def test_sample_size_validation(base):
    with pytest.raises(ValueError):
        MetaSimTracer(base, sample_size=10)


def test_counters_module(avus):
    totals = count_operations(avus, 64)
    per_cell_fp = sum(b.fp_per_cell for b in avus.blocks)
    assert totals.fp_ops == pytest.approx(
        per_cell_fp * avus.rank_cells(64) * avus.timesteps
    )
    assert totals.memory_bytes == totals.memory_refs * 8.0


def test_mpidtrace_resolves_sizes(avus):
    recs = trace_communication(avus, 64)
    assert len(recs) == len(avus.comms)
    halo = next(r for r in recs if r.is_p2p)
    # halo messages shrink as the decomposition refines
    recs_128 = trace_communication(avus, 128)
    halo_128 = next(r for r in recs_128 if r.is_p2p)
    assert halo_128.size_bytes < halo.size_bytes


def test_mpidtrace_rejects_bad_cpus(avus):
    with pytest.raises(ValueError):
        trace_communication(avus, 0)


def test_static_analysis_classes(avus):
    classes = classify_blocks(avus)
    assert classes["turbulence_source"] is DependencyClass.INDEPENDENT
    assert classes["flux_assembly"] is DependencyClass.MIXED
    assert classes["implicit_smoother"] is DependencyClass.BOUND


def test_static_analysis_weights():
    assert DependencyClass.INDEPENDENT.weight == 0.0
    assert DependencyClass.MIXED.weight == 0.5
    assert DependencyClass.BOUND.weight == 1.0


# ----------------------------------------------------------------------
# cooperative deadlines (the serving path's abandon points)
# ----------------------------------------------------------------------
class _SpentClock:
    """Monotonic clock that jumps past any budget after the first read."""

    def __init__(self):
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return 0.0 if self.reads == 1 else 1e9


def test_trace_abandons_mid_blocks_on_expired_deadline(base, avus):
    from repro.core.errors import DeadlineExceededError
    from repro.util.deadline import Deadline

    clear_trace_cache()
    try:
        deadline = Deadline(1.0, clock=_SpentClock(), stage="trace")
        with pytest.raises(DeadlineExceededError) as exc_info:
            trace_application(avus, 64, base, deadline=deadline)
        assert exc_info.value.stage == "trace"
    finally:
        clear_trace_cache()


def test_trace_cache_hit_ignores_expired_deadline(base, avus):
    from repro.util.deadline import Deadline

    trace_application(avus, 64, base)  # warm the in-memory cache
    # A spent budget must not block serving already-computed work.
    deadline = Deadline(1.0, clock=_SpentClock(), stage="trace")
    trace = trace_application(avus, 64, base, deadline=deadline)
    assert len(trace.blocks) == len(avus.blocks)
