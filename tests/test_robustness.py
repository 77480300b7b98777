"""Robustness and cross-cutting property tests.

Degenerate-but-legal configurations (cache-less machines, one-block
applications) must work, and the prediction pipeline must obey its
structural invariances:

* relative-mode predictions are invariant to *uniform* machine speedups of
  target and base together (only ratios matter);
* convolved compute scales linearly with traced operation counts;
* the ground-truth executor scales linearly with timesteps.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.execution import GroundTruthExecutor
from repro.apps.model import ApplicationModel, BasicBlock, CommEvent
from repro.apps.suite import get_application
from repro.core.convolver import Convolver, MemoryModel
from repro.machines.spec import (
    MachineSpec,
    MemoryLevelSpec,
    NetworkSpec,
    ProcessorSpec,
)
from repro.memory.patterns import StrideHistogram
from repro.probes.suite import clear_probe_cache, probe_machine
from repro.probes.hpl import run_hpl
from repro.probes.stream import run_stream
from repro.probes.gups import run_gups
from repro.probes.maps import run_maps
from repro.tracing.metasim import MetaSimTracer
from repro.util.units import GB

from tests.conftest import make_machine


def cacheless_machine() -> MachineSpec:
    """A vector-machine-like box: main memory only, no caches."""
    return MachineSpec(
        name="CACHELESS",
        architecture="VEC",
        vendor="T",
        model="v1",
        cpus=64,
        processor=ProcessorSpec(clock_ghz=1.0, flops_per_cycle=4.0, ilp_efficiency=0.9),
        memory_levels=(
            MemoryLevelSpec("MEM", float("inf"), 8.0 * GB, 60e-9, 64, mlp=16.0),
        ),
        network=NetworkSpec("TNet", 3e-6, 1 * GB),
    )


def test_cacheless_machine_probes():
    m = cacheless_machine()
    assert run_hpl(m).rmax_flops > 0
    # slightly under raw memory bandwidth: the un-overlapped FP tail
    assert run_stream(m).triad == pytest.approx(8.0 * GB, rel=0.15)
    assert run_gups(m).gups > 0
    maps = run_maps(m)
    # no hierarchy: the unit curve is flat
    assert maps.unit.bandwidths.max() == pytest.approx(
        maps.unit.bandwidths.min(), rel=1e-6
    )


def test_cacheless_machine_executes_and_predicts():
    m = cacheless_machine()
    app = get_application("RFCTH-standard")
    result = GroundTruthExecutor(m, noise=False).run(app, 16)
    assert result.total_seconds > 0


def _one_block_app() -> ApplicationModel:
    return ApplicationModel(
        name="MONO",
        testcase="one",
        description="single-block app",
        cells=1e6,
        bytes_per_cell=800.0,
        timesteps=5,
        cpu_counts=(4,),
        blocks=(
            BasicBlock(
                name="only",
                fp_per_cell=100.0,
                loads_per_cell=40.0,
                stores_per_cell=10.0,
                stride=StrideHistogram(unit=1.0, short=0.0, random=0.0),
            ),
        ),
        comms=(CommEvent(name="h", kind="p2p", count=1.0, size_scale=1024.0),),
    )


def test_single_block_pure_unit_app_traces_and_runs(base_machine):
    app = _one_block_app()
    trace = MetaSimTracer(base_machine).trace(app, 4)
    assert trace.blocks[0].stride.unit > 0.95
    result = GroundTruthExecutor(make_machine(), noise=False).run(app, 4)
    assert result.total_seconds > 0


def test_timesteps_scale_runtime_linearly():
    app = _one_block_app()
    double = dataclasses.replace(app, timesteps=10)
    m = make_machine()
    t1 = GroundTruthExecutor(m, noise=False).run(app, 4).total_seconds
    t2 = GroundTruthExecutor(m, noise=False).run(double, 4).total_seconds
    assert t2 == pytest.approx(2 * t1, rel=1e-9)


@settings(max_examples=10, deadline=None)
@given(speedup=st.floats(min_value=0.25, max_value=4.0))
def test_relative_prediction_invariant_to_uniform_speedup(speedup):
    """Scaling every rate of target AND base by k must not move T'/T0."""
    from repro.core.metrics import get_metric, PredictionContext
    from repro.machines.registry import BASE_SYSTEM, get_machine
    from repro.tracing.metasim import trace_application

    def scaled(machine, k, name):
        levels = tuple(
            dataclasses.replace(lvl, bandwidth=lvl.bandwidth * k, latency=lvl.latency / k)
            for lvl in machine.memory_levels
        )
        proc = dataclasses.replace(machine.processor, clock_ghz=machine.processor.clock_ghz * k)
        net = dataclasses.replace(
            machine.network, latency=machine.network.latency / k,
            bandwidth=machine.network.bandwidth * k,
        )
        return dataclasses.replace(
            machine, name=name, memory_levels=levels, processor=proc, network=net
        )

    base = get_machine(BASE_SYSTEM)
    target = get_machine("ASC_SC45")
    app = get_application("AVUS-standard")
    trace = trace_application(app, 32, base)

    clear_probe_cache()
    ctx_plain = PredictionContext(
        trace=trace,
        target_probes=probe_machine(target),
        base_probes=probe_machine(base),
        base_time=1000.0,
    )
    ctx_scaled = PredictionContext(
        trace=trace,
        target_probes=probe_machine(scaled(target, speedup, "T2")),
        base_probes=probe_machine(scaled(base, speedup, "B2")),
        base_time=1000.0,
    )
    for metric_number in (1, 2, 3, 6, 9):
        m = get_metric(metric_number)
        assert m.predict(ctx_scaled) == pytest.approx(m.predict(ctx_plain), rel=0.02), (
            metric_number
        )


def test_convolved_compute_linear_in_counts(base_machine, opteron_probes):
    """Doubling all traced operation counts doubles convolved compute."""
    from repro.tracing.metasim import trace_application

    app = get_application("HYCOM-standard")
    trace = trace_application(app, 59, base_machine)
    if not dataclasses.is_dataclass(trace):
        trace = trace.materialize()  # a cached MappedTrace; replace() needs the dataclass
    doubled_blocks = tuple(
        dataclasses.replace(b, fp_ops=2 * b.fp_ops, loads=2 * b.loads, stores=2 * b.stores)
        for b in trace.blocks
    )
    doubled = dataclasses.replace(trace, blocks=doubled_blocks)
    conv = Convolver(MemoryModel.MAPS)
    assert conv.predict(doubled, opteron_probes).compute_seconds == pytest.approx(
        2 * conv.predict(trace, opteron_probes).compute_seconds
    )


def test_executor_rejects_apps_bigger_than_machine():
    tiny = make_machine(cpus=2)
    with pytest.raises(ValueError):
        GroundTruthExecutor(tiny).run(get_application("AVUS-standard"), 32)
