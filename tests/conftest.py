"""Shared fixtures: machines, applications, probes, and one full study run.

The full study takes a couple of seconds; session scope shares it across
every test that inspects study-level behaviour.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, settings

from repro.apps.suite import get_application
from repro.machines.registry import BASE_SYSTEM, get_machine
from repro.machines.spec import (
    MachineSpec,
    MemoryLevelSpec,
    NetworkSpec,
    ProcessorSpec,
)
from repro.probes.suite import probe_machine
from repro.study.runner import run_study
from repro.util.units import GB, KIB, MIB

# Hypothesis without its explain phase: after a failure, explaining the
# shrunk example re-runs it many times over, which took one failing frame
# test past 4 minutes and about 490 MB where generate and shrink alone
# report the counterexample in 24 s.
settings.register_profile(
    "no-explain", phases=[phase for phase in Phase if phase is not Phase.explain]
)
settings.load_profile("no-explain")


@pytest.fixture(scope="session")
def base_machine():
    """The NAVO p690 base system."""
    return get_machine(BASE_SYSTEM)


@pytest.fixture(scope="session")
def opteron():
    """A target with small caches and strong main memory."""
    return get_machine("ARL_Opteron")


@pytest.fixture(scope="session")
def power3():
    """A target with big L2 and weak, high-latency main memory."""
    return get_machine("NAVO_P3")


@pytest.fixture(scope="session")
def avus():
    """AVUS standard test case."""
    return get_application("AVUS-standard")


@pytest.fixture(scope="session")
def rfcth():
    """RFCTH standard test case (random-access heavy)."""
    return get_application("RFCTH-standard")


@pytest.fixture(scope="session")
def base_probes(base_machine):
    """Probe suite of the base system."""
    return probe_machine(base_machine)


@pytest.fixture(scope="session")
def opteron_probes(opteron):
    """Probe suite of the Opteron."""
    return probe_machine(opteron)


@pytest.fixture(scope="session")
def full_study():
    """The paper's complete 145-run study (shared across tests)."""
    return run_study()


def make_machine(
    *,
    name: str = "TEST_BOX",
    clock_ghz: float = 2.0,
    flops_per_cycle: float = 2.0,
    ilp: float = 0.8,
    l1_kib: float = 32,
    l2_mib: float = 2,
    l1_bw: float = 20.0,
    l2_bw: float = 8.0,
    mem_bw: float = 2.0,
    mem_lat_ns: float = 120.0,
    mlp: float = 6.0,
    net_lat_us: float = 5.0,
    net_bw_gbs: float = 1.0,
    cpus: int = 1024,
    overlap: float = 0.7,
    noise: float = 0.05,
) -> MachineSpec:
    """A small, fully parameterised machine for unit tests."""
    return MachineSpec(
        name=name,
        architecture="TEST_ARCH",
        vendor="TEST",
        model="Box",
        cpus=cpus,
        processor=ProcessorSpec(
            clock_ghz=clock_ghz,
            flops_per_cycle=flops_per_cycle,
            ilp_efficiency=ilp,
        ),
        memory_levels=(
            MemoryLevelSpec("L1", l1_kib * KIB, l1_bw * GB, 2e-9, 64, mlp=4.0),
            MemoryLevelSpec("L2", l2_mib * MIB, l2_bw * GB, 10e-9, 64, mlp=mlp),
            MemoryLevelSpec("MEM", float("inf"), mem_bw * GB, mem_lat_ns * 1e-9, 64, mlp=mlp),
        ),
        network=NetworkSpec("TestNet", net_lat_us * 1e-6, net_bw_gbs * GB),
        overlap_factor=overlap,
        noise_level=noise,
    )


@pytest.fixture()
def test_machine():
    """Fresh small machine per test."""
    return make_machine()
