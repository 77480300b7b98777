"""Dataclass specifications of processors, memory hierarchies and networks.

These specs are pure data: the behavioural models that interpret them live
in :mod:`repro.memory.hierarchy` and :mod:`repro.network.model`.  Keeping
data and behaviour separate lets probes, the ground-truth executor and tests
share one description of each machine.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.util.validation import check_fraction, check_positive

__all__ = ["ProcessorSpec", "MemoryLevelSpec", "NetworkSpec", "MachineSpec"]


@dataclass(frozen=True)
class ProcessorSpec:
    """Floating-point execution characteristics of one processor.

    Attributes
    ----------
    clock_ghz:
        Core clock in GHz.
    flops_per_cycle:
        Peak FP operations retired per cycle (FMA counted as 2).
    ilp_efficiency:
        Fraction of peak sustainable by a perfectly pipelined, high-ILP
        dense kernel (what HPL's DGEMM achieves).  Real Rmax/Rpeak ratios
        for the era's systems ranged roughly 0.45-0.9.
    dependent_fp_efficiency:
        Fraction of peak sustainable when FP operations form a serial
        dependence chain (recurrences); bounded by the FPU pipeline depth.
    """

    clock_ghz: float
    flops_per_cycle: float
    ilp_efficiency: float
    dependent_fp_efficiency: float = 0.12

    def __post_init__(self) -> None:
        check_positive("clock_ghz", self.clock_ghz)
        check_positive("flops_per_cycle", self.flops_per_cycle)
        check_fraction("ilp_efficiency", self.ilp_efficiency)
        check_fraction("dependent_fp_efficiency", self.dependent_fp_efficiency)

    @property
    def peak_flops(self) -> float:
        """Peak FP rate in FLOP/s."""
        return self.clock_ghz * 1e9 * self.flops_per_cycle


@dataclass(frozen=True)
class MemoryLevelSpec:
    """One level of the cache/memory hierarchy, per processor.

    Attributes
    ----------
    name:
        Level label ("L1", "L2", "L3", "MEM").
    size_bytes:
        Capacity visible to one processor.  Use ``float('inf')`` for main
        memory.
    bandwidth:
        Sustained unit-stride streaming bandwidth from this level, B/s.
    latency:
        Load-to-use latency for an access served by this level, seconds.
    line_bytes:
        Transfer granularity (cache line size).
    mlp:
        Memory-level parallelism: number of independent outstanding misses
        the processor can sustain to this level.
    dependent_stream_factor:
        Fraction of ``bandwidth`` achievable for *unit-stride* accesses that
        carry a loop-carried dependence (prefetchers help but the consumer
        serialises).
    """

    name: str
    size_bytes: float
    bandwidth: float
    latency: float
    line_bytes: int = 64
    mlp: float = 4.0
    dependent_stream_factor: float = 0.4

    def __post_init__(self) -> None:
        check_positive("size_bytes", self.size_bytes)
        check_positive("bandwidth", self.bandwidth)
        check_positive("latency", self.latency)
        check_positive("line_bytes", self.line_bytes)
        check_positive("mlp", self.mlp)
        check_fraction("dependent_stream_factor", self.dependent_stream_factor)


@dataclass(frozen=True)
class NetworkSpec:
    """Interconnect characteristics as seen by MPI point-to-point traffic.

    Attributes
    ----------
    name:
        Interconnect family (NUMALink, Colony, Federation, Quadrics, Myrinet).
    latency:
        Small-message one-way MPI latency, seconds.
    bandwidth:
        Large-message sustained point-to-point bandwidth, B/s.
    collective_efficiency:
        Quality factor of the MPI library's collective algorithms relative
        to an ideal log2(P) tree (1.0 = ideal, smaller = slower).
    contention_factor:
        Multiplier applied to application traffic (but not to the pairwise
        NETBENCH probe) representing shared-link contention under full-system
        communication phases.
    """

    name: str
    latency: float
    bandwidth: float
    collective_efficiency: float = 0.75
    contention_factor: float = 1.3

    def __post_init__(self) -> None:
        check_positive("latency", self.latency)
        check_positive("bandwidth", self.bandwidth)
        check_positive("collective_efficiency", self.collective_efficiency)
        if self.contention_factor < 1.0:
            raise ValueError(
                f"contention_factor must be >= 1, got {self.contention_factor!r}"
            )


@dataclass(frozen=True)
class MachineSpec:
    """Complete description of one HPC system.

    Attributes
    ----------
    name:
        Short site_system identifier used throughout the study
        (e.g. ``"ARL_Opteron"``), matching the paper's Table 5 rows.
    architecture:
        Long architecture string matching the paper's Table 2
        (e.g. ``"IBM_Opteron_2.2GHz_MNET"``).
    vendor, model:
        Manufacturer and model from Table 1.
    cpus:
        Number of compute processors in the installed system (Table 2).
    processor:
        FP execution spec.
    memory_levels:
        Hierarchy levels ordered from closest (L1) to farthest (MEM); the
        last level must be main memory (``size_bytes == inf``).
    network:
        Interconnect spec.
    overlap_factor:
        Fraction of the shorter of (FP time, memory time) hidden under the
        longer within a basic block; out-of-order machines overlap more.
    noise_level:
        Relative magnitude of run-to-run variability (OS jitter, placement)
        applied by the ground-truth executor.
    """

    name: str
    architecture: str
    vendor: str
    model: str
    cpus: int
    processor: ProcessorSpec
    memory_levels: tuple[MemoryLevelSpec, ...]
    network: NetworkSpec
    overlap_factor: float = 0.7
    noise_level: float = 0.08
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        check_positive("cpus", self.cpus)
        check_fraction("overlap_factor", self.overlap_factor)
        check_fraction("noise_level", self.noise_level)
        if not self.memory_levels:
            raise ValueError("memory_levels must contain at least one level")
        sizes = [lvl.size_bytes for lvl in self.memory_levels]
        if sorted(sizes) != sizes:
            raise ValueError("memory_levels must be ordered smallest to largest")
        if self.memory_levels[-1].size_bytes != float("inf"):
            raise ValueError("the last memory level must be main memory (size=inf)")

    def fingerprint(self) -> str:
        """Stable content hash of the full spec.

        Caches key probe results by *what the machine is*, not what it is
        called, so mutated variants sharing a name can never alias.  The
        hash covers every field (the nested dataclass ``repr`` is
        deterministic) and is stable across processes, unlike ``hash()``.
        Computed once per instance: the spec is frozen, so the digest is
        kept on it (outside the fields, so ``repr``, ``==`` and ``hash``
        never see it).
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            digest = hashlib.blake2b(repr(self).encode("utf-8"), digest_size=16)
            cached = digest.hexdigest()
            # Frozen dataclass: the cache slot bypasses the field guard.
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    @property
    def peak_flops(self) -> float:
        """Per-processor peak FP rate in FLOP/s."""
        return self.processor.peak_flops

    @property
    def main_memory(self) -> MemoryLevelSpec:
        """The main-memory level (always last)."""
        return self.memory_levels[-1]

    @property
    def caches(self) -> tuple[MemoryLevelSpec, ...]:
        """All on-chip/off-chip cache levels (everything but main memory)."""
        return self.memory_levels[:-1]

    def level(self, name: str) -> MemoryLevelSpec:
        """Return the hierarchy level called ``name`` (e.g. ``"L2"``)."""
        for lvl in self.memory_levels:
            if lvl.name == name:
                return lvl
        raise KeyError(f"{self.name} has no memory level named {name!r}")
