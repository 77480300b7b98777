"""Application workload model: basic blocks + communication events.

A model is machine-independent: it says *what* an application does per cell
per timestep (operation counts, stride mixes, working-set scaling,
dependence), not how long it takes.  The ground-truth executor and MetaSim
Tracer both interpret the same model — the executor with full fidelity on a
target machine, the tracer by sampling address streams on the base machine.

Working sets and message sizes follow power laws of the per-rank data size
``B`` (``scale * B**exponent``): exponent 1 is a full-data sweep, 2/3 a
surface (halo) quantity, 1/3 a pencil (line-solve) quantity.  This encodes
how domain decomposition shrinks per-rank footprints as processor counts
grow — the mechanism that moves working sets across cache boundaries between
the study's processor counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.memory.patterns import StrideHistogram
from repro.network.model import CollectiveKind
from repro.util.validation import check_fraction, check_positive

__all__ = ["BasicBlock", "CommEvent", "ApplicationModel"]

#: Working sets below this are meaningless for the hierarchy model; clamp.
MIN_WORKING_SET = 4096.0


@dataclass(frozen=True)
class BasicBlock:
    """One traced basic block (a loop nest) of an application.

    All operation counts are *per cell per timestep*; the executor and
    tracer multiply by the per-rank cell count.

    Attributes
    ----------
    name:
        Identifier used in traces and reports.
    fp_per_cell:
        Floating-point operations per cell.
    loads_per_cell, stores_per_cell:
        8-byte memory references per cell.
    stride:
        True stride signature of the block's references.
    ws_scale, ws_exponent:
        Working-set law ``ws = ws_scale * rank_bytes**ws_exponent`` (bytes);
        exponent 0 gives a fixed working set of ``ws_scale`` bytes
        (lookup tables), exponent 1 a full per-rank sweep, 2/3 a surface,
        1/3 a pencil.
    dependency_fraction:
        Fraction of references on loop-carried dependence chains
        (indirection, recurrences, branchy inner loops).
    chase_fraction:
        Character of those dependence chains: share that is full-latency
        pointer chasing versus prefetchable dependence (see
        :class:`repro.memory.patterns.AccessPattern`).  ENHANCED MAPS
        induces 0.5; applications vary.
    fp_ilp:
        Instruction-level parallelism of the FP work: 1.0 = perfectly
        pipelineable (DGEMM-like), 0.0 = a serial dependence chain.
    """

    name: str
    fp_per_cell: float
    loads_per_cell: float
    stores_per_cell: float
    stride: StrideHistogram
    ws_scale: float = 1.0
    ws_exponent: float = 1.0
    dependency_fraction: float = 0.0
    chase_fraction: float = 0.5
    fp_ilp: float = 0.7

    def __post_init__(self) -> None:
        check_positive("fp_per_cell", self.fp_per_cell, allow_zero=True)
        check_positive("loads_per_cell", self.loads_per_cell, allow_zero=True)
        check_positive("stores_per_cell", self.stores_per_cell, allow_zero=True)
        check_positive("ws_scale", self.ws_scale)
        if not 0.0 <= self.ws_exponent <= 1.0:
            raise ValueError(f"ws_exponent must be in [0, 1], got {self.ws_exponent}")
        check_fraction("dependency_fraction", self.dependency_fraction)
        check_fraction("chase_fraction", self.chase_fraction)
        check_fraction("fp_ilp", self.fp_ilp)
        if self.loads_per_cell + self.stores_per_cell <= 0 and self.fp_per_cell <= 0:
            raise ValueError(f"block {self.name!r} performs no work")

    @property
    def refs_per_cell(self) -> float:
        """Total 8-byte references per cell."""
        return self.loads_per_cell + self.stores_per_cell

    @property
    def bytes_per_cell(self) -> float:
        """Memory traffic (useful bytes) per cell."""
        return self.refs_per_cell * 8.0

    def working_set(self, rank_bytes: float) -> float:
        """Working set (bytes) when each rank holds ``rank_bytes`` of data."""
        check_positive("rank_bytes", rank_bytes)
        ws = self.ws_scale * rank_bytes**self.ws_exponent
        return float(min(max(ws, MIN_WORKING_SET), rank_bytes))


@dataclass(frozen=True)
class CommEvent:
    """One class of MPI traffic issued per timestep per rank.

    Attributes
    ----------
    name:
        Identifier used in MPIDTRACE output.
    kind:
        ``"p2p"`` for halo-style point-to-point traffic, or a
        :class:`~repro.network.model.CollectiveKind`.
    count:
        Occurrences per timestep.
    size_scale, size_exponent:
        Message-size law ``size = size_scale * rank_bytes**size_exponent``.
        Halo exchanges use exponent 2/3 (surface-to-volume); fixed-size
        reductions use exponent 0.
    neighbors:
        Communication partners per occurrence (p2p only).
    """

    name: str
    kind: CollectiveKind | str
    count: float
    size_scale: float
    size_exponent: float = 0.0
    neighbors: int = 6

    def __post_init__(self) -> None:
        if isinstance(self.kind, str) and self.kind != "p2p":
            raise ValueError(
                f"kind must be 'p2p' or a CollectiveKind, got {self.kind!r}"
            )
        check_positive("count", self.count)
        check_positive("size_scale", self.size_scale)
        if self.size_exponent < 0 or self.size_exponent > 1:
            raise ValueError(f"size_exponent must be in [0, 1], got {self.size_exponent}")
        check_positive("neighbors", self.neighbors)

    @property
    def is_p2p(self) -> bool:
        """True for point-to-point (halo) traffic."""
        return self.kind == "p2p"

    def size_bytes(self, rank_bytes: float) -> float:
        """Per-message size (bytes) when each rank holds ``rank_bytes``."""
        check_positive("rank_bytes", rank_bytes)
        return float(self.size_scale * rank_bytes**self.size_exponent)


@dataclass(frozen=True)
class ApplicationModel:
    """A complete TI-05-style application test case.

    Attributes
    ----------
    name:
        Application family (``"AVUS"``).
    testcase:
        Test-case label (``"standard"`` / ``"large"``).
    description:
        One-line description for reports.
    cells:
        Total problem size (cells or grid points).
    bytes_per_cell:
        Resident state per cell, bytes.
    timesteps:
        Timesteps of the test case.
    cpu_counts:
        The three processor counts the study runs (paper Section 2).
    blocks:
        The traced basic blocks.
    comms:
        Per-timestep MPI signature.
    serial_fraction:
        Amdahl non-parallel fraction of per-timestep work.
    imbalance:
        Load-imbalance growth coefficient (executor applies
        ``1 + imbalance * log2(P) / 10``).
    """

    name: str
    testcase: str
    description: str
    cells: float
    bytes_per_cell: float
    timesteps: int
    cpu_counts: tuple[int, ...]
    blocks: tuple[BasicBlock, ...]
    comms: tuple[CommEvent, ...] = field(default_factory=tuple)
    serial_fraction: float = 0.001
    imbalance: float = 0.08

    def __post_init__(self) -> None:
        check_positive("cells", self.cells)
        check_positive("bytes_per_cell", self.bytes_per_cell)
        check_positive("timesteps", self.timesteps)
        if len(self.cpu_counts) == 0:
            raise ValueError("cpu_counts must not be empty")
        if any(p <= 0 for p in self.cpu_counts):
            raise ValueError(f"cpu_counts must be positive, got {self.cpu_counts}")
        if not self.blocks:
            raise ValueError("an application needs at least one basic block")
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate block names in {self.name}: {names}")
        check_fraction("serial_fraction", self.serial_fraction)
        check_fraction("imbalance", self.imbalance)

    def __hash__(self) -> int:
        """The field-tuple hash of a frozen dataclass, computed once.

        The executor's memos hash the application on every lookup, and
        the fields nest every block's dataclasses.  The value is kept on
        the instance outside the fields, so ``repr``, ``==`` and
        :func:`dataclasses.replace` never see it.
        """
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash(tuple(getattr(self, f.name) for f in fields(self)))
            # Frozen dataclass: the cache slot bypasses the field guard.
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # str hashes are salted per process: an unpickled copy rehashes.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def label(self) -> str:
        """Study-wide identifier, e.g. ``"AVUS-standard"``."""
        return f"{self.name}-{self.testcase}"

    def rank_cells(self, cpus: int) -> float:
        """Cells owned by one rank at ``cpus`` processors."""
        check_positive("cpus", cpus)
        return self.cells / cpus

    def rank_bytes(self, cpus: int) -> float:
        """Resident data per rank (bytes) at ``cpus`` processors."""
        return self.rank_cells(cpus) * self.bytes_per_cell

    def block(self, name: str) -> BasicBlock:
        """Return the block called ``name``."""
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(f"{self.label} has no block named {name!r}")
