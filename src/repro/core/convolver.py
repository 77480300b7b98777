"""MetaSim Convolver analogue.

"Operation counts, once determined by tracing, are divided by corresponding
operation rates ... to yield an execution time for the current basic block
per operation type.  Execution time is subsequently 'predicted' by summing
the estimated execution time for all basic blocks and carefully taking into
account the overlap of the different operation types."  (paper Section 3)

The convolver consumes only an :class:`~repro.tracing.trace.ApplicationTrace`
and a :class:`~repro.probes.results.MachineProbes` — never a machine spec —
so each metric's blindness is structural:

=============  =====================================================
MemoryModel    memory rate source
=============  =====================================================
``NONE``       memory ignored (Metric #4)
``STREAM``     every reference at STREAM triad (Metric #5)
``STREAM_GUPS``strided at STREAM, random at GUPS (Metric #6)
``MAPS``       MAPS curves looked up at the traced working set (#7, #8)
``MAPS_DEP``   ENHANCED MAPS dependent curves blended by the static
               dependency weight (Metric #9)
=============  =====================================================

The network term (Metrics #8/#9) prices the MPIDTRACE events with
NETBENCH's fitted latency/bandwidth and measured all_reduce table.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.core.kernels import combine_overlap
from repro.network.model import CollectiveKind
from repro.probes.results import MachineProbes
from repro.tracing.trace import ApplicationTrace, BlockTrace, CommRecord
from repro.util.validation import check_fraction

__all__ = [
    "MemoryModel",
    "Convolver",
    "ConvolvedTime",
    "BlockPrediction",
    "RateTable",
]

#: Fraction of min(FP, memory) time the convolver assumes is hidden by
#: overlap.  A single number for all machines — the predictor cannot know
#: each target's true overlap behaviour, which varies (another honest gap).
DEFAULT_OVERLAP = 0.75


class MemoryModel(enum.Enum):
    """How the convolver prices memory references."""

    NONE = "none"
    STREAM = "stream"
    STREAM_GUPS = "stream+gups"
    MAPS = "maps"
    MAPS_DEP = "maps+dep"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class BlockPrediction:
    """Predicted per-timestep time of one basic block.

    Attributes
    ----------
    name:
        Block name.
    fp_seconds, mem_seconds:
        Component estimates before overlap.
    seconds:
        Combined estimate.
    """

    name: str
    fp_seconds: float
    mem_seconds: float
    seconds: float


@dataclass(frozen=True)
class ConvolvedTime:
    """Full convolver output for one (trace, machine) pair.

    Attributes
    ----------
    machine:
        Probed target system.
    application, cpus:
        Identity of the trace.
    compute_seconds:
        Sum of block estimates over all timesteps.
    comm_seconds:
        Network term (zero unless the network model is enabled).
    blocks:
        Per-block breakdown (per timestep).
    """

    machine: str
    application: str
    cpus: int
    compute_seconds: float
    comm_seconds: float
    blocks: tuple[BlockPrediction, ...]

    @property
    def total_seconds(self) -> float:
        """Predicted wall-clock seconds."""
        return self.compute_seconds + self.comm_seconds


@dataclass(frozen=True)
class _TraceArrays:
    """Block-axis views of a trace, extracted once per rate table.

    Every machine of a table shares the same trace, so pulling the block
    scalars into contiguous arrays up front leaves only element-wise NumPy
    ops in the machines x blocks pass.
    """

    fp_ops: np.ndarray
    total_bytes: np.ndarray
    strided_bytes: np.ndarray
    random_bytes: np.ndarray
    working_set: np.ndarray
    dependency: np.ndarray

    @classmethod
    def of(cls, trace: ApplicationTrace) -> "_TraceArrays":
        # Both ApplicationTrace and the store's MappedTrace expose cached
        # block-axis arrays (for a mapped trace these are zero-copy views
        # of its entry's buffer), so no per-block Python objects are
        # touched here.
        # ``b.bytes = (loads + stores) * 8.0`` and ``strided = unit +
        # short`` performed array-wise are the same IEEE-754 operations
        # per element as the scalar :meth:`Convolver._mem_seconds`.
        ba = trace.block_arrays
        total_bytes = (ba.loads + ba.stores) * 8.0
        return cls(
            fp_ops=ba.fp_ops,
            total_bytes=total_bytes,
            strided_bytes=total_bytes * (ba.unit + ba.short),
            random_bytes=total_bytes * ba.random,
            working_set=ba.working_set,
            dependency=ba.dependency_weight,
        )


class RateTable:
    """Shared rate tensors of one trace against a list of machines.

    The tensorised pipeline's working set: the trace's (blocks x
    categories) operation matrix (:class:`_TraceArrays`) plus, per rate
    category, a machines-axis (or ``(machines, blocks)`` for working-set
    dependent MAPS curves) rate tensor.  Building one table per study row
    and handing it to every metric's convolver means the expensive parts —
    block extraction, the four MAPS curve interpolations per machine, the
    per-event network pricing — happen once per row instead of once per
    (metric, machine) cell.

    All tensors are lazy: a metric mix without MAPS models never
    interpolates a curve, and the network term only prices when some
    metric carries the NETBENCH component.
    """

    def __init__(self, trace: ApplicationTrace, probes_list: list[MachineProbes]):
        self.trace = trace
        self.probes_list = list(probes_list)
        self.arrays = _TraceArrays.of(trace)
        self.rmax = np.array([p.hpl.rmax_flops for p in self.probes_list])
        self._stream_bw: np.ndarray | None = None
        self._gups_bw: np.ndarray | None = None
        self._maps_bw: dict[str, np.ndarray] = {}
        self._log_ws: np.ndarray | None = None
        self._comm: np.ndarray | None = None

    @property
    def stream_bw(self) -> np.ndarray:
        """(machines,) STREAM bandwidths."""
        if self._stream_bw is None:
            self._stream_bw = np.array(
                [p.stream.bandwidth for p in self.probes_list]
            )
        return self._stream_bw

    @property
    def gups_bw(self) -> np.ndarray:
        """(machines,) GUPS random bandwidths."""
        if self._gups_bw is None:
            self._gups_bw = np.array(
                [p.gups.random_bandwidth for p in self.probes_list]
            )
        return self._gups_bw

    def maps_bw(self, kind: str) -> np.ndarray:
        """(machines, blocks) MAPS bandwidths of ``kind`` at each block's WS."""
        cached = self._maps_bw.get(kind)
        if cached is None:
            if self._log_ws is None:
                # One log per row, shared by every (machine, kind) lookup.
                self._log_ws = np.log(self.arrays.working_set)
            log_ws = self._log_ws
            cached = np.vstack(
                [p.maps.curve(kind).lookup_many_log(log_ws) for p in self.probes_list]
            )
            self._maps_bw[kind] = cached
        return cached

    def comm_seconds(self) -> np.ndarray:
        """(machines,) per-timestep network seconds for the traced events."""
        if self._comm is None:
            self._comm = np.array(
                [
                    _comm_seconds(self.trace.comm, p, self.trace.cpus)
                    for p in self.probes_list
                ]
            )
        return self._comm


def _comm_seconds(
    records: tuple[CommRecord, ...], probes: MachineProbes, cpus: int
) -> float:
    """Price one timestep of traced MPI events with NETBENCH results."""
    net = probes.netbench
    time = 0.0
    for rec in records:
        if rec.is_p2p:
            per = net.point_to_point(rec.size_bytes) * rec.neighbors
        elif rec.kind is CollectiveKind.ALLREDUCE:
            per = net.allreduce_time(cpus, rec.size_bytes)
        elif rec.kind is CollectiveKind.BARRIER:
            per = net.allreduce_time(cpus, 8.0) / 2.0
        elif rec.kind is CollectiveKind.BROADCAST:
            depth = math.ceil(math.log2(max(cpus, 2)))
            per = depth * net.point_to_point(rec.size_bytes)
        elif rec.kind is CollectiveKind.ALLTOALL:
            per = (cpus - 1) * net.point_to_point(rec.size_bytes)
        else:
            raise ValueError(f"unhandled comm kind {rec.kind!r}")
        time += rec.count * per
    return time


class Convolver:
    """Convolve application traces with machine probe results.

    Parameters
    ----------
    memory_model:
        Memory-rate source (see module docstring).
    network:
        Include the NETBENCH communication term.
    overlap:
        Assumed fraction of min(FP, memory) hidden by overlap.
    """

    def __init__(
        self,
        memory_model: MemoryModel = MemoryModel.MAPS,
        *,
        network: bool = False,
        overlap: float = DEFAULT_OVERLAP,
    ):
        self.memory_model = MemoryModel(memory_model)
        self.network = bool(network)
        self.overlap = check_fraction("overlap", overlap)

    # ------------------------------------------------------------------
    def _mem_seconds(self, block: BlockTrace, probes: MachineProbes) -> float:
        """Price one timestep of ``block``'s memory traffic."""
        model = self.memory_model
        if model is MemoryModel.NONE:
            return 0.0
        total_bytes = block.bytes
        if model is MemoryModel.STREAM:
            return total_bytes / probes.stream.bandwidth

        strided_bytes = total_bytes * block.stride.strided
        random_bytes = total_bytes * block.stride.random
        if model is MemoryModel.STREAM_GUPS:
            return (
                strided_bytes / probes.stream.bandwidth
                + random_bytes / probes.gups.random_bandwidth
            )

        ws = block.working_set
        maps = probes.maps
        if model is MemoryModel.MAPS:
            return strided_bytes / maps.unit.lookup(ws) + random_bytes / maps.random.lookup(ws)

        if model is MemoryModel.MAPS_DEP:
            w = block.dependency_weight
            t = strided_bytes * (1.0 - w) / maps.unit.lookup(ws)
            t += random_bytes * (1.0 - w) / maps.random.lookup(ws)
            if w > 0.0:
                t += strided_bytes * w / maps.unit_dep.lookup(ws)
                t += random_bytes * w / maps.random_dep.lookup(ws)
            return t
        raise AssertionError(f"unhandled memory model {model!r}")

    def predict_block(self, block: BlockTrace, probes: MachineProbes) -> BlockPrediction:
        """Predict one timestep of ``block`` on the probed machine."""
        t_fp = block.fp_ops / probes.hpl.rmax_flops
        t_mem = self._mem_seconds(block, probes)
        hidden = self.overlap * min(t_fp, t_mem)
        return BlockPrediction(
            name=block.name,
            fp_seconds=t_fp,
            mem_seconds=t_mem,
            seconds=t_fp + t_mem - hidden,
        )

    # ------------------------------------------------------------------
    def _mem_seconds_matrix(self, rates: RateTable) -> np.ndarray:
        """(machines, blocks) memory seconds: :meth:`_mem_seconds` applied
        across both axes, with the same per-element operation order."""
        model = self.memory_model
        arrays = rates.arrays
        n_machines = len(rates.probes_list)
        if model is MemoryModel.NONE:
            return np.zeros((n_machines, arrays.total_bytes.shape[0]))
        if model is MemoryModel.STREAM:
            return arrays.total_bytes[None, :] / rates.stream_bw[:, None]

        strided = arrays.strided_bytes[None, :]
        random = arrays.random_bytes[None, :]
        if model is MemoryModel.STREAM_GUPS:
            return (
                strided / rates.stream_bw[:, None]
                + random / rates.gups_bw[:, None]
            )

        unit_bw = rates.maps_bw("unit")
        random_bw = rates.maps_bw("random")
        if model is MemoryModel.MAPS:
            return strided / unit_bw + random / random_bw

        if model is MemoryModel.MAPS_DEP:
            w = rates.arrays.dependency[None, :]
            t = strided * (1.0 - w) / unit_bw
            t = t + random * (1.0 - w) / random_bw
            # Dependent terms vanish exactly where w == 0 (adding 0.0 is
            # exact), matching the scalar path's conditional.
            t = t + strided * w / rates.maps_bw("unit_dep")
            t = t + random * w / rates.maps_bw("random_dep")
            return t
        raise AssertionError(f"unhandled memory model {model!r}")

    def _price(self, rates: RateTable):
        """``(t_fp, t_mem, seconds, compute, comm)`` for every machine.

        The one pricing pass: FP, memory and overlap over the whole
        machines x blocks sheet, each element the same operations in the
        same order as :meth:`predict_block`.  ``compute`` and ``comm`` are
        (machines,) whole-run seconds; ``comm`` is ``0.0`` without the
        network term.  Row sums reduce each machine's blocks exactly as a
        1-D ``np.sum`` over that machine's row would.
        """
        t_fp = rates.arrays.fp_ops[None, :] / rates.rmax[:, None]
        t_mem = self._mem_seconds_matrix(rates)
        seconds = combine_overlap(t_fp, t_mem, self.overlap)
        timesteps = rates.trace.timesteps
        compute = np.sum(seconds, axis=1) * timesteps
        comm = rates.comm_seconds() * timesteps if self.network else 0.0
        return t_fp, t_mem, seconds, compute, comm

    def total_seconds_matrix(self, rates: RateTable) -> np.ndarray:
        """Predicted wall-clock seconds for every machine of ``rates``.

        Element ``m`` is bit-identical to
        ``predict(trace, rates.probes_list[m]).total_seconds``.
        """
        *_, compute, comm = self._price(rates)
        return compute + comm

    def predict_batch(
        self, trace: ApplicationTrace, probes_list: list[MachineProbes]
    ) -> list[ConvolvedTime]:
        """Convolve ``trace`` with several probed machines, with the
        per-block breakdown, from one :meth:`_price` pass.  Each result is
        bit-identical to :meth:`predict` on that machine alone."""
        rates = RateTable(trace, probes_list)
        t_fp, t_mem, seconds, compute, comm = self._price(rates)
        comm = np.broadcast_to(comm, compute.shape)
        names = trace.block_names
        return [
            ConvolvedTime(
                machine=probes.machine,
                application=trace.application,
                cpus=trace.cpus,
                compute_seconds=float(compute[m]),
                comm_seconds=float(comm[m]),
                blocks=tuple(
                    BlockPrediction(name=name, fp_seconds=fp, mem_seconds=mem, seconds=sec)
                    for name, fp, mem, sec in zip(
                        names, t_fp[m].tolist(), t_mem[m].tolist(), seconds[m].tolist()
                    )
                ),
            )
            for m, probes in enumerate(rates.probes_list)
        ]

    def predict(self, trace: ApplicationTrace, probes: MachineProbes) -> ConvolvedTime:
        """Predict the traced application's wall-clock time on ``probes``' machine."""
        return self.predict_batch(trace, [probes])[0]
