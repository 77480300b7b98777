"""Trace data model.

An :class:`ApplicationTrace` is everything the predictive metrics may know
about an application: per-basic-block operation counts binned by stride
class, estimated working sets, dependency classifications, and the MPI
event trace.  It is gathered on the *base* system and reused for every
target — the paper's machine-independent "transfer function".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.memory.patterns import StrideHistogram
from repro.network.model import CollectiveKind

__all__ = [
    "ReuseHistogram",
    "BlockTrace",
    "CommRecord",
    "ApplicationTrace",
    "BlockArrays",
]


class BlockArrays(NamedTuple):
    """Block-axis float64 views of a trace — the convolver's operands.

    One array per :class:`BlockTrace` field the tensorised pipeline
    consumes, each of shape ``(n_blocks,)``.  For a trace loaded from the
    binary store these are zero-copy ``np.memmap`` views; for an
    in-memory trace they are built once and cached on the trace object.
    Values are bit-identical either way (float64 storage is exact), so
    the convolver's fast path never moves a prediction.
    """

    fp_ops: np.ndarray
    loads: np.ndarray
    stores: np.ndarray
    unit: np.ndarray
    short: np.ndarray
    random: np.ndarray
    stride_elems: np.ndarray
    working_set: np.ndarray
    dependency_weight: np.ndarray

    @classmethod
    def of_blocks(cls, blocks: "tuple[BlockTrace, ...]") -> "BlockArrays":
        """Extract the arrays from materialised block objects."""
        as_f8 = lambda values: np.array(values, dtype=np.float64)  # noqa: E731
        return cls(
            fp_ops=as_f8([b.fp_ops for b in blocks]),
            loads=as_f8([b.loads for b in blocks]),
            stores=as_f8([b.stores for b in blocks]),
            unit=as_f8([b.stride.unit for b in blocks]),
            short=as_f8([b.stride.short for b in blocks]),
            random=as_f8([b.stride.random for b in blocks]),
            stride_elems=np.array(
                [b.stride.short_stride_elems for b in blocks], dtype=np.int64
            ),
            working_set=as_f8([b.working_set for b in blocks]),
            dependency_weight=as_f8([b.dependency_weight for b in blocks]),
        )


@dataclass(frozen=True)
class ReuseHistogram:
    """Machine-independent stack-distance histogram of a block's stream.

    A serialisable freeze of :class:`repro.memory.reuse.ReuseProfile`'s
    histogram (tuples instead of arrays, so traces stay hashable/comparable):
    fully-associative hit rates at any capacity follow from it directly.

    Attributes
    ----------
    distances, counts:
        Sorted distinct finite LRU stack distances and reference counts.
    cold:
        First-touch references (miss at any capacity).
    total:
        Total references profiled.
    line_bytes:
        Line granularity of the profile.
    """

    distances: tuple[int, ...]
    counts: tuple[int, ...]
    cold: int
    total: int
    line_bytes: int

    @classmethod
    def of(cls, profile) -> "ReuseHistogram":
        """Freeze a :class:`~repro.memory.reuse.ReuseProfile`."""
        return cls(
            distances=tuple(int(d) for d in profile.distances),
            counts=tuple(int(c) for c in profile.counts),
            cold=profile.cold,
            total=profile.total,
            line_bytes=profile.line_bytes,
        )


@dataclass(frozen=True)
class BlockTrace:
    """Measured signature of one basic block (per rank, per timestep).

    Attributes
    ----------
    name:
        Block identifier.
    fp_ops:
        Floating-point operations (exact — from hardware counters).
    loads, stores:
        8-byte references (exact — from hardware counters).
    stride:
        Stride histogram *measured* by the detector on sampled streams.
    working_set:
        Working set (bytes) estimated from the sampled address span.
    dependency_weight:
        Static-analysis dependency class as a weight in {0, 0.5, 1}:
        the fraction of references Metric #9 prices with dependent curves.
    l_service:
        Optional per-level service fractions observed by the cache
        simulator on the base machine (diagnostic; not used by metrics).
    reuse:
        Optional machine-independent reuse-distance histogram of the
        block's sampled stream (recorded when the tracer's cache
        accounting is on) — prices any cache geometry without the stream.
    """

    name: str
    fp_ops: float
    loads: float
    stores: float
    stride: StrideHistogram
    working_set: float
    dependency_weight: float
    l_service: dict[str, float] | None = None
    reuse: ReuseHistogram | None = None

    @property
    def refs(self) -> float:
        """Total 8-byte references."""
        return self.loads + self.stores

    @property
    def bytes(self) -> float:
        """Useful memory traffic in bytes."""
        return self.refs * 8.0


@dataclass(frozen=True)
class CommRecord:
    """One class of MPI traffic observed by MPIDTRACE (per rank, per step).

    Attributes
    ----------
    name:
        Event identifier.
    kind:
        ``"p2p"`` or a :class:`~repro.network.model.CollectiveKind`.
    count:
        Occurrences per timestep.
    size_bytes:
        Message payload at the traced processor count.
    neighbors:
        Partners per occurrence (p2p only; 1 for collectives).
    """

    name: str
    kind: CollectiveKind | str
    count: float
    size_bytes: float
    neighbors: int = 1

    @property
    def is_p2p(self) -> bool:
        """True for point-to-point traffic."""
        return self.kind == "p2p"


@dataclass(frozen=True)
class ApplicationTrace:
    """Complete transfer function of one (application, processor count).

    Attributes
    ----------
    application:
        Application label (``"AVUS-standard"``).
    cpus:
        Processor count the trace was taken at.
    base_machine:
        System the tracer ran on.
    timesteps:
        Timesteps of the test case (per-step counts scale by this).
    blocks:
        Per-block signatures.
    comm:
        MPI event records.
    sample_size:
        References sampled per block by the tracer.
    """

    application: str
    cpus: int
    base_machine: str
    timesteps: int
    blocks: tuple[BlockTrace, ...]
    comm: tuple[CommRecord, ...]
    sample_size: int

    @property
    def block_arrays(self) -> BlockArrays:
        """Block-axis float64 views (built lazily, cached on the trace).

        The convolver's rate table reads these instead of looping block
        objects; a trace that recurs across study rows (the in-memory
        cache guarantees it does) pays the extraction exactly once.
        """
        cached = getattr(self, "_block_arrays", None)
        if cached is None:
            cached = BlockArrays.of_blocks(self.blocks)
            # Frozen dataclass: the cache slot bypasses the field guard.
            object.__setattr__(self, "_block_arrays", cached)
        return cached

    @property
    def block_names(self) -> tuple[str, ...]:
        """Block identifiers, in trace order."""
        return tuple(b.name for b in self.blocks)

    @property
    def total_fp(self) -> float:
        """FP operations per rank over the whole run."""
        return sum(b.fp_ops for b in self.blocks) * self.timesteps

    @property
    def total_refs(self) -> float:
        """Memory references per rank over the whole run."""
        return sum(b.refs for b in self.blocks) * self.timesteps

    def block(self, name: str) -> BlockTrace:
        """Return the traced block called ``name``."""
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(f"trace of {self.application} has no block {name!r}")
