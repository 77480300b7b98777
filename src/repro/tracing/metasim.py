"""MetaSim Tracer analogue.

The paper's MetaSim Tracer instruments an application on the base system
(~30x slowdown) and reviews every address generated by load/store
instructions, binning references by stride class and measuring working
sets.  Our analogue:

1. generates a *sampled* address stream per basic block per stride class
   (strided sweeps, independent random draws, and pointer chases for the
   dependent portion), sized proportionally to the block's reference mix;
2. runs each stream through the EMPS-style stride detector to *measure*
   the stride histogram (rather than copying the model's ground truth);
3. estimates the block's working set from the sampled address span;
4. attaches the static analyser's dependency class.

The real tracer also replayed its streams through a cache simulator of
the base system.  No metric here reads a simulated hit rate (the
convolver prices memory from the working set against the MAPS curves),
so the analogue runs no cache simulation.

Sampling is the tracer's fidelity knob: small samples misestimate stride
fractions and working sets, which propagates into Metrics #6-#9 — an
honest analogue of real tracing granularity limits (and an ablation axis).
"""

from __future__ import annotations

import numpy as np

from repro.apps.model import ApplicationModel, BasicBlock
from repro.machines.spec import MachineSpec
from repro.memory.patterns import StrideHistogram
from repro.memory.streams import (
    pointer_chase_addresses,
    random_addresses,
    strided_addresses,
)
from repro.memory.stride import StrideDetector
from repro.tracing.static_analysis import classify_block
from repro.tracing.trace import ApplicationTrace, BlockTrace
from repro.tracing.mpidtrace import trace_communication
from repro.util.lru import BoundedLRU

__all__ = ["MetaSimTracer", "trace_application", "trace_memoized", "clear_trace_cache"]

#: Default references sampled per basic block.
DEFAULT_SAMPLE_SIZE = 4096

#: Process-wide trace memo keyed by trace identity.  Bounded like the
#: engine's row memo, whose 4,096 entries it matches: every shipped study
#: matrix fits without eviction (the paper matrix x16 has 240 rows), and
#: a long-lived server cannot grow it without limit.
_TRACE_CACHE = BoundedLRU(4096)


class MetaSimTracer:
    """Trace applications on a base machine.

    Parameters
    ----------
    base_machine:
        System the (conceptual) instrumented binary runs on.
    sample_size:
        References sampled per basic block (fidelity knob).
    deadline:
        Optional :class:`~repro.util.deadline.Deadline`; checked before
        each basic block is sampled, so a caller under time pressure
        (the prediction service, a serial study chunk with a timeout)
        abandons an in-flight trace instead of finishing it late.
    """

    def __init__(
        self,
        base_machine: MachineSpec,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        *,
        deadline=None,
    ):
        if sample_size < 64:
            raise ValueError(f"sample_size must be >= 64, got {sample_size}")
        self.base_machine = base_machine
        self.sample_size = int(sample_size)
        self.deadline = deadline
        self.detector = StrideDetector()

    # ------------------------------------------------------------------
    def _sample_block(
        self, block: BasicBlock, working_set: float, rng: np.random.Generator
    ) -> tuple[StrideHistogram, float]:
        """Sample ``block``'s reference streams; detect strides and span.

        Returns the measured histogram and the working-set estimate.
        """
        n = self.sample_size
        hist = block.stride
        dep = block.dependency_fraction
        weighted: list[tuple[float, StrideHistogram]] = []
        spans: list[float] = []

        plan = [
            (hist.unit, lambda m: strided_addresses(m, 1, working_set=working_set)),
            (
                hist.short,
                lambda m: strided_addresses(
                    m, hist.short_stride_elems, working_set=working_set
                ),
            ),
            (
                hist.random * (1.0 - dep),
                lambda m: random_addresses(m, working_set, rng),
            ),
            (
                hist.random * dep,
                lambda m: pointer_chase_addresses(
                    m, min(working_set, 4 << 20), rng
                ),
            ),
        ]
        for frac, gen in plan:
            if frac <= 1e-9:
                continue
            m = max(64, int(round(frac * n)))
            addrs = gen(m)
            report = self.detector.classify(addrs)
            weighted.append((frac, report.histogram))
            spans.append(float(addrs.max() - addrs.min()) + 8.0)

        total = sum(f for f, _ in weighted)
        unit = sum(f * h.unit for f, h in weighted) / total
        short = sum(f * h.short for f, h in weighted) / total
        rand = sum(f * h.random for f, h in weighted) / total
        measured = StrideHistogram.normalised(
            unit, short, rand, short_stride_elems=hist.short_stride_elems
        )
        ws_estimate = max(spans)
        return measured, ws_estimate

    # ------------------------------------------------------------------
    def trace(self, app: ApplicationModel, cpus: int) -> ApplicationTrace:
        """Produce the transfer function of ``app`` at ``cpus`` processors."""
        if cpus <= 0:
            raise ValueError(f"cpus must be > 0, got {cpus}")
        rank_cells = app.rank_cells(cpus)
        rank_bytes = app.rank_bytes(cpus)
        blocks: list[BlockTrace] = []
        for block in app.blocks:
            if self.deadline is not None:
                # Per-block abandon point: a spent budget stops the trace
                # here rather than after the remaining blocks.
                self.deadline.checkpoint("trace")
            rng = np.random.default_rng(
                _trace_seed(self.base_machine.name, app.label, cpus, block.name)
            )
            ws_true = block.working_set(rank_bytes)
            measured, ws_estimate = self._sample_block(block, ws_true, rng)
            blocks.append(
                BlockTrace(
                    name=block.name,
                    fp_ops=block.fp_per_cell * rank_cells,
                    loads=block.loads_per_cell * rank_cells,
                    stores=block.stores_per_cell * rank_cells,
                    stride=measured,
                    working_set=ws_estimate,
                    dependency_weight=classify_block(block).weight,
                )
            )
        return ApplicationTrace(
            application=app.label,
            cpus=cpus,
            base_machine=self.base_machine.name,
            timesteps=app.timesteps,
            blocks=tuple(blocks),
            comm=trace_communication(app, cpus),
            sample_size=self.sample_size,
        )


def _trace_seed(*keys: object) -> int:
    from repro.util.rng import stable_seed

    return stable_seed("metasim", *keys)


def _trace_key(app, cpus, base_machine, sample_size) -> tuple:
    return (app.label, cpus, base_machine.name, sample_size)


def trace_memoized(
    app: ApplicationModel,
    cpus: int,
    base_machine: MachineSpec,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
) -> bool:
    """Whether :func:`trace_application` answers from its in-memory memo."""
    return _trace_key(app, cpus, base_machine, sample_size) in _TRACE_CACHE


def trace_application(
    app: ApplicationModel,
    cpus: int,
    base_machine: MachineSpec,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    *,
    store=None,
    deadline=None,
) -> ApplicationTrace:
    """Trace with caching — tracing is a non-recurring cost (paper §3).

    ``store`` (a :class:`~repro.tracing.store.TraceStore`) adds a persistent
    on-disk layer below the in-memory cache, so fresh processes — CLI
    invocations, parallel study workers — skip re-tracing entirely.
    ``deadline`` (a :class:`~repro.util.deadline.Deadline`) bounds a cache
    *miss*: the tracer checkpoints per basic block and abandons the trace
    when the budget is spent; hits in either cache layer are returned even
    under an expired budget (they cost nothing).
    """
    key = _trace_key(app, cpus, base_machine, sample_size)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        # Write-through: a warm in-memory cache must still populate the
        # persistent store, or fresh processes would find it empty.
        if store is not None and not store.has_trace(*key):
            store.save_trace(trace)
        return trace
    if store is not None:
        trace = store.load_trace(*key)
    if trace is None:
        trace = MetaSimTracer(base_machine, sample_size, deadline=deadline).trace(
            app, cpus
        )
        if store is not None:
            store.save_trace(trace)
    _TRACE_CACHE.put(key, trace)
    return trace


def clear_trace_cache() -> None:
    """Drop all cached traces."""
    _TRACE_CACHE.clear()
