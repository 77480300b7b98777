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
4. optionally replays the interleaved stream through a set-associative
   cache simulator configured from the base machine (diagnostic per-level
   service fractions, as the real tracer gathered on the NAVO p690);
5. attaches the static analyser's dependency class.

Sampling is the tracer's fidelity knob: small samples misestimate stride
fractions and working sets, which propagates into Metrics #6-#9 — an
honest analogue of real tracing granularity limits (and an ablation axis).
"""

from __future__ import annotations

import numpy as np

from repro.apps.model import ApplicationModel, BasicBlock
from repro.machines.spec import MachineSpec
from repro.memory.cache import MultiLevelCache
from repro.memory.patterns import StrideHistogram
from repro.memory.streams import (
    pointer_chase_addresses,
    random_addresses,
    strided_addresses,
)
from repro.memory.reuse import reuse_profile
from repro.memory.stride import StrideDetector
from repro.tracing.static_analysis import classify_block
from repro.tracing.trace import ApplicationTrace, BlockTrace, ReuseHistogram
from repro.tracing.mpidtrace import trace_communication
from repro.util.lru import BoundedLRU
from repro.util.options import CacheModel

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
    cache_sim:
        Account cache behaviour of the sampled streams: record per-level
        service fractions on the base machine plus a machine-independent
        reuse-distance histogram per block (slower; diagnostic only).
    cache_model:
        ``"analytic"`` derives service fractions from one reuse-distance
        pass (:meth:`MultiLevelCache.service_fractions_analytic`, the study
        default); ``"exact"`` replays the stream through the
        set-associative simulator (golden reference).
    timer:
        Optional :class:`~repro.util.timing.StageTimer`; cache accounting
        time lands in its ``"cache_model"`` stage.
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
        cache_sim: bool = False,
        cache_model: str = "analytic",
        timer=None,
        deadline=None,
    ):
        if sample_size < 64:
            raise ValueError(f"sample_size must be >= 64, got {sample_size}")
        self.base_machine = base_machine
        self.sample_size = int(sample_size)
        self.cache_sim = cache_sim
        self.cache_model = str(CacheModel.coerce(cache_model))
        self.timer = timer
        self.deadline = deadline
        self.detector = StrideDetector()

    # ------------------------------------------------------------------
    def _sample_block(
        self, block: BasicBlock, working_set: float, rng: np.random.Generator
    ) -> tuple[StrideHistogram, float, list[np.ndarray]]:
        """Sample ``block``'s reference streams; detect strides and span.

        Returns the measured histogram, the working-set estimate, and the
        per-class streams (interleaved lazily by :meth:`trace` only when
        cache accounting needs the mixed stream).
        """
        n = self.sample_size
        hist = block.stride
        dep = block.dependency_fraction
        streams: list[np.ndarray] = []
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
            # The tracer estimates working sets from stream spans below, so
            # the detector can skip its distinct-line count.
            report = self.detector.classify(addrs, working_set=False)
            weighted.append((frac, report.histogram))
            spans.append(float(addrs.max() - addrs.min()) + 8.0)
            streams.append(addrs)

        total = sum(f for f, _ in weighted)
        unit = sum(f * h.unit for f, h in weighted) / total
        short = sum(f * h.short for f, h in weighted) / total
        rand = sum(f * h.random for f, h in weighted) / total
        measured = StrideHistogram.normalised(
            unit, short, rand, short_stride_elems=hist.short_stride_elems
        )
        ws_estimate = max(spans)
        return measured, ws_estimate, streams

    # ------------------------------------------------------------------
    def _account_cache(
        self, stream: np.ndarray
    ) -> tuple[dict[str, float], ReuseHistogram]:
        """Base-machine service fractions + machine-independent reuse profile."""
        import time

        start = time.perf_counter()
        sim = MultiLevelCache.of(self.base_machine)
        if self.cache_model == "exact":
            service = sim.simulate(stream).service_fractions()
        else:
            service = sim.service_fractions_analytic(stream)
        reuse = ReuseHistogram.of(reuse_profile(stream))
        if self.timer is not None:
            self.timer.add("cache_model", time.perf_counter() - start)
        return service, reuse

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
            measured, ws_estimate, streams = self._sample_block(block, ws_true, rng)

            service = None
            reuse = None
            if self.cache_sim:
                # Interleave lazily: the mixed stream only exists for cache
                # accounting (the shuffle is each block rng's *last* draw,
                # so skipping it when cache_sim is off changes nothing).
                stream = _interleave(streams, rng)
                service, reuse = self._account_cache(stream)

            blocks.append(
                BlockTrace(
                    name=block.name,
                    fp_ops=block.fp_per_cell * rank_cells,
                    loads=block.loads_per_cell * rank_cells,
                    stores=block.stores_per_cell * rank_cells,
                    stride=measured,
                    working_set=ws_estimate,
                    dependency_weight=classify_block(block).weight,
                    l_service=service,
                    reuse=reuse,
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


def _interleave(streams: list[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """Randomly interleave several address streams, preserving each one's order.

    The positions labelled ``i`` (in stream order, after the shuffle) receive
    ``streams[i]`` in order — one boolean-mask scatter per stream replaces
    the former per-reference cursor loop, with identical output for the same
    generator state.
    """
    if len(streams) == 1:
        return streams[0]
    labels = np.concatenate(
        [np.full(s.shape[0], i, dtype=np.int64) for i, s in enumerate(streams)]
    )
    rng.shuffle(labels)
    out = np.empty(labels.shape[0], dtype=np.int64)
    for i, stream in enumerate(streams):
        out[labels == i] = stream
    return out


def _trace_seed(*keys: object) -> int:
    from repro.util.rng import stable_seed

    return stable_seed("metasim", *keys)


def _trace_key(app, cpus, base_machine, sample_size, cache_sim, cache_model) -> tuple:
    # cache_model only affects output when cache accounting runs at all.
    model = cache_model if cache_sim else None
    return (app.label, cpus, base_machine.name, sample_size, cache_sim, model)


def trace_memoized(
    app: ApplicationModel,
    cpus: int,
    base_machine: MachineSpec,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
) -> bool:
    """Whether :func:`trace_application` (without ``cache_sim``) answers
    from its in-memory memo."""
    key = _trace_key(app, cpus, base_machine, sample_size, False, None)
    return key in _TRACE_CACHE


def trace_application(
    app: ApplicationModel,
    cpus: int,
    base_machine: MachineSpec,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    *,
    cache_sim: bool = False,
    cache_model: str = "analytic",
    store=None,
    timer=None,
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
    key = _trace_key(app, cpus, base_machine, sample_size, cache_sim, cache_model)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        # Write-through: a warm in-memory cache must still populate the
        # persistent store, or fresh processes would find it empty.
        if store is not None and not store.has_trace(
            app.label, cpus, base_machine.name, sample_size, cache_sim, cache_model
        ):
            store.save_trace(trace, cache_sim=cache_sim, cache_model=cache_model)
        if timer is not None:
            timer.add("trace", 0.0)  # keep the stage in warm-run breakdowns
        return trace
    if store is not None:
        trace = store.load_trace(
            app.label, cpus, base_machine.name, sample_size, cache_sim, cache_model
        )
    if trace is None:
        import time

        start = time.perf_counter()
        cache_model_before = timer.get("cache_model") if timer is not None else 0.0
        tracer = MetaSimTracer(
            base_machine,
            sample_size,
            cache_sim=cache_sim,
            cache_model=cache_model,
            timer=timer,
            deadline=deadline,
        )
        trace = tracer.trace(app, cpus)
        if timer is not None:
            # "trace" excludes the cache-accounting seconds the tracer
            # already booked under "cache_model" during this call.
            elapsed = time.perf_counter() - start
            timer.add(
                "trace", elapsed - (timer.get("cache_model") - cache_model_before)
            )
        if store is not None:
            store.save_trace(trace, cache_sim=cache_sim, cache_model=cache_model)
    elif timer is not None:
        timer.add("trace", 0.0)  # loaded from the store; no tracing cost
    _TRACE_CACHE.put(key, trace)
    return trace


def clear_trace_cache() -> None:
    """Drop all cached traces."""
    _TRACE_CACHE.clear()
