"""Full-study runner: the paper's 150-run, 1350-prediction experiment.

For every (application test case, processor count, target system) cell the
runner simulates the "real" execution (ground truth), applies all nine
metrics, and records signed/absolute errors per Equation 2.  Cells the
paper leaves blank — processor counts exceeding a system's size — are
skipped the same way.

The engine is built for throughput:

* each (application, cpus) row is traced once and priced against **all**
  eligible systems through the metrics' batch path
  (:meth:`~repro.core.metrics.Metric.predict_many`), so no cell re-loops
  scalar block math;
* ``workers=N`` fans the embarrassingly-parallel cells out over a
  persistent, probe-warmed process pool, chunked by application row so
  each trace stays in the worker that prices it, and merges results in
  canonical order — every RNG draw is seed-stable, so parallel output is
  byte-identical to serial; matrices under :data:`PARALLEL_MIN_CELLS`
  cells stay serial, so fan-out never loses to a serial run;
* an opt-in :class:`~repro.tracing.store.TraceStore` persists traces and
  probe results on disk, letting repeated studies, ablations and fresh
  worker processes skip the non-recurring costs entirely.
"""

from __future__ import annotations

import atexit
import os
from collections import defaultdict
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.errors import (
    ChunkTimeoutError,
    DeadlineExceededError,
    ErrorSummary,
    StudyAbortedError,
    WorkerCrashError,
    summarise,
)
from repro.util.options import Mode
from repro.core.registry import REGISTRY
from repro.engine import Engine, MatrixPlan, PredictionRecord
from repro.scenarios import (
    BASE_SYSTEM,
    CATALOG,
    TARGET_SYSTEMS,
    get_application,
    get_machine,
)
from repro.scenarios.builtin import builtin_applications
from repro.probes.suite import probe_machine
from repro.study.resilience import (
    CellFailure,
    StudyCheckpoint,
    backoff_seconds,
    classify_failure,
    config_digest,
)
from repro.tracing.metasim import DEFAULT_SAMPLE_SIZE
from repro.tracing.store import TraceStore
from repro.util.clock import Clock, as_clock
from repro.util.deadline import Deadline
from repro.util.validation import check_distinct

__all__ = [
    "StudyConfig",
    "PredictionRecord",
    "StudyResult",
    "CellFailure",
    "run_study",
    "shutdown_pool",
    "clear_study_caches",
    "PARALLEL_MIN_CELLS",
]


def clear_study_caches() -> None:
    """Drop every memo the study path reads through.

    Traces, probe bundles, shared executors (with their run_many memos
    and block statics), the engine's row-level convolve memo, and the
    persistent worker pool, whose workers hold memos of their own — the
    full warm state.  The bench harness calls this to measure genuinely
    cold passes; anything less leaves one of the layered caches warm and
    under-reports cost.
    """
    from repro.apps.execution import clear_execution_cache
    from repro.engine.core import clear_row_cache
    from repro.probes.suite import clear_probe_cache
    from repro.tracing.metasim import clear_trace_cache

    clear_trace_cache()
    clear_probe_cache()
    clear_execution_cache()
    clear_row_cache()
    shutdown_pool()

#: Below this many (application, cpus, system) cells a study runs serially
#: even when ``workers > 1``: fan-out overhead (chunk pickling, result
#: transfer) exceeds the compute of a small matrix, and the paper's own
#: 145-cell matrix sits under it.  DESIGN.md §5c records the measurement.
PARALLEL_MIN_CELLS = 200


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of a study run.

    The defaults reproduce the paper's setup exactly; ablation benches
    construct variants (``noise=False``, ``mode="absolute"``, coarser
    tracer sampling, ...).  Every identifier is validated on construction:
    an unknown application label, system name, metric number or mode
    raises :class:`ValueError` naming the offending key, and
    so does an application, system or metric named twice (metrics are
    compared as registry numbers, so ``9`` and its name are one metric).
    """

    applications: tuple[str, ...] = tuple(builtin_applications())
    systems: tuple[str, ...] = TARGET_SYSTEMS
    base_system: str = BASE_SYSTEM
    metrics: tuple = tuple(spec.number for spec in REGISTRY.table3())
    mode: str = "relative"
    sample_size: int = DEFAULT_SAMPLE_SIZE
    noise: bool = True

    def __post_init__(self) -> None:
        for label in self.applications:
            if not CATALOG.has_application(label):
                known = ", ".join(CATALOG.application_ids())
                raise ValueError(
                    f"unknown application {label!r} in StudyConfig.applications; "
                    f"known: {known}"
                )
        for system in self.systems:
            if not CATALOG.has_machine(system):
                known = ", ".join(CATALOG.machine_ids())
                raise ValueError(
                    f"unknown system {system!r} in StudyConfig.systems; known: {known}"
                )
        if not CATALOG.has_machine(self.base_system):
            known = ", ".join(CATALOG.machine_ids())
            raise ValueError(
                f"unknown base system {self.base_system!r}; known: {known}"
            )
        resolved = []
        for key in self.metrics:
            try:
                resolved.append(REGISTRY.spec(key).number)
            except KeyError:
                known = ", ".join(
                    str(n) for n in REGISTRY.numbers()
                ) + ", " + ", ".join(REGISTRY.names())
                raise ValueError(
                    f"unknown metric {key!r} in StudyConfig.metrics; known: {known}"
                ) from None
        check_distinct("application", "StudyConfig.applications", self.applications)
        check_distinct("system", "StudyConfig.systems", self.systems)
        check_distinct("metric", "StudyConfig.metrics", resolved)
        # Normalised to registry numbers so records, checkpoints and the
        # config digest are name/number agnostic.
        object.__setattr__(self, "metrics", tuple(resolved))
        object.__setattr__(self, "mode", Mode.coerce(self.mode))

    def variant(self, **changes) -> "StudyConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


# PredictionRecord is defined beside the engine that emits it
# (repro.engine.plan) and re-exported here for its historical home.


@dataclass
class StudyResult:
    """All records of one study run plus aggregation helpers.

    A result can be *partial*: chunks that exhausted their retries under
    the fault-tolerant engine are quarantined into :attr:`failures`
    instead of aborting the study, and every aggregation below tolerates
    the missing cells (empty selections summarise to NaN/0-count).
    """

    config: StudyConfig
    records: list[PredictionRecord]
    observed: dict[tuple[str, str, int], float] = field(default_factory=dict)
    #: Quarantined chunks — one :class:`~repro.study.resilience.CellFailure`
    #: per application row whose retries were exhausted, in canonical
    #: application order.  Empty for a fully successful study.
    failures: list[CellFailure] = field(default_factory=list)
    #: Wall-clock seconds per pipeline stage (probe / execute / trace /
    #: convolve), memo hits and store loads included; parallel runs sum the
    #: workers' breakdowns, so stage seconds can exceed the run's wall
    #: time.  Diagnostic only — excluded from equality.
    stage_seconds: dict[str, float] = field(default_factory=dict, compare=False)
    _select_index: dict[str, dict] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _select_index_len: int = field(default=-1, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def _ensure_index(self) -> dict[str, dict]:
        """Lazily build (and rebuild after mutation) the per-field indexes.

        Table/figure builders query ``select`` once per metric x system x
        cpus cell; four inverted indexes replace each O(n_records) scan
        with a short intersection of posting lists.
        """
        if self._select_index is not None and self._select_index_len == len(self.records):
            return self._select_index
        index: dict[str, dict] = {
            "metric": defaultdict(list),
            "system": defaultdict(list),
            "application": defaultdict(list),
            "cpus": defaultdict(list),
        }
        for i, rec in enumerate(self.records):
            index["metric"][rec.metric].append(i)
            index["system"][rec.system].append(i)
            index["application"][rec.application].append(i)
            index["cpus"][rec.cpus].append(i)
        self._select_index = index
        self._select_index_len = len(self.records)
        return index

    def select(
        self,
        *,
        metric: int | None = None,
        system: str | None = None,
        application: str | None = None,
        cpus: int | None = None,
    ) -> list[PredictionRecord]:
        """Records matching every given filter, in record order."""
        active = [
            (name, value)
            for name, value in (
                ("metric", metric),
                ("system", system),
                ("application", application),
                ("cpus", cpus),
            )
            if value is not None
        ]
        if not active:
            return list(self.records)
        index = self._ensure_index()
        postings = []
        for name, value in active:
            posting = index[name].get(value)
            if not posting:
                return []
            postings.append(posting)
        postings.sort(key=len)
        others = [set(posting) for posting in postings[1:]]
        records = self.records
        return [
            records[i]
            for i in postings[0]
            if all(i in other for other in others)
        ]

    def errors(self, **filters) -> list[float]:
        """Signed errors of the selected records."""
        return [rec.error_percent for rec in self.select(**filters)]

    # ------------------------------------------------------------------
    # aggregations mirroring the paper
    # ------------------------------------------------------------------
    def metric_summary(self, metric: int) -> ErrorSummary:
        """Table 4 row: error summary of one metric over all runs.

        Quarantine-tolerant: when every cell of a metric is missing (all
        of its chunks failed), the summary is NaN with ``count=0`` rather
        than an exception, so partial studies still render their tables.
        """
        errs = self.errors(metric=metric)
        if not errs:
            nan = float("nan")
            return ErrorSummary(mean_abs=nan, std_abs=nan, mean_signed=nan, count=0)
        return summarise(errs)

    def overall_table(self) -> dict[int, ErrorSummary]:
        """Table 4: per-metric summaries."""
        return {m: self.metric_summary(m) for m in self.config.metrics}

    def system_table(self) -> dict[str, dict[int, float]]:
        """Table 5: system -> metric -> average absolute error."""
        table: dict[str, dict[int, float]] = {}
        for system in self.config.systems:
            row = {}
            for m in self.config.metrics:
                errs = self.errors(metric=m, system=system)
                row[m] = float(np.mean(np.abs(errs))) if errs else float("nan")
            table[system] = row
        return table

    def app_case_errors(self, application: str) -> dict[int, dict[int, float]]:
        """Figures 3-7 series: cpus -> metric -> average absolute error."""
        app = get_application(application)
        out: dict[int, dict[int, float]] = {}
        for cpus in app.cpu_counts:
            row = {}
            for m in self.config.metrics:
                errs = self.errors(metric=m, application=application, cpus=cpus)
                row[m] = float(np.mean(np.abs(errs))) if errs else float("nan")
            out[cpus] = row
        return out

    def observed_times(self, application: str) -> dict[str, list[float | None]]:
        """Appendix table: system -> times at the app's cpu counts."""
        app = get_application(application)
        out: dict[str, list[float | None]] = {}
        for system in self.config.systems:
            out[system] = [
                self.observed.get((application, system, cpus)) for cpus in app.cpu_counts
            ]
        return out

    @property
    def n_runs(self) -> int:
        """Number of observed executions (150 in the paper's full matrix)."""
        return len(self.observed)

    @property
    def n_predictions(self) -> int:
        """Number of predictions (1350 in the paper's full matrix)."""
        return len(self.records)


# ---------------------------------------------------------------------------
# execution engine
# ---------------------------------------------------------------------------


def _run_submatrix(
    cfg: StudyConfig,
    labels: tuple[str, ...],
    systems: tuple[str, ...],
    store: TraceStore | None,
    timer: dict[str, float] | None = None,
    deadline: Deadline | None = None,
) -> tuple[list[PredictionRecord], dict[tuple[str, str, int], float]]:
    """Compute the (labels x systems) block of the study matrix.

    Each (application, cpus) row is traced once and priced against all
    eligible systems for **all** metrics in one shot
    (:func:`~repro.core.metrics.predict_all` shares the row's rate tensors
    across metrics); records are then emitted in the canonical
    (application, system, cpus, metric) order.  Per-system results are
    independent, so any partition of the matrix produces the same records
    cell-for-cell.

    ``deadline`` makes the block cooperative: probe and trace calls
    checkpoint mid-stage and abandon the submatrix with
    :class:`~repro.core.errors.DeadlineExceededError` once the budget is
    spent (the serial resilient engine converts that into the chunk-level
    timeout taxonomy).

    A thin engine client since the staged-engine refactor: the runner
    owns dispatch (chunking, pools, retries, checkpoints) and the
    :class:`~repro.engine.Engine` owns the dataflow.
    """
    engine = Engine(
        cfg.base_system,
        mode=cfg.mode,
        sample_size=cfg.sample_size,
        noise=cfg.noise,
        store=store,
    )
    return engine.run_matrix(
        MatrixPlan(labels=labels, systems=systems, metrics=cfg.metrics),
        timer=timer,
        deadline=deadline,
    )


def _run_chunk(
    cfg: StudyConfig,
    labels: tuple[str, ...],
    store_root: str | None,
    faults=None,
    attempt: int = 0,
):
    """Worker entry point: one application-row chunk across **all** systems.

    Row chunks keep each trace in the worker that prices it (a per-cell
    chunking would re-trace the same (application, cpus) row once per
    system).  Returns the chunk's records, observed times and per-stage
    timing breakdown for the parent to merge.

    ``faults`` (a :class:`~repro.util.faults.FaultPlan`) injects this
    attempt's scheduled chaos: a stall and/or crash before the compute
    (hard crashes ``os._exit`` the worker, breaking the pool) and
    corruption of store writes.
    """
    if faults is not None:
        faults.inject_chunk_faults(labels[0], attempt, in_worker=True)
    store = TraceStore(store_root, faults=faults) if store_root else None
    timer: dict[str, float] = {}
    records, observed = _run_submatrix(cfg, labels, cfg.systems, store, timer)
    return records, observed, timer


def _warm_worker(
    store_root: str | None,
    system_names: tuple[str, ...],
    universe_ref: str | None = None,
) -> None:
    """Pool initializer: mount the parent's universe, pre-warm probes.

    Probing is pure deterministic compute, so each fresh process used to
    redo it per chunk — the root cause of ``workers=4`` losing to serial.
    Warming once per worker makes every subsequent chunk's probe stage a
    dictionary lookup.  When the parent has a scenario universe mounted,
    its ref (a generator spec or TOML path — always resolvable from any
    process) is re-mounted here first so chunk ids resolve identically.
    """
    if universe_ref is not None:
        from repro.scenarios import mount_universe

        mount_universe(universe_ref)
    store = TraceStore(store_root) if store_root else None
    for name in system_names:
        probe_machine(get_machine(name), store=store)


#: Lazily-created persistent worker pool, keyed by (workers, store_root,
#: warmed system names).  Reused across ``run_study`` calls so repeated
#: studies (benches, notebooks) pay process spawn + warm-up once.
_POOL: ProcessPoolExecutor | None = None
_POOL_KEY: tuple | None = None


def _shutdown_pool() -> None:
    global _POOL, _POOL_KEY
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
        _POOL_KEY = None


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (idempotent).

    Callers that interrupt a study (the CLI's Ctrl-C handler, embedding
    applications shutting down) use this so worker processes never outlive
    the run that spawned them.
    """
    _shutdown_pool()


atexit.register(_shutdown_pool)


def _get_pool(workers: int, store_root: str | None, cfg: StudyConfig) -> ProcessPoolExecutor:
    """Return the persistent pool, (re)creating it when the key changes.

    A pool whose workers died (``BrokenProcessPool``) is detected here and
    transparently rebuilt: a broken pool used to poison ``_POOL`` for the
    rest of the session, failing every subsequent ``run_study`` call.
    """
    global _POOL, _POOL_KEY
    systems = tuple(dict.fromkeys((cfg.base_system,) + tuple(cfg.systems)))
    universe_ref = CATALOG.universe_ref
    key = (workers, store_root, systems, universe_ref)
    broken = _POOL is not None and getattr(_POOL, "_broken", False)
    if _POOL is None or _POOL_KEY != key or broken:
        _shutdown_pool()
        _POOL = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_warm_worker,
            initargs=(store_root, systems, universe_ref),
        )
        _POOL_KEY = key
    return _POOL


def _usable_cores() -> int:
    """CPU cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity (macOS)
        return os.cpu_count() or 1


def _matrix_cells(cfg: StudyConfig) -> int:
    """Number of non-blank (application, cpus, system) cells in the matrix."""
    sizes = {system: get_machine(system).cpus for system in cfg.systems}
    cells = 0
    for label in cfg.applications:
        app = get_application(label)
        for cpus in app.cpu_counts:
            cells += sum(1 for system in cfg.systems if cpus <= sizes[system])
    return cells


def _resolve_store(
    store: "TraceStore | str | os.PathLike | None",
) -> tuple[TraceStore | None, str | None]:
    """Normalise the ``store`` argument to (instance, root path)."""
    if store is None:
        return None, None
    if isinstance(store, TraceStore):
        return store, str(store.root)
    return TraceStore(store), str(store)


def run_study(
    config: StudyConfig | None = None,
    *,
    workers: int = 1,
    store: "TraceStore | str | os.PathLike | None" = None,
    min_parallel_cells: int | None = None,
    checkpoint: "str | os.PathLike | None" = None,
    faults=None,
    max_retries: int = 2,
    chunk_timeout: float | None = None,
    clock=None,
) -> StudyResult:
    """Run the complete study described by ``config`` (defaults: the paper's).

    Skips (system, cpus) cells where the processor count exceeds the
    installed system size, as the paper's blank appendix cells do.

    Parameters
    ----------
    config:
        Study parameters; the paper's full matrix when omitted.
    workers:
        Processes to fan the matrix out over.  Rows are chunked by
        application (each worker traces a row once and prices it against
        every system) and merged in canonical order; because every
        stochastic input is seed-stable, the result is byte-identical to a
        serial run.  Two crossover guards keep ``workers=N`` from ever
        being slower than serial: matrices under
        :data:`PARALLEL_MIN_CELLS` cells run serially (fan-out overhead
        would exceed the compute), and ``workers`` is capped at the
        process's usable core count (on a single-core host every pool is
        pure overhead, so the study degrades to serial).
    store:
        Optional persistent trace/probe cache — a
        :class:`~repro.tracing.store.TraceStore` or a directory path.
        Warm stores let repeated studies and worker processes skip
        re-tracing entirely.
    min_parallel_cells:
        Override the serial-fallback crossover (tests use ``0`` to force
        the pool path on small matrices; the override also bypasses the
        core-count cap so single-core CI still exercises the pool).
    checkpoint:
        Path of the study journal
        (:class:`~repro.study.resilience.StudyCheckpoint`) — an
        event-log directory of completed-chunk events; anything else at
        that path raises :class:`~repro.core.errors.CheckpointError`.  A
        study killed mid-run resumes from the last journaled chunk on
        the next call with the same path and config, and the resumed
        result is byte-identical to an uninterrupted run.  Delete the
        directory to force a full re-run.
    faults:
        Optional :class:`~repro.util.faults.FaultPlan` injecting
        deterministic chaos (worker crashes, chunk stalls, store
        corruption) — the harness that proves the retry/resume paths.
    max_retries:
        Retries per chunk before quarantine.  Retries back off
        exponentially with deterministic seeded jitter and re-dispatch to
        a rebuilt pool when the previous one broke.  Chunks that exhaust
        retries land in :attr:`StudyResult.failures` instead of aborting
        the study.
    chunk_timeout:
        Per-chunk deadline in seconds (default: none).  In parallel mode
        an overrunning chunk's wait is abandoned (the pool is rebuilt); in
        serial mode the deadline is checked after the chunk finishes.
        Timed-out chunks retry like crashes.
    clock:
        Optional :class:`~repro.util.clock.Clock` carrying retry backoff
        sleeps, serial chunk deadlines and fault-plan stalls — the
        simulation harness passes a virtual clock so a chaos study's
        minutes of injected waiting cost no wall time.  Only honoured on
        the serial path; pool workers always run on the system clock.
    """
    cfg = config or StudyConfig()
    store_obj, store_root = _resolve_store(store)
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries!r}")
    if chunk_timeout is not None and not chunk_timeout > 0:
        raise ValueError(f"chunk_timeout must be > 0 seconds, got {chunk_timeout!r}")
    if min_parallel_cells is None:
        floor = PARALLEL_MIN_CELLS
        workers = min(workers, _usable_cores())
    else:
        floor = min_parallel_cells
    parallel = workers > 1 and _matrix_cells(cfg) >= floor
    resilient = (
        checkpoint is not None or faults is not None or chunk_timeout is not None
    )
    if not parallel and not resilient:
        timer: dict[str, float] = {}
        records, observed = _run_submatrix(
            cfg, cfg.applications, cfg.systems, store_obj, timer
        )
        return StudyResult(
            config=cfg, records=records, observed=observed, stage_seconds=timer
        )
    try:
        return _run_resilient(
            cfg,
            store_obj,
            store_root,
            workers if parallel else 1,
            checkpoint,
            faults,
            max_retries,
            chunk_timeout,
            as_clock(clock),
        )
    except KeyboardInterrupt:
        # Never strand worker processes behind an interrupted study; the
        # checkpoint (when given) already journals every completed chunk.
        _shutdown_pool()
        raise


# ---------------------------------------------------------------------------
# resilient engine: chunked execution with checkpoint, retries, quarantine
# ---------------------------------------------------------------------------


def _run_resilient(
    cfg: StudyConfig,
    store_obj: TraceStore | None,
    store_root: str | None,
    workers: int,
    checkpoint: "str | os.PathLike | None",
    faults,
    retries: int,
    deadline: float | None,
    clock: Clock,
) -> StudyResult:
    """Chunk-at-a-time study execution with the full resilience stack.

    Chunk results are partition-invariant and seed-stable, so however many
    processes, retries or resumes a study needs, the surviving chunks are
    byte-identical to a clean serial run's.
    """
    if faults is not None and store_obj is not None:
        # Rebind the caller's store with the fault plan so serial-path
        # store writes are corruptible too (workers build their own).
        store_obj = TraceStore(store_obj.root, faults=faults)

    ckpt = None
    if checkpoint is not None:
        ckpt = StudyCheckpoint(os.fspath(checkpoint), config_digest(cfg))
    try:
        return _run_chunks(
            cfg, store_obj, store_root, workers, ckpt, faults, retries, deadline, clock
        )
    finally:
        if ckpt is not None:
            ckpt.close()  # every exit, the aborted and interrupted ones too


def _run_chunks(
    cfg: StudyConfig,
    store_obj: TraceStore | None,
    store_root: str | None,
    workers: int,
    ckpt: StudyCheckpoint | None,
    faults,
    retries: int,
    deadline: float | None,
    clock: Clock,
) -> StudyResult:
    """The retry rounds of :func:`_run_resilient`, resuming from ``ckpt``."""
    done: dict[str, tuple[list[PredictionRecord], dict, dict]] = {}
    if ckpt is not None:
        for label, entry in ckpt.load().items():
            if label not in cfg.applications:
                continue  # stale entry from a superset matrix: ignore
            done[label] = (
                [PredictionRecord(*row) for row in entry["records"]],
                {(a, s, c): v for a, s, c, v in entry["observed"]},
                dict(entry.get("stages", {})),
            )

    pending = {label: 0 for label in cfg.applications if label not in done}
    failures: list[CellFailure] = []
    completed_this_run = 0
    round_index = 0
    while pending:
        run_round = _pool_round if workers > 1 else _serial_round
        outcomes = run_round(
            cfg, pending, store_obj, store_root, faults, deadline, workers, clock
        )
        next_pending: dict[str, int] = {}
        for label, attempt in pending.items():
            outcome = outcomes[label]
            if not isinstance(outcome, BaseException):
                done[label] = outcome
                if ckpt is not None:
                    ckpt.record(label, *outcome)
                completed_this_run += 1
                if (
                    faults is not None
                    and faults.abort_after is not None
                    and completed_this_run >= faults.abort_after
                    and len(done) + len(failures) < len(cfg.applications)
                ):
                    _shutdown_pool()
                    raise StudyAbortedError(
                        f"fault injection: study aborted after "
                        f"{completed_this_run} chunk(s) this run"
                    )
                continue
            error, message = classify_failure(outcome)
            if attempt >= retries:
                failure = CellFailure(label, error, message, attempt + 1)
                failures.append(failure)
                if ckpt is not None:
                    ckpt.record_failure(failure)
            else:
                next_pending[label] = attempt + 1
        if next_pending:
            clock.sleep(
                backoff_seconds(round_index, cfg.base_system, *sorted(next_pending))
            )
        pending = next_pending
        round_index += 1

    records: list[PredictionRecord] = []
    observed: dict[tuple[str, str, int], float] = {}
    stage_seconds: dict[str, float] = {}
    for label in cfg.applications:
        if label not in done:
            continue
        chunk_records, chunk_observed, stages = done[label]
        records.extend(chunk_records)
        observed.update(chunk_observed)
        for stage, seconds in stages.items():
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
    order = {label: i for i, label in enumerate(cfg.applications)}
    failures.sort(key=lambda f: order[f.application])
    return StudyResult(
        config=cfg,
        records=records,
        observed=observed,
        failures=failures,
        stage_seconds=stage_seconds,
    )


def _serial_round(
    cfg: StudyConfig,
    attempts: dict[str, int],
    store_obj: TraceStore | None,
    store_root: str | None,
    faults,
    deadline: float | None,
    workers: int,
    clock: "Clock | None" = None,
) -> dict[str, object]:
    """Run one attempt of every pending chunk in-process.

    The deadline is *cooperative* here (a single-threaded chunk cannot be
    pre-empted): a per-chunk :class:`~repro.util.deadline.Deadline` is
    threaded through the probe and trace stages, whose mid-stage
    checkpoints abandon an overrunning chunk early; a chunk whose
    cache-hit fast paths never hit a checkpoint is still caught by the
    post-hoc elapsed check.  Either way the failure surfaces as
    :class:`ChunkTimeoutError` and takes the same retry path the pool
    engine uses.
    """
    clock = as_clock(clock)
    outcomes: dict[str, object] = {}
    for label, attempt in attempts.items():
        start = clock.monotonic()
        budget = Deadline(deadline, clock=clock) if deadline is not None else None
        try:
            if faults is not None:
                faults.inject_chunk_faults(label, attempt, in_worker=False, clock=clock)
            timer: dict[str, float] = {}
            if budget is not None:
                records, observed = _run_submatrix(
                    cfg, (label,), cfg.systems, store_obj, timer, deadline=budget
                )
            else:
                records, observed = _run_submatrix(
                    cfg, (label,), cfg.systems, store_obj, timer
                )
            elapsed = clock.monotonic() - start
            if deadline is not None and elapsed > deadline:
                raise ChunkTimeoutError(
                    f"chunk {label!r} took {elapsed:.3f}s "
                    f"(deadline {deadline:.3f}s)"
                )
            outcomes[label] = (records, observed, timer)
        except KeyboardInterrupt:
            raise
        except DeadlineExceededError as exc:
            # Keep the study's failure taxonomy: an in-chunk budget expiry
            # is this engine's chunk timeout.
            outcomes[label] = ChunkTimeoutError(
                f"chunk {label!r} abandoned mid-{exc.stage or 'chunk'}: {exc}"
            )
        except Exception as exc:
            outcomes[label] = exc
    return outcomes


def _pool_round(
    cfg: StudyConfig,
    attempts: dict[str, int],
    store_obj: TraceStore | None,
    store_root: str | None,
    faults,
    deadline: float | None,
    workers: int,
    clock: "Clock | None" = None,  # pool workers always run on real time
) -> dict[str, object]:
    """Run one attempt of every pending chunk on the worker pool.

    Failures never escape: each chunk's outcome is its result tuple or the
    exception that felled it (broken pool, missed deadline, raised error),
    and a broken/overrun pool is torn down so the next round re-dispatches
    to a freshly rebuilt one.
    """
    outcomes: dict[str, object] = {}
    futures = {}
    try:
        pool = _get_pool(workers, store_root, cfg)
        for label, attempt in attempts.items():
            futures[label] = pool.submit(
                _run_chunk, cfg, (label,), store_root, faults, attempt
            )
    except BrokenProcessPool:
        pass  # chunks left unsubmitted are marked crashed below
    must_rebuild = False
    for label in attempts:
        fut = futures.get(label)
        if fut is None:
            must_rebuild = True
            outcomes[label] = WorkerCrashError(
                f"worker pool broke before chunk {label!r} was dispatched"
            )
            continue
        try:
            outcomes[label] = fut.result(timeout=deadline)
        except FuturesTimeoutError:
            fut.cancel()
            must_rebuild = True  # a stalled worker may never free up: abandon
            outcomes[label] = ChunkTimeoutError(
                f"chunk {label!r} missed its {deadline:.3f}s deadline"
            )
        except (BrokenProcessPool, CancelledError) as exc:
            must_rebuild = True
            outcomes[label] = WorkerCrashError(
                f"worker running chunk {label!r} died: {exc or type(exc).__name__}"
            )
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            outcomes[label] = exc
    if must_rebuild:
        _shutdown_pool()
    return outcomes
