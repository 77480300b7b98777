"""The staged prediction engine: one owner of the canonical dataflow.

Every prediction in this codebase — a one-shot library call, a study
cell, an online query — is the same pipeline::

    probe ─┐
    execute ├─> trace ─> convolve ─> metric evaluate
           ─┘

:class:`Engine` owns that dataflow once.  Callers declare *what* with a
:class:`~repro.engine.plan.MatrixPlan` or
:class:`~repro.engine.plan.PointPlan` and *policy* with one stage hook,
``run_stage(stage, deadline, fn)``, which the engine calls for every
probe, execute, trace and convolve invocation (the serve layer's hook
gates, budgets and fault-injects each stage); the engine decides stage
order, threads the :class:`~repro.tracing.store.TraceStore` and deadline
into the backends, and evaluates metrics through the declarative
registry (:mod:`repro.core.registry`).  The former per-caller pipelines —
``core/predictor.py``'s one-shot loop, ``study/runner.py``'s 900-line
batch engine, ``serve/service.py``'s rung executor — are now thin
clients that build plans.

Byte-identity is a hard contract: :meth:`Engine.run_matrix` performs the
exact operation sequence the pre-engine study runner did (same probe
order, same shared :class:`~repro.core.convolver.RateTable` per row, same
signed-error operations), so studies, checkpoints and golden baselines
written before the refactor replay bit-for-bit.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from time import perf_counter

import numpy as np

from repro.apps.execution import executor_for
from repro.core.metrics import PredictionContext, predict_all, resolve_metrics
from repro.engine.plan import MatrixPlan, PointPlan, PredictionRecord, ProbeBundle
from repro.scenarios import BASE_SYSTEM, CATALOG, get_application, get_machine
from repro.probes.suite import probe_machine, probes_memoized
from repro.tracing.metasim import (
    _TRACE_CACHE,
    DEFAULT_SAMPLE_SIZE,
    trace_application,
    trace_memoized,
)
from repro.tracing.store import TraceStore
from repro.util.lru import BoundedLRU
from repro.util.options import Mode

__all__ = ["ENGINE_STAGES", "Engine", "clear_row_cache"]

#: Every stage name the engine hands its ``run_stage`` hook, in pipeline
#: order (``execute`` runs on the matrix path only).
ENGINE_STAGES = ("probe", "execute", "trace", "convolve")

#: Row-level convolve memo: predict_all output keyed by the *identities* of
#: its inputs.  On the warm study and point paths every input object
#: recurs — metrics are registry singletons, traces come from the tracer's
#: memo, probe bundles from the probe cache — so a repeat row or point
#: costs one lookup instead of a full rate-table rebuild.  Each entry
#: anchors strong references to the keyed objects, which keeps their ids
#: live for exactly as long as the entry exists (an id can only be
#: recycled after the object is garbage collected), so identity keys can
#: never alias.  The catalog version is part of the key: metric #0 scores
#: against every catalog machine, so a mount or unmount re-prices it.
#:
#: A matrix pricing is filed a second time under its row alone (trace,
#: base probes, base time, mode, catalog version: five fields, so never
#: equal to a seven-field exact key).  A point or ``run_row`` lookup that
#: misses its exact key reads its cells from that row's latest matrix
#: pricing, so a point request after a batch over its row costs a lookup.
_ROW_CACHE = BoundedLRU(4096)


def _predict_all_cached(
    metrics, trace, probes_row, base_probes, base_time, mode, *, matrix=False
):
    """:func:`predict_all` through the row memo, counting one hit or one
    miss per call.

    A ``matrix`` pricing reads only its exact key and files a miss's
    pricing under the row as well; any other lookup falls back to the
    row's matrix pricing before it convolves.
    """
    row = (id(trace), id(base_probes), base_time, mode, CATALOG.version)
    ids = (tuple(map(id, metrics)), tuple(map(id, probes_row)))
    key = ids + row
    hit = _ROW_CACHE.get(key, counted=False)
    rows = None if hit is None else hit[0]
    if rows is None and not matrix:
        rows = _slice_pricing(_ROW_CACHE.get(row, counted=False), metrics, *ids)
    _ROW_CACHE.tally(rows is not None)
    if rows is not None:
        return rows
    rows = predict_all(metrics, trace, probes_row, base_probes, base_time, mode)
    # The key's id tuples ride along for row reads; the objects behind
    # them anchor those ids.
    entry = (rows, *ids, tuple(metrics), tuple(probes_row), trace, base_probes)
    _ROW_CACHE.put(key, entry)
    if matrix:
        _ROW_CACHE.put(row, entry)
    return rows


def _slice_pricing(entry, metrics, metric_ids, probe_ids):
    """The ``metrics`` × targets cells of a memoised pricing, or None when
    there is none or it lacks one of those objects.

    Objects match by identity: ``metric_ids`` and ``probe_ids`` are the
    ids of the lookup's metrics and target probes, and the entry's own
    id tuples name objects it holds, so an equal id is the same object.
    Each value :func:`predict_all` returns depends only on its own
    metric and target, so a cell read from a wider pricing is
    bit-identical to pricing it alone.
    """
    if entry is None:
        return None
    rows, priced_metric_ids, priced_probe_ids = entry[:3]
    try:
        columns = [priced_probe_ids.index(i) for i in probe_ids]
    except ValueError:  # a target this pricing lacks
        return None
    if not all(i in priced_metric_ids for i in metric_ids):
        return None
    return {m.number: [rows[m.number][c] for c in columns] for m in metrics}


def clear_row_cache() -> None:
    """Drop the row-level convolve memo (bench/test hook)."""
    _ROW_CACHE.clear()


_new_record = partial(tuple.__new__, PredictionRecord)


def _call_stage(stage, deadline, fn):
    """The default stage hook: run the stage under the caller's deadline."""
    return fn(deadline)


def _emit_label(records, observed, label, systems, runs, priced, numbers):
    """Append one label's records in canonical (system, cpus, metric) order.

    ``runs[k]`` holds the executor results of ``systems[k]``, one per
    row eligible on it, in row order; ``priced[i]`` maps each system
    eligible for row ``i`` to its predictions in ``numbers`` order.
    Records are built column-wise: per cell only list operations run in
    Python, the Equation 2 error column is one float64 expression (the
    same IEEE operations in the same order as the scalar
    ``(predicted - actual) / actual * 100.0``, so bit-identical; the
    executors guarantee ``actual > 0``), and each record is a C-level
    tuple construction over the zipped columns.  The cpus and actual
    columns repeat the results' own objects through object arrays, so
    a record allocates only its tuple and its error float.
    """
    width = len(numbers)
    cell_cpus: list[int] = []
    cell_actuals: list[float] = []
    system_col: list[str] = []
    predicted: list[float] = []
    for system, results in zip(systems, runs):
        cells = [row[system] for row in priced if system in row]
        for res, predictions in zip(results, cells):
            observed[(label, system, res.cpus)] = res.total_seconds
            cell_cpus.append(res.cpus)
            cell_actuals.append(res.total_seconds)
            predicted.extend(predictions)
        system_col += [system] * (len(results) * width)
    actual = np.array(cell_actuals).repeat(width)
    error = (np.array(predicted) - actual) / actual * 100.0
    records.extend(
        map(
            _new_record,
            zip(
                repeat(label),
                np.array(cell_cpus, dtype=object).repeat(width).tolist(),
                system_col,
                numbers * len(cell_cpus),
                np.array(cell_actuals, dtype=object).repeat(width).tolist(),
                predicted,
                error.tolist(),
            ),
        )
    )


class Engine:
    """Run prediction plans through the staged pipeline.

    Parameters
    ----------
    base_system:
        The base (tracing + Equation 1 anchor) system X0.
    mode, sample_size, noise:
        Pipeline knobs; ``mode`` is coerced to its validated enum so an
        invalid value fails here, not mid-run.
    store:
        Optional persistent trace/probe cache the engine threads into
        every backend call (the *only* place that wiring now lives).
    run_stage:
        Hook called as ``run_stage(stage, deadline, fn)`` for every stage
        invocation; it returns what ``fn`` returns when called with the
        deadline the hook settles on (``None`` means unbudgeted).  By
        default it calls ``fn(deadline)``.
    """

    def __init__(
        self,
        base_system: str = BASE_SYSTEM,
        *,
        mode: str = "relative",
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        noise: bool = True,
        store: TraceStore | None = None,
        run_stage=None,
    ):
        self.base_machine = get_machine(base_system)
        self.mode = str(Mode.coerce(mode))
        self.sample_size = sample_size
        self.noise = noise
        self.store = store
        self.run_stage = run_stage if run_stage is not None else _call_stage
        self._base_executor = executor_for(self.base_machine, noise=noise)
        self._base_times: dict[tuple[str, int], float] = {}

    # ------------------------------------------------------------------
    # default backends (point plans may override probe/trace per plan)
    # ------------------------------------------------------------------
    def base_time(self, app, cpus: int) -> float:
        """Measured (simulated) base-system time ``T(X0, Y)``, cached."""
        key = (app.label, cpus)
        time = self._base_times.get(key)
        if time is None:
            time = self._base_executor.run(app, cpus).total_seconds
            self._base_times[key] = time
        return time

    def probe_bundle(self, app, cpus: int, target, deadline=None) -> ProbeBundle:
        """Default probe backend: target + base probes and the base time."""
        target_probes = probe_machine(target, store=self.store, deadline=deadline)
        base_probes = probe_machine(self.base_machine, store=self.store, deadline=deadline)
        if (app.label, cpus) not in self._base_times and deadline is not None:
            deadline.checkpoint("probe")
        return ProbeBundle(target_probes, base_probes, self.base_time(app, cpus))

    def trace(self, app, cpus: int, deadline=None):
        """Default trace backend: the base-system transfer function."""
        return trace_application(
            app,
            cpus,
            self.base_machine,
            self.sample_size,
            store=self.store,
            deadline=deadline,
        )

    @staticmethod
    def cache_counters() -> dict:
        """Counters of the process-wide trace memo and row memo.

        The ``trace_cache`` and ``convolve_cache`` entries of the serve
        layer's ``/healthz`` body.
        """
        return {
            "trace_cache": _TRACE_CACHE.counters(),
            "convolve_cache": _ROW_CACHE.counters(),
        }

    # ------------------------------------------------------------------
    # point plans: one (application, cpus, machine, metric) query
    # ------------------------------------------------------------------
    def run_point(self, plan: PointPlan, deadline=None) -> float:
        """Predict one query, running only the stages the metric needs.

        The metric's registry-declared ``needs`` tuple drives the stage
        list: probe-only metrics (simple ratios, the balanced rating) are
        evaluated straight from the probe bundle — the tracer and
        convolver are never entered, which is what lets the serve layer
        keep answering from the probe cache when the convolver is down.
        The convolve goes through the row memo, so a repeated query, or
        one whose row a matrix already priced for this metric and
        target, costs a lookup.
        """
        target_probes, base_probes, base_time = self._probe_stage(plan, deadline)
        metric = plan.metric
        if "trace" not in metric.needs:
            return metric.predict(
                PredictionContext(
                    trace=None,
                    target_probes=target_probes,
                    base_probes=base_probes,
                    base_time=base_time,
                    mode=self.mode,
                )
            )
        trace = self._trace_stage(plan, deadline)

        def convolve(d):
            if d is not None:
                d.checkpoint("convolve")
            return _predict_all_cached(
                (metric,), trace, (target_probes,), base_probes, base_time, self.mode
            )[metric.number][0]

        return self.run_stage("convolve", deadline, convolve)

    def point_memoized(self, app, cpus: int, target, metric) -> bool:
        """Whether :meth:`run_point` for this query finds its inputs in
        memory: the base time, both machines' probes and, for a metric
        that needs one, the trace.  At most the convolve is left (a
        fraction of a millisecond); a miss may probe, trace or read the
        store.  Only ``metric.needs`` is read, so its registry spec
        serves as well as the metric."""
        return (
            (app.label, cpus) in self._base_times
            and probes_memoized(target)
            and probes_memoized(self.base_machine)
            and (
                "trace" not in metric.needs
                or trace_memoized(app, cpus, self.base_machine, self.sample_size)
            )
        )

    def run_row(self, plan: PointPlan, metrics, deadline=None) -> dict[int, float]:
        """All given metrics for one query, sharing probe/trace/rate work.

        The canonical many-metrics path (:func:`~repro.core.metrics.predict_all`
        shares one rate table across every predictive metric), read from
        the row memo like :meth:`run_point`'s;
        ``PerformancePredictor.predict_row`` delegates here.
        """
        metric_objs = resolve_metrics(metrics)
        target_probes, base_probes, base_time = self._probe_stage(plan, deadline)
        trace = None
        if any("trace" in m.needs for m in metric_objs):
            trace = self._trace_stage(plan, deadline)

        def convolve(d):
            if d is not None:
                d.checkpoint("convolve")
            return _predict_all_cached(
                metric_objs, trace, (target_probes,), base_probes, base_time, self.mode
            )

        rows = self.run_stage("convolve", deadline, convolve)
        return {number: values[0] for number, values in rows.items()}

    def _probe_stage(self, plan: PointPlan, deadline):
        probe = plan.probe
        if probe is None:
            probe = lambda d: self.probe_bundle(plan.app, plan.cpus, plan.target, d)
        return self.run_stage("probe", deadline, probe)

    def _trace_stage(self, plan: PointPlan, deadline):
        return self.run_stage(
            "trace", deadline, lambda d: self.trace(plan.app, plan.cpus, d)
        )

    # ------------------------------------------------------------------
    # matrix plans: the offline study block
    # ------------------------------------------------------------------
    def run_matrix(
        self, plan: MatrixPlan, *, timer: dict[str, float] | None = None, deadline=None
    ) -> tuple[list[PredictionRecord], dict[tuple[str, str, int], float]]:
        """Compute the (labels × systems) block of a study matrix.

        Each (application, cpus) row is traced once and priced against
        all eligible systems for **all** metrics in one shot
        (:func:`~repro.core.metrics.predict_all` shares the row's rate
        tensors across metrics); each label's records are emitted
        column-wise right after its rows are priced, in the canonical
        (application, system, cpus, metric) order.  Per-system
        results are independent, so any partition of the matrix produces
        the same records cell-for-cell — that partition-invariance is
        what makes the study runner's chunked fan-out and checkpoint
        resume byte-identical to a serial run.

        ``deadline`` makes the block cooperative: probe and trace calls
        checkpoint mid-stage and abandon the matrix with
        :class:`~repro.core.errors.DeadlineExceededError` once the budget
        is spent.

        ``timer``, when given, accumulates each stage's wall-clock seconds
        under its name (probe, execute, trace, convolve), the stage hook,
        memo hits and store loads included.
        """
        run_stage = self.run_stage
        if timer is not None:
            hook = run_stage

            def run_stage(stage, deadline, fn):
                start = perf_counter()
                try:
                    return hook(stage, deadline, fn)
                finally:
                    timer[stage] = timer.get(stage, 0.0) + perf_counter() - start

        base_machine = self.base_machine
        labels, systems = plan.labels, plan.systems

        def probe_all(d):
            base_probes = probe_machine(base_machine, store=self.store, deadline=d)
            machines = {system: get_machine(system) for system in systems}
            probes = {
                system: probe_machine(machine, store=self.store, deadline=d)
                for system, machine in machines.items()
            }
            return base_probes, machines, probes

        base_probes, machines, probes = run_stage("probe", deadline, probe_all)
        # Shared per-machine executors: their app-tensor and run_many memos
        # survive across every matrix this process runs.
        base_executor = executor_for(base_machine, noise=self.noise)
        executors = {
            system: executor_for(machine, noise=self.noise)
            for system, machine in machines.items()
        }
        metrics = resolve_metrics(plan.metrics)
        numbers = [metric.number for metric in metrics]

        records: list[PredictionRecord] = []
        observed: dict[tuple[str, str, int], float] = {}
        for label in labels:
            app = get_application(label)
            eligible_rows = [
                (cpus, [s for s in systems if cpus <= machines[s].cpus])
                for cpus in plan.cpus_for(label, app.cpu_counts)
            ]
            # Paper leaves cells blank where no system is large enough.
            eligible_rows = [
                (cpus, eligible) for cpus, eligible in eligible_rows if eligible
            ]
            if not eligible_rows:
                continue

            def execute(d, app=app, eligible_rows=eligible_rows):
                # One batched executor pass per system covers the whole
                # appendix-table column for this application.
                runs = [
                    executors[system].run_many(
                        app,
                        [c for c, eligible in eligible_rows if system in eligible],
                        detail=False,
                    )
                    for system in systems
                ]
                base_times = {
                    res.cpus: res.total_seconds
                    for res in base_executor.run_many(
                        app, [cpus for cpus, _ in eligible_rows], detail=False
                    )
                }
                return runs, base_times

            runs, base_times = run_stage("execute", deadline, execute)
            # The batched totals are bit-identical to base_time's scalar
            # run, so a later point request on these rows reads them.
            for cpus, time in base_times.items():
                self._base_times.setdefault((app.label, cpus), time)
            priced = []
            for cpus, eligible in eligible_rows:
                base_time = base_times[cpus]
                trace = run_stage(
                    "trace",
                    deadline,
                    lambda d, app=app, cpus=cpus: self.trace(app, cpus, d),
                )
                probes_row = [probes[system] for system in eligible]
                rows = run_stage(
                    "convolve",
                    deadline,
                    lambda d, trace=trace, probes_row=probes_row, base_time=base_time: (
                        _predict_all_cached(
                            metrics,
                            trace,
                            probes_row,
                            base_probes,
                            base_time,
                            self.mode,
                            matrix=True,
                        )
                    ),
                )
                per_metric = [rows[number] for number in numbers]
                # Each eligible system's predictions in plan metric order;
                # a plan without metrics still keys every eligible system.
                priced.append(
                    dict(zip(eligible, zip(*per_metric) if per_metric else repeat(())))
                )
            _emit_label(records, observed, label, systems, runs, priced, numbers)
        return records, observed
