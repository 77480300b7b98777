"""The resilient online prediction service.

:class:`PredictionService` answers one question — "how long will
application Y at N processors take on machine X, by metric K?" — through
the same staged engine the offline study uses
(:class:`~repro.engine.Engine`), but engineered to keep answering when
parts of that pipeline misbehave.  The service itself owns only the
*serving* concerns — validation, the degradation ladder loop, health
surfaces; each rung executes as an engine
:class:`~repro.engine.PointPlan` whose every stage runs through one
service method, :meth:`PredictionService.run_stage`, the per-stage
policy written once:

* every request runs under a per-request
  :class:`~repro.util.deadline.Deadline`; a stage is skipped before
  touching any backend once the budget is spent;
* each backend stage is gated by a
  :class:`~repro.serve.breaker.CircuitBreaker`; a failing stage trips
  open and is *not called at all* until its cooldown elapses;
* a stage gets a bounded slice of the remaining budget, so one stall
  cannot eat the whole request;
* chaos is first-class: the constructor takes the same
  :class:`~repro.util.faults.FaultPlan` the study engine uses, keyed per
  (stage, call number), plus injectable ``clock``/``sleep`` for
  fake-clock chaos tests.

On an open breaker, a stage failure or deadline pressure, the request
falls down the registry-derived degradation ladder
(:mod:`repro.serve.degrade`) and the response is stamped
``served_metric``/``degraded=True`` — a marked coarser answer instead of
an error.  Overload is not the service's concern: the front end's
worker handle bounds each worker's pending requests, and the worker
sheds a queued request whose deadline ran out while it waited for a
pool thread (:mod:`repro.serve.fleet`), so the service runs every
request it is handed.  Metrics resolve through the registry, so
requests may name them (``metric=balanced``) as well as number them.
"""

from __future__ import annotations

import logging
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

from repro.core.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ServiceUnavailableError,
    UnknownIdError,
    WorkerCrashError,
)
from repro.core.metrics import get_metric
from repro.util.options import Mode
from repro.core.registry import REGISTRY
from repro.engine import ENGINE_STAGES, Engine, MatrixPlan, PointPlan
from repro.events.log import EventLog
from repro.events.types import BreakerTripped, PredictionEmitted
from repro.scenarios import BASE_SYSTEM, CATALOG, get_application, get_machine
from repro.serve.breaker import BreakerBoard
from repro.serve.degrade import RungAttempt, ladder_for, stages_for
from repro.tracing.metasim import DEFAULT_SAMPLE_SIZE
from repro.tracing.store import TraceStore
from repro.util.clock import Clock, as_clock
from repro.util.deadline import Deadline
from repro.util.validation import check_int, nearest_ids

__all__ = [
    "PredictionService",
    "ServedPrediction",
    "STAGES",
    "catalog_doc",
    "validate_query",
]

#: Backend stages in pipeline order; each gets its own circuit breaker.
STAGES = ("probe", "trace", "convolve")

#: Default per-request budget, seconds.
DEFAULT_DEADLINE_SECONDS = 1.0

#: Share of the *remaining* request budget a single stage may consume.
#: Reserving the rest is what lets a request that lost a stage to a stall
#: still serve a cheaper rung inside its deadline.
DEFAULT_STAGE_FRACTION = 0.5


def catalog_doc() -> dict:
    """The ``GET /catalog`` body (the front end answers it itself).

    Everything a client may name in a request: application labels,
    machine names and metric numbers, plus the mounted universe (if any)
    so callers can discover generated ids without guessing.
    """
    from repro.core.registry import REGISTRY

    universe = CATALOG.universe
    return {
        "applications": list(CATALOG.application_ids()),
        "machines": list(CATALOG.machine_ids()),
        "metrics": list(REGISTRY.numbers()),
        "base_system": BASE_SYSTEM,
        "universe": None
        if universe is None
        else {
            "ref": universe.ref,
            "digest": universe.digest(),
            "machines": len(universe.machines),
            "applications": len(universe.applications),
        },
    }


def validate_query(
    application: str, cpus: "int | str", machine: str, metric: "int | str"
) -> tuple[object, object, int, int]:
    """Resolve and validate one query's identifiers.

    Module-level so the front end can reject malformed traffic
    *before* a worker round-trip with exactly the errors the service
    raises: unknown ids raise
    :class:`~repro.core.errors.UnknownIdError` carrying the known set and
    nearest matches (the HTTP 400 body); structural problems (a cpus
    that is not an integer or an integer string, an oversized run)
    raise :class:`ValueError`.  Mirrors ``StudyConfig``'s
    name-the-bad-key convention.  ``metric`` may be a registry number
    (``9``), a numeric string (``"9"``) or a registry name
    (``"balanced"``, ``"conv+maps"``) — the registry's nearest-match
    suggestions cover misspelled names too.
    """
    label = str(application)
    try:
        app = get_application(label)
    except UnknownIdError:  # unknown base label: catalog carries known + nearest
        raise
    except KeyError as exc:  # bad @replica suffix on a known base label
        raise ValueError(exc.args[0] if exc.args else str(exc)) from None
    target = get_machine(machine)
    metric_num = REGISTRY.spec(metric).number
    cpus_num = check_int("cpus", cpus)
    if cpus_num <= 0:
        raise ValueError(f"cpus must be > 0, got {cpus!r}")
    if cpus_num > target.cpus:
        raise ValueError(
            f"cpus={cpus_num} exceeds the {target.cpus} processors of "
            f"system {machine!r} (the paper leaves such cells blank)"
        )
    return app, target, cpus_num, metric_num


@dataclass(frozen=True)
class ServedPrediction:
    """One answered prediction query.

    ``degraded`` is never silent: it is True exactly when
    ``served_metric != requested_metric``, so callers can cache coarse
    answers differently or re-query once ``/readyz`` reports recovery.
    """

    application: str
    cpus: int
    machine: str
    requested_metric: int
    served_metric: int
    metric_label: str
    predicted_seconds: float
    degraded: bool
    latency_seconds: float
    attempts: tuple[RungAttempt, ...] = ()

    def to_dict(self) -> dict:
        """JSON-shaped view (the HTTP layer's response body)."""
        return {
            "application": self.application,
            "cpus": self.cpus,
            "machine": self.machine,
            "requested_metric": self.requested_metric,
            "served_metric": self.served_metric,
            "metric_label": self.metric_label,
            "predicted_seconds": self.predicted_seconds,
            "degraded": self.degraded,
            "latency_ms": round(self.latency_seconds * 1000.0, 3),
            "attempts": [
                {
                    "metric": a.metric,
                    "stage": a.stage,
                    "error": a.error,
                    "message": a.message,
                }
                for a in self.attempts
            ],
        }


class PredictionService:
    """Thread-safe online prediction front end over the staged engine.

    Parameters
    ----------
    base_system:
        System traces and Equation-1 ratios anchor to (the study's X0).
    mode, sample_size, noise:
        Pipeline knobs, identical in meaning to
        :class:`~repro.study.runner.StudyConfig`; ``mode`` is validated
        through the shared enum.
    store:
        Optional persistent :class:`~repro.tracing.store.TraceStore` (or
        directory path) shared by all request threads; its invalidation
        counter is surfaced on ``/healthz``.
    default_deadline:
        Per-request budget (seconds) when the request does not name one.
    stage_fraction:
        Share of the remaining request budget one stage may spend
        (see :data:`DEFAULT_STAGE_FRACTION`).
    stage_timeouts:
        Optional absolute per-stage caps in seconds, each finite and
        > 0, e.g. ``{"convolve": 0.1}`` — the effective stage budget is
        the smaller of cap and fraction.
    breakers:
        Injectable breaker board (built with defaults on the service's
        clock when omitted).
    events:
        Optional :class:`~repro.events.log.EventLog` (or a log-directory
        path) the service appends its serving events to —
        ``prediction-emitted`` per answered query, ``breaker-tripped``
        per breaker opening; ``GET /events/stats`` rebuilds its views
        from the log directory.  A path builds a log with writer id
        ``"serve"``.  When a store is built here (from a path) it shares
        this log; an injected ``TraceStore`` keeps its own ``events``
        wiring.
    faults:
        Optional :class:`~repro.util.faults.FaultPlan`; stalls/crashes are
        injected per (stage, call-number) with the plan's seeded draws.
    fault_stages:
        Stages the plan applies to (chaos tests target one stage), each
        one the engine runs: probe, execute, trace or convolve.
    clock, sleep:
        Time source — a :class:`~repro.util.clock.Clock` (or legacy bare
        monotonic callable) driving deadlines, breakers and fault
        stalls; ``sleep`` defaults to the clock's own sleeper, so
        a single :class:`~repro.util.clock.VirtualClock` puts the whole
        service on simulated time.
    """

    def __init__(
        self,
        *,
        base_system: str = BASE_SYSTEM,
        mode: str = "relative",
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        noise: bool = True,
        store: "TraceStore | str | os.PathLike | None" = None,
        default_deadline: float = DEFAULT_DEADLINE_SECONDS,
        stage_fraction: float = DEFAULT_STAGE_FRACTION,
        stage_timeouts: dict[str, float] | None = None,
        breakers: BreakerBoard | None = None,
        events: "EventLog | str | os.PathLike | None" = None,
        faults=None,
        fault_stages: tuple[str, ...] = STAGES,
        clock: "Clock | Callable[[], float] | None" = None,
        sleep: "Callable[[float], None] | None" = None,
    ):
        mode = str(Mode.coerce(mode))
        if not CATALOG.has_machine(base_system):
            known = CATALOG.machine_ids()
            raise UnknownIdError(
                "system", base_system, known, nearest_ids(base_system, known)
            )
        if not default_deadline > 0:  # NaN fails too
            raise ValueError(
                f"default_deadline must be > 0 seconds, got {default_deadline!r}"
            )
        if not 0.0 < stage_fraction <= 1.0:
            raise ValueError(
                f"stage_fraction must be in (0, 1], got {stage_fraction!r}"
            )
        unknown = set(stage_timeouts or ()) - set(STAGES)
        if unknown:
            raise ValueError(
                f"unknown stage_timeouts keys {sorted(unknown)}; stages: {STAGES}"
            )
        for stage, cap in (stage_timeouts or {}).items():
            if not (isinstance(cap, (int, float)) and 0 < cap < math.inf):
                raise ValueError(
                    f"stage_timeouts[{stage!r}] must be a finite number > 0 "
                    f"seconds, got {cap!r}"
                )
        # A misspelt stage would inject nothing: a chaos run that tests
        # nothing, and passes.
        unknown = set(fault_stages) - set(ENGINE_STAGES)
        if unknown:
            raise ValueError(
                f"unknown fault_stages {sorted(unknown)}; stages: {ENGINE_STAGES}"
            )
        self.base_system = base_system
        self.mode = mode
        self.sample_size = sample_size
        self.noise = noise
        self.default_deadline = default_deadline
        self.stage_fraction = stage_fraction
        self.stage_timeouts = dict(stage_timeouts or {})
        clock = as_clock(clock)
        self._clock = clock.monotonic
        self._sleep = sleep if sleep is not None else clock.sleep
        if isinstance(events, EventLog) or events is None:
            self.events = events
        else:
            self.events = EventLog(events, writer="serve", fsync="commit")
        if isinstance(store, TraceStore) or store is None:
            self.store = store
        else:
            self.store = TraceStore(store, events=self.events)
        self.breakers = breakers if breakers is not None else BreakerBoard(STAGES, clock=clock)
        if self.events is not None:
            # The board's single trip choke point appends each trip.
            self.breakers.set_listener(self._on_breaker_trip)
        self.faults = faults
        self.fault_stages = tuple(fault_stages)

        # The rung executor: the engine owns the probe → trace → convolve
        # dataflow and calls run_stage, the service's entire per-stage
        # policy, around every stage.
        self._engine = Engine(
            base_system,
            mode=mode,
            sample_size=sample_size,
            noise=noise,
            store=self.store,
            run_stage=self.run_stage,
        )
        self._state_lock = threading.Lock()
        #: Stage calls the fault plan has seen, per stage (under the lock).
        self._fault_calls: dict[str, int] = {}
        self.requests_total = 0
        self.degraded_total = 0
        self.unserved_total = 0
        #: Requests the fleet worker shed because their deadline ran out
        #: while they waited for a pool thread (``fleet._remaining_budget``).
        self.shed_total = 0
        self._started_at = self._clock()

    # ------------------------------------------------------------------
    # validation (the service boundary: structured errors, never tracebacks)
    # ------------------------------------------------------------------
    def validate_request(
        self, application: str, cpus: int, machine: str, metric: "int | str"
    ) -> tuple[object, object, int, int]:
        """Resolve and validate one query's identifiers (see
        :func:`validate_query`)."""
        return validate_query(application, cpus, machine, metric)

    def is_quick(
        self, application: str, cpus: int, machine: str, metric: "int | str" = 9
    ) -> bool:
        """Whether :meth:`predict` of this query cannot take long.

        True when every input it reads is in memory (see
        :meth:`~repro.engine.Engine.point_memoized`) and no fault plan can
        stall a stage, and for an invalid query, whose error is raised
        at once.  A fleet worker answers a quick query on the thread that
        read it and queues any other on its pool.
        """
        faults = self.faults
        if faults is not None and faults.stall_rate > 0:
            return False
        try:
            app, target, cpus, requested = validate_query(
                application, cpus, machine, metric
            )
        except (KeyError, TypeError, ValueError):  # predict raises it at once
            return True
        return self._engine.point_memoized(app, cpus, target, REGISTRY.spec(requested))

    # ------------------------------------------------------------------
    # the stage policy
    # ------------------------------------------------------------------
    def run_stage(self, stage: str, deadline, fn):
        """Run one engine stage under the service's policy: ``fn(sub)``.

        The engine's stage hook.  The statement order is the policy, and
        it keeps two invariants the chaos tests pin:

        * a request whose budget is already spent is rejected *before*
          the breaker is touched, so a late request never poisons a
          healthy backend's failure window;
        * the stage's budget slice, the injected fault and the slice's
          post-call checkpoint all run *inside* the breaker's ``try``, so
          a stalled backend is recorded as that stage's failure while the
          request still has budget to serve a cheaper rung.

        ``self.faults``, ``self.stage_timeouts`` and ``self._sleep`` are
        read on every call, so re-tuning the live service (chaos tests
        switch the fault plan off mid-test) applies to the next stage.
        A ``None`` deadline (an unbudgeted batch) reaches ``fn`` as
        ``None``.  An open breaker raises
        :class:`~repro.core.errors.CircuitOpenError` without calling
        ``fn``, and is not a recorded failure.
        """
        if deadline is not None:
            deadline.checkpoint(stage)
        breaker = self.breakers[stage]
        breaker.allow()
        try:
            sub = deadline
            if deadline is not None:
                budget = deadline.remaining() * self.stage_fraction
                cap = self.stage_timeouts.get(stage)
                if cap is not None:
                    budget = min(budget, cap)
                sub = deadline.sub(budget, stage=stage)
            plan = self.faults
            if plan is not None and stage in self.fault_stages:
                # Keyed per (stage, call number), so a seeded plan
                # misbehaves in the same places on every run.
                with self._state_lock:
                    call = self._fault_calls.get(stage, 0) + 1
                    self._fault_calls[stage] = call
                label = f"serve:{stage}"
                if plan.should_stall(label, call):
                    self._sleep(plan.stall_seconds)
                if plan.should_crash(label, call):
                    raise WorkerCrashError(
                        f"injected crash in service stage {stage!r} (call {call})"
                    )
            out = fn(sub)
            if sub is not None:
                sub.checkpoint(stage)
        except Exception:
            breaker.record_failure()
            raise
        breaker.record_success()
        return out

    # ------------------------------------------------------------------
    # the request path
    # ------------------------------------------------------------------
    def predict(
        self,
        application: str,
        cpus: int,
        machine: str,
        metric: "int | str" = 9,
        *,
        deadline_seconds: float | None = None,
    ) -> ServedPrediction:
        """Answer one query inside its deadline, degrading as needed.

        Raises
        ------
        UnknownIdError, ValueError
            Invalid request (HTTP 400) — checked before any backend runs.
        ServiceUnavailableError
            Every ladder rung failed (HTTP 503) — only possible when even
            the probe-cache rungs are failing.
        """
        app, target, cpus, requested = self.validate_request(
            application, cpus, machine, metric
        )
        budget = self.default_deadline if deadline_seconds is None else deadline_seconds
        if not budget > 0:  # NaN fails too
            raise ValueError(f"deadline must be > 0 seconds, got {budget!r}")
        deadline = Deadline(budget, clock=self._clock, stage="request")
        start = self._clock()
        with self._state_lock:
            self.requests_total += 1
        attempts: list[RungAttempt] = []
        retry_hints: list[float] = []
        for rung in ladder_for(requested):
            stages = stages_for(rung)
            open_stage = next(
                (s for s in stages if self.breakers[s].state == "open"), None
            )
            if open_stage is not None:
                # Skip without touching any backend: an open breaker means
                # no calls, including the rung's earlier healthy stages.
                hint = self.breakers[open_stage].retry_after()
                retry_hints.append(hint)
                attempts.append(
                    RungAttempt(
                        rung,
                        open_stage,
                        "CircuitOpenError",
                        f"breaker {open_stage!r} open (retry in {hint:.3f}s)",
                    )
                )
                continue
            metric = get_metric(rung)
            plan = PointPlan(app=app, cpus=cpus, target=target, metric=metric)
            try:
                predicted = self._engine.run_point(plan, deadline)
            except CircuitOpenError as exc:
                if exc.retry_after is not None:
                    retry_hints.append(exc.retry_after)
                attempts.append(
                    RungAttempt(rung, exc.stage, type(exc).__name__, str(exc))
                )
            except DeadlineExceededError as exc:
                attempts.append(
                    RungAttempt(rung, exc.stage, type(exc).__name__, str(exc))
                )
            except Exception as exc:  # backend failure: recorded, laddered past
                attempts.append(
                    RungAttempt(rung, None, type(exc).__name__, str(exc))
                )
            else:
                degraded = rung != requested
                if degraded:
                    with self._state_lock:
                        self.degraded_total += 1
                self._emit_event(
                    PredictionEmitted(
                        application=app.label,
                        cpus=cpus,
                        machine=target.name,
                        metric=metric.label,
                        predicted_seconds=float(predicted),
                        degraded=degraded,
                    )
                )
                return ServedPrediction(
                    application=app.label,
                    cpus=cpus,
                    machine=target.name,
                    requested_metric=requested,
                    served_metric=rung,
                    metric_label=metric.label,
                    predicted_seconds=float(predicted),
                    degraded=degraded,
                    latency_seconds=self._clock() - start,
                    attempts=tuple(attempts),
                )
        with self._state_lock:
            self.unserved_total += 1
        detail = "; ".join(f"#{a.metric}: {a.error}" for a in attempts)
        raise ServiceUnavailableError(
            f"no ladder rung could serve the request ({detail})",
            retry_after=min(retry_hints) if retry_hints else None,
        )

    # ------------------------------------------------------------------
    # the batch path: whole sub-matrices through the tensorized engine
    # ------------------------------------------------------------------
    def predict_cells(
        self,
        rows,
        systems,
        metrics,
        *,
        deadline_seconds: float | None = None,
    ) -> list:
        """Price explicit ``(application, cpus)`` rows against ``systems``
        for ``metrics`` — one engine matrix run, not N point lookups.

        This is the worker half of ``POST /predict/batch``: the front end
        compiles a heterogeneous cell list into per-shard row sets and
        each worker rides :meth:`~repro.engine.Engine.run_matrix` — the
        same tensorized path the offline study uses, sharing one rate
        table per row across every metric and machine — under the
        service's own stage policy (:meth:`run_stage`: deadline gate,
        breakers, budget, faults).  Returns :class:`~repro.engine.PredictionRecord` rows in
        the canonical (application, system, cpus, metric) order;
        identical rows and axes therefore reproduce study records
        bit-for-bit.  A repeated row, system or metric counts once, at
        its first appearance.
        """
        # Insertion-ordered dicts: first appearance fixes emission order.
        resolved: dict[str, str] = {}  # request label -> catalog label
        seen_rows: dict[tuple[str, int], None] = {}
        for label, cpus in rows:
            label = str(label)
            if label not in resolved:
                try:
                    resolved[label] = get_application(label).label
                except UnknownIdError:  # unknown base label
                    raise
                except KeyError as exc:  # bad @replica suffix on a known base
                    raise ValueError(exc.args[0] if exc.args else str(exc)) from None
            cpus_num = check_int("cpus", cpus)
            if cpus_num <= 0:
                raise ValueError(f"cpus must be > 0, got {cpus!r}")
            # cells whose cpus exceed a given system are skipped per
            # system inside the engine (the paper's blank cells), so no
            # machine-size check belongs here.
            seen_rows[(resolved[label], cpus_num)] = None
        labels = dict.fromkeys(label for label, _ in seen_rows)
        systems = dict.fromkeys(systems)
        for system in systems:
            if not CATALOG.has_machine(system):
                known = CATALOG.machine_ids()
                raise UnknownIdError(
                    "machine", system, known, nearest_ids(system, known)
                )
        metric_numbers = dict.fromkeys(REGISTRY.spec(key).number for key in metrics)
        if not seen_rows or not systems or not metric_numbers:
            return []
        plan = MatrixPlan(
            labels=tuple(labels),
            systems=tuple(systems),
            metrics=tuple(metric_numbers),
            rows=tuple(seen_rows),
        )
        deadline = None
        if deadline_seconds is not None:
            if not deadline_seconds > 0:  # NaN fails too
                raise ValueError(
                    f"deadline must be > 0 seconds, got {deadline_seconds!r}"
                )
            deadline = Deadline(deadline_seconds, clock=self._clock, stage="batch")
        with self._state_lock:
            self.requests_total += 1
        records, _observed = self._engine.run_matrix(plan, deadline=deadline)
        return records

    # ------------------------------------------------------------------
    # serving events
    # ------------------------------------------------------------------
    def _emit_event(self, event) -> None:
        """Append one serving event; audit trouble never fails a request."""
        if self.events is None:
            return
        try:
            self.events.append(event)
        except (OSError, ValueError) as exc:
            logging.getLogger(__name__).warning(
                "could not append %s event: %s", type(event).kind, exc
            )

    def _on_breaker_trip(self, stage: str, failures: int, cooldown: float) -> None:
        self._emit_event(
            BreakerTripped(stage=stage, failures=failures, cooldown_seconds=cooldown)
        )

    def drain(self) -> None:
        """Commit and close the event log.

        The SIGTERM graceful-drain path and the last call a service gets:
        made after the HTTP server has stopped accepting and finished
        in-flight requests.  Store entries need nothing here: each save
        wrote its entry before it returned.
        """
        if self.events is not None:
            self.events.close()

    # ------------------------------------------------------------------
    # health surfaces
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness + diagnostics: the ``/healthz`` body (always served)."""
        with self._state_lock:
            requests = {
                "total": self.requests_total,
                "degraded": self.degraded_total,
                "unserved": self.unserved_total,
            }
            shed_total = self.shed_total
        return {
            "status": "degraded" if self.breakers.any_open() else "ok",
            "uptime_seconds": round(self._clock() - self._started_at, 6),
            "breakers": self.breakers.snapshot(),
            "admission": {"shed_total": shed_total},
            "store": {
                "enabled": self.store is not None,
                "invalidated": self.store.invalidated if self.store is not None else 0,
            },
            # trace_cache, convolve_cache: process-wide, shared by every service.
            **self._engine.cache_counters(),
            "events": {
                "enabled": self.events is not None,
                "last_seq": self.events.last_seq if self.events is not None else 0,
            },
            "requests": requests,
        }

    def ready(self) -> tuple[bool, dict]:
        """Readiness: False while any breaker is open.

        Load balancers drain a not-ready instance; the body names the
        open breakers.  Shedding is the front end's to report: its
        worker handle holds the pending bound.
        """
        open_stages = [
            stage for stage, b in self.breakers.breakers.items() if b.state == "open"
        ]
        ok = not open_stages
        return ok, {"ready": ok, "open_breakers": open_stages}
