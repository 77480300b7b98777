"""The staged engine and its middleware chain.

The scalar/row/matrix entry points must agree with each other (they share
one dataflow), and each middleware must enforce its single concern in
isolation — the serve chaos suite covers the composed chain end to end.
"""

import dataclasses

import pytest

from repro.apps.suite import get_application
from repro.core.errors import DeadlineExceededError, WorkerCrashError
from repro.core.metrics import get_metric, predict_all
from repro.core.registry import REGISTRY
from repro.engine import core as engine_core
from repro.engine import (
    BreakerMiddleware,
    BudgetMiddleware,
    DeadlineGate,
    Engine,
    FaultMiddleware,
    MatrixPlan,
    PointPlan,
    ProbeBundle,
    StageRunner,
)
from repro.engine.core import clear_row_cache
from repro.machines.registry import get_machine
from repro import scenarios
from repro.scenarios import mount_universe, unmount_universe
from repro.util.deadline import Deadline
from repro.util.faults import FaultPlan


# ---------------------------------------------------------------------------
# StageRunner composition
# ---------------------------------------------------------------------------


class Recorder:
    def __init__(self, name, log):
        self.name = name
        self.log = log

    def __call__(self, stage, deadline, call_next):
        self.log.append(f"enter:{self.name}")
        out = call_next(deadline)
        self.log.append(f"exit:{self.name}")
        return out


def test_stage_runner_composes_outermost_first():
    log = []
    runner = StageRunner((Recorder("a", log), Recorder("b", log)))
    result = runner.run("probe", None, lambda d: "value")
    assert result == "value"
    assert log == ["enter:a", "enter:b", "exit:b", "exit:a"]


def test_stage_runner_call_next_reruns_the_rest_of_the_chain():
    log = []

    def retry_once(stage, deadline, call_next):
        try:
            return call_next(deadline)
        except RuntimeError:
            log.append("retry")
            return call_next(deadline)

    attempts = []

    def flaky(d):
        attempts.append(d)
        if len(attempts) == 1:
            raise RuntimeError("first attempt fails")
        return "value"

    runner = StageRunner((retry_once, Recorder("inner", log)))
    assert runner.run("probe", None, flaky) == "value"
    assert log == ["enter:inner", "retry", "enter:inner", "exit:inner"]
    assert len(attempts) == 2


def test_stage_runner_replacement_deadline_reaches_stage():
    marker = object()

    def swapper(stage, deadline, call_next):
        return call_next(marker)

    seen = []
    StageRunner((swapper,)).run("probe", None, lambda d: seen.append(d))
    assert seen == [marker]


# ---------------------------------------------------------------------------
# middleware in isolation
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class FakeBreaker:
    def __init__(self):
        self.events = []

    def allow(self):
        self.events.append("allow")

    def record_failure(self):
        self.events.append("failure")

    def record_success(self):
        self.events.append("success")


def test_breaker_middleware_records_outcomes():
    breaker = FakeBreaker()
    mw = BreakerMiddleware({"probe": breaker})
    assert mw("probe", None, lambda d: 42) == 42
    with pytest.raises(RuntimeError):
        mw("probe", None, lambda d: (_ for _ in ()).throw(RuntimeError("x")))
    assert breaker.events == ["allow", "success", "allow", "failure"]


def test_deadline_gate_skips_spent_request_before_breaker():
    clock = FakeClock()
    deadline = Deadline(1.0, clock=clock, stage="request")
    clock.now = 2.0  # budget gone before the stage starts
    breaker = FakeBreaker()
    chain = StageRunner((DeadlineGate(), BreakerMiddleware({"probe": breaker})))
    with pytest.raises(DeadlineExceededError):
        chain.run("probe", deadline, lambda d: "never")
    assert breaker.events == []  # a late request must not poison the breaker


def test_budget_middleware_converts_overrun_to_stage_failure():
    clock = FakeClock()
    deadline = Deadline(1.0, clock=clock, stage="request")
    mw = BudgetMiddleware(0.5)

    def stall(sub):
        clock.now += 0.9  # outruns the 0.5 s slice, not the 1 s request
        return "late"

    with pytest.raises(DeadlineExceededError):
        mw("trace", deadline, stall)
    assert deadline.remaining() > 0  # the request survives to try a cheaper rung


def test_budget_middleware_shares_live_timeout_mapping():
    caps = {}
    clock = FakeClock()
    mw = BudgetMiddleware(1.0, caps)
    seen = []
    mw("trace", Deadline(100.0, clock=clock), lambda sub: seen.append(sub.remaining()))
    caps["trace"] = 0.25  # re-tuned after construction
    mw("trace", Deadline(100.0, clock=clock), lambda sub: seen.append(sub.remaining()))
    assert seen[0] == pytest.approx(100.0)
    assert seen[1] == pytest.approx(0.25)


def test_budget_middleware_passes_none_through():
    mw = BudgetMiddleware(0.5, {"trace": 0.1})
    assert mw("trace", None, lambda d: d) is None


def test_fault_middleware_injects_per_stage_call():
    plan = FaultPlan(crash_rate=1.0, seed=1)
    mw = FaultMiddleware(lambda: plan, ("trace",), sleep=lambda s: None)
    with pytest.raises(WorkerCrashError, match="service stage 'trace'"):
        mw("trace", None, lambda d: "x")
    assert mw("probe", None, lambda d: "x") == "x"  # untargeted stage unharmed


def test_fault_middleware_reads_live_plan():
    plans = {"current": FaultPlan(crash_rate=1.0, seed=1)}
    mw = FaultMiddleware(lambda: plans["current"], ("probe",), sleep=lambda s: None)
    with pytest.raises(WorkerCrashError):
        mw("probe", None, lambda d: "x")
    plans["current"] = None  # chaos switched off mid-test
    assert mw("probe", None, lambda d: "x") == "x"


# ---------------------------------------------------------------------------
# Engine entry points agree
# ---------------------------------------------------------------------------


APP = "AVUS-standard"
TARGET = "ARL_Opteron"
CPUS = 32


@pytest.fixture(scope="module")
def engine():
    return Engine(mode="relative", noise=False)


def test_run_point_matches_run_row(engine):
    app = get_application(APP)
    target = get_machine(TARGET)
    row = engine.run_row(
        PointPlan(app=app, cpus=CPUS, target=target, metric=get_metric(9)),
        (1, 5, 9, "balanced"),
    )
    assert set(row) == {1, 5, 9, 0}
    for number, value in row.items():
        point = engine.run_point(
            PointPlan(app=app, cpus=CPUS, target=target, metric=get_metric(number))
        )
        assert point == value  # bit-identical, not approx


def test_probe_only_metric_skips_tracing(engine, monkeypatch):
    monkeypatch.setattr(
        type(engine), "trace",
        lambda self, *a, **k: pytest.fail("simple metric must not trace"),
    )
    app = get_application(APP)
    target = get_machine(TARGET)
    for metric in (1, "balanced"):
        plan = PointPlan(app=app, cpus=CPUS, target=target, metric=get_metric(metric))
        assert engine.run_point(plan) > 0


def test_point_plan_probe_override_is_used(engine):
    app = get_application(APP)
    target = get_machine(TARGET)
    base_plan = PointPlan(app=app, cpus=CPUS, target=target, metric=get_metric(1))
    bundle = engine.probe_bundle(app, CPUS, target)
    doubled = bundle._replace(base_time=bundle.base_time * 2)
    override = PointPlan(
        app=app, cpus=CPUS, target=target, metric=get_metric(1),
        probe=lambda d: doubled,
    )
    assert engine.run_point(override) == engine.run_point(base_plan) * 2


def test_matrix_plan_coerces_sequences():
    plan = MatrixPlan(labels=[APP], systems=[TARGET], metrics=[1, 9])
    assert plan.labels == (APP,)
    assert plan.metrics == (1, 9)


def test_matrix_plan_rejects_a_repeated_row():
    # A repeated row would emit each of its cells twice.
    with pytest.raises(ValueError, match=r"duplicate row \('AVUS-standard', 32\)"):
        MatrixPlan(
            labels=("AVUS-standard",),
            systems=("ARL_Xeon", "NAVO_655"),
            metrics=(1, 9),
            rows=(("AVUS-standard", 32),) * 2,
        )
    # Equal after coercion counts too.
    with pytest.raises(ValueError, match="duplicate row"):
        MatrixPlan(
            labels=("AVUS-standard",),
            systems=("ARL_Xeon",),
            metrics=(9,),
            rows=(("AVUS-standard", 32), ("AVUS-standard", "32")),
        )


@pytest.mark.parametrize(
    "axis, fields",
    [
        ("label", dict(labels=("AVUS-standard",) * 2)),
        ("system", dict(systems=("ARL_Xeon", "NAVO_655", "ARL_Xeon"))),
        ("metric", dict(metrics=(9, 9))),
        ("metric", dict(metrics=(9, "9"))),  # one metric, by number and key
    ],
)
def test_matrix_plan_rejects_a_repeated_axis_entry(axis, fields):
    # A repeated label, system or metric would emit its cells twice.
    plan = dict(labels=("AVUS-standard",), systems=("ARL_Xeon",), metrics=(9,))
    with pytest.raises(ValueError, match=f"duplicate {axis} .* in MatrixPlan.{axis}s"):
        MatrixPlan(**{**plan, **fields})


def test_engine_validates_knobs():
    with pytest.raises(ValueError, match="mode"):
        Engine(mode="sideways")
    with pytest.raises(ValueError, match="cache_model"):
        Engine(cache_model="psychic")


# ---------------------------------------------------------------------------
# the row memo: a point reads its cell from the row a matrix priced
# ---------------------------------------------------------------------------


@pytest.fixture()
def counted_predict_all(monkeypatch):
    """The engine's ``predict_all``, wrapped to count its calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return predict_all(*args, **kwargs)

    monkeypatch.setattr(engine_core, "predict_all", counting)
    return calls


def point(engine, label, cpus, system, metric):
    return engine.run_point(
        PointPlan(
            app=scenarios.get_application(label),
            cpus=cpus,
            target=scenarios.get_machine(system),
            metric=get_metric(metric),
        )
    )


def test_points_after_a_matrix_read_its_rows_without_convolving(monkeypatch):
    universe = mount_universe("mixed:3:60")
    try:
        clear_row_cache()
        engine = Engine()
        records, _ = engine.run_matrix(
            MatrixPlan(
                labels=tuple(app.label for app in universe.applications),
                systems=tuple(machine.name for machine in universe.machines),
                metrics=REGISTRY.numbers(),
            )
        )
        assert records

        def no_convolve(*args, **kwargs):
            raise AssertionError("a point on a matrix-priced row convolved")

        monkeypatch.setattr(engine_core, "predict_all", no_convolve)
        for record in records:
            value = point(engine, record.application, record.cpus, record.system, record.metric)
            assert value.hex() == record.predicted_seconds.hex()
    finally:
        unmount_universe()


@pytest.mark.parametrize("system, metric", [("NAVO_655", 9), ("ARL_Xeon", 5)])
def test_a_point_outside_the_matrix_is_priced_once(counted_predict_all, system, metric):
    engine = Engine(noise=False)
    engine.run_matrix(
        MatrixPlan(labels=(APP,), systems=("ARL_Xeon",), metrics=(1, 9), rows=((APP, CPUS),))
    )
    del counted_predict_all[:]
    value = point(engine, APP, CPUS, system, metric)
    assert len(counted_predict_all) == 1
    clear_row_cache()
    assert value == point(Engine(noise=False), APP, CPUS, system, metric)


def test_no_point_reads_a_row_priced_before_a_mount_or_unmount(counted_predict_all):
    engine = Engine(noise=False)
    engine.run_matrix(
        MatrixPlan(labels=(APP,), systems=(TARGET,), metrics=(9,), rows=((APP, CPUS),))
    )
    priced = point(engine, APP, CPUS, TARGET, 9)
    for change in (lambda: mount_universe("mixed:3:60"), unmount_universe):
        change()
        del counted_predict_all[:]
        assert point(engine, APP, CPUS, TARGET, 9) == priced
        assert len(counted_predict_all) == 1


def test_a_row_read_matches_targets_by_identity_not_equality(counted_predict_all):
    # A probe bundle equal to the one a matrix priced, but not the same
    # object, is priced afresh: the row memo keys on identities, and an
    # equal object may carry different values under the same fields.
    engine = Engine(noise=False)
    engine.run_matrix(
        MatrixPlan(labels=(APP,), systems=(TARGET,), metrics=(9,), rows=((APP, CPUS),))
    )
    app, target = scenarios.get_application(APP), scenarios.get_machine(TARGET)
    bundle = engine.probe_bundle(app, CPUS, target)
    twin = dataclasses.replace(bundle.target_probes)
    assert twin == bundle.target_probes and twin is not bundle.target_probes
    del counted_predict_all[:]
    plan = PointPlan(
        app=app,
        cpus=CPUS,
        target=target,
        metric=get_metric(9),
        probe=lambda d: ProbeBundle(twin, bundle.base_probes, bundle.base_time),
    )
    assert engine.run_point(plan) == point(engine, APP, CPUS, TARGET, 9)
    assert len(counted_predict_all) == 1
