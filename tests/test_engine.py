"""The staged engine and its stage hook.

The scalar/row/matrix entry points must agree with each other (they share
one dataflow), the ``run_stage`` hook must see every stage a plan runs,
and the service's stage policy, installed as that hook, must record
breaker outcomes and inject faults per stage call — the serve tests
cover its deadline and budget rules.
"""

import dataclasses

import pytest

from repro.apps.execution import GroundTruthExecutor
from repro.apps.suite import get_application
from repro.core.errors import WorkerCrashError
from repro.core.metrics import get_metric, predict_all
from repro.core.registry import REGISTRY
from repro.engine import core as engine_core
from repro.engine import Engine, MatrixPlan, PointPlan, ProbeBundle
from repro.engine.core import clear_row_cache
from repro.machines.registry import get_machine
from repro import scenarios
from repro.scenarios import mount_universe, unmount_universe
from repro.serve.service import PredictionService
from repro.util.faults import FaultPlan


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


def test_run_stage_hook_sees_every_stage_a_plan_runs():
    seen = []

    def record(stage, deadline, fn):
        seen.append(stage)
        return fn(deadline)

    engine = Engine(mode="relative", noise=False, run_stage=record)
    app = get_application(APP)
    target = get_machine(TARGET)
    for metric, stages in ((9, ["probe", "trace", "convolve"]), (1, ["probe"])):
        del seen[:]
        engine.run_point(
            PointPlan(app=app, cpus=CPUS, target=target, metric=get_metric(metric))
        )
        assert seen == stages
    del seen[:]
    timer = {}
    engine.run_matrix(
        MatrixPlan(labels=(APP,), systems=(TARGET,), metrics=(1, 9)), timer=timer
    )
    stages = ["probe", "execute", "trace", "convolve"]
    assert list(dict.fromkeys(seen)) == stages
    # The timer books every hooked stage, in first-run order.
    assert list(timer) == stages


# ---------------------------------------------------------------------------
# The service's stage policy as the engine's hook
# ---------------------------------------------------------------------------


class RecordingBreaker:
    """Stands in for one stage's breaker and records the calls it gets."""

    def __init__(self):
        self.events = []

    def allow(self):
        self.events.append("allow")

    def record_failure(self):
        self.events.append("failure")

    def record_success(self):
        self.events.append("success")


def policy_engine(record=None, **kw):
    """An engine whose stage hook is a service's ``run_stage``, as the
    service wires its own; ``record`` names a stage whose breaker is
    swapped for a :class:`RecordingBreaker`."""
    svc = PredictionService(noise=False, sleep=lambda s: None, **kw)
    breaker = None
    if record is not None:
        breaker = svc.breakers.breakers[record] = RecordingBreaker()
    engine = Engine(mode="relative", noise=False, run_stage=svc.run_stage)
    return svc, engine, breaker


def query(metric, **kw):
    return PointPlan(
        app=get_application(APP), cpus=CPUS, target=get_machine(TARGET),
        metric=get_metric(metric), **kw,
    )


def test_breaker_middleware_records_outcomes():
    _svc, engine, breaker = policy_engine(record="probe")
    assert engine.run_point(query(1)) > 0

    def broken(d):
        raise RuntimeError("probe backend down")

    with pytest.raises(RuntimeError, match="probe backend down"):
        engine.run_point(query(1, probe=broken))
    assert breaker.events == ["allow", "success", "allow", "failure"]


def test_fault_middleware_injects_per_stage_call():
    _svc, engine, _ = policy_engine(
        faults=FaultPlan(crash_rate=1.0, seed=1), fault_stages=("trace",)
    )
    assert engine.run_point(query(1)) > 0  # probe-only: untargeted stage unharmed
    with pytest.raises(WorkerCrashError, match="service stage 'trace'"):
        engine.run_point(query(9))


def test_fault_middleware_reads_live_plan():
    svc, engine, breaker = policy_engine(
        record="probe",
        faults=FaultPlan(crash_rate=1.0, seed=1),
        fault_stages=("probe",),
    )
    with pytest.raises(WorkerCrashError, match="service stage 'probe'"):
        engine.run_point(query(1))
    svc.faults = None  # chaos switched off mid-test
    assert engine.run_point(query(1)) > 0
    # The injected crash was the stage's recorded failure.
    assert breaker.events == ["allow", "failure", "allow", "success"]


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


def test_a_cells_records_share_its_results_objects(monkeypatch):
    # A record allocates only its tuple and its error float: every
    # metric's record of a cell holds the executor result's own actual
    # time and processor count (384 is past CPython's small-int cache).
    results = {}
    run_many = GroundTruthExecutor.run_many

    def recording(self, app, cpus_list, **kwargs):
        out = run_many(self, app, cpus_list, **kwargs)
        for res in out:
            results[(res.application, res.machine, res.cpus)] = res
        return out

    monkeypatch.setattr(GroundTruthExecutor, "run_many", recording)
    records, _ = Engine(noise=False).run_matrix(
        MatrixPlan(labels=("AVUS-large", APP), systems=("NAVO_655", TARGET), metrics=(1, 5, 9))
    )
    assert len(records) == 3 * 2 * 6
    for record in records:
        res = results[(record.application, record.system, record.cpus)]
        assert record.actual_seconds is res.total_seconds
        assert record.cpus is res.cpus


def test_engine_validates_knobs():
    with pytest.raises(ValueError, match="mode"):
        Engine(mode="sideways")


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
