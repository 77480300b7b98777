"""Tests for the resilient prediction service: validation, degradation,
deadlines, chaos, and recovery — all on an injectable clock, no sleeps."""

import json
from pathlib import Path

import pytest

from repro.core.errors import (
    DeadlineExceededError,
    ServiceUnavailableError,
    UnknownIdError,
    WorkerCrashError,
)
from repro.core.metrics import ALL_METRICS
from repro.core.registry import REGISTRY
from repro.core.predictor import PerformancePredictor
from repro.engine.core import ENGINE_STAGES, clear_row_cache
from repro.serve.breaker import BreakerBoard
from repro.serve.degrade import ladder_for, stages_for
from repro.serve.service import PredictionService
from repro.tracing import metasim
from repro.tracing.metasim import clear_trace_cache
from repro.util.deadline import Deadline
from repro.util.faults import FaultPlan

GOLDEN = Path(__file__).parent / "golden" / "study_records.json"


class FakeClock:
    """Monotonic clock + sleeper pair for deterministic chaos tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_service(clock=None, **kw):
    """A noise-free service; pass a FakeClock for chaos scenarios."""
    defaults = dict(noise=False)
    if clock is not None:
        defaults.update(clock=clock, sleep=clock.sleep)
        defaults.setdefault(
            "breakers",
            BreakerBoard(clock=clock, failure_threshold=1, cooldown_seconds=5.0),
        )
    defaults.update(kw)
    return PredictionService(**defaults)


# ----------------------------------------------------------------------
# degradation ladder shape
# ----------------------------------------------------------------------
def test_ladder_descends_from_requested():
    assert ladder_for(9) == (9, 7, 5, 3, 1)
    assert ladder_for(8) == (8, 7, 5, 3, 1)
    assert ladder_for(3) == (3, 1)
    assert ladder_for(1) == (1,)
    with pytest.raises(KeyError):
        ladder_for(10)


def test_stages_split_simple_vs_predictive():
    for metric in ALL_METRICS:
        stages = stages_for(metric)
        if metric <= 3:
            assert stages == ("probe",)
        else:
            assert stages == ("probe", "trace", "convolve")
    assert set(REGISTRY.ladder()) <= set(ALL_METRICS)


# ----------------------------------------------------------------------
# validation (the 400 surface)
# ----------------------------------------------------------------------
def test_unknown_application_names_nearest():
    svc = make_service()
    with pytest.raises(UnknownIdError) as exc_info:
        svc.predict("AVUS-standrad", 64, "ARL_Xeon")
    err = exc_info.value
    assert err.kind == "application"
    assert "AVUS-standard" in err.nearest
    assert "AVUS-standard" in str(err)


def test_unknown_machine_and_metric():
    svc = make_service()
    with pytest.raises(UnknownIdError) as exc_info:
        svc.predict("AVUS-standard", 64, "ARL_Xeno")
    assert exc_info.value.kind == "machine"
    assert "ARL_Xeon" in exc_info.value.nearest
    with pytest.raises(UnknownIdError) as exc_info:
        svc.predict("AVUS-standard", 64, "ARL_Xeon", 12)
    assert exc_info.value.kind == "metric"
    with pytest.raises(UnknownIdError):
        svc.predict("AVUS-standard", 64, "ARL_Xeon", "lots")


def test_structural_errors_are_value_errors():
    svc = make_service()
    with pytest.raises(ValueError, match="cpus must be > 0"):
        svc.predict("AVUS-standard", 0, "ARL_Xeon")
    with pytest.raises(ValueError, match="exceeds"):
        svc.predict("AVUS-standard", 100000, "ARL_Xeon")
    with pytest.raises(ValueError, match="replica"):
        svc.predict("AVUS-standard@x", 64, "ARL_Xeon")
    with pytest.raises(ValueError, match="deadline"):
        svc.predict("AVUS-standard", 64, "ARL_Xeon", deadline_seconds=0.0)
    with pytest.raises(ValueError, match="deadline"):
        svc.predict("AVUS-standard", 64, "ARL_Xeon", deadline_seconds=float("nan"))
    with pytest.raises(ValueError, match="deadline"):
        svc.predict_cells(
            [("AVUS-standard", 64)], ["ARL_Xeon"], [9], deadline_seconds=float("nan")
        )


@pytest.mark.parametrize("cpus", [32.9, 32.0, True])
def test_cpus_must_name_an_integer(cpus):
    # A float or a bool names no cell: truncating it would answer for
    # one the client did not ask for.
    svc = make_service()
    with pytest.raises(ValueError, match=f"cpus must be an integer, got {cpus!r}"):
        svc.predict("AVUS-standard", cpus, "ARL_Xeon", 9)
    with pytest.raises(ValueError, match="cpus must be an integer"):
        svc.predict_cells([("AVUS-standard", cpus)], ["ARL_Xeon"], [9])


def test_cpus_may_be_an_integer_string():
    svc = make_service()
    for cpus in (32, "32"):
        assert svc.predict("AVUS-standard", cpus, "ARL_Xeon", 9).cpus == 32
        (record,) = svc.predict_cells([("AVUS-standard", cpus)], ["ARL_Xeon"], [9])
        assert record.cpus == 32


# ----------------------------------------------------------------------
# healthy serving
# ----------------------------------------------------------------------
def test_serves_requested_metric_when_healthy():
    svc = make_service()
    for metric in (1, 3, 5, 9):
        served = svc.predict("AVUS-standard", 64, "ARL_Xeon", metric)
        assert served.served_metric == metric
        assert not served.degraded
        assert served.predicted_seconds > 0
        assert served.attempts == ()
    assert svc.health()["requests"]["degraded"] == 0


def test_predictions_match_offline_pipeline():
    """The service answers with the same numbers the study computes."""
    svc = make_service()
    served = svc.predict("AVUS-standard", 64, "ARL_Xeon", 9)
    offline = PerformancePredictor(noise=False).predict_row(
        "AVUS-standard", "ARL_Xeon", 64
    )
    assert served.predicted_seconds == pytest.approx(offline[9], rel=1e-12)


def test_replica_labels_serve():
    svc = make_service()
    served = svc.predict("AVUS-standard@2", 64, "ARL_Xeon", 5)
    assert served.application == "AVUS-standard@2"
    assert served.served_metric == 5


# ----------------------------------------------------------------------
# chaos: the acceptance scenario
# ----------------------------------------------------------------------
def chaos_service(clock, **kw):
    """Service whose convolve stage always stalls past its 0.1s slice."""
    plan = FaultPlan(seed=7, stall_rate=1.0, stall_seconds=0.5)
    return make_service(
        clock,
        faults=plan,
        fault_stages=("convolve",),
        default_deadline=2.0,
        stage_timeouts={"convolve": 0.1},
        **kw,
    )


def test_stalled_convolve_degrades_within_deadline():
    clock = FakeClock()
    svc = chaos_service(clock)
    served = svc.predict("AVUS-standard", 64, "ARL_Xeon", 9)
    # Answered inside the deadline with a laddered, marked metric.
    assert served.latency_seconds < 2.0
    assert served.degraded
    assert served.served_metric < served.requested_metric
    assert served.served_metric in (3, 1)  # simple rungs skip convolve
    # The first rung lost its stage slice to the stall; with threshold 1
    # the breaker opened, so later convolve rungs were skipped unentered.
    assert served.attempts[0].error == "DeadlineExceededError"
    assert served.attempts[0].stage == "convolve"
    assert [a.error for a in served.attempts[1:]] == ["CircuitOpenError"] * (
        len(served.attempts) - 1
    )
    assert svc.breakers["convolve"].state == "open"


def test_open_breaker_fails_fast_without_stall():
    clock = FakeClock()
    svc = chaos_service(clock)
    svc.predict("AVUS-standard", 64, "ARL_Xeon", 9)  # trips the breaker
    before = clock.now
    served = svc.predict("AVUS-standard", 64, "ARL_Xeon", 9)
    # No stage was entered: the fake clock did not move at all.
    assert clock.now == before
    assert served.degraded and served.latency_seconds == 0.0


def test_recovers_within_one_half_open_window():
    clock = FakeClock()
    svc = chaos_service(clock)
    svc.predict("AVUS-standard", 64, "ARL_Xeon", 9)
    assert svc.breakers["convolve"].state == "open"
    svc.faults = None  # the outage ends
    clock.advance(5.0)  # exactly one cooldown: open -> half-open
    served = svc.predict("AVUS-standard", 64, "ARL_Xeon", 9)
    # The half-open probe succeeded: full fidelity restored immediately.
    assert not served.degraded
    assert served.served_metric == 9
    assert svc.breakers["convolve"].state == "closed"
    assert svc.health()["status"] == "ok"


def test_chaos_run_is_deterministic():
    results = []
    for _ in range(2):
        clock = FakeClock()
        svc = chaos_service(clock)
        served = [
            svc.predict("AVUS-standard", 64, "ARL_Xeon", 9).to_dict()
            for _ in range(4)
        ]
        results.append(served)
    assert results[0] == results[1]


def test_crashing_probe_exhausts_ladder():
    clock = FakeClock()
    plan = FaultPlan(seed=3, crash_rate=1.0)
    svc = make_service(
        clock,
        faults=plan,
        fault_stages=("probe",),
        breakers=BreakerBoard(
            clock=clock, failure_threshold=100, cooldown_seconds=5.0
        ),
    )
    with pytest.raises(ServiceUnavailableError) as exc_info:
        svc.predict("AVUS-standard", 64, "ARL_Xeon", 9)
    assert "WorkerCrashError" in str(exc_info.value)
    assert svc.health()["requests"]["unserved"] == 1


def test_all_rungs_skipped_when_probe_breaker_open():
    clock = FakeClock()
    svc = make_service(clock)
    svc.breakers["probe"].record_failure()  # threshold 1: open
    with pytest.raises(ServiceUnavailableError) as exc_info:
        svc.predict("AVUS-standard", 64, "ARL_Xeon", 9)
    assert exc_info.value.retry_after == pytest.approx(5.0)


# ----------------------------------------------------------------------
# deadline pressure without faults
# ----------------------------------------------------------------------
def test_tiny_budget_serves_from_warm_caches_on_fake_clock():
    """Cache hits cost zero fake-clock time, so any unspent budget serves."""
    clock = FakeClock()
    svc = make_service(clock)
    svc.predict("AVUS-standard", 64, "ARL_Xeon", 9)  # warm probe/trace caches
    served = svc.predict(
        "AVUS-standard", 64, "ARL_Xeon", 9, deadline_seconds=1e-9
    )
    assert served.served_metric == 9


def test_spent_budget_rejects_without_poisoning_breakers():
    """A request that outlives its own deadline gets 503, and the healthy
    backends absorb no breaker failures for it."""
    clock = FakeClock()
    svc = make_service(clock)
    svc.predict("AVUS-standard", 64, "ARL_Xeon", 9)

    real_probe = svc._engine.probe_bundle

    def slow_probe(app, cpus, target, d):
        clock.advance(1.0)  # the whole request budget, inside the stage
        return real_probe(app, cpus, target, d)

    svc._engine.probe_bundle = slow_probe
    with pytest.raises(ServiceUnavailableError):
        svc.predict(
            "AVUS-standard", 64, "ARL_Xeon", 9, deadline_seconds=0.5
        )
    # One genuine overrun failed the probe stage once (threshold is 1 in
    # make_service, so it opened); the later rungs were budget-starved and
    # must not have recorded further failures or calls.
    assert svc.breakers["probe"].snapshot()["times_opened"] == 1
    assert svc.breakers["trace"].state == "closed"
    assert svc.breakers["convolve"].state == "closed"


# ----------------------------------------------------------------------
# the stage policy: PredictionService.run_stage, the engine's stage hook
# ----------------------------------------------------------------------
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


def recording_service(clock, stage, **kw):
    """A service on ``clock`` whose ``stage`` breaker is a recorder."""
    svc = make_service(clock, **kw)
    breaker = svc.breakers.breakers[stage] = RecordingBreaker()
    return svc, breaker


def test_stage_policy_rejects_a_spent_request_before_the_breaker():
    clock = FakeClock()
    svc, breaker = recording_service(clock, "probe")
    deadline = Deadline(1.0, clock=clock, stage="request")
    clock.advance(2.0)  # budget gone before the stage starts
    with pytest.raises(DeadlineExceededError):
        svc.run_stage("probe", deadline, lambda d: pytest.fail("stage ran"))
    assert breaker.events == []  # a late request must not poison the breaker


def test_stage_policy_records_a_slice_overrun_as_a_breaker_failure():
    clock = FakeClock()
    svc, breaker = recording_service(clock, "trace", stage_fraction=0.5)
    deadline = Deadline(1.0, clock=clock, stage="request")

    def stall(sub):
        clock.advance(0.9)  # outruns the 0.5 s slice, not the 1 s request
        return "late"

    with pytest.raises(DeadlineExceededError):
        svc.run_stage("trace", deadline, stall)
    assert breaker.events == ["allow", "failure"]
    assert deadline.remaining() > 0  # the request survives to try a cheaper rung


def test_stage_policy_reads_stage_timeouts_live():
    clock = FakeClock()
    svc = make_service(clock, stage_fraction=1.0)
    seen = []

    def call():
        deadline = Deadline(100.0, clock=clock)
        svc.run_stage("trace", deadline, lambda sub: seen.append(sub.remaining()))

    call()
    svc.stage_timeouts["trace"] = 0.25  # re-tuned after construction
    call()
    svc.stage_timeouts = {"trace": 0.5}  # or replaced outright
    call()
    assert seen == [pytest.approx(100.0), pytest.approx(0.25), pytest.approx(0.5)]


def test_stage_policy_passes_an_unbudgeted_stage_none():
    clock = FakeClock()
    svc, breaker = recording_service(clock, "trace", stage_timeouts={"trace": 0.1})
    assert svc.run_stage("trace", None, lambda d: d) is None
    assert breaker.events == ["allow", "success"]


# ----------------------------------------------------------------------
# health surfaces
# ----------------------------------------------------------------------
def test_health_and_ready_reflect_breakers():
    clock = FakeClock()
    svc = make_service(clock)
    # Readiness is the breakers alone: shedding is the front end's gate.
    assert svc.ready() == (True, {"ready": True, "open_breakers": []})
    assert svc.health()["status"] == "ok"
    assert svc.health()["admission"] == {"shed_total": 0}
    svc.breakers["trace"].record_failure()
    ok, body = svc.ready()
    assert not ok
    assert body["open_breakers"] == ["trace"]
    health = svc.health()
    assert health["status"] == "degraded"
    assert health["breakers"]["trace"]["state"] == "open"
    assert health["store"] == {"enabled": False, "invalidated": 0}


def test_health_reports_store_invalidations(tmp_path):
    svc = make_service(store=str(tmp_path))
    svc.predict("AVUS-standard", 64, "ARL_Xeon", 9)
    health = svc.health()
    assert health["store"]["enabled"]
    assert health["store"]["invalidated"] == 0


def test_a_batch_leaves_its_rows_quick_for_point_requests():
    # predict_cells prices every row's base time on the way: a point
    # request on any of its rows is then answerable from memory, and the
    # point answer is the batch record's, bit for bit.
    from repro.scenarios import mount_universe, unmount_universe

    universe = mount_universe("mixed:3:60")
    try:
        svc = make_service()
        rows = [(app.label, cpus) for app in universe.applications
                for cpus in app.cpu_counts]
        records = svc.predict_cells(rows, [m.name for m in universe.machines], [9])
        first_per_row: dict = {}
        for record in records:
            first_per_row.setdefault((record.application, record.cpus), record)
        assert len(first_per_row) == len(rows)
        for (application, cpus), record in first_per_row.items():
            assert svc.is_quick(application, cpus, record.system, 9)
            served = svc.predict(application, cpus, record.system, 9)
            assert served.predicted_seconds.hex() == record.predicted_seconds.hex()
    finally:
        unmount_universe()


def test_point_requests_after_a_batch_each_count_one_memo_hit():
    # The batch priced every row for all its metrics and systems, so a
    # point request reads its cell from the batch's row: one hit, no
    # miss, and no entry of its own.
    clear_row_cache()
    svc = make_service()
    rows = [("AVUS-standard", 32), ("HYCOM-standard", 96), ("RFCTH-standard", 64)]
    systems = ["ARL_Xeon", "NAVO_655", "ASC_SC45"]
    metrics = [number for number in REGISTRY.numbers() if "trace" in REGISTRY.spec(number).needs]
    records = svc.predict_cells(rows, systems, metrics)
    before = svc.health()["convolve_cache"]
    for record in records:
        served = svc.predict(record.application, record.cpus, record.system, record.metric)
        assert served.predicted_seconds.hex() == record.predicted_seconds.hex()
    after = svc.health()["convolve_cache"]
    assert after["hits"] - before["hits"] == len(records)
    assert after["misses"] == before["misses"]
    assert after["size"] == before["size"]


def test_memos_stay_bounded_after_batches_over_two_universes(monkeypatch):
    # One service, batches over two universes whose rows outnumber the
    # (shrunk) bound: both process-wide memos evict instead of growing.
    from repro.engine.core import _ROW_CACHE
    from repro.scenarios import mount_universe, unmount_universe

    bound = 8
    monkeypatch.setattr(_ROW_CACHE, "max_size", bound)
    monkeypatch.setattr(metasim._TRACE_CACHE, "max_size", bound)
    svc = make_service()
    before = svc.health()
    try:
        for ref in ("mixed:3:60", "mixed:11:100"):
            universe = mount_universe(ref)
            rows = [(app.label, cpus) for app in universe.applications
                    for cpus in app.cpu_counts]
            assert svc.predict_cells(rows, [m.name for m in universe.machines], [1, 9])
    finally:
        unmount_universe()
    after = svc.health()
    for memo in ("trace_cache", "convolve_cache"):
        assert after[memo]["size"] <= bound
        assert after[memo]["evictions"] > before[memo]["evictions"]


def test_warm_predict_with_a_store_stats_nothing(tmp_path, monkeypatch):
    # The first request writes its trace and both probe bundles through
    # to the store; from then on the store knows them present, so a warm
    # memo hit checks nothing on disk.
    svc = make_service(store=str(tmp_path))
    first = svc.predict("AVUS-standard", 64, "ARL_Xeon", 9)
    assert len(list(tmp_path.joinpath("traces").iterdir())) == 1
    assert len(list(tmp_path.joinpath("probes").iterdir())) == 2
    stats = []
    real_exists = Path.exists

    def counting_exists(path, *args, **kwargs):
        stats.append(path)
        return real_exists(path, *args, **kwargs)

    monkeypatch.setattr(Path, "exists", counting_exists)
    again = [svc.predict("AVUS-standard", 64, "ARL_Xeon", 9) for _ in range(2)]
    assert stats == []
    assert {served.predicted_seconds for served in again} == {first.predicted_seconds}


@pytest.fixture()
def small_trace_memo(monkeypatch):
    """The tracer's process-wide memo, emptied and bounded at one entry."""
    monkeypatch.setattr(metasim._TRACE_CACHE, "max_size", 1)
    clear_trace_cache()


def golden_seconds(application, cpus, machine, metric):
    """The committed study record's prediction for one cell."""
    for record in json.loads(GOLDEN.read_text())["records"]:
        if tuple(record[:4]) == (application, cpus, machine, metric):
            return record[5]
    raise KeyError((application, cpus, machine, metric))


def trace_counter_deltas(svc, before):
    after = svc.health()["trace_cache"]
    return {key: after[key] - before[key] for key in ("hits", "misses", "evictions")}


def test_trace_lru_hits_and_misses(tmp_path, small_trace_memo):
    svc = make_service(store=str(tmp_path))
    before = svc.health()["trace_cache"]
    svc.predict("AVUS-standard", 64, "ARL_Xeon", 9)
    assert trace_counter_deltas(svc, before) == {"hits": 0, "misses": 1, "evictions": 0}
    assert svc.health()["trace_cache"]["size"] == 1
    # same (application, cpus) on another machine: served from the memo
    svc.predict("AVUS-standard", 64, "ARL_Opteron", 9)
    assert trace_counter_deltas(svc, before) == {"hits": 1, "misses": 1, "evictions": 0}


def test_trace_lru_repeat_query_skips_disk(tmp_path, monkeypatch, small_trace_memo):
    svc = make_service(store=str(tmp_path))
    svc.predict("AVUS-standard", 64, "ARL_Xeon", 9)

    def no_disk(*args, **kwargs):  # any store read after warm-up is a bug
        raise AssertionError("store was touched on a warm query")

    monkeypatch.setattr(svc.store, "load_trace", no_disk)
    monkeypatch.setattr(svc.store, "save_trace", no_disk)
    resp = svc.predict("AVUS-standard", 64, "ARL_Xeon", 9)
    assert resp.served_metric == 9


def test_trace_lru_bounded_with_evictions(tmp_path, small_trace_memo):
    svc = make_service(store=str(tmp_path), noise=True)
    before = svc.health()["trace_cache"]
    cells = [
        ("AVUS-standard", 32, "ARL_Xeon", 9),
        ("AVUS-standard", 64, "ARL_Xeon", 9),  # evicts cpus=32
        ("AVUS-standard", 32, "ARL_Xeon", 9),  # re-read from the store
    ]
    for cell in cells:
        served = svc.predict(*cell)
        # A trace re-read after its eviction prices the golden answer.
        assert served.predicted_seconds == golden_seconds(*cell)
        counters = svc.health()["trace_cache"]
        assert counters["size"] <= counters["max_size"] == 1
    assert trace_counter_deltas(svc, before) == {"hits": 0, "misses": 3, "evictions": 2}


def test_predict_cells_counts_a_repeated_axis_entry_once():
    svc = make_service()
    (once,) = svc.predict_cells([("AVUS-standard", 32)], ["ARL_Xeon"], [9])
    for rows, systems, metrics in [
        ([("AVUS-standard", 32)], ["ARL_Xeon", "ARL_Xeon"], [9]),
        ([("AVUS-standard", 32)], ["ARL_Xeon"], [9, 9]),
        ([("AVUS-standard", 32)], ["ARL_Xeon"], [9, "9"]),
        ([("AVUS-standard", 32), ("AVUS-standard", "32")], ["ARL_Xeon"], [9]),
    ]:
        assert svc.predict_cells(rows, systems, metrics) == [once]
    # First appearance fixes the order of what remains.
    records = svc.predict_cells(
        [("AVUS-standard", 32)], ["ARL_Opteron", "ARL_Xeon", "ARL_Opteron"], [9, 1, 9]
    )
    assert [(r.system, r.metric) for r in records] == [
        ("ARL_Opteron", 9), ("ARL_Opteron", 1), ("ARL_Xeon", 9), ("ARL_Xeon", 1)
    ]


def test_service_constructor_validation():
    with pytest.raises(ValueError):
        PredictionService(mode="sideways")
    with pytest.raises(UnknownIdError):
        PredictionService(base_system="NAVO_999")
    with pytest.raises(ValueError):
        PredictionService(default_deadline=0.0)
    with pytest.raises(ValueError, match="default_deadline"):
        PredictionService(default_deadline=float("nan"))
    with pytest.raises(ValueError):
        PredictionService(stage_fraction=0.0)
    with pytest.raises(ValueError, match="stage_timeouts"):
        PredictionService(stage_timeouts={"cook": 1.0})
    for cap in (-1.0, 0.0, float("nan"), float("inf"), "0.1"):
        with pytest.raises(ValueError, match=r"stage_timeouts\['convolve'\]"):
            PredictionService(stage_timeouts={"convolve": cap})
    # A misspelt fault stage would inject nothing: a chaos run that tests
    # nothing, and passes.
    with pytest.raises(ValueError, match=r"unknown fault_stages \['convolv'\]"):
        PredictionService(faults=FaultPlan(crash_rate=1.0, seed=1), fault_stages=("convolv",))
    for stage in ENGINE_STAGES:
        assert PredictionService(fault_stages=(stage,)).fault_stages == (stage,)


def test_is_quick_tracks_the_memos_a_point_reads():
    # Quick means every input predict reads is in memory: the row's base
    # time, both machines' probes and, for a trace metric, the trace.
    from repro.probes.suite import clear_probe_cache

    service = make_service()
    cell = ("AVUS-standard", 64, "ARL_Xeon")
    assert not service.is_quick(*cell, 9)  # this service never priced the row
    service.predict(*cell, 9)
    assert service.is_quick(*cell, 9) and service.is_quick(*cell, 1)
    clear_trace_cache()
    assert not service.is_quick(*cell, 9)
    assert service.is_quick(*cell, 1)  # a probe-only metric needs no trace
    clear_probe_cache()
    assert not service.is_quick(*cell, 1)
    service.predict(*cell, 9)
    assert service.is_quick(*cell, 9)
    assert service.is_quick("NOPE", 64, "ARL_Xeon", 9)  # its 400 is at once
    stalling = make_service(FakeClock(), faults=FaultPlan.parse("stall=0.5,seed=7"))
    stalling.predict(*cell, 9)  # warm, but a stage may still stall
    assert not stalling.is_quick(*cell, 9)
