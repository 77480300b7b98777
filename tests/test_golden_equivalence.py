"""Golden equivalence: the refactored engine must not move a single bit.

The staged-engine + declarative-registry refactor rewired every pipeline
(predictor facade, study runner, serve service) through one execution
core.  ``tests/golden/study_records.json`` is the full default study
matrix captured from the pre-refactor code; these tests pin the rewired
stack to it byte-for-byte — including through a checkpoint kill/resume.
"""

import json
import urllib.request
from pathlib import Path

import pytest

from repro.core.errors import StudyAbortedError
from repro.core.metrics import get_metric
from repro.core.predictor import PerformancePredictor
from repro.serve.service import PredictionService
from repro.study import runner
from repro.study.runner import StudyConfig, clear_study_caches, run_study, shutdown_pool
from repro.util.faults import FaultPlan

GOLDEN = Path(__file__).parent / "golden" / "study_records.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def full_result():
    """One fault-free run of the paper's complete default matrix."""
    return run_study(StudyConfig())


def as_rows(result):
    return [
        [r.application, r.cpus, r.system, r.metric,
         r.actual_seconds, r.predicted_seconds, r.error_percent]
        for r in result.records
    ]


def observed_rows(result):
    return [
        [app, system, cpus, seconds]
        for (app, system, cpus), seconds in sorted(result.observed.items())
    ]


def test_full_matrix_records_are_byte_identical(golden, full_result):
    assert len(full_result.records) == golden["n_records"] == 1305
    # == on floats here is exact equality: any reordered accumulation,
    # re-rounded rate or swapped operation in the engine port shows up.
    assert as_rows(full_result) == golden["records"]


def test_observed_times_are_byte_identical(golden, full_result):
    assert len(full_result.observed) == golden["n_observed"]
    assert observed_rows(full_result) == golden["observed"]


def test_killed_and_resumed_study_matches_golden(golden, tmp_path):
    ck = tmp_path / "study.ckpt"
    with pytest.raises(StudyAbortedError):
        run_study(StudyConfig(), checkpoint=ck, faults=FaultPlan(abort_after=2))
    resumed = run_study(StudyConfig(), checkpoint=ck)
    assert resumed.failures == []
    assert as_rows(resumed) == golden["records"]


def test_parallel_study_matches_golden(golden):
    # The paper matrix sits under PARALLEL_MIN_CELLS: without the override
    # workers=2 would run serially and pin nothing about the pool.
    shutdown_pool()
    result = run_study(StudyConfig(), workers=2, min_parallel_cells=0)
    assert runner._POOL is not None
    assert as_rows(result) == golden["records"]


# ---------------------------------------------------------------------------
# the binary on-disk store must not move a bit either
# ---------------------------------------------------------------------------


def test_store_cold_and_warm_match_golden(golden, tmp_path):
    """Predictions through the binary store — populating it and then
    serving zero-copy traces from its entries — are bit-identical."""
    store = tmp_path / "cache"
    cold = run_study(StudyConfig(), store=store)
    assert as_rows(cold) == golden["records"]
    assert list(store.rglob("*.rpb"))  # the cold run persisted binary entries
    assert not list(store.rglob("*.json"))
    # warm: every trace/probe bundle now comes off the store's entries
    clear_study_caches()
    warm = run_study(StudyConfig(), store=store)
    assert as_rows(warm) == golden["records"]
    assert observed_rows(warm) == golden["observed"]


def test_store_killed_and_resumed_matches_golden(golden, tmp_path):
    store = tmp_path / "cache"
    ck = tmp_path / "study.ckpt"
    with pytest.raises(StudyAbortedError):
        run_study(StudyConfig(), store=store, checkpoint=ck,
                  faults=FaultPlan(abort_after=2))
    clear_study_caches()
    resumed = run_study(StudyConfig(), store=store, checkpoint=ck)
    assert resumed.failures == []
    assert as_rows(resumed) == golden["records"]


def test_store_parallel_study_matches_golden(golden, tmp_path):
    store = tmp_path / "cache"
    run_study(StudyConfig(), store=store)  # populate
    clear_study_caches()  # also shuts the pool down
    result = run_study(StudyConfig(), store=store, workers=2, min_parallel_cells=0)
    assert runner._POOL is not None
    assert as_rows(result) == golden["records"]


# ---------------------------------------------------------------------------
# point requests, one golden record at a time
# ---------------------------------------------------------------------------


def serve_points(service, records):
    """``predicted_seconds`` of every record's cell, one point request each."""
    return [
        service.predict(app, cpus, system, metric).predicted_seconds
        for app, cpus, system, metric, *_ in records
    ]


def assert_points_golden_then_memo_hits(service, golden):
    """Two point passes over the golden cells: both golden, the second
    served entirely from the row memo."""
    records = golden["records"]
    expected = [record[5] for record in records]
    convolves = sum("trace" in get_metric(r[3]).needs for r in records)
    assert serve_points(service, records) == expected
    before = service.health()["convolve_cache"]
    assert serve_points(service, records) == expected
    after = service.health()["convolve_cache"]
    assert after["hits"] - before["hits"] == convolves
    assert after["misses"] == before["misses"]


def test_point_requests_are_byte_identical_to_study(golden):
    assert_points_golden_then_memo_hits(PredictionService(), golden)


def test_store_backed_point_requests_after_a_batch_match_golden(golden, tmp_path):
    records = golden["records"]
    clear_study_caches()
    service = PredictionService(store=str(tmp_path / "cache"))
    batch = service.predict_cells(
        list(dict.fromkeys((r[0], r[1]) for r in records)),
        list(dict.fromkeys(r[2] for r in records)),
        sorted({r[3] for r in records}),
    )
    assert sorted(list(r) for r in batch) == sorted(records)
    # Point requests reuse the traces the batch put in the tracer memo.
    traces_before = service.health()["trace_cache"]
    assert_points_golden_then_memo_hits(service, golden)
    assert service.health()["trace_cache"]["misses"] == traces_before["misses"]
    service.drain()


def test_predict_row_accepts_registry_names():
    p = PerformancePredictor(noise=False)
    named = p.predict_row("AVUS-standard", "ARL_Opteron", 32,
                          metrics=("hpl", "conv+maps+net+dep"))
    numbered = p.predict_row("AVUS-standard", "ARL_Opteron", 32, metrics=(1, 9))
    assert named == numbered


# ---------------------------------------------------------------------------
# the balanced rating over HTTP
# ---------------------------------------------------------------------------


def test_balanced_metric_served_over_http():
    from repro.serve.frontend import FleetServer

    with FleetServer(1, service_config={"noise": False}) as server:
        host, port = server.address
        with urllib.request.urlopen(
            f"http://{host}:{port}/predict?application=AVUS-standard"
            "&cpus=64&machine=ARL_Xeon&metric=balanced"
        ) as resp:
            body = json.load(resp)
        assert resp.status == 200
        assert body["served_metric"] == 0
        assert body["metric_label"] == "0-C BALANCED"
        assert body["degraded"] is False
        assert body["predicted_seconds"] > 0


# ---------------------------------------------------------------------------
# the CLI accepts registry names and numbers
# ---------------------------------------------------------------------------


def test_cli_metrics_accepts_names_and_numbers(capsys):
    from repro.cli import main

    assert main(["table4", "--metrics", "1,balanced,conv+maps"]) == 0
    out = capsys.readouterr().out
    assert "0-C" in out and "BALANCED" in out
    assert "7-P" in out


def test_cli_unknown_metric_exits_structured(capsys):
    from repro.cli import main
    from repro.core.errors import UnknownIdError

    code = main(["table4", "--metrics", "1,bogus"])
    assert code == UnknownIdError.exit_code
    err = capsys.readouterr().err
    assert "unknown metric 'bogus'" in err
    assert "nearest" in err
