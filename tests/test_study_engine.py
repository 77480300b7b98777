"""Tests for the parallel/persistent study engine and its caches."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.apps.suite import APPLICATIONS
from repro.probes.suite import clear_probe_cache, probe_machine
from repro.study.runner import StudyConfig, run_study
from repro.tracing.metasim import clear_trace_cache, trace_application
from repro.tracing.store import TraceStore

from tests.conftest import make_machine

REDUCED = StudyConfig(
    applications=("RFCTH-standard", "HYCOM-standard"),
    systems=("ARL_Opteron", "NAVO_P3", "NAVO_655"),
)


# ---------------------------------------------------------------------------
# parallel fan-out
# ---------------------------------------------------------------------------


def test_parallel_study_byte_identical_to_serial():
    serial = run_study(REDUCED)
    # REDUCED sits under PARALLEL_MIN_CELLS; force the pool path.
    parallel = run_study(REDUCED, workers=4, min_parallel_cells=0)
    assert parallel.records == serial.records
    assert parallel.observed == serial.observed
    # dataclass equality is float equality; pin bit-identity explicitly too
    assert all(
        a.predicted_seconds.hex() == b.predicted_seconds.hex()
        and a.actual_seconds.hex() == b.actual_seconds.hex()
        for a, b in zip(serial.records, parallel.records)
    )


def test_parallel_record_order_is_canonical():
    result = run_study(REDUCED, workers=2, min_parallel_cells=0)
    keys = [(r.application, r.system, r.cpus, r.metric) for r in result.records]
    by_app = [k[0] for k in keys]
    assert by_app == sorted(by_app, key=list(REDUCED.applications).index)


def test_small_matrix_stays_serial_despite_workers(monkeypatch):
    """Below the crossover floor, workers=N must not pay pool overhead."""
    import repro.study.runner as runner_mod

    def boom(*a, **k):  # pragma: no cover - failure path
        raise AssertionError("pool must not be created for a small matrix")

    monkeypatch.setattr(runner_mod, "_get_pool", boom)
    result = run_study(REDUCED, workers=4)  # REDUCED < PARALLEL_MIN_CELLS cells
    assert result.n_predictions > 0
    assert "convolve" in result.stage_seconds


def test_stage_seconds_reported_on_both_paths():
    serial = run_study(REDUCED)
    parallel = run_study(REDUCED, workers=2, min_parallel_cells=0)
    for result in (serial, parallel):
        assert set(result.stage_seconds) >= {"probe", "trace", "execute", "convolve"}
        assert all(v >= 0.0 for v in result.stage_seconds.values())


# ---------------------------------------------------------------------------
# persistent store
# ---------------------------------------------------------------------------


def test_store_round_trip_preserves_study_output(tmp_path):
    cold = run_study(REDUCED, store=tmp_path)
    warm = run_study(REDUCED, store=tmp_path)
    assert warm.records == cold.records
    assert list(tmp_path.joinpath("traces").iterdir())
    assert list(tmp_path.joinpath("probes").iterdir())


def test_store_trace_round_trip_is_exact(tmp_path, base_machine, avus):
    store = TraceStore(tmp_path)
    clear_trace_cache()
    computed = trace_application(avus, 64, base_machine, store=store)
    loaded = store.load_trace(avus.label, 64, base_machine.name, computed.sample_size)
    assert loaded == computed


def test_store_probes_round_trip_is_exact(tmp_path, base_machine):
    store = TraceStore(tmp_path)
    clear_probe_cache()
    computed = probe_machine(base_machine, store=store)
    loaded = store.load_probes(base_machine)
    assert loaded is not None
    assert loaded.machine == computed.machine
    np.testing.assert_array_equal(loaded.maps.unit.bandwidths, computed.maps.unit.bandwidths)
    assert loaded.hpl == computed.hpl


def test_store_tolerates_corrupt_files(tmp_path, base_machine, avus):
    store = TraceStore(tmp_path)
    clear_trace_cache()
    trace_application(avus, 64, base_machine, store=store)
    for f in tmp_path.joinpath("traces").iterdir():
        f.write_text("{not json")
    assert store.load_trace(avus.label, 64, base_machine.name, 4096) is None


# ---------------------------------------------------------------------------
# probe cache staleness (regression: _CACHE was keyed by name alone)
# ---------------------------------------------------------------------------


def test_probe_cache_distinguishes_mutated_specs_sharing_a_name():
    slow = make_machine(name="SAME_NAME", clock_ghz=1.0)
    fast = make_machine(name="SAME_NAME", clock_ghz=4.0)
    p_slow = probe_machine(slow)
    p_fast = probe_machine(fast)
    assert p_fast.hpl.rmax_flops > p_slow.hpl.rmax_flops
    # identical spec still hits the cache
    assert probe_machine(make_machine(name="SAME_NAME", clock_ghz=1.0)) is p_slow


def test_fingerprint_tracks_content_not_name():
    a = make_machine(name="X")
    b = make_machine(name="X")
    c = make_machine(name="X", mem_bw=9.9)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


def test_fingerprint_memo_is_invisible_and_follows_content():
    fresh = make_machine(name="X")
    memo = make_machine(name="X")
    digest = memo.fingerprint()
    assert memo.fingerprint() is digest  # computed once, then kept
    # The memo sits outside the fields: repr, == and hash never see it.
    assert repr(memo) == repr(fresh)
    assert memo == fresh and hash(memo) == hash(fresh)
    # A replaced spec is a new instance with its own content digest.
    faster = dataclasses.replace(memo, overlap_factor=0.9)
    assert faster.fingerprint() != digest
    assert dataclasses.replace(faster, overlap_factor=0.7).fingerprint() == digest
    # A pickle round trip (study and fleet workers) keeps the digest.
    copied = pickle.loads(pickle.dumps(memo))
    assert copied.fingerprint() == digest == fresh.fingerprint()


# ---------------------------------------------------------------------------
# indexed select
# ---------------------------------------------------------------------------


def _linear_select(result, **filters):
    out = []
    for rec in result.records:
        if all(getattr(rec, k) == v for k, v in filters.items()):
            out.append(rec)
    return out


@pytest.mark.parametrize(
    "filters",
    [
        {},
        {"metric": 5},
        {"system": "ARL_Opteron"},
        {"metric": 9, "system": "NAVO_P3"},
        {"metric": 1, "application": "RFCTH-standard", "cpus": 16},
        {"metric": 2, "system": "nope"},
        {"cpus": 123456},
    ],
)
def test_indexed_select_matches_linear_scan(full_study, filters):
    assert full_study.select(**filters) == _linear_select(full_study, **filters)


def test_select_index_rebuilds_after_mutation(full_study):
    import copy

    result = copy.deepcopy(full_study)
    result.select(metric=1)  # build the index
    extra = result.records[0]
    result.records.append(extra)
    recs = result.select(metric=extra.metric, system=extra.system, cpus=extra.cpus,
                         application=extra.application)
    assert recs == [extra, extra]


# ---------------------------------------------------------------------------
# StudyConfig validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("applications", ("NoSuchApp-bogus",), "NoSuchApp-bogus"),
        ("systems", ("ARL_Opteron", "HAL9000"), "HAL9000"),
        ("base_system", "HAL9000", "HAL9000"),
        ("metrics", (1, 42), "42"),
        ("mode", "sideways", "sideways"),
    ],
)
def test_config_rejects_unknown_ids_by_name(field, value, fragment):
    with pytest.raises(ValueError, match=fragment):
        StudyConfig(**{field: value})


def test_config_error_lists_known_values():
    with pytest.raises(ValueError, match="known:.*ARL_Opteron"):
        StudyConfig(systems=("HAL9000",))


def test_config_accepts_replica_labels():
    # "label@k" aliases (the --scale matrix) must pass validation.
    label = next(iter(APPLICATIONS))
    cfg = StudyConfig(applications=(label, f"{label}@1"))
    assert cfg.applications[1].endswith("@1")


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("applications", ("AVUS-standard", "HYCOM-standard", "AVUS-standard"),
         "duplicate application 'AVUS-standard' in StudyConfig.applications"),
        ("systems", ("ARL_Xeon", "ARL_Xeon"),
         "duplicate system 'ARL_Xeon' in StudyConfig.systems"),
        ("metrics", (9, 9), "duplicate metric 9 in StudyConfig.metrics"),
        # compared after name-to-number resolution
        ("metrics", (0, "balanced"), "duplicate metric 0 in StudyConfig.metrics"),
    ],
)
def test_config_rejects_a_repeated_id_by_name(field, value, fragment):
    with pytest.raises(ValueError, match=fragment):
        StudyConfig(**{field: value})


def test_config_variant_revalidates():
    with pytest.raises(ValueError, match="sideways"):
        StudyConfig().variant(mode="sideways")
