"""Self-healing TraceStore: corrupt entries invalidate and re-trace, never raise.

Every damage shape a shared cache directory can exhibit — truncated
binary entries (length mismatch), flipped payload bytes (checksum
mismatch), foreign format versions, bare-JSON files at the binary path
and outright garbage — must be detected on load, logged, deleted, and
reported as a miss so the caller recomputes.  The ``<digest>.json``
entries of earlier builds are never read at all.
"""

import json
import os
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.probes.suite import clear_probe_cache, probe_machine
from repro.study.runner import StudyConfig, clear_study_caches, run_study
from repro.tracing import binfmt
from repro.tracing.metasim import MetaSimTracer, clear_trace_cache, trace_application
from repro.tracing.store import TraceStore
from repro.util.faults import FaultPlan

GOLDEN = Path(__file__).parent / "golden" / "study_records.json"


def _fresh_trace(avus, base_machine):
    """A freshly computed trace that touches no cache."""
    return MetaSimTracer(base_machine).trace(avus, 64)


def _retrace(avus, base_machine, store):
    """``trace_application`` past the in-memory cache, so ``store`` decides."""
    clear_trace_cache()
    return trace_application(avus, 64, base_machine, store=store)


@pytest.fixture()
def stored(tmp_path, base_machine, avus):
    """A store holding one trace + the base machine's probes."""
    store = TraceStore(tmp_path)
    trace = _retrace(avus, base_machine, store)
    clear_probe_cache()
    probe_machine(base_machine, store=store)
    return store, trace


def _trace_file(store):
    (path,) = list(store.traces_dir.iterdir())
    return path


def _load(store, trace):
    return store.load_trace(
        trace.application, trace.cpus, trace.base_machine, trace.sample_size
    )


# ---------------------------------------------------------------------------
# binary damage shapes
# ---------------------------------------------------------------------------


def test_entries_are_binary(stored):
    store, _ = stored
    path = _trace_file(store)
    assert path.suffix == ".rpb"
    assert path.read_bytes()[:4] == binfmt.MAGIC


def test_truncated_entry_invalidates_and_deletes(stored):
    store, trace = stored
    path = _trace_file(store)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    assert _load(store, trace) is None
    assert not path.exists()
    assert store.invalidated == 1


def test_flipped_payload_byte_fails_checksum_and_invalidates(stored):
    store, trace = stored
    path = _trace_file(store)
    data = path.read_bytes()
    i = (len(data) + 36) // 2  # inside the checksummed body, past the prelude
    path.write_bytes(data[:i] + bytes((data[i] ^ 0x01,)) + data[i + 1 :])
    assert _load(store, trace) is None
    assert not path.exists()
    assert store.invalidated == 1


def test_foreign_format_version_invalidates(stored):
    store, trace = stored
    path = _trace_file(store)
    data = bytearray(path.read_bytes())
    # The format version lives in the prelude, outside the checksummed
    # region: a future build's entry is rejected structurally, not as rot.
    struct.pack_into("<H", data, 4, binfmt.FORMAT_VERSION + 1)
    path.write_bytes(bytes(data))
    assert _load(store, trace) is None
    assert store.invalidated == 1


def test_bare_json_at_binary_path_invalidates(stored, base_machine, avus):
    # A JSON document dropped at the binary path: bad magic.
    store, trace = stored
    path = _trace_file(store)
    path.write_bytes(json.dumps({"application": trace.application}).encode())
    assert _load(store, trace) is None
    assert store.invalidated == 1


def test_garbage_entry_invalidates(stored):
    store, trace = stored
    path = _trace_file(store)
    path.write_bytes(b"\x00" * 512)
    assert _load(store, trace) is None
    assert store.invalidated == 1


def test_corrupt_probe_entry_invalidates(stored, base_machine):
    store, _ = stored
    (path,) = list(store.probes_dir.iterdir())
    path.write_bytes(path.read_bytes()[:40])
    assert store.load_probes(base_machine) is None
    assert not path.exists()


def test_json_era_entry_is_ignored_and_retraced(stored, base_machine, avus):
    """An earlier build's ``<digest>.json`` entry is a plain miss."""
    store, trace = stored
    path = _trace_file(store)
    legacy = path.with_suffix(".json")
    legacy.write_text(json.dumps({"kind": "store-entry", "payload": "{}"}))
    path.unlink()
    assert _load(store, trace) is None
    assert not store.has_trace(
        trace.application, trace.cpus, trace.base_machine, trace.sample_size
    )
    assert store.invalidated == 0
    assert legacy.exists()  # never read, so never judged or deleted
    retraced = _retrace(avus, base_machine, store)
    assert retraced == trace
    assert _load(store, trace) == trace
    assert store.stats()["traces"]["binary"] == 1


# ---------------------------------------------------------------------------
# heal-by-retrace: the study-level guarantee
# ---------------------------------------------------------------------------


def test_invalidation_falls_through_to_retrace(stored, base_machine, avus):
    store, trace = stored
    _trace_file(store).write_bytes(b"garbage" * 64)
    retraced = _retrace(avus, base_machine, store)
    assert retraced == trace  # recomputed, not loaded — and byte-equal
    assert store.invalidated == 1
    # the healed entry is valid again
    assert _load(store, trace) == trace


def test_fault_injected_store_corruption_heals(tmp_path, base_machine, avus):
    """A FaultPlan-corrupted save is caught by the next load and re-traced."""
    plan = FaultPlan(seed=11, corrupt_rate=1.0)
    dirty = TraceStore(tmp_path, faults=plan)
    trace = _retrace(avus, base_machine, dirty)

    clean = TraceStore(tmp_path)
    assert _load(clean, trace) is None  # corrupted on disk -> invalidated
    assert clean.invalidated == 1
    healed = _retrace(avus, base_machine, clean)
    assert healed == trace
    assert _load(clean, trace) == trace


def _rewrite_trace_header(path, edit):
    """Re-encode the trace entry at ``path`` with ``edit`` applied to its
    header.  The checksum is recomputed, so the envelope stays valid and
    only the trace header parse can reject the entry."""
    entry = binfmt._entry_from_path(path, binfmt.KIND_TRACE)
    meta = {k: v for k, v in entry.header.items() if k != "sections"}
    sections = {
        name: np.array(entry.section(name)) for name in entry.header["sections"]
    }
    edit(meta)
    tmp = path.with_suffix(".edit")
    tmp.write_bytes(binfmt._encode(binfmt.KIND_TRACE, meta, sections))
    os.replace(tmp, path)


def _drop_comm(meta):
    del meta["comm"]


def _unknown_collective(meta):
    meta["comm"][0]["kind"] = "no-such-collective"


@pytest.mark.parametrize(
    "edit",
    [_drop_comm, _unknown_collective],
    ids=["missing-comm", "unknown-collective"],
)
def test_malformed_comm_header_heals_within_a_study(tmp_path, edit):
    """A checksum-valid entry whose communication header does not parse
    is invalidated on load and re-traced; the study never sees it."""
    golden = json.loads(GOLDEN.read_text())
    store = TraceStore(tmp_path)
    clear_study_caches()
    run_study(StudyConfig(), store=store)
    path = sorted(store.traces_dir.iterdir())[0]
    _rewrite_trace_header(path, edit)

    clear_study_caches()
    result = run_study(StudyConfig(), store=store)
    assert store.invalidated == 1
    assert binfmt.load_trace(path).comm  # the re-traced entry parses
    rows = [
        [r.application, r.cpus, r.system, r.metric,
         r.actual_seconds, r.predicted_seconds, r.error_percent]
        for r in result.records
    ]
    assert rows == golden["records"]


def test_healing_logs_a_warning(stored, caplog):
    store, trace = stored
    _trace_file(store).write_bytes(b"garbage" * 64)
    with caplog.at_level("WARNING", logger="repro.tracing.store"):
        assert _load(store, trace) is None
    assert any("invalidating corrupt trace entry" in m for m in caplog.messages)


# ---------------------------------------------------------------------------
# writes: a save is on disk when it returns
# ---------------------------------------------------------------------------


def test_read_after_write_synchronises(tmp_path, base_machine, avus):
    """A load issued right after a save sees the entry."""
    store = TraceStore(tmp_path)
    trace = _fresh_trace(avus, base_machine)
    store.save_trace(trace)
    assert _load(store, trace) == trace
    assert store.has_trace(
        trace.application, trace.cpus, trace.base_machine, trace.sample_size
    )
    assert _trace_file(store).suffix == ".rpb"


def test_saved_entries_are_visible_to_a_fresh_store(tmp_path, base_machine, avus):
    store = TraceStore(tmp_path)
    trace = _fresh_trace(avus, base_machine)
    store.save_trace(trace)
    clear_probe_cache()
    probes = probe_machine(base_machine, store=store)
    fresh = TraceStore(tmp_path)
    assert _load(fresh, trace) == trace
    loaded = fresh.load_probes(base_machine)
    assert loaded is not None and loaded.hpl == probes.hpl
    assert len(list(store.traces_dir.iterdir())) == 1
    assert len(list(store.probes_dir.iterdir())) == 1


def test_rapid_resaves_of_one_path_leave_one_valid_entry(tmp_path, base_machine, avus):
    store = TraceStore(tmp_path)
    trace = _fresh_trace(avus, base_machine)
    for _ in range(500):
        store.save_trace(trace)
    assert [p.suffix for p in store.traces_dir.iterdir()] == [".rpb"]
    assert not list(tmp_path.rglob("*.tmp"))
    assert _load(store, trace) == trace


def test_store_writes_start_no_thread(tmp_path):
    """A study and a service writing through a store stay on their own
    threads: each entry is written before the save returns."""
    from repro.serve.service import PredictionService
    from repro.study.runner import StudyConfig, run_study

    before = set(threading.enumerate())
    clear_trace_cache()
    clear_probe_cache()
    cfg = StudyConfig(
        applications=("AVUS-standard",), systems=("ARL_Xeon",), noise=False
    )
    run_study(cfg, store=tmp_path / "study")
    service = PredictionService(noise=False, store=tmp_path / "serve")
    clear_trace_cache()
    service.predict_cells([("RFCTH-standard", 64)], ["ARL_Xeon"], [9])
    started = set(threading.enumerate()) - before
    assert not started, sorted(t.name for t in started)
    assert list((tmp_path / "study" / "traces").iterdir())
    assert list((tmp_path / "serve" / "traces").iterdir())
