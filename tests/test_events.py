"""The event-sourced durability core: log and projections.

The contract under test is the one every consumer (study checkpoint,
trace store, serve fleet) builds on: an append-only checksummed log
whose recovery after *any* crash shape keeps exactly the undamaged
prefix, whose replay is deterministic, and whose projection views can
be rebuilt from the raw segments alone.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.errors import CircuitOpenError
from repro.events import (
    EventLog,
    BreakerTripped,
    CellFailed,
    ChunkCompleted,
    PredictionEmitted,
    ProbeCompleted,
    ProjectionEngine,
    StoreInvalidated,
    TraceCaptured,
    UnknownEvent,
    WorkerDied,
    from_doc,
    replay_dir,
    verify_dir,
    writers_in,
)
from repro.events.log import _encode_frame
from repro.events.types import EVENT_KINDS


def _probe(i: int) -> ProbeCompleted:
    return ProbeCompleted(machine=f"m{i}", key=f"k{i}")


def _fill(log: EventLog, n: int) -> list[ProbeCompleted]:
    events = [_probe(i) for i in range(n)]
    for event in events:
        log.append(event)
    return events


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------
def test_append_replay_roundtrip(tmp_path):
    log = EventLog(tmp_path, writer="w", fsync="never")
    events = _fill(log, 5)
    log.close()
    replayed = list(EventLog(tmp_path, writer="w").replay())
    assert [e for _seq, e in replayed] == events
    assert [seq for seq, _e in replayed] == [1, 2, 3, 4, 5]
    assert verify_dir(tmp_path)["ok"]


def test_segment_rotation_and_multi_writer_isolation(tmp_path):
    log_a = EventLog(tmp_path, writer="a", fsync="never", segment_bytes=200)
    log_b = EventLog(tmp_path, writer="b", fsync="never")
    _fill(log_a, 10)
    log_b.append(_probe(99))
    log_a.close()
    log_b.close()
    assert len(list(tmp_path.glob("events-a-*.jsonl"))) > 1
    assert writers_in(tmp_path) == ["a", "b"]
    merged = [(w, seq) for w, seq, _e in replay_dir(tmp_path)]
    assert merged == [("a", i) for i in range(1, 11)] + [("b", 1)]


def test_event_docs_roundtrip_and_unknown_kinds_survive():
    event = TraceCaptured(application="x", cpus=4, base_machine="b", key="k")
    assert from_doc(event.to_doc()) == event
    alien = from_doc({"kind": "from-the-future", "payload": 7})
    assert isinstance(alien, UnknownEvent)
    assert alien.original_kind == "from-the-future"
    # Compaction markers of earlier builds are just another unknown kind.
    marker = from_doc({"kind": "snapshot-taken", "upto_seq": 8})
    assert isinstance(marker, UnknownEvent)
    assert marker.original_kind == "snapshot-taken"


def test_torn_tail_is_truncated_on_reopen(tmp_path):
    log = EventLog(tmp_path, writer="w", fsync="never")
    _fill(log, 3)
    log.close()
    segment = next(tmp_path.glob("events-w-*.jsonl"))
    with segment.open("a") as fh:
        fh.write('{"seq": 4, "event": {"kind": "probe-comp')  # torn write
    reopened = EventLog(tmp_path, writer="w", fsync="never")
    assert reopened.last_seq == 3
    reopened.append(_probe(3))  # the log is writable again, seq continues
    assert reopened.last_seq == 4
    reopened.close()
    assert verify_dir(tmp_path)["ok"]


def test_duplicate_append_is_deduplicated(tmp_path):
    log = EventLog(tmp_path, writer="w", fsync="never")
    _fill(log, 2)
    log.close()
    segment = next(tmp_path.glob("events-w-*.jsonl"))
    last_line = segment.read_text().splitlines()[-1]
    with segment.open("a") as fh:
        fh.write(last_line + "\n")  # retry after a partial fsync
    reopened = EventLog(tmp_path, writer="w")
    assert reopened.last_seq == 2
    assert len(list(reopened.replay())) == 2
    reopened.close()


def test_conflicting_seq_reuse_is_damage(tmp_path):
    log = EventLog(tmp_path, writer="w", fsync="never")
    _fill(log, 2)
    log.close()
    segment = next(tmp_path.glob("events-w-*.jsonl"))
    with segment.open("a") as fh:
        fh.write(_encode_frame(2, _probe(77)) + "\n")  # same seq, new payload
    assert EventLog(tmp_path, writer="w").last_seq == 2
    assert [seq for seq, _e in EventLog(tmp_path, writer="w").replay()] == [1, 2]


# ---------------------------------------------------------------------------
# hypothesis: the frame encoder against the whole-dict encoding
# ---------------------------------------------------------------------------
def _reference_frame(seq: int, event) -> str:
    """A frame as dumping whole dicts writes it: the checksum over the
    canonical ``{"event", "seq"}`` text, then the frame with ``check``."""
    body = {"seq": seq, "event": event.to_doc()}
    canon = json.dumps({"seq": seq, "event": body["event"]}, sort_keys=True)
    body["check"] = hashlib.blake2b(canon.encode("utf-8"), digest_size=16).hexdigest()
    return json.dumps(body, sort_keys=True)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


def _field_values(field):
    """Values for one event field, by the type of its default."""
    for kind, strategy in (
        (bool, st.booleans()),
        (int, st.integers()),
        (float, st.floats()),
        (str, st.text()),
    ):
        if isinstance(field.default, kind):
            return strategy
    return _JSON_VALUES  # the list / dict payload fields


_ANY_EVENT = st.one_of(
    [
        st.builds(cls, **{f.name: _field_values(f) for f in dataclasses.fields(cls)})
        for cls in EVENT_KINDS.values()
    ]
    + [
        st.builds(
            UnknownEvent,
            original_kind=st.text(),
            data=st.none() | st.dictionaries(st.text(), _JSON_VALUES, max_size=4),
        )
    ]
)


@settings(max_examples=300, deadline=None)
@given(seq=st.integers(min_value=1, max_value=1 << 80), event=_ANY_EVENT)
@example(seq=(1 << 64) + 1, event=ProbeCompleted(machine="Mähr-Ω-機", key="é\u2028"))
@example(seq=1, event=PredictionEmitted(application="ÄVUS", predicted_seconds=float("inf")))
def test_frame_encoding_matches_the_whole_dict_encoding(seq, event):
    assert _encode_frame(seq, event) == _reference_frame(seq, event)


# ---------------------------------------------------------------------------
# hypothesis: crash shapes (satellite: fuzz the recovery path)
# ---------------------------------------------------------------------------
_CRASH_SHAPES = st.sampled_from(["torn_tail", "truncate", "bitflip", "duplicate"])


@settings(max_examples=60, deadline=None)
@given(
    n_events=st.integers(min_value=1, max_value=20),
    segment_bytes=st.sampled_from([120, 400, 1 << 20]),
    shape=_CRASH_SHAPES,
    amount=st.integers(min_value=1, max_value=80),
)
def test_crash_shapes_keep_only_a_valid_prefix(
    tmp_path_factory, n_events, segment_bytes, shape, amount
):
    """Any damage shape loses at most the damaged suffix, never the prefix,
    and replay after recovery is deterministic."""
    root = tmp_path_factory.mktemp("events")
    log = EventLog(root, writer="w", fsync="never", segment_bytes=segment_bytes)
    events = _fill(log, n_events)
    log.close()

    segments = sorted(root.glob("events-w-*.jsonl"))
    target = segments[-1]
    raw = target.read_bytes()
    if shape == "torn_tail":
        target.write_bytes(raw + b'{"seq": 999, "event": {"kind": "torn')
    elif shape == "truncate":
        target.write_bytes(raw[: max(0, len(raw) - amount)])
    elif shape == "bitflip":
        flip_at = min(len(raw) - 1, amount * 7 % max(1, len(raw)))
        flipped = bytes([raw[flip_at] ^ 0x01])
        target.write_bytes(raw[:flip_at] + flipped + raw[flip_at + 1 :])
    else:  # duplicate: re-append the last complete frame byte-identically
        lines = raw.splitlines(keepends=True)
        target.write_bytes(raw + lines[-1])

    replay_a = [(seq, e) for seq, e in EventLog(root, writer="w").replay()]
    replay_b = [(seq, e) for seq, e in EventLog(root, writer="w").replay()]
    assert replay_a == replay_b  # recovery is deterministic
    # Only a suffix may be lost: what remains is a contiguous prefix of
    # what was appended, and sealed segments are never touched.
    kept = [e for _seq, e in replay_a]
    assert kept == events[: len(kept)]
    assert [seq for seq, _e in replay_a] == list(range(1, len(kept) + 1))
    sealed_frames = sum(
        1 for seg in segments[:-1] for _line in seg.read_text().splitlines()
    )
    assert len(kept) >= sealed_frames
    if shape == "duplicate":
        assert kept == events  # byte-identical retries lose nothing
    # After recovery the stream accepts appends and verifies clean again.
    healed = EventLog(root, writer="w", fsync="never")
    healed.append(_probe(1000))
    healed.close()
    assert verify_dir(root)["ok"]


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------
_SAMPLE_EVENTS = (
    TraceCaptured(application="app", cpus=4, base_machine="b", key="t1"),
    ProbeCompleted(machine="m1", key="p1"),
    PredictionEmitted(
        application="app",
        cpus=4,
        machine="m1",
        metric="conv_mem",
        predicted_seconds=2.5,
        degraded=False,
    ),
    CellFailed(application="app", error="Boom", message="x", attempts=2),
    StoreInvalidated(entry_kind="trace", entry="t1.bin", reason="bad"),
    BreakerTripped(stage="probe", failures=5, cooldown_seconds=1.5),
    WorkerDied(worker="w0", pid=123),
)


def _append_and_fold(log: EventLog, engine: ProjectionEngine, events) -> None:
    """Append each event and fold it into ``engine`` as it is written."""
    for event in events:
        seq = log.append(event)
        engine.apply(event, writer=log.writer, seq=seq)


def test_projection_rebuild_matches_live_views(tmp_path):
    # Live: each event folded by a direct apply as it is appended.
    log = EventLog(tmp_path, writer="serve", fsync="never")
    engine = ProjectionEngine()
    _append_and_fold(log, engine, _SAMPLE_EVENTS)
    log.close()
    rebuilt = ProjectionEngine.rebuild(tmp_path)
    assert rebuilt.views() == engine.views()
    stats = rebuilt.view("stats")
    assert stats["by_kind"]["prediction-emitted"] == 1
    failures = rebuilt.view("failures")
    assert failures["counts"]["worker-died"] == 1
    assert failures["counts"]["breaker-tripped"] == 1
    assert any(row["machine"] == "m1" for row in rebuilt.view("leaderboard"))


# ---------------------------------------------------------------------------
# service integration: prediction and breaker-trip events
# ---------------------------------------------------------------------------
def test_service_emits_predictions_and_breaker_trips(tmp_path):
    from repro.serve.service import PredictionService
    from repro.util.faults import FaultPlan

    service = PredictionService(
        noise=False,
        events=tmp_path / "events",
        faults=FaultPlan(seed=7, crash_rate=1.0),
        fault_stages=("convolve",),  # convolve crashes; simple rungs serve
    )
    served = service.predict("AVUS-standard", 32, "ARL_Xeon", 9)
    assert served.degraded  # the convolve rungs failed; a simple rung answered
    for _ in range(40):
        try:
            service.predict("AVUS-standard", 32, "ARL_Xeon", 9)
        except CircuitOpenError:  # pragma: no cover - breaker may refuse
            pass
    service.drain()
    report = verify_dir(tmp_path / "events")
    assert report["ok"] and report["frames"] >= 2
    by_kind = ProjectionEngine.rebuild(tmp_path / "events").view("stats")["by_kind"]
    assert by_kind.get("prediction-emitted", 0) >= 1
    assert by_kind.get("breaker-tripped", 0) >= 1
    kinds = [event.to_doc()["kind"] for _w, _s, event in replay_dir(tmp_path / "events")]
    assert kinds.count("prediction-emitted") == by_kind["prediction-emitted"]


def test_service_without_events_reports_disabled():
    from repro.serve.service import PredictionService

    service = PredictionService(noise=False)
    assert service.health()["events"] == {"enabled": False, "last_seq": 0}


def test_store_accounting_is_event_derived(tmp_path, base_machine, avus):
    from repro.tracing.metasim import clear_trace_cache, trace_application
    from repro.tracing.store import TraceStore

    events = EventLog(tmp_path / "events", writer="store", fsync="never")
    store = TraceStore(tmp_path / "cache", events=events)
    clear_trace_cache()
    trace = trace_application(avus, 64, base_machine, store=store)
    kinds = [e.to_doc()["kind"] for _w, _s, e in replay_dir(tmp_path / "events")]
    assert "trace-captured" in kinds
    (entry,) = list(store.traces_dir.iterdir())
    entry.write_bytes(b"garbage")  # corrupt the cached trace in place
    assert (
        store.load_trace(
            trace.application,
            trace.cpus,
            trace.base_machine,
            trace.sample_size,
        )
        is None
    )
    # The counter is a fold over the store's own emissions, not a
    # separate tally — invariant: counter == invalidation events logged.
    assert store.invalidated == 1
    kinds = [e.to_doc()["kind"] for _w, _s, e in replay_dir(tmp_path / "events")]
    assert kinds.count("store-invalidated") == store.invalidated
    events.close()  # the store does not own the log it was handed
