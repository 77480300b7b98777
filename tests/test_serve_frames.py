"""The fleet's frame codec: how a reply crosses from a forked worker.

A frame is a 4-byte little-endian length and a body.  A body is a
reply's JSON alone, or for a batch reply with runs the runs' texts raw,
one newline, then its JSON header (``_frame_body``).  The front end
reads a large frame into one buffer (``_read_frame``) and hands each
run's text on as a slice of it (``_decode_reply``).  The pins:

* **round trips** — a point reply, a batch with no runs, and runs whose
  record texts carry escaped characters decode to what was sent, and
  the spliced texts are the records' JSON;
* **any read boundaries** — point and batch replies interleaved in one
  stream, with random run texts, survive any split of the stream into
  reads and any chunk size (hypothesis);
* **fail closed** — a frame torn mid-body or claiming more bytes than
  arrive is an incomplete read; that, a frame that is not JSON and run
  byte counts that overrun or underrun the body end the worker through
  the supervisor's death path: the call fails at once with a 429, and
  the worker is respawned.  So do a prefix over the frame cap, refused
  before anything is allocated for it, and a body that stalls mid-frame
  past the stated bound;
* **one copy per process** — the traced peak of a warm batch reply in a
  worker, and of the front end while it answers a warm batch, stay
  within a small multiple of the bytes they send.
"""

import asyncio
import copy
import gc
import itertools
import json
import socket
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.registry import REGISTRY
from repro.scenarios import mount_universe, unmount_universe
from repro.serve import fleet as fleet_module
from repro.serve.fleet import (
    ProcessHandle,
    _batch_runs,
    _decode_reply,
    _frame_body,
    _handle_frame,
    _read_frame,
    _send_frame,
)
from repro.serve.frontend import FleetServer
from repro.serve.service import PredictionService
from tests.test_serve_fleet import PREDICT, get, post


def read_frames(stream: bytes, reads: list[int], frames: int) -> list[dict]:
    """Decode ``frames`` frames from ``stream``, which reaches the reader
    in pieces of the sizes ``reads`` cycles through."""

    async def run():
        reader = asyncio.StreamReader()

        async def feed():
            start = 0
            for n in itertools.cycle(reads):
                if start >= len(stream):
                    break
                reader.feed_data(stream[start : start + n])
                start += n
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.create_task(feed())
        msgs = []
        for _ in range(frames):
            length = int.from_bytes(await reader.readexactly(4), "little")
            msgs.append(_decode_reply(await _read_frame(reader, length)))
        await feeder
        assert reader.at_eof()  # nothing left behind the last frame
        return msgs

    return asyncio.run(run())


def framed(body: bytes) -> bytes:
    return len(body).to_bytes(4, "little") + body


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------
def test_a_point_reply_is_one_json_frame():
    payload = {
        "id": 7,
        "ok": True,
        "result": {"application": "AVUS-standard", "predicted_seconds": 1.5, "worker": "w0"},
    }
    body = _frame_body(copy.deepcopy(payload))
    assert body == json.dumps(payload, sort_keys=True).encode()
    assert _decode_reply(body) == payload


def test_a_batch_with_no_runs_is_its_header_alone():
    payload = {"id": 2, "ok": True, "result": {"worker": "w1", "runs": []}}
    body = _frame_body(copy.deepcopy(payload))
    assert b"\n" not in body
    assert _decode_reply(body) == payload


def test_runs_with_escaped_characters_cross_raw():
    records = [
        ('say "hi"', 8, "a\\b", 1, 1.0, 2.0, 100.0),
        ('say "hi"', 8, "a\\b", 9, 1.0, 2.5, 150.0),
        ("line\nbreak ☃", 16, "a\\b", 9, 3.0, 3.0, 0.0),
    ]
    runs = _batch_runs(list(records))
    texts = [bytes(run[4]) for run in runs]
    body = _frame_body({"id": 5, "ok": True, "result": {"worker": "w0", "runs": runs}})
    raw, _, header = body.rpartition(b"\n")
    assert raw == b"".join(texts)  # no quote or backslash escaped twice
    msg = _decode_reply(body)
    decoded = msg["result"]["runs"]
    assert [run[:4] for run in decoded] == [
        ['say "hi"', "a\\b", 8, 2],
        ["line\nbreak ☃", "a\\b", 16, 1],
    ]
    assert [bytes(run[4]) for run in decoded] == texts
    spliced = b"[" + b", ".join(run[4] for run in decoded) + b"]"
    assert spliced == json.dumps([list(record) for record in records]).encode()


def _batch_reply(rid: int, texts: list[bytes]) -> dict:
    # The texts sit back to back in one buffer, as _batch_runs leaves them.
    view = memoryview(bytearray(b"".join(texts)))
    runs, start = [], 0
    for i, text in enumerate(texts):
        runs.append([f"app-{i}", "sys", i + 1, 1, view[start : start + len(text)]])
        start += len(text)
    return {"id": rid, "ok": True, "result": {"worker": "w0", "runs": runs}}


def _content(msg: dict):
    """A reply as comparable data: a batch's runs with their texts as bytes."""
    runs = msg["result"].get("runs")
    if runs is None:
        return msg
    return msg["id"], [[*run[:4], bytes(run[4])] for run in runs]


@settings(max_examples=150, deadline=None)
@given(
    replies=st.lists(
        st.none() | st.lists(st.binary(max_size=300), max_size=10), min_size=1, max_size=4
    ),
    reads=st.lists(st.integers(1, 97), min_size=1, max_size=12),
    chunk=st.integers(1, 4096),
)
def test_interleaved_replies_survive_any_read_boundaries(replies, reads, chunk):
    # Point replies (None) and batch replies (their runs' texts) back to
    # back in one stream: the reader stays in step across frames.
    stream, sent = b"", []
    for rid, texts in enumerate(replies):
        if texts is None:
            reply = {"id": rid, "ok": True, "result": {"predicted_seconds": rid / 3}}
        else:
            reply = _batch_reply(rid, texts)
        sent.append(copy.deepcopy(_content(reply)))
        stream += framed(_frame_body(reply))
    real_chunk = fleet_module._READ_CHUNK
    fleet_module._READ_CHUNK = chunk
    try:
        got = read_frames(stream, reads, len(replies))
    finally:
        fleet_module._READ_CHUNK = real_chunk
    assert [_content(msg) for msg in got] == sent


# ---------------------------------------------------------------------------
# frames that cannot be decoded
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("claimed", [None, 4 << 20], ids=["torn", "oversized"])
def test_a_frame_that_ends_short_is_an_incomplete_read(claimed):
    # Torn: the stream ends halfway through the body.  Oversized: the
    # prefix claims megabytes more than ever arrive, and the reader holds
    # a buffer of the claimed size until the stream ends.
    body = _runs_body([500], b"x" * 500)
    stream = framed(body)[: 4 + len(body) // 2]
    if claimed is not None:
        stream = claimed.to_bytes(4, "little") + body
    real_chunk = fleet_module._READ_CHUNK
    fleet_module._READ_CHUNK = 64
    try:
        with pytest.raises(asyncio.IncompleteReadError):
            read_frames(stream, [100], 1)
    finally:
        fleet_module._READ_CHUNK = real_chunk


def _runs_body(counts: list, texts: bytes) -> bytes:
    runs = [["a", "s", i + 1, 1, n] for i, n in enumerate(counts)]
    header = json.dumps({"id": 1, "ok": True, "result": {"worker": "w0", "runs": runs}})
    return texts + b"\n" + header.encode()


@pytest.mark.parametrize(
    "body",
    [
        b"not json!",
        _runs_body([3, 3], b"abcdef" + b"g"),  # underrun: a byte follows the last run
        _runs_body([3, 4], b"abcdef"),  # overrun
        _runs_body([-1, 7], b"abcdef"),  # a negative count
        _runs_body(["3"], b"abc"),  # a count that is not an integer
        b'abc\n{"id": 1, "ok": true, "result": {}}',  # texts but no runs
        b"[1, 2]",
    ],
    ids=["not-json", "underrun", "overrun", "negative", "not-int", "no-runs", "not-an-object"],
)
def test_an_undecodable_reply_is_a_value_error(body):
    with pytest.raises(ValueError):
        _decode_reply(body)


class _Proc:
    pid = None
    kills = 0

    def kill(self):
        self.kills += 1


@pytest.mark.parametrize(
    "tail, kills",
    [(b"", 0), (b"\x09\x00", 1), (framed(b'{"id": 2}')[:-3], 1), (framed(b"not json!"), 1)],
    ids=["at-a-boundary", "mid-prefix", "mid-body", "not-json"],
)
def test_only_a_stream_out_of_step_kills_the_worker(tail, kills):
    # A drained worker's socket ends at a frame boundary while the
    # process is still exiting: that end is left to the sentinel watch,
    # or a clean exit could read -9.  A stream that ends mid-frame or
    # cannot be decoded has no later frame in step, so the reader kills.
    async def run():
        ours, theirs = socket.socketpair()
        handle = ProcessHandle("w0", _Proc(), ours, max_pending=4)
        await handle.connect()
        with theirs:
            theirs.sendall(framed(b'{"id": 1, "ok": true}') + tail)
        await handle._reader_task
        handle.close()
        await handle._writer.wait_closed()
        return handle.proc.kills

    assert asyncio.run(run()) == kills


def _stand_in_reader(data: bytes) -> tuple[int, float]:
    """Send ``data`` from a stand-in worker over a socketpair and, with
    its socket left open, await the handle's reader (at most 5 s);
    return the stand-in's kills and the seconds the reader ran."""

    async def run():
        loop = asyncio.get_running_loop()
        ours, theirs = socket.socketpair()
        handle = ProcessHandle("w0", _Proc(), ours, max_pending=4)
        await handle.connect()
        with theirs:
            theirs.sendall(data)
            started = loop.time()
            await asyncio.wait_for(handle._reader_task, 5.0)
            ran = loop.time() - started
        handle.close()
        await handle._writer.wait_closed()
        return handle.proc.kills, ran

    return asyncio.run(run())


def test_a_prefix_over_the_cap_kills_the_worker_before_any_allocation():
    # The claimed body would be 64 MiB: the prefix alone is refused while
    # the socket stays open, and nothing near that size is allocated.
    claimed = fleet_module.MAX_FRAME_BYTES + 1
    tracemalloc.start()
    try:
        kills, _ = _stand_in_reader(claimed.to_bytes(4, "little") + b"x" * 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kills == 1
    assert peak < claimed // 100, f"traced peak {peak} bytes"


def test_a_worker_that_stalls_mid_body_is_killed_within_the_bound(monkeypatch):
    # A prefix over _READ_CHUNK and half its body, then nothing while the
    # socket stays open: the reader gives up once a chunk is
    # FRAME_STALL_SECONDS late instead of leaving the calls to their timeout.
    monkeypatch.setattr(fleet_module, "FRAME_STALL_SECONDS", 0.2)
    length = 4 * fleet_module._READ_CHUNK
    kills, ran = _stand_in_reader(length.to_bytes(4, "little") + b"x" * (length // 2))
    assert kills == 1
    assert 0.2 <= ran < 0.2 + 1.5


def _tear_batch_frames(real_send_frame, *, stall: bool = False):
    """A worker's ``_send_frame`` that sends half of each batch reply and
    then shuts the socket for writing (with ``stall``, sends nothing more
    and keeps it open), while the process lives on."""

    def torn(sock, payload):
        if b"\n" not in payload:
            return real_send_frame(sock, payload)
        sock.sendall(framed(payload)[: 4 + len(payload) // 2])
        if stall:
            time.sleep(60)
        else:
            sock.shutdown(socket.SHUT_WR)

    return torn


def _break_batch_bodies(kind: str, real_frame_body):
    """A worker's ``_frame_body`` whose batch replies cannot be decoded."""

    def broken(payload):
        body = real_frame_body(payload)
        if b"\n" not in body:
            return body  # point, health and ready replies stay whole
        if kind == "not-json":
            return b"not json!"
        texts, _, header = body.rpartition(b"\n")
        msg = json.loads(header)
        msg["result"]["runs"][-1][4] += 1 if kind == "overrun" else -1
        return texts + b"\n" + json.dumps(msg).encode()

    return broken


@pytest.mark.parametrize("kind", ["torn", "stalled", "not-json", "overrun", "underrun"])
def test_a_reply_the_front_end_cannot_read_ends_the_worker(monkeypatch, kind):
    # Forked workers inherit the patch.  The batch's shard owner is
    # killed, its call fails at once with a 429 (the shard's one retry
    # meets a broken worker too), and the supervisor counts the death
    # and respawns the worker; point replies are untouched throughout.
    if kind in ("torn", "stalled"):
        monkeypatch.setattr(
            fleet_module,
            "_send_frame",
            _tear_batch_frames(fleet_module._send_frame, stall=kind == "stalled"),
        )
    if kind == "stalled":
        # Only a frame over _READ_CHUNK is timed; this batch's is a few KB.
        monkeypatch.setattr(fleet_module, "_READ_CHUNK", 1024)
        monkeypatch.setattr(fleet_module, "FRAME_STALL_SECONDS", 0.5)
    elif kind != "torn":
        monkeypatch.setattr(
            fleet_module, "_frame_body", _break_batch_bodies(kind, fleet_module._frame_body)
        )
    with FleetServer(2, respawn_delay=0.05) as server:
        assert get(server, PREDICT)[0] == 200
        started = time.monotonic()
        # A call left hanging would meet its frame timeout: 30 s here.
        status, body = post(
            server, "/predict/batch", {"rows": [["AVUS-standard", 64]], "deadline_ms": 20000}
        )
        assert status == 429, body
        assert time.monotonic() - started < 15.0
        deadline = time.monotonic() + 15.0
        while True:
            _, health, _ = get(server, "/healthz")
            fleet = health["fleet"]
            if fleet["respawns_total"] >= fleet["deaths_total"] >= 1 and fleet["alive"] == 2:
                break
            assert time.monotonic() < deadline, fleet
            time.sleep(0.05)
        assert get(server, "/readyz")[0] == 200
        assert get(server, PREDICT)[0] == 200


# ---------------------------------------------------------------------------
# one copy per process
# ---------------------------------------------------------------------------
@pytest.fixture
def universe():
    mounted = mount_universe("mixed:0:1000")
    try:
        yield mounted
    finally:
        unmount_universe()


def test_a_warm_batch_reply_peaks_within_a_small_multiple_of_its_frame(universe):
    # The worker frees each run's records once its text is encoded, and
    # the texts' buffer becomes the frame body: a warm batch's traced
    # peak reads 1.72x the frame it sends, against 4.85x when the texts
    # were escaped into a JSON reply and 2.6x when the body was joined
    # behind its header.
    rows = [(app.label, cpus) for app in universe.applications for cpus in app.cpu_counts]
    msg = {
        "id": 1,
        "op": "batch",
        "rows": rows,
        "systems": [machine.name for machine in universe.machines],
        "metrics": [spec.number for spec in REGISTRY.table3()],
    }
    service = PredictionService()
    ours, theirs = socket.socketpair()
    sizes = []

    def discard():
        sink = bytearray(1 << 20)
        while theirs.recv_into(sink):
            pass

    def reply(payload):  # the forked worker's reply, minus its write lock
        body = _frame_body(payload)
        sizes.append(len(body) + 4)
        _send_frame(ours, body)

    reader = threading.Thread(target=discard, daemon=True)
    reader.start()
    try:
        _handle_frame(service, "w0", dict(msg), reply)  # warms every row
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _handle_frame(service, "w0", dict(msg), reply)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    finally:
        ours.close()
        reader.join(10)
        theirs.close()
    frame = sizes[-1]
    assert frame > 500_000
    assert peak <= 2.5 * frame, f"peak {peak} bytes for a {frame}-byte frame"


CLIENT = """
import sys, urllib.request
request = urllib.request.Request(sys.argv[1], data=sys.stdin.buffer.read(), method="POST")
with urllib.request.urlopen(request, timeout=300) as response:
    print(response.status, len(response.read()))
"""


def test_the_front_end_answers_a_warm_batch_within_2x_its_bytes(universe):
    # Two workers' runs stay in the frames they arrived in and are
    # written 64 KiB at a time: the server's traced peak while it
    # answers reads 1.78x the answer (unescaping, joining and encoding
    # the texts read 2.26x).  The client runs in another process, so
    # its copy is not traced.
    body = json.dumps(
        {
            "applications": [app.label for app in universe.applications],
            "systems": [machine.name for machine in universe.machines],
        }
    ).encode()
    with FleetServer(2, service_config={"universe": universe.ref}) as server:
        url = "http://{}:{}/predict/batch".format(*server.address)

        def client() -> int:
            out = subprocess.run(
                [sys.executable, "-c", CLIENT, url],
                input=body,
                capture_output=True,
                check=True,
            ).stdout.split()
            assert out[0] == b"200"
            return int(out[1])

        client()  # warms every row
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            size = client()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert size > 500_000
    assert peak < 2 * size, f"peak {peak} bytes for a {size}-byte answer"
