"""End-to-end tests for the one HTTP front end over both backends.

A real server — asyncio front end plus either one in-process worker (the
default ``repro-study serve``) or forked worker processes on framed
sockets — on a loopback port.  The load-bearing pins:

* **golden batch identity** — ``POST /predict/batch`` over the paper's
  full matrix must be byte-identical to the committed study records,
  regardless of worker count (``run_matrix`` partition invariance,
  served over HTTP), and every raw batch body must equal ``json.dumps``
  of the records in-process ``predict_cells`` prices;
* **exactly-once coalescing** — concurrent duplicate point requests
  produce one worker call: one ``coalesced: false`` leader, the rest
  ``coalesced: true`` followers, and the worker's own request counter
  reads 1;
* **the status mapping** — structured 400s with nearest ids, 429 +
  ``Retry-After`` from the worker handle's EWMA on shed load (including
  a deadline spent waiting for a worker thread), 503 while every rung
  fails, ``/readyz`` 503 naming the open breaker or the shedding handle
  — on one worker and on two;
* **HTTP framing** — malformed requests get a JSON 400 and oversized
  bodies a JSON 413, never a dropped connection;
* **dispatch** — a worker answers health and ready requests, and point
  requests whose inputs are in memory, on the thread that read them;
  batches, cold point requests and point requests under a stalling
  fault plan wait for a pool thread, so point queries overtake a batch
  or a cold point in flight.

Plus the supervision contract (kill → 429-not-500 → respawn → ring
re-add), driven through the public HTTP surface.
"""

import asyncio
import gc
import http.client
import json
import logging
import multiprocessing
import os
import random
import signal
import socket
import threading
import time
import tracemalloc
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import parse_qsl, urlencode

import pytest

from repro.cli import main
from repro.core.errors import OverloadedError, ServiceUnavailableError
from repro.core.registry import REGISTRY
from repro.serve.fleet import (
    Fleet,
    WorkerHandle,
    _build_service,
    _submit,
    _worker_main,
    error_payload,
)
from repro.scenarios import TARGET_SYSTEMS, get_application, mount_universe, unmount_universe
from repro.scenarios.builtin import builtin_applications
from repro.serve import fleet as fleet_module
from repro.serve.frontend import FleetFrontend, FleetServer
from repro.serve.service import PredictionService
from repro.util.faults import FaultPlan
from tests.test_serve_service import FakeClock, make_service

GOLDEN = Path(__file__).parent / "golden" / "study_records.json"

PREDICT = "/predict?application=AVUS-standard&cpus=64&machine=ARL_Xeon"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def fleet_server():
    """One 2-worker fleet shared by the read-only tests in this module."""
    server = FleetServer(2)
    server.start()
    try:
        yield server
    finally:
        server.stop()


@pytest.fixture(scope="module")
def local_server():
    """The default server: one in-process worker behind the front end."""
    server = FleetServer(1)
    server.start()
    try:
        yield server
    finally:
        server.stop()


@pytest.fixture(params=[1, 2])
def server(request):
    """The shared read-only server with 1 (in-process) or 2 workers."""
    return request.getfixturevalue("local_server" if request.param == 1 else "fleet_server")


def get(server, path, timeout=None):
    host, port = server.address
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=timeout) as resp:
            return resp.status, json.load(resp), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err), dict(err.headers)


def post_raw(server, path, data, timeout=300):
    """POST ``data`` bytes as they are; the status and the raw answer."""
    host, port = server.address
    request = urllib.request.Request(f"http://{host}:{port}{path}", data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def post(server, path, body, timeout=300):
    host, port = server.address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(body).encode() if body is not None else b"",
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)


# ---------------------------------------------------------------------------
# the golden pin: sharded batches == the offline study, byte for byte
# ---------------------------------------------------------------------------
def test_batch_full_matrix_is_byte_identical_to_study(fleet_server, golden):
    status, body = post(fleet_server, "/predict/batch", {})
    assert status == 200
    assert body["count"] == golden["n_records"] == 1305
    # == on floats is exact: any worker that re-ordered an accumulation,
    # re-seeded noise or dropped a cell shows up here.
    assert body["records"] == golden["records"]
    # The matrix really was sharded, not served by one worker.
    assert len(body["workers"]) == 2
    assert sum(body["workers"].values()) == 1305


def test_batch_full_matrix_at_one_worker_is_byte_identical(local_server, golden):
    status, body = post(local_server, "/predict/batch", {})
    assert status == 200
    assert body["records"] == golden["records"]
    assert body["workers"] == {"w0": 1305}


def test_batch_cells_form_filters_to_requested_cells(fleet_server, golden):
    cells = [
        ["AVUS-standard", 64, "ARL_Xeon", 9],
        ["HYCOM-standard", 96, "ASC_SC45", 1],
    ]
    status, body = post(fleet_server, "/predict/batch", {"cells": cells})
    assert status == 200
    assert body["count"] == 2
    by_cell = {tuple(r[:4]): r for r in body["records"]}
    assert set(by_cell) == {
        ("AVUS-standard", 64, "ARL_Xeon", 9),
        ("HYCOM-standard", 96, "ASC_SC45", 1),
    }
    # Each served cell equals the corresponding offline study record.
    golden_by_cell = {tuple(r[:4]): r for r in golden["records"]}
    for cell, record in by_cell.items():
        assert record == golden_by_cell[cell]


def test_batch_cells_form_over_every_golden_cell_shuffled(server, golden):
    cells = [record[:4] for record in golden["records"]]
    random.Random(18).shuffle(cells)
    status, body = post(server, "/predict/batch", {"cells": cells})
    assert status == 200
    # Canonical order over the request's axes, each in first-appearance
    # order: (application, system, row, metric).
    first: dict = {}
    for label, cpus, system, metric in cells:
        for axis in (
            ("label", label),
            ("system", system),
            ("row", label, cpus),
            ("metric", metric),
        ):
            first.setdefault(axis, len(first))
    expected = sorted(
        golden["records"],
        key=lambda r: (
            first["label", r[0]],
            first["system", r[2]],
            first["row", r[0], r[1]],
            first["metric", r[3]],
        ),
    )
    assert body["count"] == 1305
    assert body["records"] == expected


def test_batch_axes_form_matches_golden_subset(fleet_server, golden):
    status, body = post(
        fleet_server,
        "/predict/batch",
        {"applications": ["RFCTH-standard"], "systems": ["NAVO_655"], "metrics": [9]},
    )
    assert status == 200
    expected = [
        r
        for r in golden["records"]
        if r[0] == "RFCTH-standard" and r[2] == "NAVO_655" and r[3] == 9
    ]
    assert body["records"] == expected


def test_batch_axes_form_counts_a_repeat_once(server, golden):
    status, body = post(
        server,
        "/predict/batch",
        {
            "applications": ["RFCTH-standard", "RFCTH-standard"],
            "systems": ["NAVO_655", "ARL_Xeon", "NAVO_655"],
            "metrics": [9, 1, 9],
        },
    )
    assert status == 200
    order = {("NAVO_655", 9): 0, ("NAVO_655", 1): 1, ("ARL_Xeon", 9): 2, ("ARL_Xeon", 1): 3}
    expected = sorted(
        (r for r in golden["records"] if r[0] == "RFCTH-standard" and (r[2], r[3]) in order),
        key=lambda r: (r[2] != "NAVO_655", r[1], order[r[2], r[3]]),
    )
    assert body["records"] == expected
    assert body["count"] == len(expected) == len({tuple(r[:4]) for r in expected})


def test_batch_ineligible_rows_are_skipped_like_the_paper(fleet_server):
    # AVUS-large at 384 cpus exceeds the 128-way ARL_690_1.7 (the
    # paper's blank cell); the row must be skipped, not erred.
    status, body = post(
        fleet_server,
        "/predict/batch",
        {"rows": [["AVUS-large", 384]], "systems": ["ARL_690_1.7"], "metrics": [9]},
    )
    assert status == 200
    assert body["count"] == 0 and body["records"] == []


def test_batch_validation_errors_are_structured_400(fleet_server):
    status, body = post(
        fleet_server,
        "/predict/batch",
        {"cells": [["AVUS-typo", 64, "ARL_Xeon", 9]]},
    )
    assert status == 400
    assert body["error"] == "UnknownId"
    assert "AVUS-standard" in body["nearest"]

    status, body = post(fleet_server, "/predict/batch", {"cells": [["AVUS-standard", 64]]})
    assert status == 400
    assert body["error"] == "BadParameter"

    # A row is a 2-item array: unpacked as given, an object named its
    # keys and "A1" the label "A" at cpus "1".
    for row in [
        {"AVUS-standard": 1, "64": 2},
        "A1",
        ["AVUS-standard", 64, 1],
        ["AVUS-standard"],
        5,
    ]:
        spec = {"rows": [row], "systems": ["ARL_Xeon"], "metrics": [9]}
        status, body = post(fleet_server, "/predict/batch", spec)
        assert status == 400, row
        assert body["error"] == "BadParameter"
        assert body["message"] == f"each row must be [application, cpus], got {row!r}"

    # An axis is a JSON array: a string iterated as one would name one
    # id per character ("19" metrics 1 and 9).
    for field, value in [
        ("metrics", "19"),
        ("metrics", "90"),
        ("metrics", 9),
        ("applications", "AVUS-standard"),
        ("systems", "ARL_Xeon"),
        ("machines", "ARL_Xeon"),
        ("rows", "AVUS-standard"),
        ("cells", "AVUS-standard"),
        ("applications", None),
    ]:
        status, body = post(fleet_server, "/predict/batch", {field: value})
        assert status == 400, (field, value)
        assert body["error"] == "BadParameter"
        assert f"{field} must be a JSON array" in body["message"]


def batch_bodies(cpus):
    """One AVUS-standard x ARL_Xeon x #9 cell in the cells and rows forms."""
    return [
        {"cells": [["AVUS-standard", cpus, "ARL_Xeon", 9]]},
        {"rows": [["AVUS-standard", cpus]], "systems": ["ARL_Xeon"], "metrics": [9]},
    ]


@pytest.mark.parametrize("cpus", [32.9, 32.0, True])
def test_batch_cpus_must_name_an_integer(server, cpus):
    # A float or a bool names no cell: truncating it would answer for
    # one the client did not ask for.
    for body in batch_bodies(cpus):
        status, reply = post(server, "/predict/batch", body)
        assert status == 400, body
        assert reply["error"] == "BadParameter"
        assert "cpus must be an integer" in reply["message"]


def test_batch_cpus_may_be_an_integer_string(server, golden):
    expected = [r for r in golden["records"] if r[:4] == ["AVUS-standard", 32, "ARL_Xeon", 9]]
    for cpus in (32, "32"):
        for body in batch_bodies(cpus):
            status, reply = post(server, "/predict/batch", body)
            assert status == 200
            assert reply["records"] == expected


#: The cells form's corner cases: a repeated cell, a cell whose cpus exceed
#: its machine's (no record, like the paper's blank cells) and a replica.
ORACLE_CELLS = [
    ["HYCOM-standard", 96, "ASC_SC45", 1],
    ["AVUS-standard", 64, "ARL_Xeon", 9],
    ["AVUS-standard", 64, "ARL_Xeon", 9],
    ["AVUS-large", 384, "ARL_690_1.7", 9],
    ["AVUS-standard@3", 64, "ARL_Xeon", 9],
    ["AVUS-standard", 64, "ASC_SC45", 1],
]


def oracle_records(form):
    """The request of ``form`` and the records in-process ``predict_cells``
    prices for it, in the answer's order."""
    if form == "cells":
        rows = list(dict.fromkeys((label, cpus) for label, cpus, _s, _m in ORACLE_CELLS))
        systems = list(dict.fromkeys(cell[2] for cell in ORACLE_CELLS))
        metrics = list(dict.fromkeys(cell[3] for cell in ORACLE_CELLS))
        wanted = {tuple(cell) for cell in ORACLE_CELLS}
        records = PredictionService().predict_cells(rows, systems, metrics)
        return {"cells": ORACLE_CELLS}, [r for r in records if r[:4] in wanted]
    if form == "axes":
        labels, systems, metrics = ["RFCTH-standard", "AVUS-standard"], ["NAVO_655", "ARL_Xeon"], [9, 1]
        request = {"applications": labels, "systems": systems, "metrics": metrics}
    else:  # the empty body: the paper's full study matrix
        labels, systems = list(builtin_applications()), TARGET_SYSTEMS
        metrics = [spec.number for spec in REGISTRY.table3()]
        request = None
    rows = [(label, cpus) for label in labels for cpus in get_application(label).cpu_counts]
    return request, PredictionService().predict_cells(rows, systems, metrics)


@pytest.mark.parametrize("form", ["axes", "cells", "empty"])
def test_batch_answer_is_the_encoding_of_in_process_records(server, form):
    # The raw body, byte for byte, is json.dumps of the records the
    # engine prices in-process, with the workers the server reports.
    request, records = oracle_records(form)
    data = b"" if request is None else json.dumps(request).encode()
    status, raw = post_raw(server, "/predict/batch", data)
    assert status == 200
    assert records
    expected = {
        "count": len(records),
        "records": [list(record) for record in records],
        "workers": json.loads(raw)["workers"],
    }
    assert raw == json.dumps(expected, sort_keys=True).encode()


def test_a_run_the_splice_cannot_place_fails_the_batch(local_server, monkeypatch):
    # A run whose cell is not on the request's axes cannot be placed: the
    # answer is an error, never a body short of the records priced.
    real_batch_runs = fleet_module._batch_runs

    def mislabelled(records, cells=None):
        runs = real_batch_runs(records, cells)
        runs[0][0] = "AVUS-elsewhere"
        return runs

    monkeypatch.setattr(fleet_module, "_batch_runs", mislabelled)
    status, body = post(local_server, "/predict/batch", {"rows": [["AVUS-standard", 64]]})
    assert status == 500
    assert "placed" in body["message"]


TWO_CELLS = [["AVUS-standard", 64, "ARL_Xeon", 9], ["HYCOM-standard", 96, "ASC_SC45", 1]]


@pytest.mark.parametrize(
    "body",
    [
        {"cells": TWO_CELLS},
        {"rows": [cell[:2] for cell in TWO_CELLS], "systems": ["ARL_Xeon", "ASC_SC45"],
         "metrics": [9, 1]},
    ],
    ids=["cells", "axes"],
)
def test_batch_workers_count_the_records_answered(server, body):
    status, reply = post(server, "/predict/batch", body)
    assert status == 200 and reply["count"] == len(reply["records"]) > 0
    assert sum(reply["workers"].values()) == reply["count"]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_written_batch_answer_is_not_kept(workers):
    # Once a batch answer is written, the front end holds none of it, nor
    # the worker replies it was spliced from, while the connection waits
    # idle for its next request.
    universe = mount_universe("mixed:0:1000")
    try:
        body = json.dumps(
            {
                "applications": [app.label for app in universe.applications],
                "systems": [machine.name for machine in universe.machines],
            }
        ).encode()
        with FleetServer(workers, service_config={"universe": universe.ref}) as server:
            assert post_raw(server, "/predict/batch", body)[0] == 200  # warms every row
            conn = http.client.HTTPConnection(*server.address, timeout=300)

            def traced() -> int:
                gc.collect()  # a full collection also empties the free lists
                return tracemalloc.get_traced_memory()[0]

            tracemalloc.start()
            try:
                before = traced()
                conn.request("POST", "/predict/batch", body)
                response = conn.getresponse()
                size = len(response.read())
                assert response.status == 200 and size > 500_000
                # The last bytes can reach this thread a moment before the
                # server's thread lets go of its send buffer.
                deadline = time.monotonic() + 5.0
                while (kept := traced() - before) > 0.05 * size:
                    if time.monotonic() > deadline:
                        break
                    time.sleep(0.05)
            finally:
                tracemalloc.stop()
                conn.close()
        assert kept <= 0.05 * size, f"{kept} bytes kept after a {size}-byte answer"
    finally:
        unmount_universe()


def test_keep_alive_answers_are_framed_by_their_content_length(server):
    # A batch answer is written after its head, a point answer in one
    # write: on one connection, each body is exactly its Content-Length.
    batch = json.dumps(
        {"rows": [["AVUS-standard", 64]], "systems": ["ARL_Xeon", "ASC_SC45"]}
    ).encode()
    batch_request = (
        b"POST /predict/batch HTTP/1.1\r\nHost: t\r\n"
        + f"Content-Length: {len(batch)}\r\n\r\n".encode()
        + batch
    )
    point_request = f"GET {PREDICT}&metric=9 HTTP/1.1\r\nHost: t\r\n\r\n".encode()
    with socket.create_connection(server.address, timeout=60) as sock:
        answers = sock.makefile("rb")

        def exchange(request: bytes) -> bytes:
            sock.sendall(request)
            assert answers.readline().startswith(b"HTTP/1.1 200 ")
            headers = {}
            while (line := answers.readline()) != b"\r\n":
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.lower()] = value.strip()
            assert headers["connection"] == "keep-alive"
            return answers.read(int(headers["content-length"]))

        first, point, again = map(exchange, (batch_request, point_request, batch_request))
        sock.shutdown(socket.SHUT_WR)
        assert answers.read() == b""  # nothing past the last declared length
    assert first == again
    records = json.loads(first)["records"]
    assert len(records) == 18
    served = json.loads(point)
    fields = ("application", "cpus", "machine", "served_metric", "predicted_seconds")
    record = next(r for r in records if r[2] == "ARL_Xeon" and r[3] == 9)
    assert [served[field] for field in fields] == [*record[:4], record[5]]


# ---------------------------------------------------------------------------
# point path over the fleet
# ---------------------------------------------------------------------------
def test_point_predict_routes_to_a_worker(fleet_server):
    status, body, _ = get(fleet_server, PREDICT + "&metric=9")
    assert status == 200
    assert body["served_metric"] == 9
    assert body["degraded"] is False
    assert body["worker"] in ("w0", "w1")
    assert body["coalesced"] is False
    assert body["predicted_seconds"] > 0


def test_point_routing_is_sticky(fleet_server):
    # The same cell always lands on the same worker (warm caches).
    owners = {
        get(fleet_server, PREDICT)[1]["worker"] for _ in range(5)
    }
    assert len(owners) == 1


def test_point_validation_is_frontend_side(fleet_server):
    status, body, _ = get(
        fleet_server, "/predict?application=AVUS-typo&cpus=64&machine=ARL_Xeon"
    )
    assert status == 400
    assert body["error"] == "UnknownId"
    assert "AVUS-standard" in body["nearest"]

    status, body, _ = get(
        fleet_server, "/predict?application=AVUS-standard&cpus=9999&machine=ARL_Xeon"
    )
    assert status == 400
    assert body["error"] == "BadParameter"

    status, body, _ = get(fleet_server, "/nope")
    assert status == 404
    assert "POST /predict/batch" in body["routes"]
    assert "GET /catalog" in body["routes"]

    status, body, _ = get(fleet_server, "/catalog")
    assert status == 200
    assert body["base_system"] == "NAVO_690"
    assert body["universe"] is None
    assert "AVUS-standard" in body["applications"]
    assert "ARL_Xeon" in body["machines"]


def test_points_after_a_batch_read_the_rows_their_worker_priced():
    # The ring sends a row's point requests to the worker that priced
    # the row in the batch, and that worker reads them from its memo.
    universe = mount_universe("mixed:3:60")
    try:
        with FleetServer(2, service_config={"universe": universe.ref}) as server:
            status, body = post(
                server,
                "/predict/batch",
                {
                    "applications": [app.label for app in universe.applications],
                    "systems": [machine.name for machine in universe.machines],
                },
            )
            assert status == 200 and len(body["workers"]) == 2

            def misses():
                workers = get(server, "/healthz")[1]["workers"]
                return {
                    name: row["health"]["convolve_cache"]["misses"]
                    for name, row in workers.items()
                }

            before = misses()
            points = [r for r in body["records"] if r[3] == 9]
            assert points
            for label, cpus, system, metric, _actual, predicted, _error in points:
                query = urlencode(
                    {"application": label, "cpus": cpus, "machine": system, "metric": metric}
                )
                status, served, _ = get(server, f"/predict?{query}")
                assert status == 200
                assert served["predicted_seconds"] == predicted
            assert misses() == before
    finally:
        unmount_universe()


def test_healthz_aggregates_the_fleet(fleet_server):
    status, body, _ = get(fleet_server, "/healthz")
    assert status == 200
    assert body["status"] in ("ok", "degraded")
    assert body["fleet"]["workers"] == 2
    assert sorted(body["workers"]) == ["w0", "w1"]
    assert body["ring"]["nodes"] == ["w0", "w1"]
    assert pytest.approx(sum(body["ring"]["shares"].values())) == 1.0
    for counter in ("leaders_total", "followers_total", "in_flight"):
        assert counter in body["coalescing"]
    for row in body["workers"].values():
        assert row["alive"] is True
        assert "breakers" in row["health"]  # per-worker breaker board

    status, body, _ = get(fleet_server, "/readyz")
    assert status == 200
    assert body["ready"] is True


# ---------------------------------------------------------------------------
# the status mapping on both backends
# ---------------------------------------------------------------------------
def test_predict_ok(server):
    status, body, _ = get(server, PREDICT + "&metric=9")
    assert status == 200
    assert body["served_metric"] == 9
    assert body["degraded"] is False
    assert body["predicted_seconds"] > 0
    assert body["metric_label"].startswith("9-P")


def test_unknown_id_is_structured_400(server):
    status, body, _ = get(
        server, "/predict?application=AVUS-typo&cpus=64&machine=ARL_Xeon"
    )
    assert status == 400
    assert body["error"] == "UnknownId"
    assert body["kind"] == "application"
    assert "AVUS-standard" in body["nearest"]
    assert "AVUS-standard" in body["known"]
    assert "Traceback" not in body["message"]


def test_bad_parameters_are_400(server):
    for path, fragment in [
        ("/predict?cpus=64&machine=ARL_Xeon", "application"),
        (PREDICT.replace("cpus=64", "cpus=banana"), "integer"),
        (PREDICT.replace("cpus=64", "cpus=99999"), "exceeds"),
        (PREDICT + "&metric=42", "unknown metric"),
        (PREDICT + "&deadline_ms=soon", "number"),
        (PREDICT + "&deadline_ms=0", "deadline"),
    ]:
        status, body, _ = get(server, path)
        assert status == 400, path
        assert fragment in body["message"], path


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_deadline_is_a_400_naming_it(server, value):
    status, body, _ = get(server, f"{PREDICT}&deadline_ms={value}")
    assert status == 400
    assert body["error"] == "BadParameter"
    assert "deadline_ms" in body["message"]
    status, body = post(server, "/predict/batch", {"deadline_ms": float(value)})
    assert status == 400
    assert body["error"] == "BadParameter"
    assert "deadline_ms" in body["message"]
    # The server-wide default is refused where it is set.
    with pytest.raises(ValueError, match="default_deadline"):
        FleetFrontend(Fleet(server.fleet.n_workers), default_deadline=float(value))
    with pytest.raises(SystemExit) as exited:
        main(["serve", f"--deadline={value}"])
    assert exited.value.code == 2


def test_unknown_route_is_404(server):
    status, body, _ = get(server, "/nope")
    assert status == 404
    assert "GET /predict" in body["routes"]


def test_healthz_shape(server):
    status, body, _ = get(server, "/healthz")
    assert status == 200
    assert body["status"] == "ok"
    # Each process's VmHWM: the front end's own and each worker's.
    assert body["frontend"]["peak_rss_mb"] > 0
    for row in body["workers"].values():
        health = row["health"]
        assert health["pid"] == row["pid"] and health["peak_rss_mb"] > 0
        # A served batch adds its lazily created "execute" breaker.
        assert {"probe", "trace", "convolve"} <= set(health["breakers"])
        # The worker's own pool-wait sheds; depth lives on the handle.
        assert health["admission"] == {"shed_total": 0}
        assert {"pending", "shed_total", "ewma_seconds"} <= set(row)
        assert health["store"] == {"enabled": False, "invalidated": 0}
        assert health["requests"]["total"] >= 0
        for memo in ("trace_cache", "convolve_cache"):
            assert set(health[memo]) == {
                "size", "max_size", "hits", "misses", "evictions"
            }
            assert health[memo]["size"] <= health[memo]["max_size"] == 4096


def test_peak_rss_is_null_where_proc_cannot_be_read(local_server, monkeypatch):
    def unreadable(*args, **kwargs):
        raise OSError("no /proc")

    monkeypatch.setattr(fleet_module, "open", unreadable, raising=False)
    status, body, _ = get(local_server, "/healthz")
    assert status == 200
    assert body["frontend"]["peak_rss_mb"] is None
    assert body["workers"]["w0"]["health"]["peak_rss_mb"] is None


def test_readyz_tracks_breaker_state():
    with FleetServer(1, service_config={"noise": False}) as server:
        status, body, _ = get(server, "/readyz")
        assert status == 200 and body["ready"]
        breaker = server.fleet.workers["w0"].service.breakers["convolve"]
        for _ in range(10):
            breaker.record_failure()
        if breaker.state != "open":
            pytest.skip("default threshold not reached")  # pragma: no cover
        status, body, _ = get(server, "/readyz")
        assert status == 503
        assert body["not_ready"]["w0"]["open_breakers"] == ["convolve"]
        # healthz stays 200 (liveness) but reports the degradation
        status, body, _ = get(server, "/healthz")
        assert status == 200
        assert body["status"] == "degraded"


def test_removed_service_config_keys_fail_loudly():
    with pytest.raises(
        ValueError, match=r"\['cache_model', 'max_concurrent', 'max_queue'\]"
    ):
        _build_service(
            {
                "noise": False,
                "cache_model": "analytic",
                "max_concurrent": 1,
                "max_queue": 0,
            }
        )


def test_open_probe_breaker_maps_to_503():
    config = {
        "noise": False,
        "breaker": {"failure_threshold": 1, "cooldown_seconds": 60.0},
    }
    with FleetServer(1, service_config=config) as server:
        server.fleet.workers["w0"].service.breakers["probe"].record_failure()
        status, body, headers = get(server, PREDICT)
        assert status == 503
        assert body["error"] == "ServiceUnavailable"
        assert int(headers["Retry-After"]) >= 1


def _distinct_cells(n):
    """``n`` valid point queries, no two alike (none coalesce)."""
    from repro.scenarios import TARGET_SYSTEMS, get_application, get_machine
    from repro.scenarios.builtin import builtin_applications

    cells = [
        (label, cpus, system)
        for system in TARGET_SYSTEMS
        for label in builtin_applications()
        for cpus in get_application(label).cpu_counts
        if cpus <= get_machine(system).cpus
    ]
    return cells[:n]


#: Every convolve call stalls 0.3 s past its 0.05 s cap and the breaker
#: never trips, so a metric-9 request holds a pool thread about 0.9 s
#: (rungs 9, 7, 5) before rung 3 answers.
STALLED_CONVOLVE = {
    "noise": False,
    "faults": "stall=1.0,stall_seconds=0.3,seed=7",
    "fault_stages": ["convolve"],
    "stage_timeouts": {"convolve": 0.05},
    "breaker": {"failure_threshold": 1000},
}


@pytest.mark.parametrize("workers", [1, 2])
def test_burst_deadline_covers_the_wait_for_a_worker_thread(workers):
    # Every convolve call stalls 0.3 s and the breaker never trips, so 32
    # distinct requests queue for the 4 pool threads of a worker: a
    # request must be charged that wait, and one whose budget ran out
    # while it waited is shed (429), never served late.
    results = []
    lock = threading.Lock()

    def fire(label, cpus, system):
        start = time.perf_counter()
        status, _, headers = get(
            server,
            f"/predict?application={label}&cpus={cpus}&machine={system}"
            "&metric=9&deadline_ms=2000",
        )
        with lock:
            results.append((status, time.perf_counter() - start, headers))

    with FleetServer(workers, service_config=STALLED_CONVOLVE) as server:
        threads = [
            threading.Thread(target=fire, args=cell) for cell in _distinct_cells(32)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    assert len(results) == 32
    assert {status for status, _, _ in results} <= {200, 429, 503}
    assert max(seconds for _, seconds, _ in results) <= 2.0 + 1.0
    for status, _, headers in results:
        if status == 429:
            assert int(headers["Retry-After"]) >= 1


class _HeldPool:
    """A worker pool whose queued requests run only when the test says."""

    def __init__(self):
        self.jobs = []

    def submit(self, fn, *args):
        self.jobs.append((fn, args))

    def run_all(self):
        for fn, args in self.jobs:
            fn(*args)


def test_pool_wait_is_charged_on_the_service_clock():
    # The wait for a pool thread runs on the service's clock, the clock
    # its deadline runs on: a fake clock decides who is shed, exactly.
    # Batches always queue on the pool; a fault-free point request would
    # be answered inline, waiting for no thread.
    clock = FakeClock()
    service = make_service(clock)
    deadlines = []
    real_predict_cells = service.predict_cells

    def recording_predict_cells(*args, deadline_seconds=None, **kwargs):
        deadlines.append(deadline_seconds)
        return real_predict_cells(*args, deadline_seconds=deadline_seconds, **kwargs)

    service.predict_cells = recording_predict_cells
    pool, replies = _HeldPool(), []
    query = {"op": "batch", "rows": [["AVUS-standard", 64]], "systems": ["ARL_Xeon"],
             "metrics": [9], "deadline_ms": 500}
    _submit(pool, service, "w0", {"id": 1, **query}, replies.append)
    clock.advance(0.25)
    _submit(pool, service, "w0", {"id": 2, **query}, replies.append)
    clock.advance(0.25)
    pool.run_all()

    late, early = sorted(replies, key=lambda reply: reply["id"])
    # Request 1 waited its whole 0.5 s budget: shed before the service.
    # The worker's frame carries no retry hint; the handle fills one in.
    assert late["ok"] is False and late["status"] == 429
    assert late["retry_after"] is None
    assert service.health()["admission"] == {"shed_total": 1}
    # Request 2 waited 0.25 s and is served under the remaining 0.25 s.
    assert early["ok"] is True
    assert deadlines == [0.25]


_OP_PARAMS = {
    "predict": {"application": "AVUS-standard", "cpus": 64, "machine": "ARL_Xeon",
                "metric": 9},
    "batch": {"rows": [["AVUS-standard", 64]], "systems": ["ARL_Xeon"], "metrics": [9]},
    "health": {},
    "ready": {},
}


@pytest.mark.parametrize(
    "faults, warm, pooled",
    [
        (None, False, {"batch", "predict"}),
        (None, True, {"batch"}),
        ("crash=1.0,seed=7", True, {"batch"}),
        ("stall=0.5,stall_seconds=0.1,seed=7", True, {"batch", "predict"}),
    ],
    ids=["cold", "warm", "warm-crash-only", "warm-stalling"],
)
def test_only_batches_and_slow_points_reach_the_pool(faults, warm, pooled):
    # A request that cannot hold its thread for long is answered before
    # _submit returns.  A batch queues on the pool, and so does a point
    # request whose inputs are not all in memory (a fresh service has
    # not yet priced its row's base time) or that a plan can stall.
    plan = None if faults is None else FaultPlan.parse(faults)
    service = make_service(FakeClock(), faults=plan, fault_stages=("convolve",))
    if warm:
        service.predict(**_OP_PARAMS["predict"])
    for op, params in _OP_PARAMS.items():
        pool, replies = _HeldPool(), []
        _submit(pool, service, "w0", {"id": 1, "op": op, **params}, replies.append)
        if op in pooled:
            assert replies == [] and len(pool.jobs) == 1, op
            pool.run_all()
        else:
            assert pool.jobs == [], op
        assert [reply["id"] for reply in replies] == [1], op


def test_point_queries_overtake_a_batch_held_in_the_pool():
    # The one-worker pool holds a batch until the test releases it; a
    # warm point request and /healthz are answered meanwhile.
    with FleetServer(1, service_config={"noise": False}) as server:
        assert get(server, PREDICT, timeout=30)[0] == 200  # its row is now warm
        handle = server.fleet.workers["w0"]
        real_pool, held = handle._pool, _HeldPool()
        handle._pool = held
        batch = {}
        thread = threading.Thread(
            target=lambda: batch.update(
                r=post(server, "/predict/batch", {"rows": [["AVUS-standard", 64]]}, 30)
            )
        )
        try:
            thread.start()
            deadline = time.time() + 5.0
            while not held.jobs and time.time() < deadline:
                time.sleep(0.005)
            assert len(held.jobs) == 1
            assert get(server, PREDICT, timeout=10)[0] == 200
            assert get(server, "/healthz", timeout=10)[0] == 200
            assert thread.is_alive() and not batch
        finally:
            handle._pool = real_pool
            held.run_all()
            thread.join(timeout=30)
        assert not thread.is_alive()
    assert batch["r"][0] == 200 and batch["r"][1]["count"] > 0


def test_cold_point_request_leaves_the_event_loop_free(tmp_path, monkeypatch):
    # No fault plan: a point request whose trace must come from a slow
    # store waits on the one-worker pool, so /healthz and a warm point
    # request are answered on the event loop while it loads.
    from repro.tracing.metasim import clear_trace_cache
    from repro.tracing.store import TraceStore

    loading = threading.Event()
    real_load = TraceStore.load_trace

    def slow_load(self, *args, **kwargs):
        loading.set()
        time.sleep(1.0)
        return real_load(self, *args, **kwargs)

    monkeypatch.setattr(TraceStore, "load_trace", slow_load)
    clear_trace_cache()
    config = {"noise": False, "store": str(tmp_path / "store")}
    with FleetServer(1, service_config=config) as server:
        assert get(server, f"{PREDICT}&deadline_ms=30000", timeout=30)[0] == 200
        loading.clear()
        cold = {}
        thread = threading.Thread(
            target=lambda: cold.update(
                r=get(
                    server,
                    "/predict?application=HYCOM-standard&cpus=96&machine=NAVO_690"
                    "&deadline_ms=30000",
                    timeout=30,
                )
            )
        )
        thread.start()
        try:
            assert loading.wait(10)
            started = time.perf_counter()
            assert get(server, "/healthz", timeout=10)[0] == 200
            assert get(server, PREDICT, timeout=10)[0] == 200
            answered = time.perf_counter() - started
            assert thread.is_alive()  # the cold request is still loading
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
    assert answered < 0.5
    assert cold["r"][0] == 200


def _count_loop_hops(monkeypatch, loop) -> list:
    """Record each ``loop.call_soon_threadsafe`` and ``asyncio.wait_for``."""
    hops = []
    real_threadsafe, real_wait_for = loop.call_soon_threadsafe, asyncio.wait_for

    def call_soon_threadsafe(*args, **kwargs):
        hops.append("call_soon_threadsafe")
        return real_threadsafe(*args, **kwargs)

    async def wait_for(*args, **kwargs):
        hops.append("wait_for")
        return await real_wait_for(*args, **kwargs)

    monkeypatch.setattr(loop, "call_soon_threadsafe", call_soon_threadsafe)
    monkeypatch.setattr(asyncio, "wait_for", wait_for)
    return hops


def _on_one_local_worker(scenario):
    """``await scenario(handle)`` on a started one-worker fleet."""

    async def main():
        fleet = Fleet(1, service_config={"noise": False})
        await fleet.start()
        try:
            return await scenario(fleet.workers["w0"])
        finally:
            await fleet.stop()

    return asyncio.run(main())


@pytest.mark.parametrize("op", ["predict", "health"])
def test_inline_answer_finishes_in_the_loop_turn_that_read_it(monkeypatch, op):
    # A warm point request and a health probe are answered on the event
    # loop, and the reply resolves the call's future inside _send: the
    # call never wakes the loop through its self-pipe, never arms a
    # timeout and never suspends.
    async def scenario(handle):
        await handle.call("predict", _OP_PARAMS["predict"], timeout=30)  # warm the row
        hops = _count_loop_hops(monkeypatch, asyncio.get_running_loop())
        reply = await handle.call(op, _OP_PARAMS[op], timeout=30)
        counted = list(hops)  # before the fleet's own shutdown hops
        call = handle.call(op, _OP_PARAMS[op], timeout=30)
        try:
            call.send(None)  # one step runs the whole call...
        except StopIteration as finished:
            return counted, reply, finished.value
        call.close()  # ...or it suspended
        return counted, reply, None

    hops, reply, stepped = _on_one_local_worker(scenario)
    assert hops == []
    assert reply["ok"] and reply["result"]["worker"] == "w0"
    assert stepped is not None and stepped["ok"]


def test_cold_point_request_still_answers_from_the_pool(monkeypatch):
    # A fresh service has no base time for the row yet: the request runs
    # on a pool thread, its reply crosses back through the loop's
    # thread-safe hop under the call's timeout, and it carries the value
    # the inline answer that follows gives.
    async def scenario(handle):
        hops = _count_loop_hops(monkeypatch, asyncio.get_running_loop())
        pooled = []
        real_submit = handle._pool.submit

        def submit(fn, *args):
            pooled.append(args[2]["op"])
            return real_submit(fn, *args)

        monkeypatch.setattr(handle._pool, "submit", submit)
        cold = await handle.call("predict", _OP_PARAMS["predict"], timeout=30)
        cold_hops = sorted(hops)
        warm = await handle.call("predict", _OP_PARAMS["predict"], timeout=30)
        return pooled, cold_hops, cold, warm

    pooled, cold_hops, cold, warm = _on_one_local_worker(scenario)
    assert pooled == ["predict"]
    assert cold_hops == ["call_soon_threadsafe", "wait_for"]
    assert cold["ok"] and warm["ok"]
    assert cold["result"]["predicted_seconds"] == warm["result"]["predicted_seconds"]


def test_pooled_call_past_its_timeout_is_a_503_and_its_late_reply_dropped(
    monkeypatch,
):
    # The pool holds a batch past its call's timeout: the call maps to a
    # 503, and the reply the pool thread sends afterwards reaches the
    # loop but finds no call waiting for it.
    async def scenario(handle):
        resolved = []
        real_resolve = handle._resolve

        def resolve(msg):
            resolved.append(msg["id"])
            real_resolve(msg)

        monkeypatch.setattr(handle, "_resolve", resolve)
        real_pool, held = handle._pool, _HeldPool()
        handle._pool = held
        try:
            with pytest.raises(ServiceUnavailableError) as timed_out:
                await handle.call("batch", _OP_PARAMS["batch"], timeout=0.05)
            assert handle.pending == {}
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, held.run_all)  # the late reply
            for _ in range(100):
                if resolved:
                    break
                await asyncio.sleep(0.01)
            after = await handle.call("health", {}, timeout=2.0)
        finally:
            handle._pool = real_pool
        return timed_out.value, resolved, after

    exc, resolved, after = _on_one_local_worker(scenario)
    assert error_payload(exc)["status"] == 503
    assert "did not answer within" in str(exc)
    assert resolved == [1, 2]  # the late batch reply, then the health call
    assert after["ok"] and after["id"] == 2


class _RecordingWriter:
    """A connection's writing end that logs whose answer was written."""

    def __init__(self, name: str, log: list):
        self.name, self.log = name, log

    def write(self, data: bytes) -> None:
        self.log.append(self.name)

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass


def test_a_pipelining_client_does_not_hold_the_event_loop():
    # Warm answers never suspend and neither does reading a request that
    # is already buffered, so a connection yields the loop every few
    # answers: a request on another connection is not queued behind a
    # whole pipelined burst.
    from repro.serve.frontend import _REQUESTS_PER_TURN

    request = f"GET {PREDICT} HTTP/1.1\r\nHost: t\r\n\r\n".encode()

    async def scenario():
        fleet = Fleet(1, service_config={"noise": False})
        frontend = FleetFrontend(fleet)
        await fleet.start()
        try:
            await frontend._predict(dict(parse_qsl(PREDICT.partition("?")[2])))
            answered, connections = [], []
            for name, count in (("burst", 5 * _REQUESTS_PER_TURN), ("single", 1)):
                reader = asyncio.StreamReader()
                reader.feed_data(request * count)
                reader.feed_eof()
                connections.append(
                    frontend._handle_connection(reader, _RecordingWriter(name, answered))
                )
            await asyncio.gather(*connections)  # the burst's handler starts first
            return answered
        finally:
            await fleet.stop()

    answered = asyncio.run(scenario())
    assert answered.count("burst") == 5 * _REQUESTS_PER_TURN
    assert answered.index("single") <= _REQUESTS_PER_TURN


def test_sigterm_during_an_inline_request_replies_then_exits_0(monkeypatch):
    # SIGTERM reaches a forked worker while its frame-reader thread is
    # answering a request inline: the request is still answered, and the
    # worker drains and exits 0 without waiting for the socket's EOF.
    ctx = multiprocessing.get_context("fork")
    started = ctx.Event()
    real_predict = PredictionService.predict

    def slow_predict(self, *args, **kwargs):
        started.set()
        time.sleep(0.5)
        return real_predict(self, *args, **kwargs)

    monkeypatch.setattr(PredictionService, "predict", slow_predict)
    # Answered inline whatever the forked process has in memory.
    monkeypatch.setattr(PredictionService, "is_quick", lambda self, *args: True)
    front, back = socket.socketpair()
    proc = ctx.Process(target=_worker_main, args=(back, "w0", {"noise": False}, (front,)))
    proc.start()
    back.close()
    try:
        frame = json.dumps(
            {"id": 1, "op": "predict", "deadline_ms": 30000, **_OP_PARAMS["predict"]}
        ).encode()
        front.sendall(len(frame).to_bytes(4, "little") + frame)
        assert started.wait(30)
        time.sleep(0.15)
        os.kill(proc.pid, signal.SIGTERM)
        front.settimeout(30)
        with front.makefile("rb") as rfile:
            length = int.from_bytes(rfile.read(4), "little")
            reply = json.loads(rfile.read(length))
        assert reply["id"] == 1 and reply["ok"] is True, reply
        proc.join(timeout=10)
        assert not proc.is_alive()
        assert proc.exitcode == 0
    finally:
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=10)
        front.close()


def test_sigterm_drains_a_batch_while_the_front_end_still_routes_to_the_worker(
    monkeypatch,
):
    # SIGTERM reaches a worker holding a batch in its pool, and the front
    # end, which has not yet seen it exit, routes one more point request
    # to it.  The worker keeps its socket open while it drains, so the
    # batch gets its 200; the point request it never read is shed as a
    # 429 when it exits.
    ctx = multiprocessing.get_context("fork")
    started = ctx.Event()
    real_predict_cells = PredictionService.predict_cells

    def slow_predict_cells(self, *args, **kwargs):
        started.set()
        time.sleep(1.0)
        return real_predict_cells(self, *args, **kwargs)

    monkeypatch.setattr(PredictionService, "predict_cells", slow_predict_cells)
    with FleetServer(2, service_config={"noise": False}) as server:
        owner = server.fleet.owner_of("AVUS-standard", 64)
        batch = {}
        thread = threading.Thread(
            target=lambda: batch.update(
                r=post(server, "/predict/batch", {"rows": [["AVUS-standard", 64]]}, 30)
            )
        )
        thread.start()
        try:
            assert started.wait(30)
            os.kill(owner.pid, signal.SIGTERM)
            time.sleep(0.2)  # the handler ends the worker's frame read
            assert server.fleet.owner_of("AVUS-standard", 64) is owner
            status, body, _ = get(server, f"{PREDICT}&deadline_ms=30000", timeout=30)
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        owner.proc.join(timeout=10)
    assert batch["r"][0] == 200 and batch["r"][1]["count"] > 0
    assert status == 429 and "died mid-request" in body["message"]
    assert owner.proc.exitcode == 0


def test_handle_retry_after_scales_with_backlog_and_service_time():
    handle = WorkerHandle("w0", None, max_pending=8)
    base = handle.retry_after()
    # Fold in slow observed call times: the estimate must grow.
    for _ in range(20):
        handle.ewma.observe(1.0)
    slow = handle.retry_after()
    assert slow > base
    # A deeper backlog ahead of the newcomer scales it further.
    handle.pending.update({1: None, 2: None, 3: None})
    assert handle.retry_after() == pytest.approx(4 * slow)
    assert not handle.shedding
    handle.pending.update({i: None for i in range(4, 9)})
    assert handle.shedding


def _same_owner_cells(server):
    """Two point queries on one worker's shard that do not coalesce."""
    owner = server.fleet.owner_of("AVUS-standard", 64).name
    return owner, [
        f"{PREDICT}&metric={metric}&deadline_ms={deadline_ms}"
        for metric, deadline_ms in ((9, 10000), (8, 200))
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_pool_wait_shed_carries_the_handles_retry_after(workers):
    # One pool thread per worker: the first request holds it, so the
    # second, on the same worker with a 0.2 s deadline, is shed by the
    # pool wait.
    server = FleetServer(workers, service_config=STALLED_CONVOLVE, worker_threads=1)
    with server:
        owner, (holder, late) = _same_owner_cells(server)
        handle = server.fleet.workers[owner]
        first = {}
        thread = threading.Thread(target=lambda: first.update(r=get(server, holder)))
        thread.start()
        deadline = time.time() + 5.0
        while not handle.pending and time.time() < deadline:
            time.sleep(0.005)
        status, body, headers = get(server, late)
        thread.join(timeout=30)
        assert not thread.is_alive()
        _, health, _ = get(server, "/healthz")
    assert first["r"][0] == 200
    assert status == 429
    assert "worker thread" in body["message"]
    assert body["retry_after_seconds"] > 0
    assert int(headers["Retry-After"]) >= 1
    assert health["workers"][owner]["health"]["admission"] == {"shed_total": 1}


@pytest.mark.parametrize("workers", [1, 2])
def test_readyz_reports_a_handle_at_its_pending_bound(workers):
    # A bound of 1: while the held request is pending, the owner's
    # handle sheds, and /readyz says so without asking the worker.
    with FleetServer(workers, service_config=STALLED_CONVOLVE, max_pending=1) as server:
        owner, (holder, _) = _same_owner_cells(server)
        handle = server.fleet.workers[owner]
        assert get(server, "/readyz")[0] == 200
        thread = threading.Thread(target=get, args=(server, holder))
        thread.start()
        deadline = time.time() + 5.0
        while not handle.pending and time.time() < deadline:
            time.sleep(0.005)
        status, body, _ = get(server, "/readyz")
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert status == 503
        assert body["not_ready"][owner]["shedding"] is True
        assert len(body["not_ready"]) == 1
        assert get(server, "/readyz")[0] == 200


def test_healthz_probes_a_worker_at_its_pending_bound():
    # The health probe passes no pending bound: while the held request
    # fills the one slot, /healthz still carries the worker's own
    # report, and a probe that fails marks the fleet degraded.
    with FleetServer(1, service_config=STALLED_CONVOLVE, max_pending=1) as server:
        owner, (holder, _) = _same_owner_cells(server)
        handle = server.fleet.workers[owner]
        thread = threading.Thread(target=get, args=(server, holder))
        thread.start()
        deadline = time.time() + 5.0
        while not handle.pending and time.time() < deadline:
            time.sleep(0.005)
        assert handle.shedding
        status, body, _ = get(server, "/healthz")
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert status == 200
        health = body["workers"][owner]["health"]
        assert "breakers" in health
        assert "shed_total" in health["admission"]

        def failing_health():
            raise RuntimeError("probe failed")

        handle.service.health = failing_health
        status, body, _ = get(server, "/healthz")
    assert status == 200
    assert body["workers"][owner]["health_error"] == "RuntimeError"
    assert body["status"] == "degraded"


# ---------------------------------------------------------------------------
# HTTP framing: malformed requests are answered, and the server keeps going
# ---------------------------------------------------------------------------
def _raw_exchange(server, request: bytes) -> bytes:
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


#: The end of a request whose body, a three-cell batch, is chunked.
_CELLS = json.dumps({"cells": [["AVUS-standard", c, "ARL_Xeon", 9] for c in (32, 64, 128)]})
_CHUNKED = f"Transfer-Encoding: chunked\r\n\r\n{len(_CELLS):x}\r\n{_CELLS}\r\n0\r\n\r\n"
#: A one-cell batch body.
_CELL = json.dumps({"cells": [["AVUS-standard", 64, "ARL_Xeon", 9]]})


@pytest.mark.parametrize(
    "request_bytes",
    [
        b"GET /healthz\r\n\r\n",
        b"POST /predict/batch HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
        b"POST /predict/batch HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70000 + b"\r\n\r\n",
        # Only Content-Length frames a body: read as an empty one, a
        # chunked batch would be the paper's full matrix.
        f"POST /predict/batch HTTP/1.1\r\n{_CHUNKED}".encode(),
        f"POST /predict/batch HTTP/1.1\r\nContent-Length: 20\r\n{_CHUNKED}".encode(),
        # Framed by its first length, a proxy would see a bodiless
        # request and then a second one.
        f"POST /predict/batch HTTP/1.1\r\nContent-Length: 0\r\n"
        f"Content-Length: {len(_CELL)}\r\n\r\n{_CELL}".encode(),
    ],
    ids=[
        "request-line",
        "content-length-text",
        "content-length-negative",
        "long-header",
        "chunked",
        "chunked-and-content-length",
        "content-length-twice",
    ],
)
def test_malformed_framing_is_a_json_400(local_server, request_bytes):
    # One answer, then EOF: the unread rest is never parsed as a request.
    raw = _raw_exchange(local_server, request_bytes)
    assert raw.count(b"HTTP/1.1 ") == 1
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    assert json.loads(body)["error"] == "BadParameter"
    assert get(local_server, "/healthz")[0] == 200  # still serving


def test_oversized_body_is_refused_before_it_is_read(local_server):
    # Nothing of the declared terabyte is sent: the 413 must not wait for it.
    started = time.perf_counter()
    raw = _raw_exchange(
        local_server,
        b"POST /predict/batch HTTP/1.1\r\nContent-Length: 1000000000000\r\n\r\n",
    )
    assert time.perf_counter() - started < 5.0
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413 ")
    assert b"Connection: close" in head
    assert json.loads(body)["error"] == "ContentTooLarge"
    assert get(local_server, "/healthz")[0] == 200  # still serving


def test_oversized_body_sent_eagerly_still_gets_its_413(local_server):
    # The client streams 4 MiB of body without waiting for an answer.
    # The server half-closes after the 413 and reads on, so the client
    # reads the answer and a clean EOF, and none of its sends is reset:
    # closing with bytes unread resets the connection, and a reset can
    # destroy an answer the client has not read yet.
    head = b"POST /predict/batch HTTP/1.1\r\nContent-Length: 1000000000000\r\n\r\n"
    send_errors = []
    with socket.create_connection(local_server.address, timeout=10) as sock:

        def send_body():
            try:
                sock.sendall(head + b"x" * (1 << 20))
                for _ in range(48):
                    sock.sendall(b"x" * 65536)
            except OSError as exc:
                send_errors.append(exc)

        sender = threading.Thread(target=send_body)
        sender.start()
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
        sender.join(timeout=10)
    assert send_errors == []
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413 ")
    assert json.loads(body)["error"] == "ContentTooLarge"


# ---------------------------------------------------------------------------
# coalescing, end to end and deterministic (one event loop, no races)
# ---------------------------------------------------------------------------
def test_duplicate_requests_coalesce_to_one_worker_call():
    async def scenario():
        fleet = Fleet(1)
        frontend = FleetFrontend(fleet, default_deadline=30.0)
        await fleet.start()
        try:
            query = {
                "application": "AVUS-standard",
                "cpus": "64",
                "machine": "ARL_Xeon",
                "metric": "9",
            }
            # All eight coroutines enter the coalescer before the leader's
            # worker round-trip resolves (single loop: followers register
            # while the leader awaits the socket), so the collapse is
            # deterministic, not timing-dependent.
            responses = await asyncio.gather(
                *(frontend._predict(dict(query)) for _ in range(8))
            )
            health = await fleet.worker_health()
            return responses, health, frontend.coalescer.counters()
        finally:
            await fleet.stop()

    responses, health, counters = asyncio.run(scenario())
    assert [status for status, _, _ in responses] == [200] * 8
    flags = [body["coalesced"] for _, body, _ in responses]
    assert flags.count(False) == 1 and flags.count(True) == 7
    values = {body["predicted_seconds"] for _, body, _ in responses}
    assert len(values) == 1  # everyone got the leader's answer
    # The worker saw exactly ONE request for the eight clients.
    assert health["w0"]["health"]["requests"]["total"] == 1
    assert counters["leaders_total"] == 1
    assert counters["followers_total"] == 7


# ---------------------------------------------------------------------------
# supervision: kill -> shed/re-route -> respawn -> ring re-add
# ---------------------------------------------------------------------------
def test_worker_death_is_shed_rerouted_and_respawned():
    server = FleetServer(2, respawn_delay=0.2)
    server.start()
    try:
        status, body, _ = get(server, PREDICT)
        assert status == 200
        victim = server.fleet.workers["w0"].proc
        victim_pid = victim.pid
        import os

        os.kill(victim_pid, signal.SIGKILL)
        # Death surfaces on /healthz via the sentinel watch.
        deadline = time.time() + 5.0
        while time.time() < deadline:
            _, health, _ = get(server, "/healthz")
            if health["fleet"]["deaths_total"] >= 1:
                break
            time.sleep(0.02)
        assert health["fleet"]["deaths_total"] >= 1

        # While degraded: every answer is a 200 (re-routed to the
        # survivor) or a retryable 429 — never a 500.
        statuses = [get(server, PREDICT)[0] for _ in range(10)]
        assert set(statuses) <= {200, 429}
        assert 200 in statuses

        # Respawn: ready again, ring whole, same worker name back.
        deadline = time.time() + 15.0
        while time.time() < deadline:
            status, _, _ = get(server, "/readyz")
            if status == 200:
                break
            time.sleep(0.1)
        assert status == 200
        _, health, _ = get(server, "/healthz")
        assert health["fleet"]["respawns_total"] >= 1
        assert health["fleet"]["alive"] == 2
        assert health["ring"]["nodes"] == ["w0", "w1"]
        assert get(server, PREDICT)[0] == 200
    finally:
        server.stop()


def test_a_slot_whose_workers_fail_at_start_backs_off_to_the_cap(monkeypatch):
    # Every worker raises at start (an unknown fault stage).  Each slot's
    # first respawn keeps respawn_delay; each further quick death doubles
    # the wait until the cap, which /healthz reports per slot.
    monkeypatch.setattr(fleet_module, "RESPAWN_DELAY_CAP", 0.4)
    expected = [0.05, 0.1, 0.2, 0.4, 0.4, 0.4]

    async def run():
        loop = asyncio.get_running_loop()
        fleet = Fleet(2, service_config={"fault_stages": ["convolv"]}, respawn_delay=0.05)
        launches = []
        launch = fleet._launch

        async def recording(name):
            if name == "w0":
                launches.append((loop.time(), *fleet.backoff(name)))
            await launch(name)

        fleet._launch = recording
        await fleet.start()
        try:
            deadline = loop.time() + 30.0
            while len(launches) <= len(expected) and loop.time() < deadline:
                await asyncio.sleep(0.02)
            health = await fleet.worker_health()
        finally:
            await fleet.stop()
        return launches, health

    launches, health = asyncio.run(run())
    assert len(launches) > len(expected)
    waits = launches[1 : len(expected) + 1]
    assert [delay for _, delay, _ in waits] == pytest.approx(expected)
    assert [run for _, _, run in waits] == list(range(1, len(expected) + 1))
    for (before, _, _), (at, delay, _) in zip(launches, waits):
        assert delay - 0.01 <= at - before < delay + 1.5
    assert health["w0"]["respawn_delay"] == pytest.approx(0.4)
    assert health["w0"]["quick_deaths"] >= len(expected)


def test_a_worker_that_stays_up_resets_its_slots_backoff(monkeypatch):
    # Two quick deaths in a row double the slot's delay; once the next
    # worker stays up RESPAWN_RESET_SECONDS the run is over, and its
    # death is respawned after respawn_delay again.
    monkeypatch.setattr(fleet_module, "RESPAWN_RESET_SECONDS", 0.5)

    async def run():
        loop = asyncio.get_running_loop()
        fleet = Fleet(2, respawn_delay=0.05)
        await fleet.start()

        async def kill_w0():
            pid = fleet.workers["w0"].pid
            os.kill(pid, signal.SIGKILL)
            deadline = loop.time() + 10.0
            while fleet.workers["w0"].pid == pid or not fleet.workers["w0"].alive:
                assert loop.time() < deadline, "w0 was not respawned"
                await asyncio.sleep(0.01)
            return fleet.backoff("w0")

        try:
            seen = [await kill_w0(), await kill_w0()]
            await asyncio.sleep(0.6)
            seen += [fleet.backoff("w0"), await kill_w0()]
        finally:
            await fleet.stop()
        return seen

    assert asyncio.run(run()) == [(0.05, 1), (0.1, 2), (0.05, 0), (0.05, 0)]


def test_a_shed_batch_shard_is_retried_once_and_the_answer_stays_whole(golden):
    # One shard's owner sheds its first batch call: the front end retries
    # that shard once against the ring's owner, and the full matrix still
    # answers byte-identical to the study records.
    server = FleetServer(2)
    server.start()
    try:
        handle = server.fleet.workers["w1"]
        real_call, shed = handle.call, []

        async def shed_first_batch(op, params, **kwargs):
            if op == "batch" and not shed:
                shed.append(op)
                raise OverloadedError("backlog full", retry_after=0.01)
            return await real_call(op, params, **kwargs)

        handle.call = shed_first_batch
        status, raw = post_raw(server, "/predict/batch", b"")
        assert status == 200 and shed == ["batch"]
        workers = json.loads(raw)["workers"]
        assert sum(workers.values()) == golden["n_records"]
        expected = {"count": golden["n_records"], "records": golden["records"], "workers": workers}
        assert raw == json.dumps(expected, sort_keys=True).encode()
        _, health, _ = get(server, "/healthz")
        assert health["frontend"]["batch_reroutes_total"] == 1
    finally:
        server.stop()


def test_retry_after_header_on_shed():
    # A 1-worker fleet with a tiny pending bound sheds concurrent load
    # with 429 + Retry-After (the front end's own EWMA-backed gate).
    server = FleetServer(1, max_pending=1)
    server.start()
    try:
        import threading

        results = []
        lock = threading.Lock()

        def fire():
            result = get(server, PREDICT + "&deadline_ms=30000")
            with lock:
                results.append(result)

        threads = [threading.Thread(target=fire) for _ in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        statuses = [status for status, _, _ in results]
        assert set(statuses) <= {200, 429}
        for status, body, headers in results:
            if status == 429:
                assert body["error"] == "Overloaded"
                assert int(headers["Retry-After"]) >= 1
    finally:
        server.stop()


# ---------------------------------------------------------------------------
# event log: per-process writer streams, /events/stats, death audit
# ---------------------------------------------------------------------------
def test_fleet_events_disabled_without_dir(fleet_server):
    status, body, _ = get(fleet_server, "/events/stats")
    assert status == 200 and body == {"enabled": False}


def test_fleet_events_stats_and_worker_audit(tmp_path_factory):
    import os

    from repro.events import verify_dir

    events_dir = tmp_path_factory.mktemp("fleet-events")
    server = FleetServer(
        2, respawn_delay=0.2, service_config={"events_dir": str(events_dir)}
    )
    server.start()
    try:
        status, _, _ = get(server, PREDICT)
        assert status == 200
        status, stats, _ = get(server, "/events/stats")
        assert status == 200 and stats["enabled"]
        assert stats["views"]["stats"]["by_kind"].get("prediction-emitted", 0) >= 1

        # SIGKILL a worker: the supervisor's own writer stream records the
        # death and the respawn, visible through the same stats surface.
        os.kill(server.fleet.workers["w0"].proc.pid, signal.SIGKILL)
        deadline = time.time() + 15.0
        kinds = {}
        while time.time() < deadline:
            _, stats, _ = get(server, "/events/stats")
            kinds = stats["views"]["stats"]["by_kind"]
            if kinds.get("worker-respawned"):
                break
            time.sleep(0.1)
        assert kinds.get("worker-died", 0) >= 1
        assert kinds.get("worker-respawned", 0) >= 1
    finally:
        server.stop()
    # After a SIGKILL mid-run, every stream still verifies clean: the
    # dead worker's log loses at most its unflushed suffix, never frames.
    report = verify_dir(events_dir)
    assert report["ok"]
    # Segment files appear lazily on first append, so only writers that
    # actually emitted something have streams: the supervisor (death +
    # respawn events) and whichever worker served the prediction.
    writers = {stream["writer"] for stream in report["streams"]}
    assert "frontend" in writers
    assert any(writer.startswith("w") for writer in writers - {"frontend"})


# ---------------------------------------------------------------------------
# stop: workers drain on EOF, idle keep-alive connections are closed
# ---------------------------------------------------------------------------
def test_fleet_stop_drains_workers_on_eof(tmp_path):
    from repro.events import verify_dir

    server = FleetServer(2, service_config={"events_dir": str(tmp_path / "ev")})
    server.start()
    assert get(server, PREDICT)[0] == 200
    procs = [handle.proc for handle in server.fleet.workers.values()]
    started = time.perf_counter()
    server.stop()
    # A worker that saw no EOF would wait out the 2 s join, then SIGTERM.
    assert time.perf_counter() - started < 1.0
    assert [proc.exitcode for proc in procs] == [0, 0]
    report = verify_dir(tmp_path / "ev")
    assert report["ok"] and report["frames"] >= 1


def test_stop_closes_idle_keepalive_connection(caplog):
    import http.client

    server = FleetServer(1)
    host, port = server.start()
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        response.read()
        assert response.getheader("Connection") == "keep-alive"
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            started = time.perf_counter()
            server.stop()
            assert time.perf_counter() - started < 1.0
        assert conn.sock.recv(1) == b""  # EOF: the server hung up
    finally:
        conn.close()
    assert [r for r in caplog.records if r.name == "asyncio"] == []


def test_stop_answers_in_flight_request_with_connection_close():
    import http.client

    # Every engine stage stalls 0.3 s, so the request is in flight at stop.
    server = FleetServer(
        1, service_config={"faults": "stall=1.0,stall_seconds=0.3", "noise": False}
    )
    host, port = server.start()
    conn = http.client.HTTPConnection(host, port, timeout=10)
    result = {}

    def fire():
        conn.request("GET", PREDICT + "&metric=9")
        response = conn.getresponse()
        response.read()
        result.update(status=response.status, connection=response.getheader("Connection"))

    client = threading.Thread(target=fire)
    client.start()
    try:
        deadline = time.time() + 5.0
        while server.frontend.requests_total < 1 and time.time() < deadline:
            time.sleep(0.01)
        server.stop()
        client.join(10)
    finally:
        conn.close()
    assert result["status"] in (200, 503)
    assert result["connection"] == "close"
