"""The asyncio HTTP front end: the one server behind ``repro-study serve``.

One event loop accepts every connection (no thread-per-connection, no
framework, zero new dependencies — plain ``asyncio.start_server`` and
hand-rolled HTTP/1.1 framing with keep-alive) and does only cheap work:
parse, validate, route, coalesce, splice.  Everything CPU-bound happens in
the :class:`~repro.serve.fleet.Fleet`'s workers — with one worker (the
default) a service running in this process, which answers point requests
from memory on this event loop and queues batches and slower point
requests on its thread pool, with N >= 2 forked worker processes.
Every route below behaves the same on both backends.

Routes:

``GET /predict?application=..&cpus=..&machine=..[&metric=9][&deadline_ms=..]``
    One prediction.  The cell's trace identity is hashed onto the shard
    ring, so the owning worker answers from a warm cache; identical
    concurrent requests are collapsed by
    :class:`~repro.serve.coalesce.SingleFlight` into one worker call,
    followers stamped ``coalesced: true``.  Only a call that leaves the
    loop turn (a pooled request, a frame to a forked worker) can gain
    followers: a one-worker answer from memory is done before another
    request is read.  Every error maps through
    :func:`~repro.serve.fleet.error_payload`: 400 structured validation
    errors (unknown ids name the nearest valid ones), 429 +
    ``Retry-After`` on shed (a worker's pending bound reached, a queued
    request whose deadline ran out while it waited for a worker thread,
    a worker dying mid-request; the hint is the worker handle's EWMA),
    503 when every ladder rung failed — never a traceback page.  A
    ``deadline_ms`` that is not a finite number is a 400.  Degraded
    answers are 200s marked ``degraded: true`` with the
    ``served_metric`` that actually answered.

``POST /predict/batch``
    A tensorized sub-matrix in one request.  The body names explicit
    ``cells`` ``[application, cpus, system, metric]`` or axes
    (``applications`` / ``systems`` / ``metrics`` / optional ``rows``);
    an empty body means the paper's full study matrix; a repeated cell,
    row, system or metric counts once, at its first appearance.  The
    front end compiles the request into per-shard row lists (in the
    cells form, with each shard's own cells), fans one
    :meth:`~repro.serve.service.PredictionService.predict_cells` call to
    each owning worker (the engine's ``run_matrix`` path — one rate
    table per row shared across every machine and metric), and retries
    re-routed rows once if a worker dies mid-batch.  Each worker encodes
    its records once, as JSON text per (application, system, cpus) cell;
    the front end splices those texts, never decoding a record, in the
    engine's canonical emission order.  Identical axes therefore
    reproduce offline study records byte-for-byte, regardless of worker
    count — ``run_matrix``'s partition invariance, served.  ``workers``
    counts the records each worker answered.

``GET /healthz``
    Liveness (always 200 while the process answers) plus diagnostics:
    per-worker handle depth (pending, shed, EWMA), breaker boards,
    pool-wait shed counts and trace/convolve memo counters (gathered
    concurrently), ring membership and hash-space shares,
    coalescing counters, death/respawn totals; ``status`` reads
    ``degraded`` while a worker is down, any breaker is open or a
    worker's health probe fails.

``GET /readyz``
    200 only when every worker is alive, below its handle's pending
    bound and has no breaker open; 503 otherwise — the body names each
    not-ready worker with its own reason (``shedding``, read from the
    handle without a round trip, or ``open_breakers``) — so load
    balancers steer around the instance during recovery.

``GET /events/stats``
    Projection views rebuilt from the shared event-log directory — every
    writer stream (the services' own plus the supervisor's worker
    deaths/respawns) folded into one audit surface;
    ``{"enabled": false}`` when the server runs without an event log.

``GET /catalog``
    The loaded scenario catalog (application labels, machine names,
    metric numbers, base system, mounted universe) — answered by the
    front end itself, which mounts the same universe as its workers.

A request the HTTP framing cannot parse (a malformed request line, a
bad ``Content-Length``, an over-long header line) gets a JSON 400, and
one declaring a body over :data:`MAX_BODY_BYTES` a JSON 413 before any
of the body is read; either way the connection is then closed, after a
short lingering read.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from urllib.parse import parse_qsl, urlsplit

from repro.core.errors import OverloadedError, UnknownIdError
from repro.core.registry import REGISTRY
from repro.events.log import EventLog
from repro.events.projections import ProjectionEngine
from repro.scenarios import CATALOG, TARGET_SYSTEMS, get_application
from repro.scenarios.builtin import builtin_applications
from repro.serve.coalesce import SingleFlight
from repro.serve.fleet import Fleet, _dump_json, error_payload
from repro.serve.service import DEFAULT_DEADLINE_SECONDS, validate_query
from repro.util.validation import check_int, nearest_ids

__all__ = ["FleetFrontend", "FleetServer"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Content Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Margin added to a request's own deadline before the front end gives up
#: on a worker frame (the worker enforces the real deadline; this only
#: guards against a hung process).
_FRAME_TIMEOUT_MARGIN = 10.0

#: Worker-frame timeout for batches that set no deadline.
_BATCH_FRAME_TIMEOUT = 300.0

#: Largest request body the front end reads; a bigger declaration is
#: refused before any of it is buffered.  The cells form of the full
#: batch over the 32 x 32 generated universe ``mixed:0:3000`` (27,648
#: cells) is 1.39 MB.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Longest a refused connection keeps reading after its answer (see
#: :meth:`FleetFrontend._linger`).
_LINGER_SECONDS = 1.0

#: Requests one connection has answered in a row before it yields the
#: event loop once.  An answer from memory never suspends, and neither
#: does reading a request the client already sent, so a pipelining client
#: would otherwise hold the loop for everything it has buffered.
_REQUESTS_PER_TURN = 8


class _ContentTooLarge(ValueError):
    """A request declared a body over :data:`MAX_BODY_BYTES` (HTTP 413)."""


def _deadline_ms(value) -> float:
    """A request's ``deadline_ms`` as a float; :class:`ValueError` (400)
    unless it is a finite number."""
    try:
        deadline_ms = float(value)
    except (TypeError, ValueError):
        deadline_ms = math.nan
    if not math.isfinite(deadline_ms):
        raise ValueError(f"deadline_ms must be a finite number, got {value!r}")
    return deadline_ms


def _study_metrics() -> tuple[int, ...]:
    return tuple(spec.number for spec in REGISTRY.table3())


class FleetFrontend:
    """Route, coalesce and splice requests over one :class:`Fleet`."""

    def __init__(self, fleet: Fleet, *, default_deadline: float = DEFAULT_DEADLINE_SECONDS):
        if not 0 < default_deadline < math.inf:
            raise ValueError(
                f"default_deadline must be a finite number of seconds > 0, "
                f"got {default_deadline!r}"
            )
        self.fleet = fleet
        self.default_deadline = default_deadline
        self.coalescer = SingleFlight()
        self.requests_total = 0
        self.batch_requests_total = 0
        self.batch_cells_total = 0
        self.batch_reroutes_total = 0
        self._server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None
        # Open connections (their handler tasks) and the subset waiting
        # for a request line, which stop() closes.
        self._connections: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()
        self._stopping = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Start the workers and bind the HTTP listener; returns the address."""
        await self.fleet.start()
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def stop(self) -> None:
        """The graceful drain: stop accepting, close idle keep-alive
        connections, answer in-flight requests with ``Connection: close``,
        then let the workers finish and close their event logs."""
        if self._server is not None:
            self._server.close()
            self._stopping = True
            for writer in self._idle:
                writer.close()  # EOF for a reader waiting on a request line
            if self._connections:
                await asyncio.wait(set(self._connections))
            await self._server.wait_closed()
            self._server = None
        await self.fleet.stop()

    # ------------------------------------------------------------------
    # HTTP/1.1 framing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        answered = 0
        try:
            while True:
                try:
                    request = await self._read_request(reader, writer)
                except ValueError as exc:
                    # Unparseable framing or an unread body: the stream
                    # position is lost, so answer once and hang up.
                    if isinstance(exc, _ContentTooLarge):
                        status = 413
                        payload = {"error": "ContentTooLarge", "message": str(exc)}
                    else:
                        mapped = error_payload(exc)
                        status, payload = mapped["status"], mapped["body"]
                    self._write_response(writer, status, payload, close=True)
                    await writer.drain()
                    await self._linger(reader, writer)
                    break
                if request is None:
                    break
                method, target, headers, body = request
                status, payload, retry_after = await self._dispatch(
                    method, target, body
                )
                close = (
                    self._stopping
                    or headers.get("connection", "").lower() == "close"
                )
                self._write_response(
                    writer, status, payload, retry_after=retry_after, close=close
                )
                await writer.drain()
                if close:
                    break
                answered += 1
                if answered % _REQUESTS_PER_TURN == 0:
                    await asyncio.sleep(0)  # let the other connections in
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            OSError,
        ):
            pass  # client went away; nothing to answer
        finally:
            self._connections.discard(task)
            try:
                writer.close()
            except OSError:
                pass

    @staticmethod
    async def _linger(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Half-close after a refusal, then discard what the client still
        sends for up to :data:`_LINGER_SECONDS`: closing a socket with
        unread input resets the connection, which can destroy the answer
        before the client reads it."""
        if writer.can_write_eof():
            writer.write_eof()
        loop = asyncio.get_running_loop()
        end = loop.time() + _LINGER_SECONDS
        try:
            while await asyncio.wait_for(reader.read(65536), end - loop.time()):
                pass
        except asyncio.TimeoutError:
            pass  # the client kept sending: close anyway

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        """One request as ``(method, target, headers, body)``; ``None`` at
        EOF or once the server is stopping.  Raises :class:`ValueError` on
        framing it cannot parse (``readline`` itself raises it for a line
        over the stream limit), and :class:`_ContentTooLarge` for a
        declared body over :data:`MAX_BODY_BYTES`."""
        if self._stopping:
            return None
        self._idle.add(writer)
        try:
            line = await reader.readline()
        finally:
            self._idle.discard(writer)
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ValueError(f"malformed request line {line[:80]!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length") or "0"
        if not length.isdecimal():
            raise ValueError(
                f"Content-Length must be a non-negative integer, got {length!r}"
            )
        if int(length) > MAX_BODY_BYTES:
            raise _ContentTooLarge(
                f"Content-Length {length} exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        body = await reader.readexactly(int(length))
        return method.upper(), target, headers, body

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        body: dict | bytes,
        *,
        retry_after: float | None = None,
        close: bool = False,
    ) -> None:
        """Write one response; ``body`` is a JSON-shaped dict or an answer
        already encoded as JSON bytes."""
        payload = body if isinstance(body, bytes) else _dump_json(body).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
        ]
        if retry_after is not None:
            # RFC 9110: integral seconds only; round up so clients never
            # retry before the hint.
            head.append(f"Retry-After: {max(1, round(retry_after + 0.5))}")
        head.append("Connection: close" if close else "Connection: keep-alive")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, target: str, body: bytes):
        """Route one request; returns ``(status, body, retry_after)``, the
        body a dict or encoded JSON bytes."""
        url = urlsplit(target)
        try:
            if method == "GET" and url.path == "/predict":
                return await self._predict(dict(parse_qsl(url.query)))
            if method == "POST" and url.path == "/predict/batch":
                return await self._predict_batch(body)
            if method == "GET" and url.path == "/healthz":
                return 200, await self._healthz(), None
            if method == "GET" and url.path == "/readyz":
                return await self._readyz()
            if method == "GET" and url.path == "/events/stats":
                return 200, await self._events_stats(), None
            if method == "GET" and url.path == "/catalog":
                from repro.serve.service import catalog_doc

                return 200, catalog_doc(), None
            return (
                404,
                {
                    "error": "NotFound",
                    "message": f"no route {method} {url.path!r}",
                    "routes": [
                        "GET /predict",
                        "POST /predict/batch",
                        "GET /healthz",
                        "GET /readyz",
                        "GET /events/stats",
                        "GET /catalog",
                    ],
                },
                None,
            )
        except Exception as exc:  # last-resort guard: JSON, never a traceback
            mapped = error_payload(exc)
            return mapped["status"], mapped["body"], mapped.get("retry_after")

    # ------------------------------------------------------------------
    # GET /predict
    # ------------------------------------------------------------------
    async def _predict(self, query: dict[str, str]):
        missing = [k for k in ("application", "cpus", "machine") if k not in query]
        if missing:
            return (
                400,
                {
                    "error": "MissingParameter",
                    "message": f"missing query parameter(s): {', '.join(missing)}",
                    "required": ["application", "cpus", "machine"],
                    "optional": ["metric", "deadline_ms"],
                },
                None,
            )
        try:
            deadline_ms = None
            if "deadline_ms" in query:
                deadline_ms = _deadline_ms(query["deadline_ms"])
            # Reject malformed traffic here, before any worker round-trip,
            # with exactly the in-process service's errors.
            app, _target, cpus, metric_num = validate_query(
                query["application"],
                query["cpus"],
                query["machine"],
                query.get("metric", 9),
            )
        except (UnknownIdError, ValueError, TypeError) as exc:
            mapped = error_payload(exc)
            return mapped["status"], mapped["body"], mapped.get("retry_after")

        self.requests_total += 1
        machine = query["machine"]
        budget = (
            self.default_deadline if deadline_ms is None else deadline_ms / 1000.0
        )
        key = (app.label, cpus, machine, metric_num)

        async def leader_call():
            worker = self.fleet.owner_of(app.label, cpus)
            response = await worker.call(
                "predict",
                {
                    "application": app.label,
                    "cpus": cpus,
                    "machine": machine,
                    "metric": metric_num,
                    "deadline_ms": deadline_ms,
                },
                timeout=budget + _FRAME_TIMEOUT_MARGIN,
            )
            return response

        try:
            response, coalesced = await self.coalescer.run(key, leader_call)
        except (OverloadedError,) as exc:
            mapped = error_payload(exc)
            return mapped["status"], mapped["body"], mapped.get("retry_after")
        if not response.get("ok", False):
            return (
                response.get("status", 500),
                response.get("body", {"error": "WorkerError"}),
                response.get("retry_after"),
            )
        result = dict(response["result"])
        result["coalesced"] = coalesced
        return 200, result, None

    # ------------------------------------------------------------------
    # POST /predict/batch
    # ------------------------------------------------------------------
    def _compile_batch(self, body: bytes):
        """Parse + validate the batch body into (rows, systems, metrics,
        wanted, deadline_ms); raises UnknownIdError/ValueError on bad input."""
        if body.strip():
            try:
                spec = json.loads(body)
            except ValueError:
                raise ValueError("request body must be a JSON object") from None
        else:
            spec = {}
        if not isinstance(spec, dict):
            raise ValueError(f"request body must be a JSON object, got {type(spec).__name__}")

        deadline_ms = spec.get("deadline_ms")
        if deadline_ms is not None:
            deadline_ms = _deadline_ms(deadline_ms)

        wanted = None  # the cells form: each worker keeps only its cells
        if "cells" in spec:
            # Insertion-ordered dicts: first appearance fixes the answer's order.
            row_keys: dict[tuple[str, int], None] = {}
            system_keys: dict[str, None] = {}
            metric_keys: dict[int, None] = {}
            # Each distinct metric key is resolved once.  Its type is part
            # of the memo key: JSON's true == 1 and 9.0 == 9 name no metric.
            numbers: dict[tuple[type, object], int] = {}
            wanted = set()
            for cell in spec["cells"]:
                if not isinstance(cell, (list, tuple)) or len(cell) != 4:
                    raise ValueError(
                        "each cell must be [application, cpus, system, metric], "
                        f"got {cell!r}"
                    )
                label, cpus, system, metric = cell
                label, system = str(label), str(system)
                cpus = check_int("cpus", cpus)
                try:
                    metric_num = numbers[type(metric), metric]
                except KeyError:
                    metric_num = REGISTRY.spec(metric).number
                    numbers[type(metric), metric] = metric_num
                except TypeError:  # unhashable, so no metric: raises UnknownIdError
                    metric_num = REGISTRY.spec(metric).number
                row_keys[label, cpus] = None
                system_keys[system] = None
                metric_keys[metric_num] = None
                wanted.add((label, cpus, system, metric_num))
            rows = list(row_keys)
            systems = list(system_keys)
            metrics = list(metric_keys)
        else:
            applications = spec.get("applications")
            if applications is None:
                # Default axes stay the paper's own matrix even when a
                # universe is mounted; generated ids must be named.
                applications = list(builtin_applications())
            systems = spec.get("systems", spec.get("machines", TARGET_SYSTEMS))
            metrics = [
                REGISTRY.spec(key).number
                for key in spec.get("metrics", _study_metrics())
            ]
            if "rows" in spec:
                rows = [
                    (str(label), check_int("cpus", cpus)) for label, cpus in spec["rows"]
                ]
            else:
                rows = []
                for label in applications:
                    app = get_application(str(label))
                    rows.extend((app.label, cpus) for cpus in app.cpu_counts)
            # Insertion-ordered, as above: a repeat counts once.
            rows = list(dict.fromkeys(rows))
            systems = list(dict.fromkeys(systems))
            metrics = list(dict.fromkeys(metrics))
        # Axis validation (cheap, front-end side; workers re-validate too).
        for label, cpus in rows:
            if not CATALOG.has_application(label):
                known = CATALOG.application_ids()
                raise UnknownIdError(
                    "application", label, known, nearest_ids(label, known)
                )
            if cpus <= 0:
                raise ValueError(f"cpus must be > 0, got {cpus!r}")
        for system in systems:
            if not CATALOG.has_machine(system):
                known = CATALOG.machine_ids()
                raise UnknownIdError(
                    "machine", system, known, nearest_ids(system, known)
                )
        return rows, systems, metrics, wanted, deadline_ms

    async def _predict_batch(self, body: bytes):
        try:
            rows, systems, metrics, wanted, deadline_ms = self._compile_batch(body)
        except (UnknownIdError, ValueError, TypeError) as exc:
            mapped = error_payload(exc)
            return mapped["status"], mapped["body"], mapped.get("retry_after")
        self.batch_requests_total += 1
        if not rows or not systems or not metrics:
            return 200, {"count": 0, "records": [], "workers": {}}, None

        timeout = (
            _BATCH_FRAME_TIMEOUT
            if deadline_ms is None
            else deadline_ms / 1000.0 + _FRAME_TIMEOUT_MARGIN
        )

        async def run_shard(shard: dict):
            """One worker's sub-batch; re-routes and retries once on death."""
            params = {
                **shard,
                "systems": systems,
                "metrics": metrics,
                "deadline_ms": deadline_ms,
            }
            worker = self.fleet.owner_of(*shard["rows"][0])
            try:
                return worker.name, await worker.call("batch", params, timeout=timeout)
            except OverloadedError:
                # The owner died or backlogged mid-batch: the ring has
                # (or will have) re-routed its range — retry once against
                # the new owner rather than failing the whole batch.
                self.batch_reroutes_total += 1
                await asyncio.sleep(self.fleet.respawn_delay)
                worker = self.fleet.owner_of(*shard["rows"][0])
                return worker.name, await worker.call(
                    "batch", params, timeout=timeout
                )

        # Compile the request into per-shard sub-batches: every row routes
        # to the worker whose caches own its trace identity, and in the
        # cells form each cell goes with its row.
        owners = {row: self.fleet.owner_of(*row).name for row in rows}
        shards: dict[str, dict] = {}
        for row, name in owners.items():
            shard = shards.setdefault(
                name, {"rows": [], "cells": None if wanted is None else []}
            )
            shard["rows"].append(row)
        for cell in wanted or ():
            shards[owners[cell[:2]]]["cells"].append(cell)

        try:
            shard_results = await asyncio.gather(
                *(run_shard(shard) for shard in shards.values())
            )
        except OverloadedError as exc:
            mapped = error_payload(exc)
            return mapped["status"], mapped["body"], mapped.get("retry_after")
        worker_counts: dict[str, int] = {}
        runs: dict[tuple[str, str, int], tuple[int, str]] = {}
        for worker_name, response in shard_results:
            if not response.get("ok", False):
                return (
                    response.get("status", 500),
                    response.get("body", {"error": "WorkerError"}),
                    response.get("retry_after"),
                )
            worker_counts.setdefault(worker_name, 0)
            for label, system, cpus, count, text in response["result"]["runs"]:
                runs[label, system, cpus] = count, text
                worker_counts[worker_name] += count

        # Splice the runs in the engine's canonical emission order —
        # (label, system, row), each axis in request order, a run holding
        # its cell's metrics in request order — so any sharding reproduces
        # the serial full-matrix byte stream.
        rows_of: dict[str, list[int]] = {}
        for label, cpus in rows:
            rows_of.setdefault(label, []).append(cpus)
        texts: list[str] = []
        count = 0
        for label, cpus_list in rows_of.items():
            for system in systems:
                for cpus in cpus_list:
                    run = runs.get((label, system, cpus))
                    if run is not None:
                        count += run[0]
                        texts.append(run[1])
        priced = sum(worker_counts.values())
        if count != priced:
            raise RuntimeError(
                f"batch answer placed {count} of the {priced} records its "
                "workers priced"
            )
        self.batch_cells_total += count
        answer = (
            f'{{"count": {count}, "records": [{", ".join(texts)}], '
            f'"workers": {_dump_json(worker_counts)}}}'
        )
        return 200, answer.encode("utf-8"), None

    # ------------------------------------------------------------------
    # health surfaces
    # ------------------------------------------------------------------
    async def _healthz(self) -> dict:
        workers = await self.fleet.worker_health()
        alive = self.fleet.alive_count()
        degraded = alive < self.fleet.n_workers or any(
            "health_error" in row
            or row.get("health", {}).get("status") == "degraded"
            for row in workers.values()
        )
        return {
            "status": "degraded" if degraded else "ok",
            "fleet": {
                "workers": self.fleet.n_workers,
                "alive": alive,
                "deaths_total": self.fleet.deaths_total,
                "respawns_total": self.fleet.respawns_total,
            },
            "ring": {
                "nodes": list(self.fleet.ring.nodes),
                "vnodes": self.fleet.ring.vnodes,
                "shares": {
                    node: round(share, 6)
                    for node, share in self.fleet.ring.shares().items()
                },
            },
            "coalescing": self.coalescer.counters(),
            "frontend": {
                "requests_total": self.requests_total,
                "batch_requests_total": self.batch_requests_total,
                "batch_cells_total": self.batch_cells_total,
                "batch_reroutes_total": self.batch_reroutes_total,
            },
            "workers": workers,
        }

    async def _readyz(self):
        alive = self.fleet.alive_count()
        if alive < self.fleet.n_workers:
            return (
                503,
                {
                    "ready": False,
                    "reason": f"{self.fleet.n_workers - alive} worker(s) down",
                    "alive": alive,
                    "workers": self.fleet.n_workers,
                },
                None,
            )
        # Each not-ready worker with its own reason (shedding, open
        # breakers) or the error that kept it from answering.
        not_ready: dict[str, dict] = {}
        for name, handle in self.fleet.workers.items():
            if handle.shedding:
                not_ready[name] = {
                    "ready": False,
                    "shedding": True,
                    "pending": len(handle.pending),
                }
                continue
            try:
                response = await handle.call("ready", {}, timeout=2.0)
            except Exception as exc:
                not_ready[name] = {"error": type(exc).__name__}
                continue
            result = response.get("result", {})
            if not result.get("ready", False):
                not_ready[name] = result or response.get("body", {})
        ok = not not_ready
        body = {
            "ready": ok,
            "alive": alive,
            "workers": self.fleet.n_workers,
            "not_ready": dict(sorted(not_ready.items())),
        }
        return (200 if ok else 503), body, None

    async def _events_stats(self) -> dict:
        """Fold every writer stream in the shared log dir into one view.

        Rebuilt from the raw segments on each request (with forked
        workers the streams live in N other processes) in an executor
        thread so segment reads never stall the event loop.
        """
        events_dir = self.fleet.config.get("events_dir")
        if not events_dir:
            return {"enabled": False}
        loop = asyncio.get_running_loop()
        views = await loop.run_in_executor(
            None, lambda: ProjectionEngine.rebuild(events_dir).views()
        )
        return {
            "enabled": True,
            "events_dir": str(events_dir),
            "fleet": {
                "deaths_total": self.fleet.deaths_total,
                "respawns_total": self.fleet.respawns_total,
            },
            "views": views,
        }


class FleetServer:
    """Background-thread harness around :class:`FleetFrontend`.

    Synchronous ``start()``/``stop()`` so the CLI, tests, the benchmark
    and the chaos script can boot a server — one in-process worker or a
    forked fleet — without owning an event loop themselves.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        service_config: dict | None = None,
        default_deadline: float = DEFAULT_DEADLINE_SECONDS,
        **fleet_kwargs,
    ):
        self._host = host
        self._port = port
        self.events = None
        if (service_config or {}).get("events_dir") and "events" not in fleet_kwargs:
            # The supervisor gets its own writer stream in the shared
            # directory; workers each open theirs inside _build_service.
            self.events = EventLog(
                service_config["events_dir"], writer="frontend", fsync="commit"
            )
            fleet_kwargs["events"] = self.events
        self.fleet = Fleet(workers, service_config=service_config, **fleet_kwargs)
        self.frontend = FleetFrontend(self.fleet, default_deadline=default_deadline)
        self.address: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._boot_error: BaseException | None = None

    # ------------------------------------------------------------------
    def start(self, timeout: float = 30.0) -> tuple[str, int]:
        """Boot fleet + listener in a daemon thread; returns (host, port)."""
        self._thread = threading.Thread(
            target=self._run, name="fleet-frontend", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError("fleet front end did not start in time")
        if self._boot_error is not None:
            raise self._boot_error
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        try:
            self.address = await self.frontend.start(self._host, self._port)
        except BaseException as exc:  # surface spawn/bind failures to start()
            self._boot_error = exc
            self._started.set()
            return
        self._started.set()
        await self._shutdown.wait()
        await self.frontend.stop()
        if self.events is not None:
            try:
                self.events.commit()
                self.events.close()
            except OSError:
                pass  # best-effort: audit flush must not block shutdown

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._shutdown is not None:
            try:
                self._loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "FleetServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
