"""The engine backends behind the asyncio front end.

Every backend worker owns a full
:class:`~repro.serve.service.PredictionService` — its own
:class:`~repro.engine.Engine` over the process's trace, probe and row
memos, circuit breakers and degradation ladder.  A worker answers a
point request whose inputs are all in memory on the thread that read
it: such a prediction costs less than the hop to another thread and
back.  A request that may hold its thread for long — a batch, a point
request that may probe, trace or read the store, or any point request
while the live fault plan can stall a stage — goes to the worker's
small thread pool, so point queries overtake an in-flight batch and a
cold one.  The worker count picks the transport:

* **one worker** (the default of ``repro-study serve``) runs the service
  inside the front end's process: :class:`LocalHandle` hands each request
  to :func:`_submit` on the event loop, which answers it there or queues
  it on the pool — no fork and no frames.  An answer made on the loop
  finishes the call in the loop turn that read the request: no wake-up
  byte, no timer, no task switch;
* **N >= 2 workers** are forked processes, since CPU-bound engine work in
  one process serializes on the GIL.  Each talks to the front end over
  one pre-opened ``socketpair`` carrying length-prefixed JSON frames
  (4-byte little-endian length + UTF-8 body), and its frame-reader
  thread answers or queues each request.  Requests carry an ``id``;
  workers answer out of order, and the front end matches responses to
  futures by id.

A batch reply carries its records already encoded: one
``[label, system, cpus, count, text]`` run per (application, system,
cpus) cell, ``text`` the cell's ``count`` records as the items of a JSON
array (see :func:`_batch_runs`).  The front end joins the texts into its
answer without decoding a record, and on the one-worker backend the
encoding runs on the pool thread that priced the batch.

Both transports sit under one :meth:`WorkerHandle.call`, so the pending
bound, the EWMA ``Retry-After`` and the timeout mapping exist once.  A
request queued on the pool is stamped when it reaches its worker, and
its wait for a pool thread is charged to its deadline.  Those are the
only two overload gates a request passes: the handle sheds beyond its
pending bound, and a worker sheds a queued request whose deadline ran
out while it waited for a thread.  Every 429 leaves through the handle,
which stamps its one ``Retry-After`` estimate on any reply lacking one.
The ``health`` probe passes no pending bound, so ``/healthz`` still
reports a worker's breakers and shed counts while its backlog is full.

Supervision of forked workers is kernel-grade, not protocol-grade: the
front end watches each worker's ``Process.sentinel`` through
``loop.add_reader``, so a ``SIGKILL``-ed worker is detected the moment
the process dies, whatever state its socket is in.
Death removes the worker from the shard ring (its key range re-routes to
the survivors — and *only* its range moves, the ring's minimal-movement
property), fails the worker's in-flight requests with retry-able
:class:`~repro.core.errors.OverloadedError` (HTTP 429, never a 500), and
schedules a respawn; the replacement re-joins the ring under the same
name and reclaims exactly its old key range.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import multiprocessing
import os
import signal
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import groupby
from operator import itemgetter

from repro.core.errors import OverloadedError, ServiceUnavailableError, UnknownIdError
from repro.events.types import Event, WorkerDied, WorkerRespawned
from repro.scenarios import BASE_SYSTEM
from repro.serve.shard import DEFAULT_VNODES, ShardRing
from repro.tracing.metasim import DEFAULT_SAMPLE_SIZE
from repro.tracing.store import trace_key

__all__ = [
    "Fleet",
    "LocalHandle",
    "ProcessHandle",
    "ServiceTimeEwma",
    "WorkerHandle",
    "error_payload",
]

log = logging.getLogger(__name__)

#: Per-worker pool threads for the requests that may hold one for long
#: (batches, point requests not answerable from memory): enough that
#: slow requests wait side by side, small enough that the GIL stays the
#: real limit.
DEFAULT_WORKER_THREADS = 4

#: Per-worker pending-request bound at the front end; beyond it the
#: worker is considered backlogged and new arrivals shed with 429.
DEFAULT_MAX_PENDING = 64

#: Keys a worker's service config may carry (see :func:`_build_service`).
SERVICE_CONFIG_KEYS = frozenset(
    "base_system breaker cache_model default_deadline events_dir fault_stages "
    "faults mode noise sample_size stage_fraction stage_timeouts store threads "
    "universe".split()
)


#: ``json.dumps(..., sort_keys=True)`` without building an encoder per
#: call: every reply frame, batch run and HTTP body of the serve layer.
_dump_json = json.JSONEncoder(sort_keys=True).encode


# ---------------------------------------------------------------------------
# framing (both sides)
# ---------------------------------------------------------------------------
def _send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(len(payload).to_bytes(4, "little") + payload)


def _recv_exact(rfile, n: int) -> bytes | None:
    data = rfile.read(n)
    if data is None or len(data) < n:
        return None  # EOF: the peer is gone
    return data


# ---------------------------------------------------------------------------
# error mapping (shared by worker replies and the front end's own rejects)
# ---------------------------------------------------------------------------
def error_payload(exc: BaseException) -> dict:
    """One exception → the HTTP-shaped ``{status, body, retry_after}``.

    The serve layer's one taxonomy mapping, expressed as data so it can
    cross the worker/front-end boundary in a frame: invalid ids and
    malformed requests 400, shed 429, every-rung-failed 503, any other
    error a structured 500 — never a traceback page.
    """
    if isinstance(exc, UnknownIdError):
        return {
            "status": 400,
            "body": {
                "error": "UnknownId",
                "message": str(exc),
                "kind": exc.kind,
                "value": str(exc.value),
                "known": list(exc.known),
                "nearest": list(exc.nearest),
            },
        }
    if isinstance(exc, (ValueError, TypeError)):
        return {"status": 400, "body": {"error": "BadParameter", "message": str(exc)}}
    if isinstance(exc, OverloadedError):
        return {
            "status": 429,
            "body": {
                "error": "Overloaded",
                "message": str(exc),
                "retry_after_seconds": exc.retry_after,
            },
            "retry_after": exc.retry_after,
        }
    if isinstance(exc, ServiceUnavailableError):
        return {
            "status": 503,
            "body": {
                "error": "ServiceUnavailable",
                "message": str(exc),
                "retry_after_seconds": exc.retry_after,
            },
            "retry_after": exc.retry_after,
        }
    return {"status": 500, "body": {"error": type(exc).__name__, "message": str(exc)}}


# ---------------------------------------------------------------------------
# the worker side (a forked process, or the front end's own pool)
# ---------------------------------------------------------------------------
def _build_service(config: dict, worker_id: str | None = None):
    """Construct a worker's PredictionService from the plain-dict config.

    Plain dict (not a dataclass) because it crosses the process boundary
    under both fork and spawn start methods.  When the config names an
    ``events_dir``, each worker appends to its *own* writer stream in
    that directory (stream id = worker name; ``"serve"`` for the one
    in-process service) — per-writer streams are what lets N processes
    share one log directory without sharing files.  A key outside
    :data:`SERVICE_CONFIG_KEYS` raises :class:`ValueError` naming it.
    """
    from repro.events.log import EventLog
    from repro.serve.breaker import BreakerBoard
    from repro.serve.service import STAGES, PredictionService
    from repro.util.faults import FaultPlan

    unknown = sorted(set(config) - SERVICE_CONFIG_KEYS)
    if unknown:
        raise ValueError(
            f"unknown service config key(s) {unknown}; "
            f"known: {sorted(SERVICE_CONFIG_KEYS)}"
        )
    if config.get("universe"):
        # Mount the front end's scenario universe before any id resolves:
        # the ref (generator spec or TOML path) rebuilds the same catalog
        # in this process under fork and spawn alike.
        from repro.scenarios import mount_universe

        mount_universe(config["universe"])
    faults = config.get("faults")
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults)
    breakers = None
    if config.get("breaker") is not None:
        breakers = BreakerBoard(STAGES, **config["breaker"])
    events = None
    if config.get("events_dir"):
        events = EventLog(
            config["events_dir"], writer=worker_id or "serve", fsync="commit"
        )
    return PredictionService(
        events=events,
        base_system=config.get("base_system", BASE_SYSTEM),
        mode=config.get("mode", "relative"),
        sample_size=config.get("sample_size", DEFAULT_SAMPLE_SIZE),
        cache_model=config.get("cache_model", "analytic"),
        noise=config.get("noise", True),
        store=config.get("store"),
        default_deadline=config.get("default_deadline", 1.0),
        stage_fraction=config.get("stage_fraction", 0.5),
        stage_timeouts=config.get("stage_timeouts"),
        breakers=breakers,
        faults=faults,
        fault_stages=tuple(config.get("fault_stages", STAGES)),
    )


def _submit(
    pool: ThreadPoolExecutor,
    service,
    worker_id: str,
    msg: dict,
    reply,
    pooled_reply=None,
) -> None:
    """Answer one request on the calling thread, or queue it on the pool.

    A batch, and a point request the service does not call quick (see
    :meth:`~repro.serve.service.PredictionService.is_quick`), may hold a
    thread for long: those queue on ``pool``, stamped with their arrival
    on the service's clock (the clock their deadline runs on), and reply
    through ``pooled_reply`` (``reply`` when not given) on a pool
    thread.  Every other request is answered through ``reply`` before
    this returns: a prediction from memory costs less than the hop to a
    pool thread and back, and ``health`` and ``ready`` never enter a
    stage.
    """
    op = msg.get("op")
    if op == "batch" or (
        op == "predict"
        and not service.is_quick(
            msg.get("application"),
            msg.get("cpus"),
            msg.get("machine"),
            msg.get("metric", 9),
        )
    ):
        msg["arrived"] = service._clock()
        pool.submit(_handle_frame, service, worker_id, msg, pooled_reply or reply)
    else:
        _handle_frame(service, worker_id, msg, reply)


def _remaining_budget(service, msg: dict, default: float | None) -> float | None:
    """The request's deadline (``default`` when it names none) less the
    time it waited for a pool thread, in seconds.

    Raises :class:`OverloadedError` (429) when the wait used up the whole
    budget: a request that can no longer meet its deadline is shed, never
    served late.  The shed counts in the service's ``shed_total``; its
    ``Retry-After`` is left to the front end's handle.  A request
    answered inline carries no arrival stamp: it waited for no thread.
    """
    deadline_ms = msg.get("deadline_ms")
    budget = default if deadline_ms is None else float(deadline_ms) / 1000.0
    arrived = msg.get("arrived")
    if arrived is None or budget is None or not budget > 0:
        return budget  # no wait to charge, unbounded, or invalid (the service 400s)
    waited = service._clock() - arrived
    if waited >= budget:
        with service._state_lock:
            service.shed_total += 1
        raise OverloadedError(
            f"waited {waited:.3f}s for a worker thread, past the request's "
            f"{budget:g}s deadline"
        )
    return budget - waited


def _batch_runs(records, cells=None) -> list[list]:
    """A batch's records as ``[label, system, cpus, count, text]`` runs,
    one per (application, system, cpus) cell, ``text`` its records
    encoded once as the items of a JSON array.

    ``records`` come in the engine's canonical (application, system,
    cpus, metric) order, so a cell's records are contiguous.  The cells
    form's ``cells`` keeps only the records it names.
    """
    if cells is not None:
        wanted = {tuple(cell) for cell in cells}
        records = [record for record in records if record[:4] in wanted]
    runs = []
    for (label, system, cpus), run in groupby(records, itemgetter(0, 2, 1)):
        run = list(run)
        runs.append([label, system, cpus, len(run), _dump_json(run)[1:-1]])
    return runs


def _handle_frame(service, worker_id: str, msg: dict, reply) -> None:
    """Serve one request and hand its reply frame to ``reply``."""
    rid = msg.get("id")
    op = msg.get("op")
    try:
        if op == "predict":
            served = service.predict(
                msg["application"],
                msg["cpus"],
                msg["machine"],
                msg.get("metric", 9),
                deadline_seconds=_remaining_budget(
                    service, msg, service.default_deadline
                ),
            )
            body = served.to_dict()
            body["worker"] = worker_id
            reply({"id": rid, "ok": True, "result": body})
        elif op == "batch":
            records = service.predict_cells(
                msg["rows"],
                msg["systems"],
                msg["metrics"],
                deadline_seconds=_remaining_budget(service, msg, None),
            )
            runs = _batch_runs(records, msg.get("cells"))
            reply({"id": rid, "ok": True, "result": {"worker": worker_id, "runs": runs}})
        elif op == "health":
            body = service.health()
            body["worker"] = worker_id
            body["pid"] = os.getpid()
            reply({"id": rid, "ok": True, "result": body})
        elif op == "ready":
            reply({"id": rid, "ok": True, "result": service.ready()[1]})
        else:
            reply(
                {
                    "id": rid,
                    "ok": False,
                    "status": 400,
                    "body": {"error": "BadParameter", "message": f"unknown op {op!r}"},
                }
            )
    except BaseException as exc:  # noqa: BLE001 — every error becomes a frame
        reply({"id": rid, "ok": False, **error_payload(exc)})


def _worker_main(
    sock: socket.socket,
    worker_id: str,
    config: dict,
    frontend_socks: tuple[socket.socket, ...],
) -> None:
    """Entry point of one forked engine worker process.

    ``frontend_socks`` are the front end's ends of every worker socketpair,
    this one's included, which a forked child inherits; closing them first
    leaves the front end the only holder, so its close reaches each worker
    as EOF.
    """
    for inherited in frontend_socks:
        inherited.close()
    # The front end owns Ctrl-C; a worker must only exit on socket EOF
    # (orderly shutdown), a graceful SIGTERM, or a kill (chaos /
    # supervisor restart).
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    # SIGTERM ends the read loop below: at once while it waits for the
    # next frame, otherwise once the request in hand, which this thread
    # may be answering, is answered or queued.  The finally block then
    # drains in-flight work and closes the event log, and the socket
    # stays open for their replies, so a TERM'd worker loses nothing it
    # already accepted.
    reading = stopping = False

    def _sigterm(signum, frame):  # noqa: ARG001 - signal handler signature
        nonlocal stopping
        stopping = True
        if reading:
            raise SystemExit(0)

    signal.signal(signal.SIGTERM, _sigterm)
    service = _build_service(config, worker_id)
    pool = ThreadPoolExecutor(
        max_workers=config.get("threads", DEFAULT_WORKER_THREADS),
        thread_name_prefix=f"fleet-{worker_id}",
    )
    write_lock = threading.Lock()

    def reply(payload: dict) -> None:
        data = _dump_json(payload).encode("utf-8")
        with write_lock:
            try:
                _send_frame(sock, data)
            except OSError:  # front end went away mid-reply; exit quietly
                pass

    rfile = sock.makefile("rb")
    try:
        while not stopping:
            reading = True
            header = _recv_exact(rfile, 4)
            reading = False
            if header is None:
                break  # front end closed our pipe: orderly shutdown
            length = int.from_bytes(header, "little")
            payload = _recv_exact(rfile, length)
            if payload is None:
                break
            try:
                msg = json.loads(payload)
            except ValueError:
                continue  # torn frame; the front end will time out the id
            _submit(pool, service, worker_id, msg, reply)
    finally:
        # Graceful drain: stop accepting (the read loop is done), finish
        # every admitted frame, then fsync the event log before the
        # socket closes.
        pool.shutdown(wait=True)
        try:
            service.drain()
        except Exception:  # pragma: no cover - drain must never mask exit
            log.exception("fleet worker %s drain failed", worker_id)
        try:
            sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# the front-end side
# ---------------------------------------------------------------------------
class ServiceTimeEwma:
    """EWMA of a worker's observed call times, scaled into a retry hint.

    Clients back off in proportion to the congestion actually seen:
    the backlog ahead of them times the recent per-call time.  Runs on
    the front end's event loop only, so it needs no lock.
    """

    #: Smoothing factor (higher = more reactive).
    alpha = 0.2

    def __init__(self):
        self.seconds = 0.05  # optimistic prior; converges fast

    def observe(self, service_seconds: float) -> None:
        """Fold one observed call time into the estimate."""
        if service_seconds >= 0:
            self.seconds += self.alpha * (service_seconds - self.seconds)

    def retry_after(self, backlog: int) -> float:
        """Suggested client back-off: backlog ahead x EWMA call time."""
        return max(0.01, self.seconds * backlog)


class WorkerHandle:
    """Front-end view of one worker: pending futures and the EWMA gate.

    :meth:`call` is the one request path of both backends; a subclass
    supplies the transport (``_send``) and the lifecycle (``connect``,
    ``close`` — stop taking requests — and ``wait_closed`` — finish and
    flush them).
    """

    #: The worker's process (``None`` for the in-process backend).
    proc = None

    def __init__(self, name: str, pid: int | None, *, max_pending: int):
        self.name = name
        self.pid = pid
        self.alive = False
        self.max_pending = max_pending
        self.pending: dict[int, asyncio.Future] = {}
        self.ewma = ServiceTimeEwma()
        self.calls_total = 0
        self.shed_total = 0
        self._seq = 0

    # ------------------------------------------------------------------
    def retry_after(self) -> float:
        """The one ``Retry-After`` estimate of every 429 this worker causes."""
        return self.ewma.retry_after(len(self.pending) + 1)

    @property
    def shedding(self) -> bool:
        """True while the pending bound sheds every new arrival."""
        return len(self.pending) >= self.max_pending

    async def call(self, op: str, params: dict, *, timeout: float | None = None) -> dict:
        """One request/response; sheds beyond the pending bound.

        The ``health`` op is exempt from the bound: a full backlog is when
        the health report matters most.  A 429 reply from the worker (its
        pool-wait shed) carries no ``Retry-After``; this fills in the
        handle's estimate.  A reply already in when ``_send`` returns (one
        answered inline on the event loop) is returned without awaiting,
        so the call ends in the loop turn that made it; any other is
        awaited under ``timeout``.
        """
        if not self.alive:
            raise OverloadedError(
                f"worker {self.name} is restarting", retry_after=self.retry_after()
            )
        if self.shedding and op != "health":
            self.shed_total += 1
            raise OverloadedError(
                f"worker {self.name} backlog full "
                f"({len(self.pending)} requests pending)",
                retry_after=self.retry_after(),
            )
        loop = asyncio.get_running_loop()
        self._seq += 1
        rid = self._seq
        future = loop.create_future()
        self.pending[rid] = future
        self.calls_total += 1
        start = loop.time()
        try:
            await self._send({"id": rid, "op": op, **params})
            if future.done():
                response = future.result()
            elif timeout is None:
                response = await future
            else:
                response = await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            raise ServiceUnavailableError(
                f"worker {self.name} did not answer within {timeout:.3f}s"
            ) from None
        except (ConnectionResetError, BrokenPipeError, OSError):
            raise OverloadedError(
                f"worker {self.name} connection lost", retry_after=self.retry_after()
            ) from None
        finally:
            self.pending.pop(rid, None)
        self.ewma.observe(loop.time() - start)
        if response.get("status") == 429 and response.get("retry_after") is None:
            hint = self.retry_after()
            response["retry_after"] = response["body"]["retry_after_seconds"] = hint
        return response

    def _resolve(self, msg: dict) -> None:
        """Hand one worker reply to the call waiting for its id."""
        future = self.pending.get(msg.get("id"))
        if future is not None and not future.done():
            future.set_result(msg)

    def fail_pending(self, exc: BaseException) -> None:
        """Resolve every in-flight future with ``exc`` (worker died)."""
        for future in list(self.pending.values()):
            if not future.done():
                future.set_exception(exc)
        self.pending.clear()


class LocalHandle(WorkerHandle):
    """The one-worker backend: the service runs in the front end's process.

    No fork and no frames: :meth:`_send` hands the request dict to
    :func:`_submit` on the event loop.  A reply made there resolves the
    call's future before :meth:`_send` returns, so
    :meth:`WorkerHandle.call` returns it in the same loop turn; a reply
    made on a pool thread returns to the loop through
    ``call_soon_threadsafe``.
    """

    def __init__(self, name: str, config: dict, *, max_pending: int):
        super().__init__(name, os.getpid(), max_pending=max_pending)
        self.service = _build_service(config)
        self._pool = ThreadPoolExecutor(
            max_workers=config.get("threads", DEFAULT_WORKER_THREADS),
            thread_name_prefix=f"serve-{name}",
        )
        self._loop: asyncio.AbstractEventLoop | None = None

    async def connect(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.alive = True

    async def _send(self, msg: dict) -> None:
        _submit(
            self._pool, self.service, self.name, msg, self._resolve, self._pooled_reply
        )

    def _pooled_reply(self, msg: dict) -> None:
        try:
            self._loop.call_soon_threadsafe(self._resolve, msg)
        except RuntimeError:
            pass  # the loop is gone: nobody waits for this answer any more

    def close(self) -> None:
        self.alive = False

    async def wait_closed(self) -> None:
        # Finish every accepted request (the loop keeps delivering their
        # answers meanwhile), then close the event log.
        await asyncio.get_running_loop().run_in_executor(None, self._pool.shutdown)
        self.service.drain()


class ProcessHandle(WorkerHandle):
    """A forked worker: its process and the framed socket to it."""

    def __init__(self, name: str, proc, sock: socket.socket, *, max_pending: int):
        super().__init__(name, proc.pid, max_pending=max_pending)
        self.proc = proc
        self._sock = sock
        self._writer = None
        self._reader_task = None

    async def connect(self) -> None:
        reader, writer = await asyncio.open_connection(sock=self._sock)
        self._writer = writer
        self.alive = True
        self._reader_task = asyncio.create_task(
            self._read_loop(reader), name=f"fleet-read-{self.name}"
        )

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                header = await reader.readexactly(4)
                length = int.from_bytes(header, "little")
                payload = await reader.readexactly(length)
                self._resolve(json.loads(payload))
        except (asyncio.IncompleteReadError, ConnectionResetError, OSError):
            pass  # death is handled authoritatively by the sentinel watch
        except asyncio.CancelledError:
            raise

    async def _send(self, msg: dict) -> None:
        frame = json.dumps(msg).encode("utf-8")
        self._writer.write(len(frame).to_bytes(4, "little") + frame)
        await self._writer.drain()

    def close(self) -> None:
        self.alive = False
        if self._reader_task is not None:
            self._reader_task.cancel()
        if self._writer is not None:
            try:
                self._writer.close()  # EOF on the socket: the shutdown signal
            except (OSError, RuntimeError):
                pass

    async def wait_closed(self) -> None:
        # Let the loop finish closing the transport (the worker's EOF),
        # then wait for the worker's drain without blocking the loop.
        if self._writer is not None:
            try:
                await self._writer.wait_closed()
            except OSError:
                pass  # the worker died first; the socket is gone either way
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.proc.join, 2.0)
        if self.proc.is_alive():
            self.proc.terminate()
            await loop.run_in_executor(None, self.proc.join, 2.0)


class Fleet:
    """Start, route to, supervise and respawn the engine workers.

    Parameters
    ----------
    workers:
        Number of engine workers: 1 runs the service in this process
        (:class:`LocalHandle`), N >= 2 forks N worker processes.
    service_config:
        Plain-dict :class:`~repro.serve.service.PredictionService`
        configuration every worker builds its service from (see
        ``_build_service``).
    vnodes:
        Virtual nodes per worker on the shard ring.
    worker_threads, max_pending:
        Per-worker request threads and front-end pending bound.
    respawn, respawn_delay:
        Whether (and how soon) a dead worker process is replaced.  The
        chaos harness disables respawn to hold the degraded topology
        still.
    events:
        Optional :class:`~repro.events.log.EventLog` (the supervisor's
        own writer stream) that records worker deaths and respawns.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        service_config: dict | None = None,
        vnodes: int = DEFAULT_VNODES,
        worker_threads: int = DEFAULT_WORKER_THREADS,
        max_pending: int = DEFAULT_MAX_PENDING,
        respawn: bool = True,
        respawn_delay: float = 0.2,
        events=None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.n_workers = workers
        self.events = events
        self.config = dict(service_config or {})
        self.config.setdefault("threads", worker_threads)
        self.ring = ShardRing(vnodes=vnodes)
        self.workers: dict[str, WorkerHandle] = {}
        self.max_pending = max_pending
        self.respawn = respawn
        self.respawn_delay = respawn_delay
        self.deaths_total = 0
        self.respawns_total = 0
        self._closing = False
        self._tasks: set[asyncio.Task] = set()
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        for i in range(self.n_workers):
            await self._launch(f"w{i}")

    async def _launch(self, name: str) -> None:
        if self.n_workers == 1:
            handle = LocalHandle(name, self.config, max_pending=self.max_pending)
        else:
            parent_sock, child_sock = socket.socketpair()
            frontend_socks = (parent_sock,) + tuple(
                handle._sock for handle in self.workers.values()
            )
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_sock, name, self.config, frontend_socks),
                name=f"repro-fleet-{name}",
                daemon=True,
            )
            proc.start()
            child_sock.close()  # the parent's copy; the child holds its own
            handle = ProcessHandle(
                name, proc, parent_sock, max_pending=self.max_pending
            )
        await handle.connect()
        self.workers[name] = handle
        self.ring.add(name)
        if handle.proc is not None:
            # Kernel-grade liveness: the sentinel fd becomes readable the
            # moment the process dies, socket state notwithstanding.
            asyncio.get_running_loop().add_reader(
                handle.proc.sentinel,
                functools.partial(self._on_sentinel, name, handle.proc),
            )

    def _on_sentinel(self, name: str, proc) -> None:
        loop = asyncio.get_running_loop()
        try:
            loop.remove_reader(proc.sentinel)
        except (OSError, ValueError):
            pass
        handle = self.workers.get(name)
        if handle is None or handle.proc is not proc:
            return  # stale callback for an already-replaced incarnation
        self._on_death(name, handle)

    def _on_death(self, name: str, handle: WorkerHandle) -> None:
        if not handle.alive:
            return
        self.deaths_total += 1
        log.warning("fleet worker %s (pid %s) died", name, handle.pid)
        self._emit(WorkerDied(worker=name, pid=handle.pid or 0))
        self.ring.remove(name)
        handle.close()
        # In-flight work on the dead worker is shed, not erred: clients
        # get 429 + Retry-After and re-route to the survivors on retry.
        handle.fail_pending(
            OverloadedError(
                f"worker {name} died mid-request",
                retry_after=max(0.05, self.respawn_delay),
            )
        )
        if self.respawn and not self._closing:
            task = asyncio.get_running_loop().create_task(self._respawn(name))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _respawn(self, name: str) -> None:
        await asyncio.sleep(self.respawn_delay)
        if self._closing:
            return
        try:
            await self._launch(name)
            self.respawns_total += 1
            log.info("fleet worker %s respawned", name)
            self._emit(WorkerRespawned(worker=name, pid=self.workers[name].pid or 0))
        except Exception:  # pragma: no cover - spawn failure is environmental
            log.exception("fleet worker %s respawn failed", name)

    def _emit(self, event: Event) -> None:
        """Best-effort append to the supervisor's event stream."""
        if self.events is None:
            return
        try:
            self.events.append(event)
        except (OSError, ValueError):  # pragma: no cover - audit is best-effort
            log.warning("fleet event append failed", exc_info=True)

    async def stop(self) -> None:
        """Stop taking requests, then let every worker finish and flush."""
        self._closing = True
        for task in list(self._tasks):
            task.cancel()
        loop = asyncio.get_running_loop()
        for handle in self.workers.values():
            if handle.proc is not None:
                try:
                    loop.remove_reader(handle.proc.sentinel)
                except (OSError, ValueError):
                    pass
            handle.close()
        for handle in self.workers.values():
            await handle.wait_closed()
        self.workers.clear()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_key(self, application: str, cpus: int) -> str:
        """The store's content digest for this trace identity."""
        return trace_key(
            application,
            cpus,
            self.config.get("base_system", BASE_SYSTEM),
            self.config.get("sample_size", DEFAULT_SAMPLE_SIZE),
            False,
            self.config.get("cache_model", "analytic"),
        )

    def owner_of(self, application: str, cpus: int) -> WorkerHandle:
        """The live worker owning this (application, cpus) shard."""
        if len(self.ring) == 1:
            # One member owns every key: skip the digest and the ring point.
            return self.workers[self.ring.nodes[0]]
        try:
            name = self.ring.node_for(self.shard_key(application, cpus))
        except LookupError:
            raise OverloadedError(
                "no live fleet workers",
                retry_after=max(0.05, self.respawn_delay),
            ) from None
        return self.workers[name]

    def alive_count(self) -> int:
        return sum(1 for handle in self.workers.values() if handle.alive)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    async def worker_health(self, timeout: float = 2.0) -> dict:
        """Per-worker health replies, gathered concurrently.

        A probe that raises or gets an error reply leaves ``health_error``
        (the error's name) in the worker's row instead of ``health``.
        """

        async def one(handle: WorkerHandle) -> tuple[str, dict]:
            base = {
                "alive": handle.alive,
                "pid": handle.pid,
                "pending": len(handle.pending),
                "calls_total": handle.calls_total,
                "shed_total": handle.shed_total,
                "ewma_seconds": round(handle.ewma.seconds, 6),
            }
            if not handle.alive:
                return handle.name, base
            try:
                response = await handle.call("health", {}, timeout=timeout)
            except Exception as exc:
                base["health_error"] = type(exc).__name__
                return handle.name, base
            if response.get("ok"):
                base["health"] = response["result"]
            else:
                base["health_error"] = response["body"]["error"]
            return handle.name, base

        rows = await asyncio.gather(
            *(one(handle) for handle in list(self.workers.values()))
        )
        return dict(rows)
