"""The benchmark's HTTP load generator: one process, keep-alive connections.

Point phases send ``GET /predict`` requests over a fixed number of
persistent HTTP/1.1 connections (at most the machine's core count):

* a **closed loop**, where each connection sends its next request as soon
  as the previous answer arrives (callers that wait for a reply);
* an **open-loop ladder** of offered rates, where requests fall due on a
  fixed schedule whatever the server does (independent users).  Each is
  timed from its due time, so a stall also delays the requests queued
  behind it, and the generator records how late it sent each one.

Every answer is checked against its expected value; a wrong or degraded
answer, an error status or a dropped connection is a failed request.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import time

from reducer import median, percentile, step_verdict

#: After a step's last due time, requests not yet sent within this many
#: seconds are abandoned and count as failed.
DRAIN_GRACE_S = 1.0

#: Idle gap before each ladder step.  Longer than the minimum TCP
#: retransmission timeout (200 ms), so the connections' delayed-ACK state
#: left by the previous phase has reset and each step starts alike.
PHASE_GAP_S = 0.5

#: The event loop's timers fire up to a millisecond or two late, and later
#: when the CPU has gone idle.  At steps whose requests are at least
#: :data:`SPIN_SPACING` spins apart, the generator sleeps until this long
#: before a due time and spins through the rest, so the latency of an idle
#: server is not the generator's own lateness.
SPIN_S = 0.002
SPIN_SPACING = 5

#: Slices of each closed-loop part, with the machine's speed timed between
#: them: it can change within a second.
CLOSED_SLICES = 3


class Connection:
    """One persistent HTTP/1.1 connection (hand-rolled, stdlib only)."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
        if body or method == "POST":
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        self.writer.write(head.encode("latin-1") + b"\r\n" + body)
        if body:
            await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()


def point_ok(status: int, payload: bytes, expected: float) -> bool:
    """A point answer is correct: 200, not degraded, the expected value."""
    if status != 200:
        return False
    body = json.loads(payload)
    return body.get("degraded") is False and body.get("predicted_seconds") == expected


async def _send(conn: Connection, request) -> tuple[float, float, bool]:
    path, expected = request
    sent = time.perf_counter()
    try:
        status, payload = await conn.request("GET", path)
        done = time.perf_counter()
        ok = point_ok(status, payload, expected)
    except (OSError, ConnectionError, ValueError, asyncio.IncompleteReadError):
        done, ok = time.perf_counter(), False
    return sent, done, ok


async def closed_loop(conns, requests, start_index: int, seconds: float, cpu) -> dict:
    """Each connection sends back-to-back for ``seconds``.

    ``cpu()`` returns the server processes' CPU seconds so far; the
    phase records how much they used.
    """
    order = itertools.count(start_index)
    samples: list[tuple[float, float, bool]] = []
    cpu_start = cpu()
    start = time.perf_counter()
    stop = start + seconds

    async def run(conn):
        while time.perf_counter() < stop:
            samples.append(await _send(conn, requests[next(order) % len(requests)]))

    await asyncio.gather(*(run(conn) for conn in conns))
    wall = time.perf_counter() - start
    ok = sum(1 for s in samples if s[2])
    return {
        "cpu_s": cpu() - cpu_start,
        "window": (start, start + wall),
        "attempted": len(samples),
        "ok": ok,
        "failed": len(samples) - ok,
        "wall_s": wall,
        "wire_ms": [(s[1] - s[0]) * 1e3 for s in samples],
        "next_index": next(order),
    }


async def open_step(conns, requests, start_index: int, rate: float, seconds: float, cpu) -> dict:
    """Offer ``rate`` requests/s for ``seconds`` on a fixed schedule.

    ``cpu()`` returns the server processes' CPU seconds so far; the step
    records how much they used until its last answer.
    """
    n = max(1, int(round(rate * seconds)))
    cpu_start = cpu()
    queue: asyncio.Queue = asyncio.Queue()
    results: list = [None] * n
    t0 = time.perf_counter() + 0.005
    cutoff = t0 + n / rate + DRAIN_GRACE_S

    spin = SPIN_S if 1.0 / rate >= SPIN_SPACING * SPIN_S else 0.0

    async def schedule():
        for i in range(n):
            due = t0 + i / rate
            delay = due - spin - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            while time.perf_counter() < due:
                pass
            queue.put_nowait(i)
        for _ in conns:
            queue.put_nowait(None)

    async def run(conn):
        while (i := await queue.get()) is not None:
            due = t0 + i / rate
            if time.perf_counter() > cutoff:
                results[i] = (due, math.inf, math.inf, False)
                continue
            sent, done, ok = await _send(
                conn, requests[(start_index + i) % len(requests)]
            )
            results[i] = (due, sent, done, ok)

    await asyncio.gather(schedule(), *(run(conn) for conn in conns))
    cpu_s = cpu() - cpu_start
    sent = [r for r in results if r[1] != math.inf]
    end = max((r[2] for r in sent), default=time.perf_counter())
    latencies = [(r[2] - r[0]) * 1e3 if r[3] else math.inf for r in results]
    lateness = [(r[1] - r[0]) * 1e3 for r in sent]
    verdict = step_verdict(latencies, lateness)
    # The step spans its n request intervals plus the last answer's wait.
    wall = end - t0 + 1.0 / rate
    return {
        "rate": rate,
        "window": (t0, end),
        "attempted": n,
        "sent": len(sent),
        "ok": verdict["ok"],
        "failed": sum(1 for r in sent if not r[3]),
        "cpu_s": cpu_s,
        "ok_share": verdict["ok_share"],
        "backlog": verdict["backlog"],
        "passed": verdict["passed"],
        "achieved_rps": verdict["ok"] / wall,
        "p50_ms": percentile(latencies, 50),
        "p90_ms": percentile(latencies, 90),
        "p99_ms": percentile(latencies, 99),
        "late_p50_ms": percentile(lateness, 50) if lateness else math.inf,
        "late_p99_ms": percentile(lateness, 99) if lateness else math.inf,
        "lateness_ms": lateness,
        "wire_ms": [(r[2] - r[1]) * 1e3 for r in sent],
        "next_index": start_index + n,
    }


async def closed_slices(conns, requests, index: int, seconds: float, cpu, reference):
    """A closed loop of ``seconds`` as :data:`CLOSED_SLICES` slices.

    ``reference()`` times the machine's speed (in ms) before the first
    slice and after each, while no request is in flight; each slice keeps
    the mean of the two around it.  Returns (slices, next request index).
    """
    slices = []
    before = reference()
    for _ in range(CLOSED_SLICES):
        part = await closed_loop(conns, requests, index, seconds / CLOSED_SLICES, cpu)
        after = reference()
        part["reference_ms"] = (before + after) / 2
        slices.append(part)
        index, before = part["next_index"], after
    return slices, index


async def closed_phase(host, port, requests, *, connections, index, seconds, cpu, reference):
    """:func:`closed_slices` on fresh connections to one server."""
    conns = [Connection(host, port) for _ in range(connections)]
    await asyncio.gather(*(conn.open() for conn in conns))
    try:
        return await closed_slices(conns, requests, index, seconds, cpu, reference)
    finally:
        for conn in conns:
            conn.close()


def summarise_closed(slices) -> dict:
    """Totals over closed-loop slices; ``cpu_loops`` counts each slice's
    CPU time in reference loops at the speed around it."""
    total = lambda key: sum(part[key] for part in slices)  # noqa: E731
    closed = {
        "windows": [part["window"] for part in slices],
        "attempted": total("attempted"),
        "ok": total("ok"),
        "failed": total("failed"),
        "wall_s": total("wall_s"),
        "cpu_s": total("cpu_s"),
        "cpu_loops": sum(1e3 * part["cpu_s"] / part["reference_ms"] for part in slices),
        "wire_ms": [ms for part in slices for ms in part["wire_ms"]],
        "reference_ms": total("reference_ms") / len(slices),
    }
    closed["rps"] = closed["ok"] / closed["wall_s"]
    return closed


async def point_phases(
    host: str,
    port: int,
    requests,
    *,
    connections: int,
    start_index: int,
    closed_s: float,
    rates,
    first_step_s: float,
    step_s: float,
    cpu,
    reference,
) -> dict:
    """Half the closed loop, the ladder until its first failing step, then
    the other half of the closed loop.

    Splitting the closed loop spreads its samples over the serve block.
    The first step runs ``first_step_s`` (its median latency is reported
    on its own, so it gets more samples), the others ``step_s``.
    """
    conns = [Connection(host, port) for _ in range(connections)]
    await asyncio.gather(*(conn.open() for conn in conns))
    try:
        slices, index = await closed_slices(
            conns, requests, start_index, closed_s / 2, cpu, reference
        )
        steps = []
        for i, rate in enumerate(rates):
            await asyncio.sleep(PHASE_GAP_S)
            seconds = first_step_s if i == 0 else step_s
            step = await open_step(conns, requests, index, rate, seconds, cpu)
            index = step["next_index"]
            steps.append(step)
            if not step["passed"]:
                break
        await asyncio.sleep(PHASE_GAP_S)
        second, _ = await closed_slices(conns, requests, index, closed_s / 2, cpu, reference)
    finally:
        for conn in conns:
            conn.close()
    return {"closed_slices": slices + second, "steps": steps}


async def batch_phase(host: str, port: int, body: bytes, seconds: float, check) -> dict:
    """Repeated ``POST /predict/batch`` on one connection for ``seconds``.

    Each call is timed from send until the whole answer has arrived;
    ``check(payload)`` runs after the clock stops.
    """
    conn = Connection(host, port)
    await conn.open()
    times, failed = [], 0
    start = time.perf_counter()
    try:
        while not times or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            status, payload = await conn.request("POST", "/predict/batch", body)
            elapsed = time.perf_counter() - t0
            times.append(elapsed)
            if status != 200 or not check(payload):
                failed += 1
    finally:
        conn.close()
    return {
        "window": (start, time.perf_counter()),
        "attempted": len(times),
        "failed": failed,
        "times_s": times,
        "median_s": median(times),
    }
