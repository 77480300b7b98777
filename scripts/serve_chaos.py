#!/usr/bin/env python
"""Chaos gate for the resilient prediction service (CI ``serve-chaos`` job).

Boots the real HTTP server (the default one-worker, in-process server)
with a seeded :class:`~repro.util.faults.FaultPlan` stalling the convolve
stage, fires concurrent ``/predict`` requests at distinct cells (so no two
coalesce into one service call), and asserts the service's resilience
contract end to end:

* **zero unhandled 500s** — every response is a well-formed JSON success,
  a structured 4xx, or a 503 with ``Retry-After``; nothing escapes as a
  traceback page;
* **p100 latency under the deadline** — the slowest request, measured
  client-side, finishes inside its deadline budget plus a fixed HTTP
  overhead allowance (the degradation ladder, not luck, is what makes
  this hold while convolve is stalled);
* **degradation is marked** — while faults are active, convolve-bearing
  answers arrive as ``degraded: true`` with ``served_metric`` below the
  request.

Everything is seeded and the stall durations are real but small, so the
gate is deterministic in behaviour and fast in wall-clock.  Any violated
assertion exits 1.  A point request waits for the worker's thread pool
while a stalling plan is live or its inputs are not yet in memory, as
at every first request to a distinct cell; a crash-only plan
(``--inject-faults crash=1.0,seed=7``) never sleeps, so its requests
fail fast instead of stalling.

This script is deliberately a *thin* live-HTTP smoke: it proves the real
server wiring (sockets, worker threads, JSON mapping) under faults.  The full
recovery contract — cooldown expiry, half-open probes, return to full
fidelity — lives in the deterministic simulation harness
(``repro-study sim run --scenario serve-recovery``), where virtual time
makes it exact instead of a wall-clock polling race.

With ``--fleet N`` the gate instead targets the multi-process worker
fleet: it boots N workers behind the asyncio front end, SIGKILLs one
worker mid-load, and asserts the fleet's supervision contract:

* while the worker is down, its shard's requests **re-route** to the
  survivors (200s from a different worker) or shed as **429** — never a
  500 and never a hang;
* the death is visible on ``/healthz`` (``deaths_total``, ring
  membership) and ``/readyz`` goes 503 while degraded;
* the supervisor **respawns** the worker, the ring re-adds it, its old
  shard routes back to it, and ``/readyz`` returns 200.

Usage::

    PYTHONPATH=src python scripts/serve_chaos.py [--requests 32]
        [--deadline-ms 2000] [--inject-faults stall=1.0,...] [--verbose]
    PYTHONPATH=src python scripts/serve_chaos.py --fleet 2 [--verbose]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
import urllib.error
import urllib.request

from repro.scenarios import TARGET_SYSTEMS, get_application, get_machine
from repro.scenarios.builtin import builtin_applications
from repro.serve.frontend import FleetServer

#: Client-side allowance on top of the request deadline: loopback HTTP,
#: JSON (de)serialisation and thread scheduling on a busy CI runner.
HTTP_OVERHEAD_SECONDS = 1.0

#: Breaker cooldown — short, so the recovery phase is fast.
COOLDOWN_SECONDS = 0.5


def distinct_queries(n: int) -> list[str]:
    """``n`` valid metric-9 queries, no two for the same cell."""
    queries = [
        f"application={label}&cpus={cpus}&machine={system}&metric=9"
        for system in TARGET_SYSTEMS
        for label in builtin_applications()
        for cpus in get_application(label).cpu_counts
        if cpus <= get_machine(system).cpus
    ]
    if n > len(queries):
        raise SystemExit(f"serve-chaos: at most {len(queries)} distinct cells")
    return queries[:n]


def fetch(port: int, path: str) -> tuple[int, dict, float]:
    """GET ``path``; returns (status, body, seconds). Raises on non-JSON."""
    start = time.perf_counter()
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as resp:
            return resp.status, json.load(resp), time.perf_counter() - start
    except urllib.error.HTTPError as err:
        return err.code, json.load(err), time.perf_counter() - start


def fleet_main(args) -> int:
    """The ``--fleet`` leg: kill a worker mid-load, assert the contract."""
    from repro.serve.frontend import FleetServer

    server = FleetServer(args.fleet, respawn_delay=0.3)
    host, port = server.start()
    failures: list[str] = []
    # Victim and probe cell are chosen while the ring is stable, before
    # any load: one (application, cpus) the victim's caches own.
    victim = server.fleet.workers["w0"]
    victim_pid = victim.proc.pid
    probe_path = None
    for cpus in (32, 64, 128):
        if server.fleet.ring.node_for(server.fleet.shard_key("AVUS-standard", cpus)) == "w0":
            probe_path = (
                f"/predict?application=AVUS-standard&cpus={cpus}"
                f"&machine=ARL_Xeon&metric=9&deadline_ms=30000"
            )
            break
    if probe_path is None:  # all three cells hash elsewhere; use any cell
        probe_path = (
            "/predict?application=AVUS-standard&cpus=64"
            "&machine=ARL_Xeon&metric=9&deadline_ms=30000"
        )

    stop = threading.Event()
    load_results: list[tuple[int, dict, float]] = []
    load_lock = threading.Lock()

    def load_worker() -> None:
        while not stop.is_set():
            try:
                result = fetch(port, probe_path)
            except Exception as exc:  # connection-level failure = violation
                result = (599, {"error": type(exc).__name__}, 0.0)
            with load_lock:
                load_results.append(result)

    threads = [threading.Thread(target=load_worker) for _ in range(4)]
    try:
        fetch(port, probe_path)  # warm once so load starts from 200s
        for t in threads:
            t.start()
        time.sleep(0.2)  # load in flight

        # ------------------------------------------------------------------
        # Phase 1: SIGKILL one worker mid-load.
        # ------------------------------------------------------------------
        os.kill(victim_pid, signal.SIGKILL)
        deadline = time.time() + 5.0
        death_seen = False
        while time.time() < deadline:
            status, body, _ = fetch(port, "/healthz")
            if body["fleet"]["deaths_total"] >= 1:
                death_seen = True
                break
            time.sleep(0.02)
        if not death_seen:
            failures.append("worker death never surfaced on /healthz")

        # ------------------------------------------------------------------
        # Phase 2: while (possibly still) degraded, the dead worker's shard
        # re-routes — 200 from a survivor or a retryable 429, never a 500.
        # ------------------------------------------------------------------
        rerouted = False
        for _ in range(20):
            status, body, _ = fetch(port, probe_path)
            if status == 200:
                rerouted = True
                break
            if status not in (200, 429):
                failures.append(
                    f"dead worker's shard answered {status}: {body}"
                )
                break
            time.sleep(0.05)
        if not rerouted:
            failures.append("dead worker's shard never re-routed to a survivor")

        # ------------------------------------------------------------------
        # Phase 3: recovery — respawn, ring re-add, ready again.
        # ------------------------------------------------------------------
        deadline = time.time() + 15.0
        recovered = False
        while time.time() < deadline:
            status, body, _ = fetch(port, "/readyz")
            if status == 200:
                recovered = True
                break
            time.sleep(0.1)
        if not recovered:
            failures.append("/readyz never recovered after the respawn")
        status, health, _ = fetch(port, "/healthz")
        if health["fleet"]["respawns_total"] < 1:
            failures.append(f"no respawn recorded: {health['fleet']}")
        if health["fleet"]["alive"] != args.fleet:
            failures.append(
                f"fleet not back to {args.fleet} live workers: {health['fleet']}"
            )
        if "w0" not in health["ring"]["nodes"]:
            failures.append(f"ring never re-added w0: {health['ring']}")
        status, body, _ = fetch(port, probe_path)
        if status != 200:
            failures.append(f"post-recovery request failed: {status} {body}")
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=5)
        server.stop()

    statuses = [r[0] for r in load_results]
    unhandled = sorted({s for s in statuses if s not in (200, 429)})
    print(
        f"serve-chaos --fleet {args.fleet}: {len(statuses)} requests under "
        f"kill -> {statuses.count(200)}x200, {statuses.count(429)}x429, "
        f"unhandled {unhandled or 'none'}; rerouted={rerouted}, "
        f"respawns={health['fleet']['respawns_total']}"
    )
    if args.verbose:
        for status, body, seconds in load_results[:50]:
            print(f"  {status} {seconds:.3f}s {json.dumps(body)[:100]}")
    if unhandled:
        failures.append(
            f"unhandled statuses under worker kill: {unhandled} "
            "(contract: 200s and 429s only, never a 500)"
        )
    if failures:
        for failure in failures:
            print(f"serve-chaos: FAIL: {failure}", file=sys.stderr)
        return 1
    print("serve-chaos: all fleet resilience assertions held")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=32, metavar="N")
    parser.add_argument("--deadline-ms", type=float, default=2000.0)
    parser.add_argument(
        "--fleet",
        type=int,
        default=None,
        metavar="N",
        help="target the N-worker fleet instead: kill a worker mid-load "
        "and assert re-route, 429-not-500, and respawn recovery",
    )
    parser.add_argument(
        "--inject-faults",
        default="stall=1.0,stall_seconds=0.3,seed=7",
        metavar="SPEC",
        help="FaultPlan spec applied to the convolve stage "
        "(default: always-stall 0.3s, seed 7)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.fleet is not None:
        if args.fleet < 2:
            parser.error("--fleet needs at least 2 workers to kill one")
        return fleet_main(args)

    deadline_seconds = args.deadline_ms / 1000.0
    server = FleetServer(
        1,
        default_deadline=deadline_seconds,
        service_config={
            "noise": False,
            "faults": args.inject_faults,
            "fault_stages": ["convolve"],
            "default_deadline": deadline_seconds,
            "stage_timeouts": {"convolve": 0.05},
            "breaker": {
                "failure_threshold": 1,
                "cooldown_seconds": COOLDOWN_SECONDS,
            },
        },
    )
    _, port = server.start()
    failures: list[str] = []
    try:
        # ------------------------------------------------------------------
        # Phase 1: concurrent fire under active faults.
        # ------------------------------------------------------------------
        results: list[tuple[int, dict, float]] = [None] * args.requests
        paths = [
            f"/predict?{query}&deadline_ms={args.deadline_ms:g}"
            for query in distinct_queries(args.requests)
        ]

        def worker(i: int) -> None:
            results[i] = fetch(port, paths[i])

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(args.requests)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        statuses = [r[0] for r in results]
        latencies = [r[2] for r in results]
        p100 = max(latencies)
        served = [r[1] for r in results if r[0] == 200]
        degraded = [b for b in served if b.get("degraded")]
        unhandled = [s for s in statuses if s not in (200, 429, 503)]
        print(
            f"serve-chaos: {args.requests} concurrent requests -> "
            f"{statuses.count(200)}x200 ({len(degraded)} degraded), "
            f"{statuses.count(429)}x429, {statuses.count(503)}x503; "
            f"p100 latency {p100:.3f}s (budget {deadline_seconds:g}s "
            f"+ {HTTP_OVERHEAD_SECONDS:g}s overhead)"
        )
        if args.verbose:
            for status, body, seconds in results:
                print(f"  {status} {seconds:.3f}s {json.dumps(body)[:120]}")

        if unhandled:
            failures.append(f"unhandled statuses: {sorted(set(unhandled))}")
        if not served:
            failures.append("no request succeeded at all")
        if not degraded:
            failures.append(
                "faults were active but no response was marked degraded"
            )
        for body in degraded:
            if body["served_metric"] >= body["requested_metric"]:
                failures.append(
                    f"degraded response did not ladder down: {body}"
                )
        if p100 > deadline_seconds + HTTP_OVERHEAD_SECONDS:
            failures.append(
                f"p100 latency {p100:.3f}s exceeds deadline budget "
                f"{deadline_seconds:g}s + overhead {HTTP_OVERHEAD_SECONDS:g}s"
            )
        status, body, _ = fetch(port, "/healthz")
        if status != 200:
            failures.append(f"/healthz returned {status}")
        requests = [row["health"]["requests"] for row in body["workers"].values()]
        if sum(r["total"] for r in requests) < statuses.count(200):
            failures.append(f"healthz counters inconsistent: {requests}")
        # Recovery (cooldown expiry -> half-open probe -> full fidelity) is
        # asserted by the deterministic simulation harness under virtual
        # time (`repro-study sim run --scenario serve-recovery`), not by
        # wall-clock polling here — the polling loop this replaces was the
        # suite's one flaky gate.
    finally:
        server.stop()

    if failures:
        for failure in failures:
            print(f"serve-chaos: FAIL: {failure}", file=sys.stderr)
        return 1
    print("serve-chaos: all resilience assertions held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
