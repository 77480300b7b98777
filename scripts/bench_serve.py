#!/usr/bin/env python
"""Closed-loop HTTP benchmark and throughput gate for the serving fleet.

Boots real servers (asyncio front end + workers) on loopback and
measures the legs below end to end — HTTP parse, shard routing, worker
round-trip, JSON back:

* ``point_single``  — closed-loop ``GET /predict`` against the default
  one-worker server (the service in the front end's process): the
  baseline a single engine process can serve;
* ``point_fleet``   — the same load against ``--workers`` processes
  (shard routing keeps each worker's caches hot for its slice);
* ``coalesced``     — bursts of *identical* concurrent requests: the
  single-flight map collapses each burst to one engine call, so
  client-observed throughput decouples from engine throughput
  (the coalesce ratio is reported from ``/healthz``);
* ``batch``         — ``POST /predict/batch`` over the paper's full
  145-run / 1305-prediction matrix: cells ride the tensorized
  ``run_matrix`` path instead of N point lookups.

The report lands in the committed benchmark file (``--output``,
default ``BENCH_study.json``) under a ``"serve"`` key, merged so the
study-bench sections survive.

Gates (any failure exits 1):

* ``--gate-serve-pps FLOOR`` — absolute floor on batch-leg
  predictions/sec;
* ``--gate-batch-speedup X`` — the batch leg must out-serve the
  1-worker point baseline by at least ``X``x, measured in the same
  invocation so shared-runner drift cancels (this is the CI gate's
  ">= 5x" contract).

Usage::

    PYTHONPATH=src python scripts/bench_serve.py [--workers 2]
        [--requests 200] [--clients 8] [--bursts 8] [--burst-size 32]
        [--batch-repeats 3] [--gate-serve-pps FLOOR]
        [--gate-batch-speedup X] [--output BENCH_study.json]
"""

from __future__ import annotations

import argparse
import http.client
import json
import platform
import sys
import threading
import time
from pathlib import Path

from repro.apps.suite import APPLICATIONS, get_application
from repro.machines.registry import get_machine
from repro.serve.frontend import FleetServer
from repro.util.io import write_atomic

#: Request deadline for bench traffic — generous; the bench measures
#: throughput, not deadline pressure.
DEADLINE_MS = 30000.0

#: Target machine for the point legs (any mid-size system works; all
#: cells stay eligible).
POINT_MACHINE = "ARL_Xeon"


def _point_paths() -> list[str]:
    """The point-leg working set: every eligible (application, cpus) row."""
    paths = []
    machine_cpus = get_machine(POINT_MACHINE).cpus
    for label in APPLICATIONS:
        app = get_application(label)
        for cpus in app.cpu_counts:
            if cpus > machine_cpus:
                continue  # the paper leaves such cells blank
            paths.append(
                f"/predict?application={label}&cpus={cpus}"
                f"&machine={POINT_MACHINE}&metric=9&deadline_ms={DEADLINE_MS:g}"
            )
    return paths


def _get(conn: http.client.HTTPConnection, path: str) -> tuple[int, dict]:
    conn.request("GET", path)
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def closed_loop(
    address: tuple[str, int], paths: list[str], total: int, clients: int
) -> tuple[float, list[int]]:
    """``total`` requests over ``clients`` keep-alive connections.

    Closed loop: each client fires its next request the moment the
    previous answer lands.  Returns (wall_seconds, statuses).
    """
    statuses: list[list[int]] = [[] for _ in range(clients)]
    per_client = total // clients

    def run(client: int) -> None:
        conn = http.client.HTTPConnection(*address, timeout=60)
        try:
            for i in range(per_client):
                path = paths[(client * per_client + i) % len(paths)]
                status, _ = _get(conn, path)
                statuses[client].append(status)
        finally:
            conn.close()

    threads = [threading.Thread(target=run, args=(c,)) for c in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return wall, [s for client in statuses for s in client]


def coalesce_leg(
    address: tuple[str, int], bursts: int, burst_size: int, paths: list[str]
) -> tuple[float, list[int]]:
    """``bursts`` rounds of ``burst_size`` *identical* concurrent GETs."""
    statuses: list[int] = []
    lock = threading.Lock()
    start = time.perf_counter()
    for burst in range(bursts):
        path = paths[burst % len(paths)]

        def run() -> None:
            conn = http.client.HTTPConnection(*address, timeout=60)
            try:
                status, _ = _get(conn, path)
                with lock:
                    statuses.append(status)
            finally:
                conn.close()

        threads = [threading.Thread(target=run) for _ in range(burst_size)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return time.perf_counter() - start, statuses


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2, metavar="N")
    parser.add_argument("--requests", type=int, default=200, metavar="N")
    parser.add_argument("--clients", type=int, default=8, metavar="N")
    parser.add_argument("--bursts", type=int, default=8, metavar="N")
    parser.add_argument("--burst-size", type=int, default=32, metavar="N")
    parser.add_argument("--batch-repeats", type=int, default=3, metavar="N")
    parser.add_argument(
        "--gate-serve-pps",
        type=float,
        default=None,
        metavar="FLOOR",
        help="fail if batch-leg predictions/sec falls below FLOOR",
    )
    parser.add_argument(
        "--gate-batch-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail if the batch leg does not out-serve the 1-worker point "
        "baseline by at least X times (same-run comparison)",
    )
    parser.add_argument("--output", default="BENCH_study.json")
    args = parser.parse_args(argv)

    paths = _point_paths()
    results: dict[str, dict] = {}
    failures: list[str] = []

    def check_statuses(leg: str, statuses: list[int]) -> None:
        bad = sorted({s for s in statuses if s != 200})
        if bad:
            failures.append(f"{leg}: non-200 statuses {bad}")

    # ------------------------------------------------------------------
    # Leg 1: single-worker point baseline.
    # ------------------------------------------------------------------
    with FleetServer(1, default_deadline=DEADLINE_MS / 1000.0) as single:
        closed_loop(single.address, paths, len(paths), 1)  # warm every cell
        wall, statuses = closed_loop(
            single.address, paths, args.requests, args.clients
        )
        check_statuses("point_single", statuses)
        point_single_pps = len(statuses) / wall
        results["point_single"] = {
            "workers": 1,
            "requests": len(statuses),
            "seconds": round(wall, 4),
            "predictions_per_second": round(point_single_pps, 1),
        }
        print(
            f"point_single  {wall:7.3f}s  ({point_single_pps:,.0f} predictions/s)"
        )

    # ------------------------------------------------------------------
    # Legs 2-4 share one fleet.
    # ------------------------------------------------------------------
    with FleetServer(args.workers, default_deadline=DEADLINE_MS / 1000.0) as fleet:
        address = fleet.address
        closed_loop(address, paths, len(paths), 1)  # warm every shard
        wall, statuses = closed_loop(address, paths, args.requests, args.clients)
        check_statuses("point_fleet", statuses)
        point_fleet_pps = len(statuses) / wall
        results["point_fleet"] = {
            "workers": args.workers,
            "requests": len(statuses),
            "seconds": round(wall, 4),
            "predictions_per_second": round(point_fleet_pps, 1),
        }
        print(
            f"point_fleet   {wall:7.3f}s  ({point_fleet_pps:,.0f} predictions/s)"
        )

        wall, statuses = coalesce_leg(address, args.bursts, args.burst_size, paths)
        check_statuses("coalesced", statuses)
        conn = http.client.HTTPConnection(*address, timeout=60)
        _, health = _get(conn, "/healthz")
        conn.close()
        co = health["coalescing"]
        answered = co["leaders_total"] + co["followers_total"]
        ratio = co["followers_total"] / answered if answered else 0.0
        results["coalesced"] = {
            "bursts": args.bursts,
            "burst_size": args.burst_size,
            "seconds": round(wall, 4),
            "requests_per_second": round(len(statuses) / wall, 1),
            "followers_total": co["followers_total"],
            "leaders_total": co["leaders_total"],
            "coalesce_ratio": round(ratio, 4),
        }
        print(
            f"coalesced     {wall:7.3f}s  "
            f"({len(statuses) / wall:,.0f} responses/s, "
            f"{ratio:.0%} served by coalescing)"
        )

        best, count = float("inf"), None
        batch_times = []
        for _ in range(args.batch_repeats):
            conn = http.client.HTTPConnection(*address, timeout=600)
            t0 = time.perf_counter()
            conn.request(
                "POST",
                "/predict/batch",
                body=b"{}",
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            body = json.loads(resp.read())
            dt = time.perf_counter() - t0
            conn.close()
            if resp.status != 200:
                failures.append(f"batch: status {resp.status}: {body}")
                break
            count = body["count"]
            batch_times.append(dt)
            best = min(best, dt)
        batch_pps = (count or 0) / best if best < float("inf") else 0.0
        results["batch"] = {
            "workers": args.workers,
            "cells": count,
            "best_seconds": round(best, 4) if best < float("inf") else None,
            "all_seconds": [round(t, 4) for t in batch_times],
            "predictions_per_second": round(batch_pps, 1),
        }
        print(f"batch         {best:7.3f}s  ({batch_pps:,.0f} predictions/s)")

    speedup = batch_pps / point_single_pps if point_single_pps else 0.0
    print(f"\nbatch vs 1-worker point baseline: {speedup:.1f}x")

    # ------------------------------------------------------------------
    # Merge the serve section into the committed benchmark report.
    # ------------------------------------------------------------------
    out = Path(args.output)
    report = json.loads(out.read_text()) if out.exists() else {}
    report["serve"] = {
        "results": results,
        "batch_speedup_vs_point_single": round(speedup, 1),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    write_atomic(out, json.dumps(report, indent=2) + "\n")
    print(f"report written to {out} (serve section)")

    if args.gate_serve_pps is not None:
        if batch_pps < args.gate_serve_pps:
            failures.append(
                f"batch {batch_pps:,.0f} predictions/s is below the "
                f"{args.gate_serve_pps:,.0f} floor"
            )
        else:
            print(
                f"gate ok: batch {batch_pps:,.0f} predictions/s >= "
                f"{args.gate_serve_pps:,.0f} floor"
            )
    if args.gate_batch_speedup is not None:
        if speedup < args.gate_batch_speedup:
            failures.append(
                f"batch leg is only {speedup:.1f}x the 1-worker point "
                f"baseline (need >= {args.gate_batch_speedup:g}x)"
            )
        else:
            print(
                f"gate ok: batch leg {speedup:.1f}x >= "
                f"{args.gate_batch_speedup:g}x point baseline"
            )

    if failures:
        for failure in failures:
            print(f"bench-serve: FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench-serve: all gates held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
